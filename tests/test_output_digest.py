"""The benchmark workloads' outputs, pinned bit for bit.

Runs ``tests/tools/output_digest.py`` (about 1.5 s), which hashes every
output of seeds 1-10 of each workload.  A change that moves any bit of a
solve, a mapping, a written field or a verification report changes a
digest here; such a change must update the pin and say why.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "sweep": "53e3a1282dfc4f366290784a62de31ce9c2efb86c3e93a89dac160f8832f1ab9",
    "field": "04ae0e1262fa5528bab6e2b25523f335463169503d8533f0b20795ad57d4024f",
    "verify": "8ad4ab8a89687d3d11ce78396a27453760a0640d3cc282cd78a3260d3be6b776",
}


def test_workload_outputs_keep_their_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "tools" / "output_digest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split() for line in proc.stdout.splitlines())
    assert got == DIGESTS
