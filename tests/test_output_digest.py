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
    "sweep": "96356d8431cc9121a9e4b1c4dff81d4f6945a42a7f0ecb7a3dcd36fdc69b0541",
    "field": "d188c533105ebca853cde6e57baf02b8166232899b93b433238b6618037888db",
    "verify": "f3b1a497d5701a66e9d24cc87bc1c4a17ee45e912bf117dc2a62a86ad619b303",
}


def test_workload_outputs_keep_their_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "tools" / "output_digest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split() for line in proc.stdout.splitlines())
    assert got == DIGESTS
