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
    "sweep": "a0c05f063b6cfa770c342f70c21cf59462c76e3e9d12d8c33a5b3828e4fa90cd",
    "field": "d188c533105ebca853cde6e57baf02b8166232899b93b433238b6618037888db",
    "verify": "d2f40316a867044769d426636b27c7c42c1da1071bfe641c8d0ea6c80cf474e4",
}


def test_workload_outputs_keep_their_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "tools" / "output_digest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split() for line in proc.stdout.splitlines())
    assert got == DIGESTS
