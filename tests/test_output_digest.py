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
    "sweep": "12c3594a8485722cceca069f34ce1ddaafb17a893079c4ed1f9294cdda6ea66f",
    "field": "d2e8a007802f80888f91d81f0cc4f6b3f3cb30b9b689991b83a1f3c68d165d17",
    "verify": "7f4af9f4921f37a207c680dbcf70d803ec2717ddf676722794062e2f410921ad",
}


def test_workload_outputs_keep_their_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "tools" / "output_digest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split() for line in proc.stdout.splitlines())
    assert got == DIGESTS
