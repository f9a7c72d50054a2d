"""Every narrative walkthrough in demos/ runs to completion and prints what
it printed when its output was frozen."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout, frozen from the per-point integrals and the
# ring tables built by restricting each alpha_class(J) at every point
DIGESTS = {
    "localization_tour.py": "b61004c5f25d294ccf2120e7d6d643f526fceff06ba274d5adb1e4b5e9173d49",
    "model_ring_tour.py": "0ba7d99430fef6a2107f628e0f596e7127762bbf42c8ff4f6f0fe2a687c8de1b",
    "reduction_tour.py": "2ec86b666d05f8880b8524b22d329271aef69bf54dab58b8a8bc234ff738aebe",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DIGESTS[demo.name]
