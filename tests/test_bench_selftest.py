"""The benchmark's own self-test passes against the library in ``src/``.

``benchmark/selftest.py`` checks the independent checker's algebra and runs
every workload twice at reduced size; an API change that breaks a workload
fails here.  It writes only to the ignored ``.bench_out/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-2000:]
    assert "selftest: PASS" in proc.stdout
