"""The documented code runs: every demo script and README's Library block.

Each demo's stdout must match its snapshot in tests/snapshots/demos/ byte
for byte; the snapshots were written by the package itself, so they pin
regressions only.  To rewrite them after a deliberate output change, run
each demo with PYTHONPATH=src and save its stdout under the demo's name
with the suffix .txt.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_SNAPSHOTS = ROOT / "tests" / "snapshots" / "demos"


def _run(args, text=True):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=text, timeout=120)


def test_every_demo_is_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run([str(demo)], text=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DEMO_SNAPSHOTS / f"{demo.stem}.txt").read_bytes()


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    proc = _run(["-c", block])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_python_dash_m_runs_the_cli():
    proc = _run(["-m", "microloc", "validate"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "dataset F4(a3): ok\n"
    proc = _run(["-m", "microloc", "verify"])
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(None, 2) for line in proc.stdout.splitlines()]
    assert len(rows) == 9
    assert all(row[1] == "ok" for row in rows), proc.stdout
