"""Every demo script, and README's library tour, runs to completion against
the package in `src/`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run(["-c", tour])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
