"""Every demo script, and README's library tour, runs to completion against
the package in `src/`; each demo prints exactly its pinned output.

A change that alters a demo's output on purpose updates its digest and says
why."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "01_protocol_walkthrough": "137178dc16fd10e301e0b8f009238c8bd2f266f992fd664438b7a20dd4cde695",
    "02_seed_search_statistics": "806facaacf3df20229aba1098f4519a9bb9072b95efd61c9fca92f3c98622610",
    "03_cost_vs_lower_bound": "0b1a3ea0ad4075a1b189ac6a85990556e0d23852a887b1b7ddf14639c112999e",
    "04_select_command_generation": "769fb572bec3261d213e9d90e3b62306fe0b70e7503b263141c4f328d8d6c63e",
    "05_reliability_sizing": "9dbe510c0f8911219d4b25255350f1209077a7d8dedfe4883bbf37c398b6df14",
}


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
    assert [d.stem for d in DEMOS] == list(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run(["-c", tour])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
