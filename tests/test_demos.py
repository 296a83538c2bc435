"""The demos, the README quick tour and the CLI's import footprint.

Each script runs as its own process with `src` on the import path, the way
a reader runs it from the repository root.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, tmp_path):
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(tmp_path)  # scratch files a script makes stay in tmp_path
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "demo",
    [
        "01_polynomial_bases.py",
        "02_warped_kernels.py",
        "03_exact_gp_inference.py",
        "04_hyperparameter_search.py",
        "05_benchmark_workflow.py",
        "06_recover_a_varying_lengthscale.py",
    ],
)
def test_demo_exits_cleanly(demo, tmp_path):
    proc = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # the run's TMPDIR is tmp_path: a work directory left there is a leak
    assert not list(tmp_path.glob("pcegp-demo-*"))


def test_readme_quick_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # a fresh process: other test modules import scipy.stats themselves
    check = "import sys, pcegp.cli; sys.exit('scipy.stats' in sys.modules)"
    proc = run_python(["-c", check], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:] or "scipy.stats was imported"
