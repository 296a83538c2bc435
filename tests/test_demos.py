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


# run in a fresh process, since other test modules import these subpackages:
# every command goes through `cli.main` on a tiny table first, so that a
# subpackage imported lazily on a run path is caught too
RUN_EVERY_COMMAND_THEN_CHECK_IMPORTS = """
import math, sys
from pcegp.cli import main
with open("t.csv", "w") as f:
    f.write("x,y\\n" + "".join(f"{i / 11!r},{math.sin(3 * i / 11)!r}\\n" for i in range(12)))
search = ["--threads", "1", "--set", "dataset=t.csv", "--set", "target=y",
          "--set", "n_trials=2", "--set", "n_initial=1", "--set", "n_iterations=2",
          "--set", "inner_n_folds=2", "--set", "kernels=se", "--set", "q_min=0",
          "--set", "q_max=1"]
cv = search + ["--set", "n_folds=2", "--set", "nested=false"]
for argv in (["fit", *search, "--output", "m.txt"],
             ["predict", "--set", "model=m.txt", "--set", "inputs=t.csv", "--output", "p.csv"],
             ["benchmark", *cv, "--output", "b.txt"],
             ["baseline", *cv, "--output", "a.txt"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
loaded = [m for m in ("scipy.linalg", "scipy.spatial", "scipy.special", "scipy.stats")
          if m in sys.modules]
sys.exit(f"loaded: {loaded}" if loaded else 0)
"""


def test_cli_commands_leave_scipy_subpackages_unloaded(tmp_path):
    proc = run_python(["-c", RUN_EVERY_COMMAND_THEN_CHECK_IMPORTS], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
