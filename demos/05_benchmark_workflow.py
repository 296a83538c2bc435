"""
Cross-validated benchmarking and the stationary reference
=========================================================

Round-trips the full evaluation pipeline on a synthetic CSV: k-fold RMSE
of the searched model, the ARD squared-exponential baseline on the same
folds, the canonical report format, and the dataset manifest.
"""

import os
import tempfile

import numpy as np

from pcegp.bench import (
    BenchmarkConfig,
    dataset_manifest,
    manifest_text,
    report_table,
    report_text,
    run_baseline,
    run_benchmark,
)
from pcegp.kernels import KernelForm
from pcegp.optim import SearchSpace
from pcegp.poly import Basis

rng = np.random.default_rng(20)
n = 60
x = rng.uniform(0.0, 1.0, size=(n, 2))
y = np.sin(5.0 * x[:, 0]) + x[:, 1] ** 2 + 0.05 * rng.normal(size=n)

# the work directory and everything in it are removed when the block ends
with tempfile.TemporaryDirectory(prefix="pcegp-demo-") as workdir:
    csv_path = os.path.join(workdir, "synthetic.csv")
    with open(csv_path, "w") as fh:
        fh.write("a,b,y\n")
        for row, target in zip(x, y):
            fh.write(f"{float(row[0])!r},{float(row[1])!r},{float(target)!r}\n")

    print("dataset manifest:")
    print(manifest_text([dataset_manifest(csv_path)]))

    # small budget so the demo stays interactive; real runs use the defaults
    # (10 folds, 100 trials, nested search)
    config = BenchmarkConfig(
        dataset_path=csv_path,
        target_column="y",
        n_folds=5,
        n_trials=40,
        n_initial=10,
        n_iterations=100,
        seed=0,
        nested=False,
        inner_n_folds=3,
        space=SearchSpace(
            kernel_forms=(KernelForm.se(), KernelForm.rq(1.0)),
            basis=Basis.legendre01(),
            q_range=(0, 1),
            scale_range=(1e-2, 10.0),
            r_range=(0, 0),  # search a constant noise level too
            noise_fixed=None,
        ),
    )

    # the report file is rewritten after every fold; the last write is final
    report_path = os.path.join(workdir, "report.txt")
    report = run_benchmark(config, checkpoint_path=report_path)
    print(report_table(report))

    baseline = run_baseline(config)
    print(f"\nstationary ARD baseline on the same folds: "
          f"mean RMSE {baseline.mean_rmse:.4f} (+/- {baseline.std_rmse:.4f})")
    print(f"searched model:                            "
          f"mean RMSE {report.mean_rmse:.4f} (+/- {report.std_rmse:.4f})")
    print("(this synthetic is stationary, so the baseline is the right model;")
    print(" see 06_recover_a_varying_lengthscale.py for data where it is not)")

    # the canonical text on disk excludes wall time, so a rerun with the
    # same seed and thread count is byte-identical
    with open(report_path) as fh:
        canonical = fh.read()
    assert canonical == report_text(report)
    print(f"\nreport written to {report_path} (removed on exit); first lines:")
    print("\n".join(canonical.splitlines()[:6]))
