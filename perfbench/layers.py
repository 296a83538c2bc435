"""What the traced run measures: the wrapped functions and the derived counts.

Each entry of LAYERS is `<module>.<function>` inside the `pcegp` package.
The traced run wraps every name under which the program's own modules hold
that function, so calls made through `from .kernels import ladder_cholesky`
are seen as well as calls made inside `kernels` itself. A name that no
longer exists is reported as absent and measured as zero.

MAPPING records, before any measurement, which end-to-end metric each
per-layer metric is expected to move, on which workload, and how strongly.
"""

LAYERS = (
    "cli.cmd_fit",
    "cli.cmd_predict",
    "cli.cmd_benchmark",
    "data.load_csv",
    "data.fit_scaler",
    "data.apply_scaler",
    "optim.run_search",
    "optim.tpe_suggest",
    "optim.random_suggest",
    "optim.fine_tune",
    "optim.adam_step",
    "gp.mll_gradient",
    "gp.mll",
    "gp.fit_precompute",
    "gp.predict_batch",
    "gp.predict",
    "gp.log_predictive_density",
    "kernels.gram_parts",
    "kernels.form_sqdist_derivative",
    "kernels.ladder_cholesky",
    "kernels.cross_matrix",
    "hyper.lengthscale_sensitivity",
    "hyper.eval_lengthscale_batch",
    "hyper.eval_noise_batch",
    "poly.eval_basis",
    "bench.run_benchmark",
    "bench.run_baseline",
    "bench._ard_neg_mll_and_grad",
    "serialize.save_model",
    "serialize.load_model",
)

# (name, unit, better) of the counts derived from the spans and from the
# arguments and results seen at the wrapped boundaries. "computed" marks a
# count worked out from matrix shapes, not measured by hardware counters.
DERIVED = (
    ("kernels.ladder_cholesky.jitter_nonzero", "count", "lower"),
    ("kernels.ladder_cholesky.gflop_computed", "GFLOP", "lower"),
    ("kernels.ladder_cholesky.gflops", "GFLOP/s", "higher"),
    ("gp.mll_gradient.inverse_gflop_computed", "GFLOP", "lower"),
    ("gp.factorizations_per_step", "ratio", "lower"),
    ("optim.trials", "count", "higher"),
    ("optim.trials_failed", "count", "lower"),
    ("kernels.cross_matrix.bytes_computed", "B", "lower"),
    ("predict.extrapolated_rows", "count", "lower"),
    ("predict.nonfinite_rows", "count", "lower"),
    ("gp.predict.p50_ms", "ms", "lower"),
    ("gp.predict.p99_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.layers_absent", "count", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.total_s", "s", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out.extend(DERIVED)
    return out


# per-layer metric (a prefix) -> end-to-end metric it should move, on which
# workload, and how strongly; written before the first measurement
MAPPING = (
    ("kernels.*.self_s, hyper.*.self_s, poly.*.self_s",
     "pass_s", "fit-wide", "strong"),
    ("kernels.*.self_s, hyper.*.self_s, poly.*.self_s",
     "pass_s", "cv-tall", "weak"),
    ("kernels.ladder_cholesky.self_s, gp.mll_gradient.self_s",
     "pass_s", "cv-tall", "strong"),
    ("kernels.ladder_cholesky.self_s, gp.mll_gradient.self_s",
     "pass_s", "fit-wide", "moderate"),
    ("gp.mll.calls, gp.factorizations_per_step",
     "pass_s", "fit-wide and cv-tall", "moderate"),
    ("bench._ard_neg_mll_and_grad.*",
     "pass_s", "cv-tall (the baseline half only)", "strong"),
    ("kernels.cross_matrix.*, gp.predict_batch.self_s, gp.predict.self_s, "
     "serialize.load_model.*, cli.cmd_predict.self_s (CSV parse and write)",
     "pass_s", "fit-wide (the read path, about a tenth of a pass)", "moderate"),
    ("kernels.cross_matrix.*, gp.predict_batch.self_s",
     "pass_s", "cv-tall (about 340 held-out rows per fold)", "none"),
    ("optim.tpe_suggest.*, optim.adam_step.*",
     "pass_s", "fit-wide (TPE is about 8% at 2 Adam steps; absent from cv-tall)",
     "weak"),
    ("kernels.ladder_cholesky.jitter_nonzero, optim.trials_failed",
     "success_frac", "all", "direct"),
    ("kernels.cross_matrix.bytes_computed",
     "peak_rss_mb", "fit-wide", "direct"),
)
