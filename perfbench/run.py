"""pcegp benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 55 --trace 0

Run from the repository root. The program is imported from `src/` of the
tree this script sits in; the BLAS and OpenMP pools are pinned to one
thread before numpy loads, and the run fails if the process holds any
other thread after a BLAS call. Each run:

1. imports the program and sets the workload up several times (seeded
   synthetic CSV and config files), checking that every set-up wrote the
   same bytes;
2. repeats the workload's timed pass until `--seconds` is used up;
3. checks the outputs: byte-identical across passes and across runs with
   the same seed, finite errors and means, non-negative variances, and the
   workload's own checks (gradient oracle, save/load round trip);
4. prints the figures by name and unit, then one JSON line.

With `--trace 0` the JSON holds the end-to-end metrics. With `--trace 1`
untraced and traced passes alternate; the JSON holds the per-layer metrics
of the traced passes and the tracing overhead, and the spans are written
to `.perfbench/spans/`. The exit code is 0 when every check passed, 1 when
a check failed (the JSON then says `"correct": false`), and 2 when the
program cannot be found.
"""

import os
import sys
import time

PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-wide", "cv-tall"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import numpy, scipy and every pcegp module from this tree's `src/`."""
    if not os.path.isfile(os.path.join(SRC, "pcegp", "__init__.py")):
        print(f"error: no pcegp sources under {SRC}; run from a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import pcegp
    import pcegp.cli  # noqa: F401  (imports the remaining modules)

    seconds = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(pcegp.__file__)) != os.path.join(SRC, "pcegp"):
        print(f"error: pcegp was imported from {pcegp.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return seconds


def environment():
    """Versions and thread counts, measured after one BLAS call."""
    import numpy as np
    import scipy

    a = np.ones((256, 256))
    a @ a
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = -1
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is informational
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
        "os_threads_after_blas": threads,
    }


def source_digest():
    """Digest of the program and benchmark sources, to key stored outputs."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "pcegp"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def median(values):
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def run_setups(workload, seed, errors):
    manifest = sys.modules["pcegp.bench"].dataset_manifest
    times, digests = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        files = workload.setup(seed)
        times.append(time.perf_counter() - start)
        got = {f: manifest(f)["sha256"] for f in files}
        if digests is not None and got != digests:
            errors.append("set-up wrote different input bytes on a repeat")
        digests = got
    return times, digests


def timed_passes(workload, tracer, seconds, traced):
    """Repeat passes until the time is used; traced runs alternate passes.

    Returns (untraced passes, traced passes, traced pass ids).
    """
    plain, traced_passes, traced_ids = [], [], []
    start = time.perf_counter()
    while True:
        for with_trace in ((False, True) if traced else (False,)):
            tracer.pass_id += 1
            # run_search stays wrapped in every pass: it is where the trials
            # of `pcegp benchmark` can be counted from outside
            tracer.install(None if with_trace else ("optim.run_search",))
            try:
                result = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            if with_trace:
                traced_passes.append(result)
                traced_ids.append(tracer.pass_id)
            else:
                plain.append(result)
        per_round = median([p.seconds for p in plain]) + median(
            [p.seconds for p in traced_passes]
        )
        if time.perf_counter() - start + per_round > seconds:
            break
    return plain, traced_passes, traced_ids


def check_determinism(passes, workload_name, seed, errors):
    first = passes[0].digests
    for i, p in enumerate(passes[1:], start=1):
        for name, digest in p.digests.items():
            if first.get(name) != digest:
                errors.append(f"{name} differs between pass 0 and pass {i}")
    folder = os.path.join(STATE, "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{source_digest()}-{workload_name}-seed{seed}.json")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            earlier = json.load(fh)
        for name, digest in first.items():
            if name in earlier and earlier[name] != digest:
                errors.append(
                    f"{name} differs from an earlier run with the same seed"
                )
    else:
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(first, fh, sort_keys=True)
        os.replace(tmp, path)


def layer_metrics(tracer, plain, traced_passes, traced_ids):
    n = len(traced_ids)
    metrics = {}
    for layer, (calls, total, self_s) in tracer.layer_totals(traced_ids).items():
        metrics[f"{layer}.calls"] = (calls / n, "count")
        metrics[f"{layer}.total_s"] = (total / n, "s")
        metrics[f"{layer}.self_s"] = (self_s / n, "s")

    def count(key):
        return sum(tracer.counts[(pid, key)] for pid in traced_ids) / n

    chol_s = metrics["kernels.ladder_cholesky.total_s"][0]
    gflop = count("cholesky_gflop")
    steps = tracer.count_under("gp.mll_gradient", "optim.fine_tune", traced_ids)
    factorizations = tracer.count_under(
        "kernels.ladder_cholesky", "optim.fine_tune", traced_ids
    )
    one_row_ms = [1e3 * d for d in tracer.durations("gp.predict", traced_ids)]
    # passes alternate, so each traced pass is paired with the untraced one
    # run just before it, under nearly the same machine load
    overhead_s = median(
        [t.seconds - u.seconds for u, t in zip(plain, traced_passes)]
    )
    derived = {
        "kernels.ladder_cholesky.jitter_nonzero": (count("jitter_nonzero"), "count"),
        "kernels.ladder_cholesky.gflop_computed": (gflop, "GFLOP"),
        "kernels.ladder_cholesky.gflops": (
            gflop / chol_s if chol_s else 0.0, "GFLOP/s"
        ),
        "gp.mll_gradient.inverse_gflop_computed": (count("inverse_gflop"), "GFLOP"),
        "gp.factorizations_per_step": (
            factorizations / steps if steps else 0.0, "ratio"
        ),
        "optim.trials": (count("trials"), "count"),
        "optim.trials_failed": (count("trials_failed"), "count"),
        "kernels.cross_matrix.bytes_computed": (count("cross_bytes"), "B"),
        "predict.extrapolated_rows": (count("extrapolated_rows"), "count"),
        "predict.nonfinite_rows": (count("nonfinite_rows"), "count"),
        "gp.predict.p50_ms": (percentile(one_row_ms, 50), "ms"),
        "gp.predict.p99_ms": (percentile(one_row_ms, 99), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_frac": (
            overhead_s / median([p.seconds for p in plain]), "ratio"
        ),
        "trace.layers_absent": (float(len(tracer.absent)), "count"),
    }
    metrics.update(derived)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_s = import_program()
    env = environment()

    from layers import LAYERS, MAPPING
    from spans import OBSERVERS, Tracer
    from workloads import WORKLOADS

    errors = []
    if env["os_threads_after_blas"] != PINNED_THREADS:
        errors.append(
            f"process runs {env['os_threads_after_blas']} OS threads after a BLAS "
            f"call, pinned {PINNED_THREADS}"
        )
    workload = WORKLOADS[args.workload]()
    work = os.path.join(STATE, "work", f"{workload.name}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    try:
        setup_times, inputs = run_setups(workload, args.seed, errors)
        setup_s = import_s + median(setup_times)
        tracer = Tracer(LAYERS, OBSERVERS)
        plain, traced_passes, traced_ids = timed_passes(
            workload, tracer, args.seconds, bool(args.trace)
        )
        passes = plain + traced_passes
        check_determinism(passes, workload.name, args.seed, errors)
        checked = workload.check(errors)
    finally:
        os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced_passes)} traced passes")
    print("environment " + json.dumps(env, sort_keys=True))
    print("untraced pass seconds " + " ".join(f"{p.seconds:.3f}" for p in plain))
    if traced_passes:
        print("traced pass seconds "
              + " ".join(f"{p.seconds:.3f}" for p in traced_passes))
    print(f"import seconds {import_s:.3f}; set-up seconds "
          + " ".join(f"{t:.3f}" for t in setup_times))
    for name, digest in inputs.items():
        print(f"input {name} sha256 {digest}")
    figures = [("setup_s", setup_s, "s")] + workload.figures(plain, checked) + [
        ("failed_frac", failed / attempted, "ratio"), ("peak_rss_mb", rss_mb, "MB")
    ]
    for name, value, unit in figures:
        print(f"figure {name} = {value!r} {unit}")

    if args.trace:
        metrics = layer_metrics(tracer, plain, traced_passes, traced_ids)
        if tracer.absent:
            print("absent layers: " + " ".join(tracer.absent))
        for layer_metric, e2e, where, strength in MAPPING:
            print(f"mapping {layer_metric} -> {e2e} on {where}: {strength}")
        os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
        tracer.write(os.path.join(
            STATE, "spans", f"{workload.name}-seed{args.seed}.tsv"
        ))
    else:
        if "rel_rmse" not in checked:
            errors.append("no output to compute rel_rmse from")
        metrics = {
            "pass_s": (median([p.seconds for p in plain]), "s"),
            "setup_s": (setup_s, "s"),
            "rel_rmse": (checked.get("rel_rmse", 0.0), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
            "success_frac": (1.0 - failed / attempted, "ratio"),
        }

    for err in errors:
        print(f"check failed: {err}")
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
