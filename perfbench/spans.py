"""Spans around calls into the program's layers, recorded from outside.

`Tracer.install` replaces a function in every `pcegp` module namespace (and
module-level dict, such as the CLI dispatch table) that holds it, so the
program's own call sites reach the wrapper. `uninstall` restores every
replaced reference. Spans stay in memory until `write` at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self, layers, observers=None):
        self.layers = tuple(layers)
        self.observers = dict(observers or {})
        self.spans = []  # [name, start, end, parent index, pass id]
        self.absent = []
        self.counts = defaultdict(float)
        self.pass_id = 0
        self._stack = []
        self._patches = []

    # --- installation ---------------------------------------------------

    def install(self, only=None):
        """Wrap every layer, or only the named ones; absent names are noted."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pcegp" or name.startswith("pcegp."))
        ]
        self.absent = []
        for layer in self.layers:
            module_name, func_name = layer.split(".", 1)
            module = sys.modules.get(f"pcegp.{module_name}")
            original = getattr(module, func_name, None) if module else None
            if not callable(original):
                self.absent.append(layer)
                continue
            if only is not None and layer not in only:
                continue
            wrapper = self._wrap(layer, original, self.observers.get(layer))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original, True))
                        setattr(m, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._patches.append((value, key, original, False))
                                value[key] = wrapper

    def uninstall(self):
        for target, key, original, is_module in reversed(self._patches):
            if is_module:
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches = []

    def _wrap(self, name, func, observer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id])
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except Exception as err:
                spans[index][1:3] = [start, clock()]
                stack.pop()
                if observer is not None:
                    observer(self, signature.bind(*args, **kwargs).arguments, None, err)
                raise
            spans[index][1:3] = [start, clock()]
            stack.pop()
            if observer is not None:
                observer(self, signature.bind(*args, **kwargs).arguments, result, None)
            return result

        return wrapper

    # --- analysis -------------------------------------------------------

    def layer_totals(self, pass_ids):
        """{layer: (calls, total_s, self_s)} summed over the given passes."""
        wanted = set(pass_ids)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: [0, 0.0, 0.0] for layer in self.layers}
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            if pid not in wanted:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return out

    def count_under(self, name, ancestor, pass_ids):
        """Spans called `name` with an `ancestor` span somewhere above them."""
        wanted = set(pass_ids)
        n = 0
        for name_i, _, _, parent, pid in self.spans:
            if name_i != name or pid not in wanted:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def durations(self, name, pass_ids):
        wanted = set(pass_ids)
        return [e - s for n, s, e, _, pid in self.spans if n == name and pid in wanted]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tpass\n")
            for i, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{pid}\n")


# --- observers: counts taken at the wrapped boundaries --------------------
# Each gets the call's arguments by parameter name, and its result or error.

def _observe_cholesky(tracer, args, result, err):
    k = args["k"]
    ladder = getattr(sys.modules.get("pcegp.kernels"), "JITTER_LADDER", (0.0,))
    if err is None:
        jitter = result.jitter_used
        attempts = ladder.index(jitter) + 1 if jitter in ladder else 1
        if jitter != 0.0:
            tracer.counts[(tracer.pass_id, "jitter_nonzero")] += 1
    else:
        attempts = len(ladder)
    n = k.shape[0]
    tracer.counts[(tracer.pass_id, "cholesky_gflop")] += attempts * n**3 / 3.0 / 1e9


def _observe_gradient(tracer, args, result, err):
    n = np.asarray(args["y_scaled"]).size
    # K^-1 from cho_solve(L, I): two triangular solves with N right-hand sides
    tracer.counts[(tracer.pass_id, "inverse_gflop")] += 2.0 * n**3 / 1e9


def _observe_cross(tracer, args, result, err):
    n = np.asarray(args["points"]).shape[0]
    queries = np.asarray(args["queries"])
    m = 1 if queries.ndim == 1 else queries.shape[0]
    # one N x M squared-distance matrix per stack entry
    entries = args["stack"].n_entries
    tracer.counts[(tracer.pass_id, "cross_bytes")] += entries * n * m * 8


def _observe_search(tracer, args, result, err):
    if err is not None:
        result = getattr(err, "partial_result", None)
    if result is None:
        return
    tracer.counts[(tracer.pass_id, "trials")] += len(result.history)
    tracer.counts[(tracer.pass_id, "trials_failed")] += sum(
        1 for t in result.history if t.failed
    )
    tracer.counts[(tracer.pass_id, "folds")] += sum(
        len(t.fold_losses) for t in result.history
    )
    tracer.counts[(tracer.pass_id, "folds_failed")] += sum(
        1 for t in result.history for v in t.fold_losses if not np.isfinite(v)
    )


def _observe_predict_batch(tracer, args, result, err):
    if err is not None:
        return
    x = np.asarray(args["x_raw"], dtype=float)
    sc = args["model"].input_scaler
    scaled = (x - sc.loc) / sc.scale
    outside = np.any((scaled < 0.0) | (scaled > 1.0), axis=1)
    means, variances = result
    bad = ~(np.isfinite(means) & np.isfinite(variances) & (variances >= 0.0))
    tracer.counts[(tracer.pass_id, "extrapolated_rows")] += int(outside.sum())
    tracer.counts[(tracer.pass_id, "nonfinite_rows")] += int(bad.sum())


OBSERVERS = {
    "kernels.ladder_cholesky": _observe_cholesky,
    "gp.mll_gradient": _observe_gradient,
    "kernels.cross_matrix": _observe_cross,
    "optim.run_search": _observe_search,
    "gp.predict_batch": _observe_predict_batch,
}
