"""Flat text serialization of fitted models.

The format is deterministic `key = value` lines in a fixed order, so two
identical models serialize to identical bytes; `data.read_kv`, the reader
of config files too, reads them back. Floats are written with Python's
shortest round-trip repr, vectors as `data.format_floats` strings, and
parse back (`data.parse_floats`) to the exact same bit pattern; the Gram
factorization is recomputed from the stored scaled training data on load,
which is deterministic, so a loaded model predicts bit-identically to the
saved one.
"""

from __future__ import annotations

import numpy as np

from .data import ScalerState, format_floats, parse_floats, read_kv, write_text_atomic
from .gp import PcegpModel, model_from_fit
from .hyper import LengthscaleField, NoiseField
from .kernels import KernelForm, KernelStack
from .poly import Basis

FORMAT_TAG = "pcegp-model-3"


def _f(x) -> str:
    return repr(float(x))


def model_to_text(model: PcegpModel) -> str:
    """Serialize a fitted model to the flat text format."""
    lines = [f"format = {FORMAT_TAG}"]
    for key in sorted(model.meta):
        lines.append(f"meta.{key} = {model.meta[key]}")

    # the one family of every field (`hyper.PointBasis`)
    basis = model.stack.fields[0].basis
    lines.append(f"basis.family = {basis.family}")
    lines.append(f"basis.alpha = {_f(basis.alpha)}")
    lines.append(f"basis.beta = {_f(basis.beta)}")

    lines.append(f"n_kernels = {model.stack.n_entries}")
    for i, (form, scale, ls_field) in enumerate(model.stack.entries):
        p = f"kernel_{i}"
        lines.append(f"{p}.form = {form.tag}")
        lines.append(f"{p}.shape = {_f(form.shape)}")
        lines.append(f"{p}.scale = {_f(scale)}")
        lines.append(f"{p}.coefficients = {format_floats(ls_field.coefficients)}")

    lines.append(f"noise.mode = {model.noise.mode}")
    if model.noise.mode == "fixed":
        lines.append(f"noise.value = {_f(model.noise.value)}")
    else:
        lines.append(f"noise.coefficients = {format_floats(model.noise.coefficients)}")

    for name, sc in (
        ("input_scaler", model.input_scaler),
        ("output_scaler", model.output_scaler),
    ):
        lines.append(f"{name}.kind = {sc.kind}")
        lines.append(f"{name}.loc = {format_floats(sc.loc)}")
        lines.append(f"{name}.scale = {format_floats(sc.scale)}")

    lines.append(f"training.n_points = {model.n_points}")
    lines.append(f"training.n_inputs = {model.n_inputs}")
    for i in range(model.n_points):
        lines.append(f"training.x_scaled_{i} = {format_floats(model.x_scaled[i])}")
    lines.append(f"training.y_scaled = {format_floats(model.y_scaled)}")
    return "\n".join(lines) + "\n"


def save_model(model: PcegpModel, path) -> None:
    """Write the model's text through `<path>.tmp` (`data.write_text_atomic`)."""
    write_text_atomic(path, model_to_text(model), newline="\n")


def _need(kv: dict, key: str) -> str:
    if key not in kv:
        raise ValueError(f"model file is missing required key {key!r}")
    return kv[key]


def _check_columns(columns: list, n_inputs: int, source) -> None:
    for i, name in enumerate(columns):
        if name in columns[:i]:
            raise ValueError(f"{source}: meta.columns names column {name!r} twice")
    if len(columns) != n_inputs:
        raise ValueError(
            f"{source}: meta.columns names {len(columns)} columns "
            f"({','.join(columns)}), but training.n_inputs is {n_inputs}"
        )


def text_to_model(text: str, source="model text") -> PcegpModel:
    """Rebuild a model from its flat text form, refactorizing the Gram.

    The one `basis.*` block is the family of every field. `source` names
    the text in the error for a line that is not `key = value`
    (`data.read_kv`), for a format tag other than `FORMAT_TAG` (a
    `pcegp-model-1` or `-2` file must be refit), for a noise mode other
    than `fixed` and `pce`, and for a `meta.columns` list that names a
    column twice or does not name one column per input: `pcegp predict`
    maps query columns to the inputs by that list, so such a model would
    predict from the wrong columns.
    """
    kv = read_kv(text, source)
    tag = _need(kv, "format")
    if tag != FORMAT_TAG:
        raise ValueError(
            f"{source}: unsupported model format {tag!r}; refit it as {FORMAT_TAG}"
        )
    meta = {k[len("meta."):]: v for k, v in kv.items() if k.startswith("meta.")}

    n_points = int(_need(kv, "training.n_points"))
    n_inputs = int(_need(kv, "training.n_inputs"))
    if "columns" in meta:
        _check_columns(meta["columns"].split(","), n_inputs, source)
    x_s = np.vstack(
        [parse_floats(_need(kv, f"training.x_scaled_{i}")) for i in range(n_points)]
    )
    y_s = parse_floats(_need(kv, "training.y_scaled"))
    if x_s.shape != (n_points, n_inputs) or y_s.shape != (n_points,):
        raise ValueError("model file training block has inconsistent shapes")

    basis = Basis(
        _need(kv, "basis.family"),
        alpha=float(_need(kv, "basis.alpha")),
        beta=float(_need(kv, "basis.beta")),
    )
    entries = []
    for i in range(int(_need(kv, "n_kernels"))):
        p = f"kernel_{i}"
        form = KernelForm(_need(kv, f"{p}.form"), shape=float(_need(kv, f"{p}.shape")))
        scale = float(_need(kv, f"{p}.scale"))
        coefficients = parse_floats(_need(kv, f"{p}.coefficients"))
        entries.append((form, scale, LengthscaleField(basis, coefficients, n_inputs)))
    stack = KernelStack(tuple(entries))

    mode = _need(kv, "noise.mode")
    if mode not in ("fixed", "pce"):
        raise ValueError(f"{source}: unknown noise.mode {mode!r}")
    if mode == "fixed":
        noise = NoiseField.fixed(float(_need(kv, "noise.value")))
    else:
        noise = NoiseField.pce(basis, parse_floats(_need(kv, "noise.coefficients")))

    scalers = {}
    for name in ("input_scaler", "output_scaler"):
        scalers[name] = ScalerState(
            kind=_need(kv, f"{name}.kind"),
            loc=parse_floats(_need(kv, f"{name}.loc")),
            scale=parse_floats(_need(kv, f"{name}.scale")),
        )

    return model_from_fit(
        stack,
        noise,
        scalers["input_scaler"],
        scalers["output_scaler"],
        x_s,
        y_s,
        meta,
    )


def load_model(path) -> PcegpModel:
    with open(path, "r", encoding="utf-8") as fh:
        return text_to_model(fh.read(), path)


def _field_string(field) -> str:
    """`[family](x) = +c0*phi_0 ...` at full precision, which parses back exactly."""
    terms = " ".join(
        ("+" if c >= 0.0 else "-") + f"{abs(float(c))!r}*phi_{d}"
        for d, c in enumerate(field.coefficients)
    )
    return f"[{field.basis.label()}](x) = {terms}"


def describe_model(model: PcegpModel) -> str:
    """Human-readable view: each lengthscale field as explicit polynomials.

    Coefficients and shape parameters are printed at full precision so the
    report is also an exact record: `parse_description` recovers every
    coefficient vector, and the text holds each shape as `repr` writes it.
    """
    out = []
    for key in sorted(model.meta):
        out.append(f"{key}: {model.meta[key]}")
    out.append(
        f"model: {model.stack.n_entries} summed kernel(s), "
        f"{model.n_points} training points, {model.n_inputs} inputs"
    )
    for i, (form, scale, ls_field) in enumerate(model.stack.entries):
        head = f"kernel {i}: {form.tag}"
        if form.tag == "rational_quadratic":
            head += f" (shape {_f(form.shape)})"
        out.append(head)
        out.append(f"  output scale sigma_f^2 = {_f(scale * scale)}")
        out.append(f"  lengthscale{_field_string(ls_field)}")
    if model.noise.mode == "fixed":
        out.append(f"noise variance: fixed {_f(model.noise.value)}")
    else:
        out.append("noise variance: log link, exp(mean_d log_noise(x_d))")
        out.append(f"  log_noise{_field_string(model.noise)}")
    out.append(
        f"input scaler: {model.input_scaler.kind}; "
        f"output scaler: {model.output_scaler.kind}"
    )
    out.append(f"gram jitter used: {model.jitter_used:g}")
    return "\n".join(out) + "\n"


def _parse_field_string(line: str) -> tuple:
    """(family label, coefficients) from a `_field_string` line."""
    label = line.split("[", 1)[1].split("]", 1)[0]
    coeffs = {}
    for token in line.split(" = ", 1)[1].split():
        value, phi = token.split("*phi_")
        coeffs[int(phi)] = float(value)
    return label, np.array([coeffs[d] for d in range(len(coeffs))], dtype=float)


def parse_description(text: str) -> dict:
    """Recover the hyperparameter content of a `describe_model` report.

    Returns {"kernels": [{"form", "scale2", "lengthscale": (label, coeffs)}],
    "noise": {"mode": "fixed", "value"} or {"mode": "pce", "log_noise":
    (label, coeffs)}}: one (family label, coefficients) pair per field.
    Exact inverse for every printed coefficient.
    """
    kernels = []
    noise: dict = {}
    for line in text.splitlines():
        stripped = line.strip()
        if line.startswith("kernel ") and ": " in line:
            kernels.append({"form": line.split(": ", 1)[1].split(" (")[0]})
        elif stripped.startswith("output scale sigma_f^2 = "):
            kernels[-1]["scale2"] = float(stripped.split(" = ", 1)[1])
        elif stripped.startswith("lengthscale["):
            kernels[-1]["lengthscale"] = _parse_field_string(stripped)
        elif stripped.startswith("noise variance: fixed "):
            noise = {"mode": "fixed", "value": float(stripped.rsplit(" ", 1)[1])}
        elif stripped.startswith("noise variance: log link"):
            noise = {"mode": "pce"}
        elif stripped.startswith("log_noise["):
            noise["log_noise"] = _parse_field_string(stripped)
    if not kernels or not noise:
        raise ValueError("text is not a model description")
    return {"kernels": kernels, "noise": noise}
