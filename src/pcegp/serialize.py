"""Flat text serialization of fitted models.

The format is deterministic `key = value` lines in a fixed order, so two
identical models serialize to identical bytes. Floats are written with
Python's shortest round-trip repr and parse back to the exact same bit
pattern; the Gram factorization is recomputed from the stored scaled
training data on load, which is deterministic, so a loaded model predicts
bit-identically to the saved one.
"""

from __future__ import annotations

import numpy as np

from .data import ScalerState, write_text_atomic
from .gp import PcegpModel, model_from_fit
from .hyper import LengthscaleField, NoiseField
from .kernels import KernelForm, KernelStack
from .poly import Basis

FORMAT_TAG = "pcegp-model-1"


def _f(x) -> str:
    return repr(float(x))


def _vec(v) -> str:
    return " ".join(_f(x) for x in np.asarray(v, dtype=float).ravel())


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split()], dtype=float)


def _basis_lines(prefix: str, kind: Basis, coeffs) -> list:
    return [
        f"{prefix}.family = {kind.family}",
        f"{prefix}.alpha = {_f(kind.alpha)}",
        f"{prefix}.beta = {_f(kind.beta)}",
        f"{prefix}.coefficients = {_vec(coeffs)}",
    ]


def model_to_text(model: PcegpModel) -> str:
    """Serialize a fitted model to the flat text format."""
    lines = [f"format = {FORMAT_TAG}"]
    for key in sorted(model.meta):
        lines.append(f"meta.{key} = {model.meta[key]}")

    lines.append(f"n_kernels = {model.stack.n_entries}")
    for i, (form, scale, ls_field) in enumerate(model.stack.entries):
        p = f"kernel_{i}"
        lines.append(f"{p}.form = {form.tag}")
        lines.append(f"{p}.shape = {_f(form.shape)}")
        lines.append(f"{p}.scale = {_f(scale)}")
        lines.append(f"{p}.n_bases = {len(ls_field.terms)}")
        for j, (kind, coeffs) in enumerate(ls_field.terms):
            lines.extend(_basis_lines(f"{p}.basis_{j}", kind, coeffs))

    lines.append(f"noise.mode = {model.noise.mode}")
    lines.append(f"noise.floor = {_f(model.noise.floor)}")
    if model.noise.mode == "fixed":
        lines.append(f"noise.value = {_f(model.noise.value)}")
    else:
        lines.append(f"noise.n_bases = {len(model.noise.terms)}")
        for j, (kind, coeffs) in enumerate(model.noise.terms):
            lines.extend(_basis_lines(f"noise.basis_{j}", kind, coeffs))

    for name, sc in (
        ("input_scaler", model.input_scaler),
        ("output_scaler", model.output_scaler),
    ):
        lines.append(f"{name}.kind = {sc.kind}")
        lines.append(f"{name}.loc = {_vec(sc.loc)}")
        lines.append(f"{name}.scale = {_vec(sc.scale)}")

    lines.append(f"training.n_points = {model.n_points}")
    lines.append(f"training.n_inputs = {model.n_inputs}")
    for i in range(model.n_points):
        lines.append(f"training.x_scaled_{i} = {_vec(model.x_scaled[i])}")
    lines.append(f"training.y_scaled = {_vec(model.y_scaled)}")
    return "\n".join(lines) + "\n"


def save_model(model: PcegpModel, path) -> None:
    """Write the model's text through `<path>.tmp` (`data.write_text_atomic`)."""
    write_text_atomic(path, model_to_text(model), newline="\n")


def _read_kv(text: str) -> dict:
    kv = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if " = " not in line:
            raise ValueError(f"model file line {lineno}: expected 'key = value'")
        key, value = line.split(" = ", 1)
        kv[key.strip()] = value
    return kv


def _need(kv: dict, key: str) -> str:
    if key not in kv:
        raise ValueError(f"model file is missing required key {key!r}")
    return kv[key]


def _parse_terms(kv: dict, prefix: str) -> tuple:
    n_bases = int(_need(kv, f"{prefix}.n_bases"))
    terms = []
    for j in range(n_bases):
        b = f"{prefix}.basis_{j}"
        kind = Basis(
            _need(kv, f"{b}.family"),
            alpha=float(_need(kv, f"{b}.alpha")),
            beta=float(_need(kv, f"{b}.beta")),
        )
        terms.append((kind, _parse_vec(_need(kv, f"{b}.coefficients"))))
    return tuple(terms)


def text_to_model(text: str) -> PcegpModel:
    """Rebuild a model from its flat text form, refactorizing the Gram."""
    kv = _read_kv(text)
    if _need(kv, "format") != FORMAT_TAG:
        raise ValueError(f"unsupported model format {kv.get('format')!r}")
    meta = {k[len("meta."):]: v for k, v in kv.items() if k.startswith("meta.")}

    n_points = int(_need(kv, "training.n_points"))
    n_inputs = int(_need(kv, "training.n_inputs"))
    x_s = np.vstack(
        [_parse_vec(_need(kv, f"training.x_scaled_{i}")) for i in range(n_points)]
    )
    y_s = _parse_vec(_need(kv, "training.y_scaled"))
    if x_s.shape != (n_points, n_inputs) or y_s.shape != (n_points,):
        raise ValueError("model file training block has inconsistent shapes")

    entries = []
    for i in range(int(_need(kv, "n_kernels"))):
        p = f"kernel_{i}"
        form = KernelForm(_need(kv, f"{p}.form"), shape=float(_need(kv, f"{p}.shape")))
        scale = float(_need(kv, f"{p}.scale"))
        field = LengthscaleField(terms=_parse_terms(kv, p), n_inputs=n_inputs)
        entries.append((form, scale, field))
    stack = KernelStack(tuple(entries))

    floor = float(_need(kv, "noise.floor"))
    if _need(kv, "noise.mode") == "fixed":
        noise = NoiseField.fixed(float(_need(kv, "noise.value")), floor=floor)
    else:
        noise = NoiseField.pce(_parse_terms(kv, "noise"), floor=floor)

    scalers = {}
    for name in ("input_scaler", "output_scaler"):
        scalers[name] = ScalerState(
            kind=_need(kv, f"{name}.kind"),
            loc=_parse_vec(_need(kv, f"{name}.loc")),
            scale=_parse_vec(_need(kv, f"{name}.scale")),
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
        return text_to_model(fh.read())


def _signed(c: float) -> str:
    # full-precision signed term so descriptions parse back exactly
    return ("+" if c >= 0.0 else "-") + repr(abs(float(c)))


def _poly_string(coeffs) -> str:
    return " ".join(f"{_signed(c)}*phi_{d}" for d, c in enumerate(coeffs))


def describe_model(model: PcegpModel) -> str:
    """Human-readable view: each lengthscale field as explicit polynomials.

    Coefficients are printed at full precision so the report is also an
    exact record: `parse_description` recovers every coefficient vector.
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
            head += f" (shape {form.shape:g})"
        out.append(head)
        out.append(f"  output scale sigma_f^2 = {_f(scale * scale)}")
        for kind, coeffs in ls_field.terms:
            out.append(f"  lengthscale[{kind.label()}](x) = {_poly_string(coeffs)}")
    if model.noise.mode == "fixed":
        out.append(f"noise variance: fixed {_f(model.noise.value)}")
    else:
        out.append(f"noise variance: expansion, floor {_f(model.noise.floor)}")
        for kind, coeffs in model.noise.terms:
            out.append(f"  noise[{kind.label()}](x) = {_poly_string(coeffs)}")
    out.append(
        f"input scaler: {model.input_scaler.kind}; "
        f"output scaler: {model.output_scaler.kind}"
    )
    out.append(f"gram jitter used: {model.jitter_used:g}")
    return "\n".join(out) + "\n"


def _parse_poly(rhs: str) -> np.ndarray:
    coeffs = {}
    for token in rhs.split():
        value, phi = token.split("*phi_")
        coeffs[int(phi)] = float(value)
    return np.array([coeffs[d] for d in range(len(coeffs))], dtype=float)


def parse_description(text: str) -> dict:
    """Recover the hyperparameter content of a `describe_model` report.

    Returns {"kernels": [{"form", "scale2", "terms": [(label, coeffs)]}],
    "noise": {"mode", ...}}. Exact inverse for every printed coefficient.
    """
    kernels = []
    noise: dict = {}
    current = None
    for line in text.splitlines():
        stripped = line.strip()
        if line.startswith("kernel ") and ": " in line:
            current = {"form": line.split(": ", 1)[1].split(" (")[0], "terms": []}
            kernels.append(current)
        elif stripped.startswith("output scale sigma_f^2 = "):
            current["scale2"] = float(stripped.split(" = ", 1)[1])
        elif stripped.startswith("lengthscale["):
            label = stripped.split("[", 1)[1].split("]", 1)[0]
            current["terms"].append(
                (label, _parse_poly(stripped.split(" = ", 1)[1]))
            )
        elif stripped.startswith("noise variance: fixed "):
            noise = {"mode": "fixed", "value": float(stripped.rsplit(" ", 1)[1])}
        elif stripped.startswith("noise variance: expansion, floor "):
            noise = {"mode": "pce", "floor": float(stripped.rsplit(" ", 1)[1]), "terms": []}
        elif stripped.startswith("noise["):
            label = stripped.split("[", 1)[1].split("]", 1)[0]
            noise["terms"].append((label, _parse_poly(stripped.split(" = ", 1)[1])))
    if not kernels or not noise:
        raise ValueError("text is not a model description")
    return {"kernels": kernels, "noise": noise}
