"""Round-trip tests for the flat text model format."""

import numpy as np
import pytest

from pcegp.data import fit_scaler
from pcegp.gp import fit_precompute, predict_batch
from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import KernelForm, KernelStack
from pcegp.poly import Basis
from pcegp.serialize import (
    describe_model,
    load_model,
    model_to_text,
    parse_description,
    save_model,
    text_to_model,
)


def build_model(rng, noise_mode="fixed"):
    x = rng.uniform(-2.0, 5.0, size=(9, 2))
    y = np.cos(x[:, 0]) + 0.3 * x[:, 1] + rng.normal(scale=0.05, size=9)
    in_sc = fit_scaler("min_max_per_column", x)
    out_sc = fit_scaler("z_normalize", y)
    stack = KernelStack(
        (
            (
                KernelForm.se(),
                1.1,
                LengthscaleField(((Basis.legendre01(), rng.normal(size=4)),), 2),
            ),
            (
                KernelForm.rq(1.7),
                0.6,
                LengthscaleField(
                    (
                        (Basis.legendre01(), rng.normal(size=3)),
                        (Basis.jacobi(0.5, 1.5), rng.normal(size=2)),
                    ),
                    2,
                ),
            ),
        )
    )
    if noise_mode == "fixed":
        noise = NoiseField.fixed(1e-4)
    else:
        noise = NoiseField.pce([(Basis.legendre01(), rng.uniform(0.1, 0.4, 2))])
    return fit_precompute(
        stack, noise, in_sc, out_sc, x, y, meta={"dataset": "demo.csv", "target": "y"}
    )


@pytest.mark.parametrize("noise_mode", ["fixed", "pce"])
def test_round_trip_is_byte_identical(noise_mode):
    rng = np.random.default_rng(21)
    model = build_model(rng, noise_mode)
    text = model_to_text(model)
    loaded = text_to_model(text)
    assert model_to_text(loaded) == text


def test_round_trip_preserves_floats_exactly():
    rng = np.random.default_rng(22)
    model = build_model(rng)
    loaded = text_to_model(model_to_text(model))
    assert np.array_equal(loaded.x_scaled, model.x_scaled)
    assert np.array_equal(loaded.y_scaled, model.y_scaled)
    assert np.array_equal(loaded.chol, model.chol)
    assert np.array_equal(loaded.alpha_solve, model.alpha_solve)
    for (f1, s1, l1), (f2, s2, l2) in zip(model.stack.entries, loaded.stack.entries):
        assert f1 == f2 and s1 == s2
        for (k1, c1), (k2, c2) in zip(l1.terms, l2.terms):
            assert k1 == k2 and np.array_equal(c1, c2)
    assert loaded.meta == model.meta


def test_round_trip_predictions_bit_identical():
    rng = np.random.default_rng(23)
    model = build_model(rng, "pce")
    loaded = text_to_model(model_to_text(model))
    queries = rng.uniform(-2.0, 5.0, size=(5, 2))
    m1, v1 = predict_batch(model, queries)
    m2, v2 = predict_batch(loaded, queries)
    assert np.array_equal(m1, m2)
    assert np.array_equal(v1, v2)


def test_save_and_load_file(tmp_path):
    rng = np.random.default_rng(24)
    model = build_model(rng)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert model_to_text(loaded) == model_to_text(model)


def test_awkward_floats_survive():
    rng = np.random.default_rng(25)
    model = build_model(rng)
    # values with no short decimal representation
    c = np.array([0.1, 1.0 / 3.0, np.pi, 2.0 ** -45, 1e-17])
    field = LengthscaleField(((Basis.legendre01(), c),), 2)
    stack = KernelStack(((KernelForm.se(), float(np.sqrt(2.0)), field),))
    model2 = fit_precompute(
        stack,
        model.noise,
        model.input_scaler,
        model.output_scaler,
        rng.uniform(size=(5, 2)),
        rng.normal(size=5),
    )
    loaded = text_to_model(model_to_text(model2))
    assert np.array_equal(loaded.stack.entries[0][2].terms[0][1], c)
    assert loaded.stack.entries[0][1] == float(np.sqrt(2.0))


def test_missing_key_diagnostic():
    rng = np.random.default_rng(26)
    text = model_to_text(build_model(rng))
    broken = "\n".join(
        line for line in text.splitlines() if not line.startswith("noise.mode")
    )
    with pytest.raises(ValueError, match="noise.mode"):
        text_to_model(broken)


def test_target_block_length_checked():
    rng = np.random.default_rng(28)
    text = model_to_text(build_model(rng))
    head, values = text.split("training.y_scaled = ")
    one_short = values.rsplit(" ", 1)[0] + "\n"
    with pytest.raises(ValueError, match="inconsistent shapes"):
        text_to_model(head + "training.y_scaled = " + one_short)


def test_format_tag_checked():
    with pytest.raises(ValueError, match="format"):
        text_to_model("format = other-thing-9\n")


def test_describe_model_shows_polynomials():
    rng = np.random.default_rng(27)
    model = build_model(rng)
    text = describe_model(model)
    assert "squared_exponential" in text
    assert "rational_quadratic" in text
    assert "phi_0" in text and "phi_1" in text
    assert "legendre_shifted_01" in text
    assert "fixed 0.0001" in text
    assert "dataset: demo.csv" in text


def test_description_round_trips_exact_coefficients():
    rng = np.random.default_rng(91)
    model = build_model(rng, noise_mode="pce")
    parsed = parse_description(describe_model(model))
    assert len(parsed["kernels"]) == model.stack.n_entries
    for rec, (form, scale, ls_field) in zip(parsed["kernels"], model.stack.entries):
        assert rec["form"] == form.tag
        assert rec["scale2"] == scale * scale  # exact, not approximate
        for (label, got), (kind, coeffs) in zip(rec["terms"], ls_field.terms):
            assert label == kind.label()
            np.testing.assert_array_equal(got, coeffs)
    assert parsed["noise"]["mode"] == "pce"
    np.testing.assert_array_equal(
        parsed["noise"]["terms"][0][1], model.noise.terms[0][1]
    )


def test_parse_description_rejects_foreign_text():
    with pytest.raises(ValueError, match="description"):
        parse_description("just some words\n")
