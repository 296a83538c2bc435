"""Round-trip tests for the flat text model format."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


JACOBI = Basis.jacobi(0.5, 1.5)


def build_model(rng, noise_mode="fixed"):
    # every field in one Jacobi family, of unequal degrees
    x = rng.uniform(-2.0, 5.0, size=(9, 2))
    y = np.cos(x[:, 0]) + 0.3 * x[:, 1] + rng.normal(scale=0.05, size=9)
    in_sc = fit_scaler("min_max_per_column", x)
    out_sc = fit_scaler("z_normalize", y)
    stack = KernelStack(
        (
            (KernelForm.se(), 1.1, LengthscaleField(JACOBI, rng.normal(size=4), 2)),
            (KernelForm.rq(1.7), 0.6, LengthscaleField(JACOBI, rng.normal(size=3), 2)),
        )
    )
    if noise_mode == "fixed":
        noise = NoiseField.fixed(1e-4)
    else:
        noise = NoiseField.pce(JACOBI, rng.uniform(0.1, 0.4, 2))
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
        assert l1.basis == l2.basis
        assert np.array_equal(l1.coefficients, l2.coefficients)
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
    field = LengthscaleField(Basis.legendre01(), c, 2)
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
    assert np.array_equal(loaded.stack.entries[0][2].coefficients, c)
    assert loaded.stack.entries[0][1] == float(np.sqrt(2.0))


FORMS = (KernelForm.se(), KernelForm.ae(), KernelForm.matern32(), KernelForm.rq(1.5))
FAMILIES = (Basis.legendre01(), Basis.legendre(), Basis.hermite(), Basis.laguerre())
# meta values are one line each (no control, line or paragraph separators),
# kept as written, surrounding spaces too
META_TEXT = st.builds(
    lambda head, body, tail: head + body + tail,
    st.sampled_from(["", " "]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
    st.sampled_from(["", " "]),
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    forms=st.lists(st.sampled_from(FORMS), min_size=1, max_size=4),
    family=st.one_of(
        st.sampled_from(FAMILIES),
        st.builds(Basis.jacobi, st.floats(-0.9, 3.0), st.floats(-0.9, 3.0)),
    ),
    degrees=st.lists(st.integers(0, 6), min_size=4, max_size=4),
    noise_degree=st.one_of(st.none(), st.integers(0, 6)),
    meta=st.dictionaries(st.from_regex(r"[a-z][a-z_]{0,7}", fullmatch=True), META_TEXT,
                         max_size=3),
    n_x=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_saving_a_loaded_model_gives_its_bytes(
    forms, family, degrees, noise_degree, meta, n_x, seed
):
    # every entry and the noise in the model's one family
    rng = np.random.default_rng(seed)
    stack = KernelStack(tuple(
        (form, float(rng.uniform(0.3, 2.0)),
         LengthscaleField(family, rng.uniform(-2.0, 2.0, size=degree + 1), n_x))
        for form, degree in zip(forms, degrees)
    ))
    if noise_degree is None:
        noise = NoiseField.fixed(float(10.0 ** rng.uniform(-4, -1)))
    else:
        coeffs = rng.uniform(-0.1, 0.1, size=noise_degree + 1)
        coeffs[0] -= 5.0  # log variance near -5
        noise = NoiseField.pce(family, coeffs)
    x = rng.uniform(-2.0, 5.0, size=(7, n_x))
    y = rng.normal(size=7)
    in_sc, out_sc = fit_scaler("min_max_per_column", x), fit_scaler("z_normalize", y)
    try:
        model = fit_precompute(stack, noise, in_sc, out_sc, x, y, meta)
    except RuntimeError:  # an exhausted jitter ladder: no model to save
        return
    text = model_to_text(model)
    loaded = text_to_model(text)
    assert model_to_text(loaded) == text
    queries = rng.uniform(-3.0, 6.0, size=(5, n_x))  # some outside the box
    for got, want in zip(predict_batch(loaded, queries), predict_batch(model, queries)):
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize(
    "columns, message",
    [("a,a", "column 'a' twice"), ("a,b,c", "3 columns"), ("a", "1 columns"),
     ("b,a,b", "column 'b' twice")],
)
def test_a_column_list_that_does_not_name_each_input_once_is_rejected(
    tmp_path, columns, message
):
    # `pcegp predict` maps query columns to the inputs through this list: a
    # repeated name would feed one query column to both inputs
    rng = np.random.default_rng(29)
    model = build_model(rng)
    text = model_to_text(replace(model, meta={**model.meta, "columns": "a,b"}))
    assert text_to_model(text).meta["columns"] == "a,b"
    path = tmp_path / "model.txt"
    path.write_text(text.replace("meta.columns = a,b", f"meta.columns = {columns}"))
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert "model.txt" in str(err.value)


# A pcegp-model-3 file: every field in one Jacobi family. It must keep
# loading, saving to these bytes and predicting these bits, which are the
# bits its pcegp-model-2 form, a family block per field, predicted.
COMMITTED_MODEL = """\
format = pcegp-model-3
meta.columns = a,b
meta.target = y
basis.family = jacobi
basis.alpha = 0.5
basis.beta = 1.5
n_kernels = 2
kernel_0.form = squared_exponential
kernel_0.shape = 1.0
kernel_0.scale = 1.25
kernel_0.coefficients = 1.5 -0.25 0.125
kernel_1.form = rational_quadratic
kernel_1.shape = 1.5
kernel_1.scale = 0.5
kernel_1.coefficients = 2.0 0.5
noise.mode = pce
noise.coefficients = -4.0 0.25
input_scaler.kind = min_max_per_column
input_scaler.loc = 0.0 -1.0
input_scaler.scale = 2.0 4.0
output_scaler.kind = z_normalize
output_scaler.loc = 0.5
output_scaler.scale = 2.0
training.n_points = 5
training.n_inputs = 2
training.x_scaled_0 = 0.0 0.0
training.x_scaled_1 = 0.25 0.25
training.x_scaled_2 = 0.5 0.625
training.x_scaled_3 = 0.75 1.0
training.x_scaled_4 = 1.0 0.75
training.y_scaled = 0.25 -0.125 -0.5 0.125 0.75
"""

def test_a_committed_model_file_loads_and_saves_to_its_bytes():
    model = text_to_model(COMMITTED_MODEL)
    assert model_to_text(model) == COMMITTED_MODEL
    means, variances = predict_batch(model, np.array([[1.0, 0.5], [3.0, -2.0]]))
    assert means.tolist() == [0.017460047800897882, 1.080977998067305]
    assert variances.tolist() == [0.3890074949821445, 6.895961007128608]


def test_a_format_2_model_is_refused_by_its_tag(tmp_path):
    # a pcegp-model-2 file held a family block per field, which is no
    # longer read: the tag is checked before any key, so the file is
    # refused by its tag, and told to be refit
    path = tmp_path / "old_model.txt"
    path.write_text(COMMITTED_MODEL.replace("pcegp-model-3", "pcegp-model-2", 1))
    with pytest.raises(ValueError, match="'pcegp-model-2'.*refit") as err:
        load_model(path)
    assert "old_model.txt" in str(err.value)


def test_format_tag_checked():
    with pytest.raises(ValueError, match="format"):
        text_to_model("format = other-thing-9\n")


def test_a_format_1_model_is_refused_by_its_tag(tmp_path):
    # a pcegp-model-1 file's noise expansion is the variance itself, not its
    # log: read as a log it would predict other variances, so it is refused
    rng = np.random.default_rng(30)
    text = model_to_text(build_model(rng, "pce"))
    assert text.startswith("format = pcegp-model-3\n")
    path = tmp_path / "old_model.txt"
    path.write_text(text.replace("pcegp-model-3", "pcegp-model-1", 1))
    with pytest.raises(ValueError, match="'pcegp-model-1'") as err:
        load_model(path)
    assert "old_model.txt" in str(err.value)


@pytest.mark.parametrize("mode", ["fixd", "pce2", "Fixed"])
def test_an_unknown_noise_mode_is_refused_by_name(tmp_path, mode):
    # a typo of `fixed` must not be read as an expansion, and fail later on
    # a missing noise.coefficients
    rng = np.random.default_rng(31)
    text = model_to_text(build_model(rng, "fixed"))
    path = tmp_path / "model.txt"
    path.write_text(text.replace("noise.mode = fixed", f"noise.mode = {mode}"))
    with pytest.raises(ValueError, match=f"noise.mode '{mode}'") as err:
        load_model(path)
    assert "model.txt" in str(err.value)


def test_describe_model_shows_polynomials():
    rng = np.random.default_rng(27)
    model = build_model(rng)
    text = describe_model(model)
    assert "squared_exponential" in text
    assert "rational_quadratic" in text
    assert "phi_0" in text and "phi_1" in text
    assert "jacobi(0.5,1.5)" in text
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
        assert rec["lengthscale"][0] == ls_field.basis.label()
        np.testing.assert_array_equal(rec["lengthscale"][1], ls_field.coefficients)
    assert parsed["noise"]["mode"] == "pce"
    assert parsed["noise"]["log_noise"][0] == model.noise.basis.label()
    np.testing.assert_array_equal(
        parsed["noise"]["log_noise"][1], model.noise.coefficients
    )


def test_description_writes_shape_parameters_exactly():
    # seven significant digits: a six-digit rounding would lose the last
    basis = Basis.jacobi(0.1234567, 2)
    x = np.random.default_rng(5).uniform(size=(6, 1))
    stack = KernelStack(
        ((KernelForm.rq(0.1234567), 1.0, LengthscaleField(basis, [0.2, 0.1], 1)),)
    )
    model = fit_precompute(stack, NoiseField.fixed(1e-4),
                           fit_scaler("min_max_per_column", x),
                           fit_scaler("z_normalize", x[:, 0]), x, x[:, 0])
    text = describe_model(model)
    assert "kernel 0: rational_quadratic (shape 0.1234567)\n" in text
    parsed = parse_description(text)
    assert parsed["kernels"][0]["lengthscale"][0] == "jacobi(0.1234567,2.0)"


def test_parse_description_rejects_foreign_text():
    with pytest.raises(ValueError, match="description"):
        parse_description("just some words\n")
