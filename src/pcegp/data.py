"""Dataset ingestion, the file formats, scaling, and shuffled k-fold splitting.

Each input format has one reader here: `read_csv` for the delimited
tables (training data and `pcegp predict`'s queries), `read_kv` for the
`key = value` files (configs and models); `format_floats` and
`parse_floats` are the exact float vectors of models, histories and
reports, and `write_text_atomic` writes every output. Inputs are kept in
raw units inside `Dataset`; scaling is explicit and carries its state so
predictions can be mapped back. Min-max scaling to [0, 1] matches the
shifted-Legendre basis domain; outputs use z-scores with the population
standard deviation.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

SCALER_KINDS = ("min_max_per_column", "z_normalize")


@dataclass(frozen=True)
class Dataset:
    """A numeric regression table: N rows of n_x inputs and one target."""

    inputs: np.ndarray
    outputs: np.ndarray
    column_names: list
    target_name: str = "y"

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.outputs, dtype=float).ravel()
        if x.ndim != 2:
            raise ValueError("inputs must be a 2-d matrix")
        if x.shape[0] < 2:
            raise ValueError(f"need at least 2 rows, got {x.shape[0]}")
        if x.shape[1] < 1:
            raise ValueError("need at least one input column")
        if y.shape[0] != x.shape[0]:
            raise ValueError(
                f"outputs length {y.shape[0]} does not match {x.shape[0]} input rows"
            )
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite values")
        if len(self.column_names) != x.shape[1]:
            raise ValueError("column_names length must match input column count")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "outputs", y)

    @property
    def n_points(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[1]


def _sniff_delimiter(header_line: str) -> str:
    # restricted to the two supported delimiters
    return ";" if header_line.count(";") > header_line.count(",") else ","


def write_text_atomic(path, text: str, newline=None) -> None:
    """Write `text` to `<path>.tmp`, then rename it over `path`.

    A write that fails part-way leaves `path` as it was and removes the
    `.tmp` file. `newline` is passed to `open`.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def format_floats(values) -> str:
    """Space-joined shortest round-trip reprs; `parse_floats` inverts it exactly."""
    return " ".join(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def parse_floats(text: str) -> np.ndarray:
    """The float vector of a `format_floats` string, bit for bit."""
    return np.array([float(t) for t in text.split()], dtype=float)


def read_kv(text: str, source) -> dict:
    """The `key = value` lines of `text`: the stripped key, the value as written.

    Blank and `#` lines are skipped; each other line splits at its first
    ` = `, and a line without one raises a ValueError naming `source` (the
    file) and the line.
    """
    kv = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if " = " not in line:
            raise ValueError(
                f"{source}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        key, value = line.split(" = ", 1)
        kv[key.strip()] = value
    return kv


def read_csv(path, select) -> tuple:
    """(header, cells) of a UTF-8 table: the float cells of the columns chosen.

    A leading byte-order mark is dropped, so it is not part of the first name.
    The header row's more frequent of `,` and `;` is the delimiter.
    `select(header)` returns the indices of the columns to parse, in order,
    or raises for a missing or unexpected column. Columns are chosen by
    name, so a name the header repeats raises a ValueError naming the file
    and the column. Blank lines are skipped, and a blank first line gives
    ([], a 0 x 0 array). A ragged row, or a missing or non-numeric cell,
    raises a ValueError naming the file:line and, for a cell, the column.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        first = fh.readline()
        if not first.strip():
            return [], np.empty((0, 0))
        delim = _sniff_delimiter(first)
        header = [h.strip() for h in next(csv.reader([first], delimiter=delim))]
        for j, name in enumerate(header):
            if name in header[:j]:
                raise ValueError(
                    f"{path}: column {name!r} appears more than once in the header"
                )
        columns = list(select(header))
        width = len(header)
        rows = []
        for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
            if len(row) == width:
                try:
                    cells = [float(row[j]) for j in columns]
                except ValueError:
                    pass  # a blank line, or the error below
                else:
                    # with no column chosen nothing was parsed, so a blank
                    # line is told by its cells
                    if cells or any(c.strip() for c in row):
                        rows.append(cells)
                        continue
            if not any(c.strip() for c in row):
                continue  # a blank line
            if len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}"
                )
            for j in columns:  # the first bad cell
                text = row[j].strip()
                try:
                    float(text)
                except ValueError:
                    what = f"non-numeric value {text!r}" if text else "missing value"
                    raise ValueError(
                        f"{path}:{lineno}: {what} in column {header[j]!r}"
                    ) from None
    return header, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def load_csv(path, target_columns) -> list:
    """One Dataset per entry of `target_columns`, from a `read_csv` table.

    Every target column is removed from the inputs of every Dataset. A
    missing target column, an empty file or a file without data rows
    raises a ValueError, as do `read_csv`'s row errors; a missing file
    raises FileNotFoundError.
    """
    targets = list(target_columns)
    if not targets:
        raise ValueError("at least one target column is required")

    def every_column(header):
        for t in targets:
            if t not in header:
                raise ValueError(
                    f"{path}: target column {t!r} not found; columns are {header}"
                )
        return range(len(header))

    header, table = read_csv(path, every_column)
    if not header:
        raise ValueError(f"{path}: empty file or blank header row")
    if not table.shape[0]:
        raise ValueError(f"{path}: no data rows")

    target_idx = [header.index(t) for t in targets]
    input_idx = [i for i in range(len(header)) if i not in target_idx]
    input_names = [header[i] for i in input_idx]

    return [
        Dataset(
            inputs=table[:, input_idx],
            outputs=table[:, ti],
            column_names=input_names,
            target_name=header[ti],
        )
        for ti in target_idx
    ]


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalerState:
    """Fitted affine per-column scaler.

    ``loc`` and ``scale`` are per-column vectors such that
    ``scaled = (raw - loc) / scale``; for min_max they are (min, max - min),
    for z_normalize (mean, population std).
    """

    kind: str
    loc: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.kind not in SCALER_KINDS:
            raise ValueError(f"unknown scaler kind {self.kind!r}")
        object.__setattr__(self, "loc", np.asarray(self.loc, dtype=float).ravel())
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float).ravel())

    @property
    def n_columns(self) -> int:
        return self.loc.shape[0]


def fit_scaler(kind: str, data) -> ScalerState:
    """Fit a min-max or z-score scaler column-wise.

    ``data`` is a vector (treated as one column) or an N x d matrix.
    Constant columns (min_max) and zero-variance columns (z_normalize)
    raise a ValueError naming the offending column index.
    """
    a = np.asarray(data, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 2:
        raise ValueError("scaler fitting needs at least 2 rows")
    if not np.all(np.isfinite(a)):
        raise ValueError("scaler fitting data must be finite")

    if kind == "min_max_per_column":
        lo = a.min(axis=0)
        hi = a.max(axis=0)
        flat = np.nonzero(hi <= lo)[0]
        if flat.size:
            raise ValueError(
                f"min_max scaler: column {flat[0]} is constant "
                f"(value {lo[flat[0]]:g})"
            )
        return ScalerState(kind, lo, hi - lo)
    if kind == "z_normalize":
        mean = a.mean(axis=0)
        std = a.std(axis=0)  # population std
        flat = np.nonzero(std <= 0.0)[0]
        if flat.size:
            raise ValueError(f"z_normalize scaler: column {flat[0]} has zero variance")
        return ScalerState(kind, mean, std)
    raise ValueError(f"unknown scaler kind {kind!r}")


def apply_scaler(state: ScalerState, point):
    """Apply the fitted affine map to a point (vector) or matrix of rows.

    No clamping: inputs outside the fitted range map outside [0, 1].
    """
    a = np.asarray(point, dtype=float)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[None, :]
    if a.shape[-1] != state.n_columns:
        raise ValueError(
            f"point has {a.shape[-1]} columns, scaler was fitted on "
            f"{state.n_columns}"
        )
    out = (a - state.loc) / state.scale
    return out[0] if squeeze else out


def scale_split(x, y) -> tuple:
    """(input scaler, output scaler, scaled x, scaled y) of one training split:
    the inputs min-max scaled per column and the targets z-scored, each
    scaler fitted on these rows."""
    in_sc = fit_scaler("min_max_per_column", x)
    out_sc = fit_scaler("z_normalize", y)
    y_s = (np.asarray(y, dtype=float).ravel() - out_sc.loc[0]) / out_sc.scale[0]
    return in_sc, out_sc, apply_scaler(in_sc, x), y_s


# ---------------------------------------------------------------------------
# k-fold splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldPlan:
    """Shuffled k-fold assignment: ``assignments[i]`` is row i's fold."""

    n_folds: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=int)
        object.__setattr__(self, "assignments", a)
        if self.n_folds < 2:
            raise ValueError("need at least 2 folds")
        if a.min(initial=0) < 0 or (a.size and a.max() >= self.n_folds):
            raise ValueError("fold assignments out of range")
        sizes = np.bincount(a, minlength=self.n_folds)
        if sizes.max() - sizes.min() > 1:
            raise ValueError("fold sizes must differ by at most 1")

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]

    @property
    def largest_train_size(self) -> int:
        """Rows of the largest training split, the one of the smallest test fold."""
        sizes = np.bincount(self.assignments, minlength=self.n_folds)
        return self.assignments.size - int(sizes.min())


def make_folds(n: int, n_folds: int, seed: int) -> FoldPlan:
    """Randomly partition {0..n-1} into n_folds near-equal folds.

    Deterministic for a given seed; fold sizes differ by at most one.
    """
    if not 2 <= n_folds <= n:
        raise ValueError(f"n_folds must be in [2, {n}], got {n_folds}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=int)
    assignments[perm] = np.arange(n) % n_folds
    return FoldPlan(n_folds=n_folds, assignments=assignments)
