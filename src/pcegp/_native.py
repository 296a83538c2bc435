"""The compiled LAPACK and distance kernels of scipy that pcegp calls.

Exact GP inference (Rasmussen & Williams 2006, Alg. 2.1) needs five
compiled routines: the Cholesky factorization `dpotrf`, the inverse from
the factor `dpotri`, the solves `dpotrs` and `dtrtrs`, and the
squared-Euclidean distance kernel. They live in two extension modules of
scipy, `scipy/linalg/_flapack` and `scipy/spatial/_distance_pybind`. This
module loads those two files directly from scipy's install directory
instead of importing `scipy.linalg` and `scipy.spatial`: the Python
package inits of those subpackages pull in scipy's array-API layer,
`numpy.f2py`, `numpy.ma` and `unittest`, none of which the five calls use.
Skipping them took `import pcegp.cli` from 67 to 37 MB of peak memory and
from about 0.7 to 0.2 s (scipy 1.17, 2-vCPU x86-64 VM). The light
top-level `scipy` package is imported first; on Windows
wheels it registers the folder of the bundled OpenBLAS library, which
`_flapack` links against.

The functions are the very ones behind `scipy.linalg.lapack` and
`cdist(..., "sqeuclidean")`, called with the arrays those wrappers would
pass them, so every result has their bits. The two modules are left out
of `sys.modules`: a later `import scipy.linalg` in the same process makes
its own module over the same functions. A missing file raises
`ImportError` naming it; there is no fallback.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy


def _load_extension(subpackage: str, name: str):
    """The compiled module `scipy/<subpackage>/<name>`, loaded from its file."""
    folder = os.path.join(os.path.dirname(scipy.__file__), subpackage)
    full_name = f"scipy.{subpackage}.{name}"
    registered = full_name in sys.modules
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.exists(path):
            spec = importlib.util.spec_from_file_location(full_name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if not registered:
                # Python files a single-phase extension module under its
                # name as it loads; a later import of the subpackage then
                # makes its own module over the same functions
                sys.modules.pop(full_name, None)
            return module
    raise ImportError(
        f"scipy's compiled module {os.path.join(folder, name)} was not found "
        f"with any of the suffixes {importlib.machinery.EXTENSION_SUFFIXES}"
    )


_flapack = _load_extension("linalg", "_flapack")

dpotrf = _flapack.dpotrf
dpotri = _flapack.dpotri
cdist_sqeuclidean = _load_extension("spatial", "_distance_pybind").cdist_sqeuclidean


def _checked(routine: str, x, info: int):
    """`x` when LAPACK reports success; the wrappers' errors otherwise."""
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: {routine} failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")
    return x


def dpotrs(c, b, lower: int = 0):
    """Solve A x = b from the Cholesky factor `c` of A, as `cho_solve` does.

    `b` is left alone. Raises `LinAlgError` when LAPACK reports info > 0
    and `ValueError` when it reports an illegal argument.
    """
    return _checked("potrs", *_flapack.dpotrs(c, b, lower=lower))


def dtrtrs(a, b, lower: int = 0, trans: int = 0, overwrite_b: int = 0):
    """Solve a triangular system op(a) x = b, as `solve_triangular` does.

    `b` is left alone unless `overwrite_b` is set and `b` is a
    Fortran-contiguous float64 array: LAPACK then writes x over `b` and
    returns `b` itself. Any other `b` is copied first, as the wrapper does.
    Raises `LinAlgError` for a zero on the diagonal of `a` (info > 0) and
    `ValueError` for an illegal argument.
    """
    return _checked(
        "trtrs",
        *_flapack.dtrtrs(a, b, lower=lower, trans=trans, overwrite_b=overwrite_b),
    )
