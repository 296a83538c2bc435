"""Non-stationary kernels from input-dependent lengthscales.

The kernels here are ordinary stationary forms (squared exponential,
absolute exponential, Matern 3/2, rational quadratic) evaluated on warped
coordinates w(x) = l(x) * x, where l is a polynomial expansion in one basis
family (coefficient j multiplies the degree-j polynomial). A constant
expansion recovers the textbook stationary kernel; a varying one lets the
correlation length drift across the input domain.
"""

import numpy as np

from pcegp.hyper import LengthscaleField
from pcegp.kernels import (
    KernelForm,
    KernelStack,
    gram_parts,
    kernel_nonstationary,
    kernel_stationary,
    ladder_cholesky,
    warp_stack,
)
from pcegp.poly import Basis

# --- constant field == stationary kernel -----------------------------------
c = 2.0
field = LengthscaleField(Basis.legendre01(), [c], 1)
for form in (KernelForm.se(), KernelForm.matern32()):
    warped = kernel_nonstationary(form, 1.0, field, [0.2], [0.6])
    classic = kernel_stationary(form, 1.0, 1.0 / c, [0.2], [0.6])
    print(f"{form.tag:22s} constant l={c}: warped={warped:.10f} stationary(1/{c})={classic:.10f}")

# --- varying field: correlation length drifts across the domain -------------
# phi_1 on [0, 1] is 2x - 1, so coefficients [4.5, 4.0] give l(x) = 0.5 + 8x:
# slow variation near 0, fast variation near 1
drift = LengthscaleField(Basis.legendre01(), [4.5, 4.0], 1)
se = KernelForm.se()
print("\ncorrelation between x and x + 0.1 under l(x) = 0.5 + 8x:")
for x0 in (0.05, 0.45, 0.85):
    k = kernel_nonstationary(se, 1.0, drift, [x0], [x0 + 0.1])
    print(f"  x={x0:.2f}: k={k:.4f}")

# --- Gram assembly over a kernel stack ---------------------------------------
rng = np.random.default_rng(4)
pts = rng.uniform(size=(40, 2))
stack = KernelStack(
    (
        (KernelForm.se(), 1.0, LengthscaleField(Basis.legendre01(), [1.0, 0.5], 2)),
        (KernelForm.rq(1.5), 0.6, LengthscaleField(Basis.legendre01(), [2.0], 2)),
    )
)
gram, _ = gram_parts(stack.forms, warp_stack(stack, pts))
eigs = np.linalg.eigvalsh(gram)
print(f"\ntwo-kernel Gram over {pts.shape[0]} points: eig range [{eigs.min():.2e}, {eigs.max():.2e}]")

# near-singular matrices are factorized, in place, through an escalating
# jitter ladder
result = ladder_cholesky(gram + 1e-6 * np.eye(40), context="demo gram")
print(f"cholesky ok, jitter used: {result.jitter_used!r}")
tight = np.ones((3, 3))  # rank one, needs rescue
result = ladder_cholesky(tight, context="rank-deficient gram")
print(f"rank-deficient 3x3 rescued with jitter {result.jitter_used!r}")
