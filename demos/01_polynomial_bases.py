"""
Orthogonal polynomial families
==============================

Evaluate the five supported families via their three-term recurrences and
check pairwise orthogonality with Gauss quadrature.
"""

import numpy as np

from pcegp.poly import Basis, eval_basis, orthogonality_defect

families = [
    ("hermite (probabilists')", Basis.hermite()),
    ("legendre on [-1, 1]", Basis.legendre()),
    ("legendre shifted to [0, 1]", Basis.legendre01()),
    ("jacobi(0.5, 1.5)", Basis.jacobi(0.5, 1.5)),
    ("laguerre", Basis.laguerre()),
]

# a few sample values per family, degrees 0..4
x = 0.3
for name, basis in families:
    values = eval_basis(basis, 4, [x])[:, 0]
    print(f"{name:28s} phi_0..phi_4 at x={x}:")
    print("   ", "  ".join(f"{v: .5f}" for v in values))

# orthogonality: <phi_i, phi_j> under the family's weight should vanish
# for i != j; the defect is that inner product computed by quadrature
print("\nworst off-diagonal defect, degrees up to 6:")
for name, basis in families:
    worst = max(
        abs(orthogonality_defect(basis, i, j, quad_points=10))
        for i in range(7)
        for j in range(7)
        if i != j
    )
    print(f"  {name:28s} {worst:.2e}")

# the shifted family is what lengthscale expansions use by default, because
# inputs are min-max scaled into the unit box before any kernel sees them
print("\nshifted Legendre stays bounded on [0, 1]:")
grid = np.linspace(0.0, 1.0, 5)
print("  x     =", np.array2string(grid, precision=2))
print("  phi_2 =", np.array2string(eval_basis(Basis.legendre01(), 2, grid)[2], precision=4))
