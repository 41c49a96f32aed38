"""Each mode's initial-state trajectory against a Laplace-domain reference.

Without forcing, a mode of (D^alpha + sum psi_i D^alpha_i + sigma) T = 0 with
T(0) = phi_c has the transform phi_c P(s) / (s (P(s) + sigma)), where
P(s) = s^alpha + sum psi_i s^alpha_i is the operator's symbol (Luchko &
Gorenflo, Acta Math. Vietnam. 24 (1999)).  mpmath's Talbot inversion of that
transform at 30 digits is the reference; it uses none of the package's
kernels.
"""

import mpmath
import numpy as np
import pytest

from fracsource.forward import _mode_trajectory
from fracsource.fractional import FractionalOperatorSpec, TimeGrid

OPERATORS = {
    "one-term": FractionalOperatorSpec(0.55),
    "two-term": FractionalOperatorSpec(0.8, ((0.5, 0.4),)),
    "three-term": FractionalOperatorSpec(0.92, ((0.8, 0.6), (0.3, 0.32))),
}
SIGMAS = (0.0, 1e2, 1e4, 1e6, 1e8)
PHI_C = 0.7


def laplace_reference(op, sigma, phi_c, t, dps=30):
    """mpmath's Talbot inversion of phi_c P(s) / (s (P(s) + sigma))."""
    with mpmath.workdps(dps):

        def transform(s):
            symbol = mpmath.power(s, op.alpha) + mpmath.fsum(
                psi * mpmath.power(s, a_i) for psi, a_i in op.terms
            )
            return phi_c * symbol / (s * (symbol + sigma))

        return float(mpmath.invertlaplace(transform, t, method="talbot"))


@pytest.mark.parametrize("N", [128, 1024])
@pytest.mark.parametrize("name", list(OPERATORS))
def test_homogeneous_trajectory_against_laplace_reference(name, N):
    op = OPERATORS[name]
    grid = TimeGrid(1.0, N)
    # seven nodes from tau to T, spread evenly in log t
    nodes = np.unique(np.geomspace(1, N, 7).round().astype(int))
    worst = 0.0
    for sigma in SIGMAS:
        traj = _mode_trajectory(sigma, PHI_C, None, op, grid, {}).values
        want = np.array([laplace_reference(op, sigma, PHI_C, grid.nodes[i]) for i in nodes])
        # the scale is the largest value at t >= tau, not phi_c at t = 0:
        # at sigma = 1e8 the trajectory has fallen below 1e-6 of phi_c by tau
        worst = max(worst, np.max(np.abs(traj[nodes] - want)) / np.max(np.abs(traj[1:])))
    print(f"{name}, N = {N}: worst error {worst:.2e} of the trajectory's scale")
    assert worst <= 1e-12
