"""Mode trajectories against a Laplace-domain reference.

A mode of (D^alpha + sum psi_i D^alpha_i + sigma) T = F with T(0) = phi_c has
the transform (phi_c P(s) / s + F^(s)) / (P(s) + sigma), where
P(s) = s^alpha + sum psi_i s^alpha_i is the operator's symbol (Luchko &
Gorenflo, Acta Math. Vietnam. 24 (1999)).  mpmath's Talbot inversion of that
transform at 30 digits is the reference; it uses none of the package's
kernels.  The forced cases take the forcing a h(t) with catalog time laws
whose transforms are closed.  Every trajectory reads its kernel pieces from
the solve's one-pass set-up, ``eigen_kernels``, sigma = 0's included.
"""

import math

import mpmath
import numpy as np
import pytest

from fracsource.catalog import make_time_fn
from fracsource.forward import SetUp, _mode_trajectory, eigen_kernels
from fracsource.fractional import FractionalOperatorSpec, TimeGrid
from fracsource.spectral import Family, ModeIndex, eigen

OPERATORS = {
    "one-term": FractionalOperatorSpec(0.55),
    "two-term": FractionalOperatorSpec(0.8, ((0.5, 0.4),)),
    "three-term": FractionalOperatorSpec(0.92, ((0.8, 0.6), (0.3, 0.32))),
}
SIGMAS = (0.0, 1e2, 1e4, 1e6, 1e8)
PHI_C = 0.7


def laplace_reference(op, sigma, phi_c, t, dps=30, forcing=lambda s: 0):
    """mpmath's Talbot inversion of (phi_c P(s) / s + F^(s)) / (P(s) + sigma)
    for the transform ``forcing`` of the forcing."""
    with mpmath.workdps(dps):

        def transform(s):
            symbol = mpmath.power(s, op.alpha) + mpmath.fsum(
                psi * mpmath.power(s, a_i) for psi, a_i in op.terms
            )
            return (phi_c * symbol / s + forcing(s)) / (symbol + sigma)

        return float(mpmath.invertlaplace(transform, t, method="talbot"))


@pytest.mark.parametrize("N", [128, 1024])
@pytest.mark.parametrize("name", list(OPERATORS))
def test_homogeneous_trajectory_against_laplace_reference(name, N):
    op = OPERATORS[name]
    grid = TimeGrid(1.0, N)
    # seven nodes from tau to T, spread evenly in log t
    nodes = np.unique(np.geomspace(1, N, 7).round().astype(int))
    setup = SetUp(op, grid, None, None)
    eigen_kernels(setup, set(SIGMAS), set())
    worst = 0.0
    for sigma in SIGMAS:
        traj = _mode_trajectory(PHI_C, None, sigma, setup)
        want = np.array([laplace_reference(op, sigma, PHI_C, grid.nodes[i]) for i in nodes])
        # the scale is the largest value at t >= tau, not phi_c at t = 0:
        # at sigma = 1e8 the trajectory has fallen below 1e-6 of phi_c by tau
        worst = max(worst, np.max(np.abs(traj[nodes] - want)) / np.max(np.abs(traj[1:])))
    print(f"{name}, N = {N}: worst error {worst:.2e} of the trajectory's scale")
    assert worst <= 1e-12


# a h(t) for catalog time laws and the transform of each: a quartic, which
# the not-a-knot spline does not reproduce, and a decaying exponential
A = 2.5
POLY = (1.0, -0.8, 0.6, 0.5, -0.7)
FORCINGS = {
    "poly_t": (
        make_time_fn("poly_t", {"coeffs": POLY}),
        lambda s: A * mpmath.fsum(c * math.factorial(p) / s ** (p + 1) for p, c in enumerate(POLY)),
    ),
    "exp_t": (make_time_fn("exp_t", {"rate": -3.0}), lambda s: A / (s + 3.0)),
}
# Zero and Even modes with n <= 2: sigma = 0, 97, 1559, 25033
FORCED_MODES = (
    ModeIndex(Family.Zero, 0, 0),
    ModeIndex(Family.Zero, 0, 1),
    ModeIndex(Family.Even, 1, 0),
    ModeIndex(Family.Even, 2, 1),
)


def forced_errors(op, law, N, want):
    """Worst error of the forced mode trajectories on N intervals over the
    six reference times, as a fraction of each trajectory's largest value."""
    h, _ = FORCINGS[law]
    grid = TimeGrid(1.0, N)
    sigmas = [eigen(index).sigma_nk for index in FORCED_MODES]
    setup = SetUp(op, grid, None, None)
    eigen_kernels(setup, set(sigmas), set(sigmas))
    forcing = A * h(grid.nodes)
    nodes = (N // 128) * np.array([1, 3, 9, 27, 64, 128])
    worst = 0.0
    for sigma, ref in zip(sigmas, want):
        traj = _mode_trajectory(PHI_C, forcing, sigma, setup)
        worst = max(worst, np.max(np.abs(traj[nodes] - ref)) / np.max(np.abs(traj[1:])))
    return worst


@pytest.mark.parametrize("law", list(FORCINGS))
@pytest.mark.parametrize("name", list(OPERATORS))
def test_forced_trajectory_against_laplace_reference(name, law):
    op = OPERATORS[name]
    times = np.array([1, 3, 9, 27, 64, 128]) / 128.0  # nodes at N = 128 and 512
    want = [
        np.array([
            laplace_reference(op, eigen(index).sigma_nk, PHI_C, t, forcing=FORCINGS[law][1])
            for t in times
        ])
        for index in FORCED_MODES
    ]
    coarse = forced_errors(op, law, 128, want)
    fine = forced_errors(op, law, 512, want)
    print(f"{name}, {law}: worst error {coarse:.2e} at N = 128, {fine:.2e} at N = 512")
    assert coarse <= 1e-9
    assert fine <= coarse / 8.0
