"""Closed-form forward solver.

Each expansion coefficient T_nk(t) of the solution satisfies a multi-term
fractional ODE whose solution is explicit in terms of relaxation kernels:
homogeneous terms carry the initial coefficient, the forcing enters through a
weakly singular Laplace convolution, and the Odd family picks up an extra
convolution against its paired Even trajectory.  The modes' kernels differ
only in the eigenvalue, so a solve sets up those of all its eigenvalues in
one pass before it solves the modes, and ``eigen_kernels`` is the only code
that builds them.  Solves that share a kernel dict build each piece once
between them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import SpaceTimeField
from .fractional import (
    FractionalOperatorSpec,
    KernelMoments,
    TimeGrid,
    TimeSeries,
    caputo_multiterm,
    singular_convolve,
    whole_number,
)
from .mlf import RelaxationKernelSpec, _kernel_sum
from .spectral import (
    Family,
    Field2D,
    ModeIndex,
    SpectralCoefficients,
    eigen,
)


@dataclass
class ProblemData:
    """Everything a forward run needs.

    ``amplitude`` is the known a(t) for forward runs; inverse runs leave it
    None and recover it from the energy datum.
    """

    op: FractionalOperatorSpec
    phi: Field2D
    source: SpaceTimeField
    grid: TimeGrid
    amplitude: TimeSeries | None = None
    n_max: int = 16
    k_max: int = 16

    def __post_init__(self) -> None:
        self.n_max = whole_number(self.n_max, "n_max")
        self.k_max = whole_number(self.k_max, "k_max")
        if self.n_max < 0 or self.k_max < 0:
            raise ValueError(
                f"truncation must be nonnegative, got n_max={self.n_max}, "
                f"k_max={self.k_max}"
            )

    def with_amplitude(self, amplitude: TimeSeries) -> "ProblemData":
        return replace(self, amplitude=amplitude)


@dataclass
class SolutionBundle:
    coeffs: SpectralCoefficients  # T_nk as TimeSeries
    phi_coeffs: SpectralCoefficients
    forcing_coeffs: SpectralCoefficients  # a(t) * f_nk(t)
    energy: TimeSeries
    metadata: dict = field(default_factory=dict)


def mode_kernel_spec(op: FractionalOperatorSpec, sigma: float) -> RelaxationKernelSpec:
    """Relaxation-kernel parameters of the mode ODE with eigenvalue sigma.

    The rate/order pairs are (psi_i, alpha - alpha_i) for the lower-order
    terms plus (sigma, alpha) for the leading pair — the unique reading of
    the solution kernels under which the mode ODE residual vanishes.
    """
    gaps = tuple((psi, op.alpha - a_i) for psi, a_i in op.terms)
    return RelaxationKernelSpec(1.0, gaps + ((sigma, op.alpha),))


def _initial_state(op: FractionalOperatorSpec) -> tuple:
    """The initial-state trajectory per unit phi_c as weighted kernel indices:
    P(s) / (s (P(s) + sigma)), P(s) = s^alpha + sum psi_i s^alpha_i, is
    e_1 + sum psi_i e_(alpha+1-alpha_i)."""
    return ((1.0, 1.0),) + tuple((psi, op.alpha + 1.0 - a_i) for psi, a_i in op.terms if psi)


@dataclass
class EigenKernels:
    """What the mode solves of one eigenvalue share: the initial-state
    trajectory per unit phi_c at ``grid.nodes[1:]`` and the forcing's moment
    table, each None unless a mode needs it."""

    relaxation: np.ndarray | None = None
    table: KernelMoments | None = None


def _kernel_needs(modes) -> tuple[set, set]:
    """The eigenvalues whose kernel pieces a solve needs.  ``modes`` yields
    (index, phi_c, forced) of each mode the solve will solve, forced telling
    whether its own forcing is nonzero.  A mode with phi_c != 0 needs its
    initial-state trajectory (``relaxed``); a forced one, or an Odd one whose
    Even partner moves, needs its moment table (``tabled``)."""
    modes = list(modes)
    moving = {
        (i.n, i.k) for i, phi_c, forced in modes
        if i.family is Family.Even and (forced or phi_c != 0.0)
    }
    relaxed, tabled = set(), set()
    for index, phi_c, forced in modes:
        sigma = eigen(index).sigma_nk
        if phi_c != 0.0:
            relaxed.add(sigma)
        if forced or (index.family is Family.Odd and (index.n, index.k) in moving):
            tabled.add(sigma)
    return relaxed, tabled


def eigen_kernels(
    op: FractionalOperatorSpec, grid: TimeGrid, relaxed, tabled, kernels: dict | None = None
) -> dict[float, EigenKernels]:
    """The kernel pieces of the sets of eigenvalues ``relaxed`` (initial-state
    trajectories) and ``tabled`` (moment tables) in one pass: the nonzero
    eigenvalues' trajectories by one contour set-up, and every table,
    sigma = 0's included, in one family assembly.  At sigma = 0 the
    trajectory is phi_c / s, all ones per unit phi_c, and the table's
    kernel, which lacks the eigenvalue's term, is the family's rate 0.

    ``kernels`` holds the pieces built so far, keyed by (op, grid) and then
    by eigenvalue; None is a fresh dict.  Only the pieces it lacks are built,
    piece by piece (an eigenvalue may hold its table and lack its
    trajectory), and they are added to it.  Returns the dict of (op, grid).
    A piece is bit for bit the same whichever pass builds it."""
    pieces = ({} if kernels is None else kernels).setdefault((op, grid), {})
    for sigma in relaxed | tabled:
        pieces.setdefault(sigma, EigenKernels())
    relaxed = {sigma for sigma in relaxed if pieces[sigma].relaxation is None}
    tabled = {sigma for sigma in tabled if pieces[sigma].table is None}
    if 0.0 in relaxed:
        pieces[0.0].relaxation = np.ones(grid.N)
    family = mode_kernel_spec(op, 1.0)
    relaxed, tabled = sorted(relaxed - {0.0}), sorted(tabled)
    if relaxed:
        rows = _kernel_sum(family.reduced(), grid.nodes[1:], _initial_state(op), relaxed)
        for sigma, row in zip(relaxed, rows):
            pieces[sigma].relaxation = row
    if tabled:
        tables = KernelMoments.family(family.with_eta(op.alpha), tabled, grid)
        for sigma, table in zip(tabled, tables):
            pieces[sigma].table = table
    return pieces


def _mode_trajectory(
    phi_c: float, forcing: TimeSeries | None, pieces: EigenKernels | None, grid: TimeGrid
) -> TimeSeries:
    """Solve one mode ODE (D^alpha + sum psi_i D^alpha_i + sigma) T = forcing,
    T(0) = phi_c, via the explicit relaxation-kernel formula, from the
    eigenvalue's ``pieces`` as ``eigen_kernels`` built them: phi_c times the
    initial-state trajectory plus the forcing's convolution with the table.
    A mode with no data reads nothing, so its ``pieces`` may be None."""
    vals = np.zeros(grid.N + 1)
    if phi_c != 0.0:
        vals[0] = phi_c
        vals[1:] = phi_c * pieces.relaxation
    if forcing is not None and np.any(forcing.values):
        vals += singular_convolve(forcing, pieces.table).values
    return TimeSeries(grid, vals)


def _odd_coupling(n: int) -> float:
    """Weight 4 lambda_n^(3/4) = 4 (2 n pi)^3 of the Even trajectory in the
    forcing of the Odd mode with the same index."""
    return 4.0 * (2 * n * math.pi) ** 3


def mode_zero(
    k: int, problem: ProblemData, phi_c: float, forcing: TimeSeries, kernels: dict
) -> TimeSeries:
    """Trajectory of the Zero-family mode (eigenvalue mu_k)."""
    sigma = eigen(ModeIndex(Family.Zero, 0, k)).sigma_nk
    return _mode_trajectory(phi_c, forcing, kernels.get(sigma), problem.grid)


def mode_even(
    n: int, k: int, problem: ProblemData, phi_c: float, forcing: TimeSeries,
    kernels: dict,
) -> TimeSeries:
    """Trajectory of the Even-family mode (eigenvalue sigma_nk)."""
    sigma = eigen(ModeIndex(Family.Even, n, k)).sigma_nk
    return _mode_trajectory(phi_c, forcing, kernels.get(sigma), problem.grid)


def mode_odd(
    n: int,
    k: int,
    problem: ProblemData,
    phi_c: float,
    forcing: TimeSeries,
    even_traj: TimeSeries,
    kernels: dict,
) -> TimeSeries:
    """Trajectory of the Odd-family mode; couples to the Even trajectory of
    the same index through the forcing term 4 lambda_n^(3/4) T_even."""
    sigma = eigen(ModeIndex(Family.Odd, n, k)).sigma_nk
    coupled = forcing.values + _odd_coupling(n) * even_traj.values
    return _mode_trajectory(
        phi_c, TimeSeries(problem.grid, coupled), kernels.get(sigma), problem.grid
    )


def solve_forward(problem: ProblemData, *, kernels: dict | None = None) -> SolutionBundle:
    """Project the data, form the forcing a(t) f_nk(t) of every mode, solve
    every mode ODE in closed form (each Even mode before its Odd partner),
    and assemble coefficients and energy.  The kernel pieces are set up
    before the mode loop, once per eigenvalue and in one pass over all
    eigenvalues (``eigen_kernels``): the initial-state trajectories of the
    modes with phi_c != 0, and the moment tables of the modes with forcing
    or an Odd coupling, sigma = 0's included; the mode solves only read
    them.  ``kernels`` is the dict ``eigen_kernels`` reads and fills: pieces
    an earlier call left in it (``solve_inverse``'s recovery) are not built
    again.  None, a fresh dict, drops them on return."""
    t0 = time.perf_counter()
    grid = problem.grid
    n_max, k_max = problem.n_max, problem.k_max
    phi_coeffs = SpectralCoefficients.project_field(problem.phi, n_max, k_max)
    f_coeffs = problem.source.coeff_series(grid, n_max, k_max)
    if problem.amplitude is None:
        raise ValueError("forward solve needs a known amplitude a(t)")
    forcing_coeffs = SpectralCoefficients(
        n_max, k_max, problem.amplitude.values * f_coeffs.values, grid
    )
    coeffs = SpectralCoefficients(n_max, k_max, np.empty_like(f_coeffs.values), grid)

    # storage order solves each Even mode right before the Odd mode it couples to
    modes = coeffs.modes
    pieces = eigen_kernels(problem.op, grid, *_kernel_needs(
        zip(modes, phi_coeffs.values, np.any(forcing_coeffs.values, axis=1))
    ), kernels)
    for r, index in enumerate(modes):
        phi_c, forcing = phi_coeffs[index], forcing_coeffs[index]
        if index.family is Family.Zero:
            traj = mode_zero(index.k, problem, phi_c, forcing, pieces)
        elif index.family is Family.Even:
            traj = mode_even(index.n, index.k, problem, phi_c, forcing, pieces)
        else:
            even = coeffs[ModeIndex(Family.Even, index.n, index.k)]
            traj = mode_odd(index.n, index.k, problem, phi_c, forcing, even, pieces)
        coeffs.values[r] = traj.values

    energy = coeffs.mean()
    shell = [r for r, i in enumerate(modes) if max(i.n, i.k) == max(n_max, k_max)]
    meta = {
        "truncation_tail": float(np.max(np.abs(coeffs.values[shell]))),
        "elapsed_seconds": time.perf_counter() - t0,
    }
    return SolutionBundle(
        coeffs=coeffs,
        phi_coeffs=phi_coeffs,
        forcing_coeffs=forcing_coeffs,
        energy=energy,
        metadata=meta,
    )


def ode_residual(
    problem: ProblemData, bundle: SolutionBundle, index: ModeIndex
) -> TimeSeries:
    """Residual of the mode ODE for a computed trajectory:
    (D^alpha + sum psi_i D^alpha_i) T + sigma T - coupling - a f_nk,
    with the Caputo operator discretized by the L1 scheme."""
    traj = bundle.coeffs[index]
    sigma = eigen(index).sigma_nk
    res = caputo_multiterm(traj, problem.op).values + sigma * traj.values
    res -= bundle.forcing_coeffs[index].values
    if index.family is Family.Odd:
        even = bundle.coeffs[ModeIndex(Family.Even, index.n, index.k)]
        res -= _odd_coupling(index.n) * even.values
    res[0] = 0.0  # the discrete operator carries no value at t = 0
    return TimeSeries(problem.grid, res)
