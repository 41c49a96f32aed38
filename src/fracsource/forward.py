"""Closed-form forward solver.

Each expansion coefficient T_nk(t) of the solution satisfies a multi-term
fractional ODE whose solution is explicit in terms of relaxation kernels:
homogeneous terms carry the initial coefficient, the forcing enters through a
weakly singular Laplace convolution, and the Odd family picks up an extra
convolution against its paired Even trajectory.  The modes' kernels differ
only in the eigenvalue, so a solve sets up those of all its eigenvalues in
one pass before it solves the modes, and ``eigen_kernels`` is the only code
that builds them.  A ``SetUp`` holds what the solves of one problem share,
the data's projections and the kernel pieces, so solves given one set-up
build each once between them.
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


class SetUp:
    """What the solves of one problem, made from its ``op``, ``grid``,
    ``phi`` and ``source``, share; each piece is built the first time a
    solve needs it.  Per truncation box: phi's coefficients and f's
    ``term_coefficients`` with their product, f's coefficients.  Per
    eigenvalue, filled by ``eigen_kernels``: the initial-state trajectory
    per unit phi_c at ``grid.nodes[1:]`` (``relaxation``) and the forcing's
    moment table (``tables``).  A piece is bit for bit the same whichever
    solve builds it."""

    def __init__(self, op: FractionalOperatorSpec, grid: TimeGrid, phi, source):
        self.op, self.grid, self.phi, self.source = op, grid, phi, source
        self.relaxation, self.tables, self._phi, self._f = {}, {}, {}, {}

    @classmethod
    def serving(cls, setup, op, grid, phi, source) -> "SetUp":
        """``setup``, a fresh set-up when it is None; ValueError when it
        was made from other data."""
        if setup is None:
            return cls(op, grid, phi, source)
        if (op, grid) != (setup.op, setup.grid) or (phi, source) != (setup.phi, setup.source):
            raise ValueError("the set-up was made from another problem's data")
        return setup

    def phi_coeffs(self, n_max: int, k_max: int) -> SpectralCoefficients:
        if (n_max, k_max) not in self._phi:
            self._phi[n_max, k_max] = SpectralCoefficients.project_field(self.phi, n_max, k_max)
        return self._phi[n_max, k_max]

    def source_terms(self, n_max: int, k_max: int) -> tuple:
        """f's per-term spatial coefficients, time factors and coefficients."""
        if (n_max, k_max) not in self._f:
            spatial, hvals = self.source.term_coefficients(self.grid, n_max, k_max)
            f_coeffs = SpectralCoefficients(n_max, k_max, spatial.T @ hvals, self.grid)
            self._f[n_max, k_max] = spatial, hvals, f_coeffs
        return self._f[n_max, k_max]


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


def eigen_kernels(setup: SetUp, relaxed: set, tabled: set) -> None:
    """Build into ``setup`` the kernel pieces it lacks of the eigenvalues
    ``relaxed`` (initial-state trajectories) and ``tabled`` (moment tables),
    in one pass: the nonzero eigenvalues' trajectories by one contour
    set-up, and every table, sigma = 0's included, in one family assembly.
    At sigma = 0 the trajectory is phi_c / s, all ones per unit phi_c, and
    the table's kernel, which lacks the eigenvalue's term, is the family's
    rate 0.  Piece by piece: an eigenvalue may hold its table and lack its
    trajectory."""
    op, grid = setup.op, setup.grid
    relaxed, tabled = relaxed - setup.relaxation.keys(), tabled - setup.tables.keys()
    if 0.0 in relaxed:
        setup.relaxation[0.0] = np.ones(grid.N)
    family = mode_kernel_spec(op, 1.0)
    relaxed, tabled = sorted(relaxed - {0.0}), sorted(tabled)
    if relaxed:
        rows = _kernel_sum(family.reduced(), grid.nodes[1:], _initial_state(op), relaxed)
        setup.relaxation.update(zip(relaxed, rows))
    if tabled:
        tables = KernelMoments.family(family.with_eta(op.alpha), tabled, grid)
        setup.tables.update(zip(tabled, tables))


def _mode_trajectory(
    phi_c: float, forcing: TimeSeries | None, sigma: float, setup: SetUp
) -> TimeSeries:
    """Solve one mode ODE (D^alpha + sum psi_i D^alpha_i + sigma) T = forcing,
    T(0) = phi_c, via the explicit relaxation-kernel formula, from the
    eigenvalue's pieces in ``setup``: phi_c times the initial-state
    trajectory plus the forcing's convolution with the table.  A mode with
    no data reads no piece."""
    grid = setup.grid
    vals = np.zeros(grid.N + 1)
    if phi_c != 0.0:
        vals[0] = phi_c
        vals[1:] = phi_c * setup.relaxation[sigma]
    if forcing is not None and np.any(forcing.values):
        vals += singular_convolve(forcing, setup.tables[sigma]).values
    return TimeSeries(grid, vals)


def _odd_coupling(n: int) -> float:
    """Weight 4 lambda_n^(3/4) = 4 (2 n pi)^3 of the Even trajectory in the
    forcing of the Odd mode with the same index."""
    return 4.0 * (2 * n * math.pi) ** 3


def mode_zero(k: int, phi_c: float, forcing: TimeSeries, setup: SetUp) -> TimeSeries:
    """Trajectory of the Zero-family mode (eigenvalue mu_k)."""
    return _mode_trajectory(phi_c, forcing, eigen(ModeIndex(Family.Zero, 0, k)).sigma_nk, setup)


def mode_even(n: int, k: int, phi_c: float, forcing: TimeSeries, setup: SetUp) -> TimeSeries:
    """Trajectory of the Even-family mode (eigenvalue sigma_nk)."""
    return _mode_trajectory(phi_c, forcing, eigen(ModeIndex(Family.Even, n, k)).sigma_nk, setup)


def mode_odd(
    n: int, k: int, phi_c: float, forcing: TimeSeries, even_traj: TimeSeries, setup: SetUp
) -> TimeSeries:
    """Trajectory of the Odd-family mode; couples to the Even trajectory of
    the same index through the forcing term 4 lambda_n^(3/4) T_even."""
    sigma = eigen(ModeIndex(Family.Odd, n, k)).sigma_nk
    coupled = forcing.values + _odd_coupling(n) * even_traj.values
    return _mode_trajectory(phi_c, TimeSeries(setup.grid, coupled), sigma, setup)


def solve_forward(problem: ProblemData, *, setup: SetUp | None = None) -> SolutionBundle:
    """Form the forcing a(t) f_nk(t) of every mode from the projected data,
    solve every mode ODE in closed form (each Even mode before its Odd
    partner), and assemble coefficients and energy.  The kernel pieces are
    set up before the mode loop in one pass over all eigenvalues
    (``eigen_kernels``): the initial-state trajectories of the modes with
    phi_c != 0, and the moment tables of the modes with forcing or an Odd
    coupling, sigma = 0's included; the mode solves only read them.
    ``setup`` (None: a fresh one) holds the projections and pieces an
    earlier solve of the problem built (``solve_inverse``'s recovery), which
    are not built again.  A missing amplitude is refused before any work."""
    t0 = time.perf_counter()
    if problem.amplitude is None:
        raise ValueError("forward solve needs a known amplitude a(t)")
    grid = problem.grid
    n_max, k_max = problem.n_max, problem.k_max
    setup = SetUp.serving(setup, problem.op, grid, problem.phi, problem.source)
    phi_coeffs = setup.phi_coeffs(n_max, k_max)
    f_coeffs = setup.source_terms(n_max, k_max)[2]
    forcing_coeffs = SpectralCoefficients(
        n_max, k_max, problem.amplitude.values * f_coeffs.values, grid
    )
    coeffs = SpectralCoefficients(n_max, k_max, np.empty_like(f_coeffs.values), grid)

    # storage order solves each Even mode right before the Odd mode it couples to
    modes = coeffs.modes
    eigen_kernels(setup, *_kernel_needs(
        zip(modes, phi_coeffs.values, np.any(forcing_coeffs.values, axis=1))
    ))
    for r, index in enumerate(modes):
        phi_c, forcing = phi_coeffs[index], forcing_coeffs[index]
        if index.family is Family.Zero:
            traj = mode_zero(index.k, phi_c, forcing, setup)
        elif index.family is Family.Even:
            traj = mode_even(index.n, index.k, phi_c, forcing, setup)
        else:
            even = coeffs[ModeIndex(Family.Even, index.n, index.k)]
            traj = mode_odd(index.n, index.k, phi_c, forcing, even, setup)
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
