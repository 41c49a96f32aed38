"""Closed-form forward solver.

Each expansion coefficient T_nk(t) of the solution satisfies a multi-term
fractional ODE whose solution is explicit in terms of relaxation kernels:
homogeneous terms carry the initial coefficient, the forcing enters through a
weakly singular Laplace convolution, and the Odd family picks up an extra
convolution against its paired Even trajectory.
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


def _mode_trajectory(
    sigma: float,
    phi_c: float,
    forcing: TimeSeries | None,
    op: FractionalOperatorSpec,
    grid: TimeGrid,
    tables: dict,
) -> TimeSeries:
    """Solve one mode ODE (D^alpha + sum psi_i D^alpha_i + sigma) T = forcing,
    T(0) = phi_c, via the explicit relaxation-kernel formula.  ``tables``
    maps sigma to the kernel's moment table; a missing table is built and
    stored there, so modes sharing an eigenvalue share one table."""
    forced = forcing is not None and np.any(forcing.values)
    vals = np.zeros(grid.N + 1)
    if phi_c == 0.0 and not forced:
        return TimeSeries(grid, vals)
    spec = mode_kernel_spec(op, sigma)
    if phi_c != 0.0:
        # phi_c P(s) / (s (P(s) + sigma)), P(s) = s^alpha + sum psi_i s^alpha_i,
        # is phi_c (e_1 + sum psi_i e_(alpha+1-alpha_i)): one contour-first
        # kernel call.  At sigma = 0 it is phi_c / s: the mean mode stays put.
        vals[:] = phi_c
        if sigma != 0.0:
            powers = ((1.0, spec.eta),) + tuple(
                (psi, op.alpha + 1.0 - a_i) for psi, a_i in op.terms if psi
            )
            vals[1:] = phi_c * _kernel_sum(spec.reduced(), grid.nodes[1:], powers)
    if forced:
        if sigma not in tables:
            tables[sigma] = KernelMoments(spec.with_eta(op.alpha), grid)
        vals += singular_convolve(forcing, tables[sigma]).values
    return TimeSeries(grid, vals)


def _odd_coupling(n: int) -> float:
    """Weight 4 lambda_n^(3/4) = 4 (2 n pi)^3 of the Even trajectory in the
    forcing of the Odd mode with the same index."""
    return 4.0 * (2 * n * math.pi) ** 3


def mode_zero(
    k: int, problem: ProblemData, phi_c: float, forcing: TimeSeries, tables: dict
) -> TimeSeries:
    """Trajectory of the Zero-family mode (eigenvalue mu_k)."""
    sigma = eigen(ModeIndex(Family.Zero, 0, k)).sigma_nk
    return _mode_trajectory(sigma, phi_c, forcing, problem.op, problem.grid, tables)


def mode_even(
    n: int, k: int, problem: ProblemData, phi_c: float, forcing: TimeSeries,
    tables: dict,
) -> TimeSeries:
    """Trajectory of the Even-family mode (eigenvalue sigma_nk)."""
    sigma = eigen(ModeIndex(Family.Even, n, k)).sigma_nk
    return _mode_trajectory(sigma, phi_c, forcing, problem.op, problem.grid, tables)


def mode_odd(
    n: int,
    k: int,
    problem: ProblemData,
    phi_c: float,
    forcing: TimeSeries,
    even_traj: TimeSeries,
    tables: dict,
) -> TimeSeries:
    """Trajectory of the Odd-family mode; couples to the Even trajectory of
    the same index through the forcing term 4 lambda_n^(3/4) T_even."""
    sigma = eigen(ModeIndex(Family.Odd, n, k)).sigma_nk
    coupled = forcing.values + _odd_coupling(n) * even_traj.values
    return _mode_trajectory(
        sigma, phi_c, TimeSeries(problem.grid, coupled), problem.op, problem.grid,
        tables,
    )


def solve_forward(problem: ProblemData) -> SolutionBundle:
    """Project the data, form the forcing a(t) f_nk(t) of every mode, solve
    every mode ODE in closed form (each Even mode before its Odd partner),
    and assemble coefficients and energy.  Kernel moment tables are
    built once per eigenvalue and dropped on return."""
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
    tables: dict = {}

    # storage order solves each Even mode right before the Odd mode it couples to
    modes = coeffs.modes
    for r, index in enumerate(modes):
        phi_c, forcing = phi_coeffs[index], forcing_coeffs[index]
        if index.family is Family.Zero:
            traj = mode_zero(index.k, problem, phi_c, forcing, tables)
        elif index.family is Family.Even:
            traj = mode_even(index.n, index.k, problem, phi_c, forcing, tables)
        else:
            even = coeffs[ModeIndex(Family.Even, index.n, index.k)]
            traj = mode_odd(index.n, index.k, problem, phi_c, forcing, even, tables)
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
