"""Recovery of the temporal source amplitude from the energy datum.

Integrating the equation over the spatial domain collapses it to
(D^alpha + sum psi_i D^alpha_i) E(t) = (integral of f) * a(t) + flux(t),
where flux(t) is the boundary contribution of the fourth-order operator.
The flux is a linear Volterra functional of a itself (it is carried by the
mean-bearing associated modes that f excites), so the amplitude solves a
second-kind Volterra equation; a short fixed-point iteration resolves it and
collapses to an explicit per-node ratio whenever f excites no such mode.
Its kernel is fixed for the whole recovery, so a sweep convolves once per
separable term of f, against one table combined from the modes' tables.

The discrete Caputo operator carries a startup error on the t^alpha
component that every solution of a fractional ODE has near t = 0; that
component is identified from the early nodes and its discretization defect
subtracted in closed form.

Only the k = 0 modes carry the energy.  The recovery therefore solves the
k = 0 box alone.  ``solve_inverse``'s forward solve over the whole box, and
``stability_probe``'s recoveries, share one ``SetUp`` per call: they read
the projections and kernel pieces an earlier solve built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .catalog import SpaceTimeField
from .forward import ProblemData, SetUp, SolutionBundle, _kernel_needs, eigen_kernels, solve_forward
from .fractional import (
    FractionalOperatorSpec,
    KernelMoments,
    TimeGrid,
    TimeSeries,
    caputo_multiterm,
    caputo_power,
    singular_convolve,
    whole_number,
)
from .mlf import NonConvergence
from .spectral import Family, Field2D


class MeanTooSmall(ValueError):
    """The spatial mean of f falls below the invertibility threshold."""


class CompatibilityViolation(ValueError):
    """The energy datum at t = 0 does not match the mean of phi."""


DEFAULT_MEAN_THRESHOLD = 1e-8
COMPATIBILITY_TOL = 1e-6
_MAX_FLUX_ITERATIONS = 20


@dataclass
class EnergyDatum:
    """Sampled energy over-determination E(t)."""

    E: TimeSeries


@dataclass
class SourceAmplitude:
    """Recovered amplitude a(t); the origin value is a one-sided quadratic
    extrapolation from the first three interior nodes."""

    a: TimeSeries
    metadata: dict = field(default_factory=dict)


def _startup_exponents(op: FractionalOperatorSpec) -> list[float]:
    """Three leading exponents of the local expansion of a solution of the
    mode / energy ODE near t = 0: alpha, then alpha plus the operator's gaps."""
    gaps = sorted({op.alpha} | {op.alpha - a_i for _, a_i in op.terms} | {1.0})
    exps = sorted({op.alpha + g for g in [0.0] + gaps})
    return [p for p in exps if p < 2.0][:3]


def _startup_correction(signal: TimeSeries, op: FractionalOperatorSpec) -> np.ndarray:
    """Closed-form correction for the L1 defect on the singular startup part.

    Fits E(t) - E(0) on the first eight nodes against the basis {t^p} of
    leading local exponents, then subtracts the difference between the L1
    approximation and the exact Caputo derivative of the fitted singular part
    sum c_p t^p (the operator is linear, so L1 runs once on the sum).  Exact
    for signals in the span of the basis; inert for alpha = 1 where the L1
    scheme has no startup defect on these powers.
    """
    grid = signal.grid
    if op.alpha == 1.0:
        return np.zeros(grid.N + 1)
    exps = [p for p in _startup_exponents(op) if abs(p - 1.0) > 1e-9]
    if not exps:
        return np.zeros(grid.N + 1)
    # include t itself in the fit basis so smooth data does not leak into
    # the singular coefficients, but never "correct" it (L1 is exact on it)
    fit_exps = sorted(set(exps) | {1.0})
    j = np.arange(1, min(8, grid.N) + 1)
    ts = grid.nodes[j]
    A = np.stack([ts**p for p in fit_exps], axis=1)
    rhs = signal.values[j] - signal.values[0]
    coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    singular = [(c, p) for c, p in zip(coef, fit_exps) if p != 1.0]
    part = TimeSeries.from_function(grid, lambda t: sum(c * t**p for c, p in singular))
    correction = np.zeros(grid.N + 1)
    correction[1:] = sum(c * caputo_power(op, p, grid.nodes[1:]) for c, p in singular)
    correction[1:] -= caputo_multiterm(part, op).values[1:]
    return correction


def _extrapolate_origin(a: np.ndarray, N: int) -> None:
    """One-sided quadratic extrapolation of a(0) from the first three
    interior nodes (the discrete Caputo operator carries no value there)."""
    if N >= 3:
        a[0] = 3.0 * a[1] - 3.0 * a[2] + a[3]
    else:
        a[0] = a[1]


def recover_source(
    f: SpaceTimeField,
    datum: EnergyDatum,
    op: FractionalOperatorSpec,
    grid: TimeGrid | None = None,
    phi: Field2D | None = None,
    flux_modes: int = 8,
    *,
    setup: SetUp | None = None,
) -> SourceAmplitude:
    """Per-node amplitude a(t_j) = (multi-term Caputo of E)(t_j) / f-mean(t_j),
    plus the boundary-flux closure when f excites mean-bearing associated
    modes.  f-mean is the spatial mean of f truncated to the ``flux_modes``
    modes the closure keeps; dividing by the full integral instead leaves a
    bias of order 1/flux_modes.

    The spatially integrated equation reads (multi-term Caputo of E) =
    a * f-mean - sum_n c_n e_n * (a F_n), c_n = sigma_n mean(Z_n), with e_n
    the forcing kernel of the n-th associated mean-bearing mode (Even, k = 0)
    and F_n = sum_t s_tn h_t f's coefficient of it over f's separable terms.
    The flux is linear in its kernel: it is sum_t K_t * (a h_t) with
    K_t = sum_n c_n s_tn e_n, one table per term (``KernelMoments.combine``)
    and one convolution per term and sweep (``flux_convolutions``).  The
    resulting second-kind Volterra equation is solved by fixed-point
    iteration (the flux-to-mean ratio makes it a strong contraction); when f
    excites none of these modes the iteration is skipped and the amplitude
    is the explicit ratio.  Raises :class:`NonConvergence` when the
    iteration has not settled within ``_MAX_FLUX_ITERATIONS``, and
    ValueError on a non-finite datum sample.

    When ``phi`` is supplied, E(0) must equal the mean of phi truncated
    as the forward energy carries it, phi_00 + sum_{n <= flux_modes}
    mean(Z_n) phi_n, and the flux phi's mean-bearing associated modes drive
    is closed too, by taking their homogeneous energy
    sum_n mean(Z_n) (T_n - phi_n) out of E before differentiating: its exact
    Caputo derivative is that flux, so the L1 scheme never has to resolve
    the stiff T_n.

    Projections and kernel pieces are the forward solver's own, over the
    k = 0 box n <= ``flux_modes``, from ``setup`` (None: a fresh one), which
    a caller passes to several solves of one problem so that each is built
    once between them; phi's trajectories and the modes' tables are set up
    in one pass, as the forward solver's are.
    """
    flux_modes = whole_number(flux_modes, "flux_modes")
    if flux_modes < 0:
        raise ValueError(f"flux_modes must be nonnegative, got {flux_modes}")
    if grid is None:
        grid = datum.E.grid
    E = datum.E
    if E.grid.N != grid.N or E.grid.T != grid.T:
        raise ValueError("energy datum grid does not match the requested grid")
    if not np.all(np.isfinite(E.values)):
        raise ValueError("energy datum samples must be finite")
    setup = SetUp.serving(setup, op, grid, phi, f)
    phi_coeffs = None
    if phi is not None:
        phi_coeffs = setup.phi_coeffs(flux_modes, 0)
        truncated = phi_coeffs.mean()
        if not abs(E.values[0] - truncated) <= COMPATIBILITY_TOL:
            raise CompatibilityViolation(
                f"E(0) = {E.values[0]:.9g} but the initial datum's mean over "
                f"the modes n <= {flux_modes} is {truncated:.9g}"
            )
    spatial, hvals, f_coeffs = setup.source_terms(flux_modes, 0)
    fmean = f_coeffs.mean().values
    bad = np.abs(fmean) < DEFAULT_MEAN_THRESHOLD
    if np.any(bad):
        j = int(np.argmax(bad))
        raise MeanTooSmall(
            f"|truncated mean of f| = {abs(fmean[j]):.3g} at t = "
            f"{grid.nodes[j]:.6g} is below the threshold {DEFAULT_MEAN_THRESHOLD:g}"
        )
    associated = [r for r, i in enumerate(f_coeffs.modes) if i.family is Family.Even]
    sigma, means = f_coeffs.sigma[associated], f_coeffs.means[associated]
    phi_c = np.zeros(len(associated)) if phi_coeffs is None else phi_coeffs.values[associated]
    excited = np.any(f_coeffs.values[associated], axis=1)
    eigen_kernels(setup, *_kernel_needs(sigma, phi_c, excited))

    if phi_coeffs is not None:
        homog = np.zeros(grid.N + 1)
        for c, s, m in zip(phi_c.tolist(), sigma.tolist(), means.tolist()):
            if c != 0.0:
                homog[1:] += m * (c * setup.relaxation[s] - c)
        E = TimeSeries(grid, E.values - homog)
    deriv = caputo_multiterm(E, op).values + _startup_correction(E, op)
    a = np.empty(grid.N + 1)
    a[1:] = deriv[1:] / fmean[1:]
    _extrapolate_origin(a, grid.N)
    weights = spatial[:, associated][:, excited] * (sigma * means)[excited]
    tables = [setup.tables[s] for s in sigma[excited].tolist()]
    live = [(h, KernelMoments.combine(tables, w)) for w, h in zip(weights, hvals) if np.any(w)]
    iterations = 0
    if live:
        for iterations in range(1, _MAX_FLUX_ITERATIONS + 1):
            flux = sum(singular_convolve(TimeSeries(grid, a * h), k).values for h, k in live)
            new = np.empty(grid.N + 1)
            new[1:] = (deriv[1:] + flux[1:]) / fmean[1:]
            _extrapolate_origin(new, grid.N)
            change = float(np.max(np.abs(new - a)))
            a = new
            tol = 1e-12 * max(1.0, float(np.max(np.abs(a))))
            if change <= tol:
                break
        else:
            raise NonConvergence(
                f"flux closure not settled after {_MAX_FLUX_ITERATIONS} "
                f"iterations: last change {change:.3g}, tolerance {tol:.3g}"
            )
    return SourceAmplitude(
        a=TimeSeries(grid, a),
        metadata={
            "flux_modes_excited": int(np.count_nonzero(excited)),
            "flux_iterations": iterations,
            "flux_convolutions": iterations * len(live),
        },
    )


def solve_inverse(
    problem: ProblemData, datum: EnergyDatum
) -> tuple[SourceAmplitude, SolutionBundle]:
    """Recover a(t) from the energy datum, then run the forward solver with
    it over the problem's whole (n_max, k_max) box; the sup-norm mismatch
    between the reproduced energy and the datum is the amplitude's
    ``energy_residual``, a self-consistency residual.  The two solves share
    one ``SetUp``, made for this call: the forward solve builds only the
    projections and kernel pieces the recovery's k = 0 box did not need."""
    setup = SetUp(problem.op, problem.grid, problem.phi, problem.source)
    amplitude = recover_source(
        problem.source, datum, problem.op, problem.grid, phi=problem.phi,
        flux_modes=problem.n_max, setup=setup,
    )
    bundle = solve_forward(problem.with_amplitude(amplitude.a), setup=setup)
    residual = float(np.max(np.abs(bundle.energy.values - datum.E.values)))
    amplitude.metadata["energy_residual"] = residual
    return amplitude, bundle


@dataclass
class StabilityReport:
    deltas: list[float]
    a_diffs: list[float]
    slope: float
    base: TimeSeries  # the amplitude from the unperturbed datum


def stability_probe(
    problem: ProblemData, datum: EnergyDatum, deltas=(1e-1, 1e-2, 1e-3, 1e-4)
) -> StabilityReport:
    """Perturb the energy datum by d * t / T for each d in ``deltas`` and
    report the sup-norm change of the recovered amplitude; the log-log slope
    quantifies the (linear) stability: ``deltas`` without two distinct
    values, or with one that is not finite and positive, raise ValueError,
    and so does a delta whose amplitude change is not.  Recovery runs as in
    ``solve_inverse``: phi's flux closure and ``flux_modes = n_max``.  The
    recoveries share one ``SetUp``, made for this call, so projections and
    kernels are set up once."""
    deltas = [float(d) for d in deltas]
    if len(set(deltas)) < 2 or not all(0.0 < d < np.inf for d in deltas):
        raise ValueError(f"deltas must be finite and positive, two distinct at least: {deltas}")
    grid = problem.grid
    recover = partial(
        recover_source, problem.source, op=problem.op, grid=grid, phi=problem.phi,
        flux_modes=problem.n_max, setup=SetUp(problem.op, grid, problem.phi, problem.source),
    )
    base = recover(datum).a
    a_diffs = []
    for d in deltas:
        tilde = EnergyDatum(TimeSeries(grid, datum.E.values + d * grid.nodes / grid.T))
        a_diffs.append(float(np.max(np.abs(recover(tilde).a.values - base.values))))
        if not 0.0 < a_diffs[-1] < np.inf:
            raise ValueError(f"delta = {d:g} changed the amplitude by {a_diffs[-1]:g}")
    slope = float(np.polyfit(np.log(deltas), np.log(a_diffs), 1)[0])
    return StabilityReport(deltas=deltas, a_diffs=a_diffs, slope=slope, base=base)
