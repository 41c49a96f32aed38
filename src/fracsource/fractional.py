"""Discrete fractional calculus on uniformly sampled time signals.

Provides the L1 approximation of the multi-term Caputo derivative and the
weakly singular Laplace convolution of a signal against a relaxation kernel,
with the Riemann-Liouville integral as its power-kernel case.  The
convolution is product integration: the signal's cubic spline is integrated
exactly against the kernel through a table of kernel moments over one grid
interval, exact on the singular first interval and by Gauss-Legendre
quadrature on the smooth later ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .mlf import RelaxationKernelSpec, eval_kernel_grid


class GridTooCoarse(ValueError):
    """Signal grid has too few intervals for the requested operation."""


class InvalidSpec(ValueError):
    """Fractional operator orders violate their ordering constraints."""


class InvalidOrder(ValueError):
    """Riemann-Liouville integration order must be positive."""


class QuadratureFailure(RuntimeError):
    """Convolution quadrature disagrees between its two Gauss rules."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T."""

    T: float
    N: int

    def __post_init__(self) -> None:
        if self.T <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.N < 1:
            raise ValueError(f"need at least one interval, got {self.N}")

    @property
    def tau(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass
class TimeSeries:
    """Function of time sampled on a uniform grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.N + 1,):
            raise ValueError(
                f"expected {self.grid.N + 1} values, got {self.values.shape}"
            )

    @classmethod
    def from_function(cls, grid: TimeGrid, fn) -> "TimeSeries":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    @classmethod
    def zeros(cls, grid: TimeGrid) -> "TimeSeries":
        return cls(grid, np.zeros(grid.N + 1))

    def __add__(self, other: "TimeSeries") -> "TimeSeries":
        return TimeSeries(self.grid, self.values + other.values)

    def __mul__(self, c: float) -> "TimeSeries":
        return TimeSeries(self.grid, self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class FractionalOperatorSpec:
    """Multi-term Caputo operator D^alpha + sum_i psi_i D^alpha_i with
    0 < alpha_m < ... < alpha_1 < alpha <= 1 and psi_i >= 0."""

    alpha: float
    terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidSpec(f"leading order must be in (0, 1], got {self.alpha}")
        prev = self.alpha
        for psi, alpha_i in self.terms:
            if psi < 0.0:
                raise InvalidSpec(f"weights must be nonnegative, got {psi}")
            if not 0.0 < alpha_i < prev:
                raise InvalidSpec(
                    "orders must satisfy 0 < alpha_m < ... < alpha_1 < alpha"
                )
            prev = alpha_i

    def all_terms(self) -> tuple[tuple[float, float], ...]:
        """Weight/order pairs including the leading unit-weight term."""
        return ((1.0, self.alpha),) + self.terms


def l1_weights(op: FractionalOperatorSpec, tau: float, n: int) -> np.ndarray:
    """History weights c_0..c_n of the L1 scheme for the multi-term operator
    on n steps: (D^alpha + sum psi_i D^alpha_i) u(t_p) ~ sum_{j<=p} c_{p-j}
    (u_j - u_{j-1}).  Order beta contributes psi tau^(-beta) / Gamma(2 - beta)
    times b_q = (q+1)^(1-beta) - q^(1-beta), with b_0 = 1 also at beta = 1
    (the backward difference)."""
    terms = op.all_terms()
    gammas = np.array(
        [psi * tau ** (-beta) / math.gamma(2.0 - beta) for psi, beta in terms]
    )
    q = np.arange(n + 1, dtype=float)
    weights = np.stack([(q + 1.0) ** (1.0 - beta) - q ** (1.0 - beta) for _, beta in terms])
    weights[:, 0] = 1.0
    return gammas @ weights


def caputo_multiterm(signal: TimeSeries, op: FractionalOperatorSpec) -> TimeSeries:
    """Apply the multi-term Caputo operator to a sampled signal via the L1
    scheme.  The value at t_0 is reported as 0 by convention."""
    n = signal.grid.N
    if n < 2:
        raise GridTooCoarse("the L1 scheme needs at least 2 intervals")
    out = np.zeros(n + 1)
    out[1:] = np.convolve(np.diff(signal.values), l1_weights(op, signal.grid.tau, n))[:n]
    return TimeSeries(signal.grid, out)


# singular convolution -------------------------------------------------------


@lru_cache(maxsize=64)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on (0, 1).  Cached: treat as read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


# Gauss-Legendre rules on (0, 1) for the smooth intervals: the larger one
# gives the moments, the smaller one the refusal check.
_RULES = (_gauss01(16), _gauss01(8))


class KernelMoments:
    """Moments I_k(p) = int_0^tau u^k e(p tau - u) du, k = 0..3, p = 1..N,
    of one relaxation kernel ``e`` on one uniform grid.

    The first interval holds the weak singularity and is exact:
    I_k(1) = k! e_{eta+k+1}(tau) by the kernel's antiderivative identity.
    Every later interval is at least tau away from the singularity and takes
    a 16-point Gauss-Legendre rule; an 8-point rule on the same intervals is
    kept for the refusal check in :func:`singular_convolve`.
    """

    def __init__(self, spec: RelaxationKernelSpec, grid: TimeGrid):
        spec = spec.reduced()
        self.grid = grid
        tau, n = grid.tau, grid.N
        first = [
            math.factorial(k)
            * eval_kernel_grid(spec.with_eta(spec.eta + k + 1.0), np.array([tau]))[0]
            for k in range(4)
        ]
        u = np.concatenate([x for x, _ in _RULES]) * tau
        p = np.arange(2, n + 1, dtype=float)
        e = eval_kernel_grid(spec, (p[:, None] * tau - u[None, :]).ravel())
        e = e.reshape(n - 1, u.size)
        # (rule, k, p - 1)
        self.moments = np.empty((2, 4, n))
        self.moments[:, :, 0] = first
        blocks = np.split(e, [_RULES[0][0].size], axis=1)
        for r, ((x, w), e_r) in enumerate(zip(_RULES, blocks)):
            for k in range(4):
                self.moments[r, k, 1:] = e_r @ (w * tau * (x * tau) ** k)


def _local_coefficients(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Power coefficients of the signal's not-a-knot cubic spline on each
    interval, shape (4, N): row k multiplies (t - t_i)^k.  On one or two
    intervals the spline is the line or the parabola through the samples."""
    return CubicSpline(grid.nodes, values).c[::-1]


def singular_convolve(g: TimeSeries, table: KernelMoments) -> TimeSeries:
    """Laplace convolution (g * e)(t_j) with the relaxation kernel ``e`` whose
    moment table on ``g.grid`` is ``table``.

    The signal's cubic spline is integrated exactly against the kernel
    through the table: each power of the local spline coefficients is one
    discrete convolution with a row of the table.  The 8-point table is
    convolved too, and node values that move by more than 1e-7 relative
    raise :class:`QuadratureFailure`.
    """
    grid = g.grid
    if table.grid != grid:
        raise ValueError("moment table was built for a different grid")
    out = np.zeros(grid.N + 1)
    if not np.any(g.values):
        return TimeSeries(grid, out)
    c = _local_coefficients(grid, g.values)
    fine, coarse = (
        sum(np.convolve(c[k], m[k])[: grid.N] for k in range(4))
        for m in table.moments
    )
    # A-priori bound on the convolution, max|g| * int_0^T e: node values more
    # than 10 digits below it are accepted on absolute accuracy grounds
    # (relative digits are unrecoverable that far down in doubles).
    bound = abs(float(np.sum(table.moments[0, 0]))) * np.max(np.abs(g.values))
    bad = np.abs(coarse - fine) > np.maximum(1e-7 * np.abs(fine), 1e-10 * bound)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise QuadratureFailure(
            f"convolution quadrature unstable at t={grid.nodes[j + 1]:g}: "
            f"{coarse[j]:g} vs {fine[j]:g}"
        )
    out[1:] = fine
    return TimeSeries(grid, out)


def rl_integral(signal: TimeSeries, xi: float) -> TimeSeries:
    """Riemann-Liouville integral of order xi: the convolution with the power
    kernel t^(xi-1) / Gamma(xi)."""
    if xi <= 0.0:
        raise InvalidOrder(f"integration order must be positive, got {xi}")
    table = KernelMoments(RelaxationKernelSpec(xi, ()), signal.grid)
    return singular_convolve(signal, table)
