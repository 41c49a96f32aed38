"""Discrete fractional calculus on uniformly sampled time signals.

Provides the L1 approximation of the multi-term Caputo derivative and the
weakly singular Laplace convolution of a signal against a relaxation kernel,
with the Riemann-Liouville integral as its power-kernel case.  The
convolution is product integration: the signal's not-a-knot cubic spline
(one banded solve for its slopes) is integrated exactly against the kernel
through a table of kernel moments over one grid interval, exact on the
singular first interval and by the 15-point Gauss-Kronrod rule on the smooth
later ones, whose embedded 7-point Gauss rule checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .mlf import RelaxationKernelSpec, _kernel_values, eval_kernel_grid


class GridTooCoarse(ValueError):
    """Signal grid has too few intervals for the requested operation."""


class InvalidSpec(ValueError):
    """Fractional operator orders violate their ordering constraints."""


class InvalidOrder(ValueError):
    """Riemann-Liouville integration order must be positive."""


class QuadratureFailure(RuntimeError):
    """Convolution quadrature disagrees between the Kronrod rule and its
    embedded Gauss rule."""


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


# The 15-point Gauss-Kronrod rule on (-1, 1) and its embedded 7-point Gauss
# rule (Piessens et al., QUADPACK, 1983), nonnegative half: Kronrod nodes
# from the end inward, the last one 0; the Gauss nodes are every second one,
# starting from the second.
_KRONROD_X = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_KRONROD_W = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_GAUSS7_W = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _kronrod01() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the 15-point Kronrod rule on (0, 1) in increasing order, its
    weights, and the embedded 7-point Gauss weights on the same nodes (zero
    at the eight Kronrod-only nodes)."""
    half = np.asarray(_KRONROD_X)
    x = np.concatenate([-half, half[-2::-1]])
    wk = np.concatenate([_KRONROD_W, _KRONROD_W[-2::-1]])
    wg = np.zeros(15)
    wg[1::2] = _GAUSS7_W + _GAUSS7_W[-2::-1]
    return (x + 1.0) / 2.0, wk / 2.0, wg / 2.0


_KRONROD01 = _kronrod01()


class KernelMoments:
    """Moments I_k(p) = int_0^tau u^k e(p tau - u) du, k = 0..3, p = 1..N,
    of one relaxation kernel ``e`` on one uniform grid.

    The first interval holds the weak singularity and is exact:
    I_k(1) = k! e_{eta+k+1}(tau) by the kernel's antiderivative identity,
    the four orders in one kernel call.  Every later interval is at least tau
    away from the singularity and takes the 15-point Gauss-Kronrod rule;
    the embedded 7-point Gauss rule on the same kernel values fills
    ``moments[1]`` for the refusal check in :func:`singular_convolve`.
    """

    def __init__(self, spec: RelaxationKernelSpec, grid: TimeGrid):
        spec = spec.reduced()
        self.grid = grid
        tau, n = grid.tau, grid.N
        k = np.arange(4)
        etas = spec.eta + k + 1.0
        first = _kernel_values(spec, np.full(4, tau), etas) * [1.0, 1.0, 2.0, 6.0]  # k!
        x, wk, wg = _KRONROD01
        u = x * tau
        p = np.arange(2, n + 1, dtype=float)
        e = eval_kernel_grid(spec, (p[:, None] * tau - u[None, :]).ravel())
        e = e.reshape(n - 1, u.size)
        powers = u[:, None] ** k  # (node, k)
        # (rule, k, p - 1)
        self.moments = np.empty((2, 4, n))
        self.moments[:, :, 0] = first
        for r, w in enumerate((wk, wg)):
            self.moments[r, :, 1:] = ((w * tau)[:, None] * powers).T @ e.T


@lru_cache(maxsize=16)
def _not_a_knot_band(n: int) -> np.ndarray:
    """Banded (1, 1) matrix of the not-a-knot slope system on n >= 3 uniform
    intervals, scaled by 1/h: rows 1 4 1 inside, and the ends eliminate
    the third-derivative jump at the second and the last-but-one node.
    Cached: treat as read-only."""
    band = np.zeros((3, n + 1))
    band[0, 2:] = 1.0
    band[1, 1:-1] = 4.0
    band[2, :-2] = 1.0
    band[1, 0], band[0, 1] = 1.0, 2.0
    band[1, -1], band[2, -2] = 1.0, 2.0
    return band


def _local_coefficients(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Power coefficients of the signal's not-a-knot cubic spline on each
    interval, shape (4, N): row k multiplies (t - t_i)^k.

    On N >= 3 intervals the node slopes come from one banded solve of the
    not-a-knot system, and each interval's cubic is the Hermite one of its
    end values and slopes.  On one or two intervals that system is singular
    and the spline is the line or the parabola through the samples.  Refuses
    non-finite samples with ``ValueError``."""
    if not np.all(np.isfinite(values)):
        raise ValueError("signal samples must be finite")
    n, h = grid.N, grid.tau
    slope = np.diff(values) / h
    c = np.zeros((4, n))
    c[0] = values[:-1]
    if n == 1:
        c[1] = slope
        return c
    if n == 2:
        c[2] = (slope[1] - slope[0]) / (2.0 * h)
        c[1] = slope - c[2] * h
        return c
    rhs = np.empty(n + 1)
    rhs[1:-1] = 3.0 * (slope[:-1] + slope[1:])
    rhs[0] = (5.0 * slope[0] + slope[1]) / 2.0
    rhs[-1] = (slope[-2] + 5.0 * slope[-1]) / 2.0
    s = solve_banded((1, 1), _not_a_knot_band(n), rhs, check_finite=False)
    t = (s[:-1] + s[1:] - 2.0 * slope) / h
    c[1] = s[:-1]
    c[2] = (slope - s[:-1]) / h - t
    c[3] = t / h
    return c


def singular_convolve(g: TimeSeries, table: KernelMoments) -> TimeSeries:
    """Laplace convolution (g * e)(t_j) with the relaxation kernel ``e`` whose
    moment table on ``g.grid`` is ``table``.

    The signal's cubic spline is integrated exactly against the kernel
    through the table: each power of the local spline coefficients is one
    discrete convolution with a row of the table.  The table's embedded
    7-point Gauss moments are convolved too, and node values that move by
    more than 1e-7 relative from the 15-point Kronrod ones raise
    :class:`QuadratureFailure`.  Non-finite samples raise ``ValueError``.
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
