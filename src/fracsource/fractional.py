"""Discrete fractional calculus on uniformly sampled time signals.

Provides the L1 approximation of the multi-term Caputo derivative and the
weakly singular Laplace convolution of a signal against a relaxation kernel,
with the Riemann-Liouville integral as its power-kernel case.  The
convolution is product integration: the signal's not-a-knot cubic spline is
integrated exactly against the kernel.  A cubic spline is fixed by its node
values and node slopes (its Hermite form; one tridiagonal solve for the
slopes, against a factor kept per grid), so the convolution is two discrete
convolutions, of the values and of the slopes, against weights each kernel
table derives once from its moments over one grid interval.  The first
interval's moments are the kernel's antiderivatives at the step, the
contour's 48-node values certified by its 32-node ones.  On the smooth later
intervals the kernel is a Chebyshev interpolant on dyadic panels, and a
Gauss-Legendre rule integrates that interpolant times u^k exactly; the only
error left is the interpolation error, which the table checks.  The tables
of kernels that differ only in their last rate, a solve's eigenvalues, are
built together in one assembly: the first-interval moments of all of them
from one contour set-up, their panel values from one ``eval_kernel_grid``
call, and their moments, gaps and weights as arrays with a row per table.
One table alone is such a family of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .mlf import RelaxationKernelSpec, _kernel_sum, _own_rate, eval_kernel_grid


class GridTooCoarse(ValueError):
    """Signal grid has too few intervals for the requested operation."""


class InvalidSpec(ValueError):
    """Fractional operator orders violate their ordering constraints."""


class InvalidOrder(ValueError):
    """Riemann-Liouville integration order must be positive."""


class QuadratureFailure(RuntimeError):
    """The kernel's panel interpolant misses the kernel values it skips by
    more than the convolution can tolerate."""


def whole_number(value, name: str) -> int:
    """``value`` as an int if it is a whole number (an int, a numpy integer
    or an integral float), else ValueError: 8.7, True or "8" is no count."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T."""

    T: float
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", whole_number(self.N, "N"))
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.T}")
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
            if not 0.0 <= psi < math.inf:
                raise InvalidSpec(f"weights must be nonnegative and finite, got {psi}")
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


def caputo_power(op: FractionalOperatorSpec, p: float, ts) -> np.ndarray:
    """(D^alpha + sum psi_i D^alpha_i) t^p in closed form at ``ts``, p > 0."""
    ts = np.asarray(ts, dtype=float)
    return sum(
        psi * math.gamma(1.0 + p) / math.gamma(1.0 + p - beta) * ts ** (p - beta)
        for psi, beta in op.all_terms()
    )


# singular convolution -------------------------------------------------------


@lru_cache(maxsize=64)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on (0, 1).  Cached: treat as read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


# Chebyshev-Lobatto nodes on each panel of the later intervals' kernel
# arguments.  Their every-other subset is the 17-node interpolant whose
# disagreement with the skipped nodes bounds the interpolation error.
_PANEL_NODES = 33


def _lobatto(n: int) -> np.ndarray:
    """The n + 1 Chebyshev-Lobatto points on [-1, 1] in increasing order."""
    return np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))


def _lobatto_interp(n: int, targets: np.ndarray) -> np.ndarray:
    """Matrix taking values at the n + 1 Chebyshev-Lobatto points to their
    polynomial interpolant at ``targets``, by the barycentric formula with
    weights (-1)^j halved at the ends; a target on a point takes its value."""
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] /= 2.0
    d = targets[:, None] - _lobatto(n)
    hit = d == 0.0
    d[hit] = 1.0
    m = np.divide(w, d, out=d)  # in place: the largest array
    m /= m.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    m[on_node] = hit[on_node]
    return m


_PANEL_X = _lobatto(_PANEL_NODES - 1)
# the 17-node interpolant on every other panel node at the 16 it skips
_HALF_PANEL = _lobatto_interp((_PANEL_NODES - 1) // 2, _PANEL_X[1::2])


# Four grids: an entry holds about 1.1 kB per interval (1.1 MB at n = 1024),
# and a run uses one or two (the solve's, and an inverse run's synthesis grid).
@lru_cache(maxsize=4)
def _panel_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels of the later intervals' kernel arguments on n >= 2 intervals
    and the weights taking panel values to moments, all in units of tau.

    Returns the panel edges 1, 2, 4, ..., n (the last panel clipped at n),
    each later interval's panel, and the (k, interval, panel node) weights:
    the exact integrals of u^k times the interval's panel interpolant.  The
    interpolant has degree _PANEL_NODES - 1 and the integrand at most 3
    more, so the Gauss-Legendre rule with (_PANEL_NODES + 3) // 2 nodes,
    folded into the barycentric interpolation to those nodes, is exact.
    Built one panel at a time, so the interpolation matrices never all
    exist at once.  Cached: treat as read-only."""
    edges = np.minimum(2 ** np.arange((n - 1).bit_length() + 1), n)
    x, w = _gauss01((_PANEL_NODES + 3) // 2)
    rule = w * x ** np.arange(4)[:, None]
    weights = np.empty((4, n - 1, _PANEL_NODES))
    for a, b in zip(edges[:-1], edges[1:]):
        # intervals (j + 1, j + 2) in the panel [a, b]; node x sits at j + 2 - x
        j = np.arange(a - 1, b - 1)
        ref = (2.0 * (j[:, None] + 2.0 - x) - a - b) / (b - a)
        interp = _lobatto_interp(_PANEL_NODES - 1, ref.ravel()).reshape(j.size, x.size, -1)
        weights[:, j] = np.einsum("kq,jqc->kjc", rule, interp)
    return edges, np.repeat(np.arange(edges.size - 1), np.diff(edges)), weights


_FACTORIALS = np.array([1.0, 1.0, 2.0, 6.0])  # k!, k = 0..3


def _first_moments(spec: RelaxationKernelSpec, tau: float, rates) -> np.ndarray:
    """The first-interval moments I_k(1) = k! e_(eta+k+1)(tau), k = 0..3, of
    the reduced ``spec`` with each of the ``rates`` in place of its last
    term's rate, shape (rates, 4), from one contour set-up with the index
    given per time: the 48-node values, certified by their agreement with
    the 32-node ones, and the series for the points the contour refuses.
    One kernel is the family of ``_own_rate(spec)``."""
    etas = spec.eta + np.arange(4) + 1.0
    return _kernel_sum(spec, np.full(4, tau), ((1.0, etas),), rates, finer=True) * _FACTORIALS


def _hermite_weights(moments: np.ndarray, tau: float) -> np.ndarray:
    """The weights taking a cubic spline's node values and node slopes
    straight to its convolution with the kernel whose moment table on steps
    of ``tau`` is ``moments``, shape (..., 4, N) to (..., 4, N).

    Against the moments of interval p, the Hermite basis of its left and
    right values and slopes integrates to A = I_0 - B, B = 3 I_2/h^2 -
    2 I_3/h^3, C = I_1 - I_2/h + D and D = I_3/h^2 - I_2/h, h = tau.  Grouped
    by node: for output j, node m >= 1, d = j - m steps back, starts the
    interval of moments p = d and ends that of p = d + 1, so column d of
    rows 0 and 1 holds A(d) + B(d + 1) and C(d) + D(d + 1), with A(0) =
    C(0) = 0, for its value and its slope; node 0 only starts the interval
    of p = j, so column j - 1 of rows 2 and 3 holds A(j) and C(j)."""
    i0, i1, i2, i3 = np.moveaxis(moments, -2, 0)
    right = 3.0 * i2 / tau**2 - 2.0 * i3 / tau**3
    right_slope = i3 / tau**2 - i2 / tau
    left = i0 - right
    left_slope = i1 - i2 / tau + right_slope
    weights = np.stack([right, right_slope, left, left_slope], axis=-2)
    weights[..., :2, 1:] += weights[..., 2:, :-1]
    return weights


def _tables(spec: RelaxationKernelSpec, grid: TimeGrid, rates) -> list[tuple]:
    """Per entry of ``rates`` in place of the reduced ``spec``'s last rate,
    its table's read-only moments (4, N), ``gap`` and Hermite weights
    (4, N), all rates in one pass: the first-interval moments from one
    contour set-up, the panel values from one kernel call, and the
    later-interval moments, gaps and weights as arrays with a row per
    rate."""
    tau, n = grid.tau, grid.N
    moments = np.empty((len(rates), 4, n))
    moments[:, :, 0] = _first_moments(spec, tau, rates)
    gaps = np.zeros(len(rates))
    if n > 1:
        edges, panel, weights = _panel_rule(n)
        mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
        nodes = mid[:, None] + half[:, None] * _PANEL_X
        e = eval_kernel_grid(spec, (nodes * tau).ravel(), rates).reshape(-1, *nodes.shape)
        miss = np.abs(e[:, :, 1::2] - e[:, :, ::2] @ _HALF_PANEL.T).max(axis=2)
        gaps = (miss @ np.diff(edges)) * tau
        later = moments[:, :, 1:]
        np.einsum("kjc,rjc->rkj", weights, e[:, panel], out=later)
        later *= (tau ** np.arange(1.0, 5.0))[:, None]
    hermite = _hermite_weights(moments, tau)
    moments.flags.writeable = hermite.flags.writeable = False
    return list(zip(moments, gaps.tolist(), hermite))


class KernelMoments:
    """Moments I_k(p) = int_0^tau u^k e(p tau - u) du, k = 0..3, p = 1..N,
    of one relaxation kernel ``e`` on one uniform grid, and the Hermite
    weights a convolution takes from them.

    The first interval holds the weak singularity and takes the kernel's
    antiderivative identity I_k(1) = k! e_{eta+k+1}(tau), which is exact.
    Its four values are ``_first_moments``' 48-node contour values,
    certified by the 32-node ones (about 1e-13 relative).  ``moments`` has
    shape (4, N): row k, column p - 1.

    Every later interval is at least tau away from the singularity, where
    the kernel is a piecewise-Chebyshev interpolant: the later intervals'
    arguments (tau, T] split into dyadic panels [2^i tau, 2^(i+1) tau], the
    last one ending at T, where the kernel is analytic, and the kernel's
    values at 33 Chebyshev-Lobatto nodes per panel come from one
    ``eval_kernel_grid`` call, contour first (the interpolant tolerates its
    accuracy).  Those moments integrate the interpolant exactly
    (:func:`_panel_rule`), so their only error is the interpolation error.
    ``gap`` bounds its effect on a convolution per unit of max|g|: the sum
    over panels of the width times the largest gap between the 17-node
    interpolant on every other node and the 16 nodes it skips.

    ``weights`` (:func:`_hermite_weights`, shape (4, N)) regroup the moments
    by spline node, so a convolution takes the signal's node values and
    slopes with two discrete convolutions.  ``moments`` and ``weights`` are
    read-only: the weights are derived once, from the moments as built, and
    so is ``integral``, |int_0^T e|, the scale of the ``gap`` check.

    A table is built from ``parts``, its moments, gap and weights as
    :meth:`family` assembles them for many kernels at once; one kernel
    alone is the family of ``_own_rate(spec)``.
    """

    def __init__(self, spec: RelaxationKernelSpec, grid: TimeGrid, parts: tuple | None = None):
        if parts is None:
            spec = spec.reduced()
            (parts,) = _tables(spec, grid, _own_rate(spec))
        self.grid = grid
        self.moments, self.gap, self.weights = parts
        self.integral = abs(float(np.sum(self.moments[0])))

    @classmethod
    def family(
        cls, spec: RelaxationKernelSpec, rates, grid: TimeGrid
    ) -> list["KernelMoments"]:
        """The tables of ``spec``'s kernel with each of the ``rates`` in
        place of its last term's rate, from one assembly (:func:`_tables`),
        bit for bit as ``KernelMoments`` builds each alone (rate 0 within
        1e-13).  A negative or non-finite rate raises ``InvalidParameters``."""
        spec = spec.reduced()
        return [cls(spec, grid, parts) for parts in _tables(spec, grid, rates)]

    @classmethod
    def combine(cls, tables, coefficients) -> "KernelMoments":
        """The table of sum_i coefficients[i] e_i from the ``tables`` of the
        e_i, each refused first as ``singular_convolve`` would: the weighted
        sums of their moments and weights, and the |weighted| sums of their
        ``gap`` and ``integral``.  Evaluates no kernel."""
        for table in tables:
            table.check_gap()
        out = cls.__new__(cls)
        out.grid = tables[0].grid
        out.moments = np.tensordot(coefficients, [t.moments for t in tables], 1)
        out.weights = np.tensordot(coefficients, [t.weights for t in tables], 1)
        out.moments.flags.writeable = out.weights.flags.writeable = False
        out.gap = float(np.abs(coefficients) @ [t.gap for t in tables])
        out.integral = float(np.abs(coefficients) @ [t.integral for t in tables])
        return out

    def check_gap(self) -> None:
        """Raise :class:`QuadratureFailure` when the interpolation gap exceeds
        1e-10 of the kernel's integral, as ``singular_convolve`` explains."""
        if self.gap > 1e-10 * self.integral:
            raise QuadratureFailure(
                f"kernel interpolation gap {self.gap:g} exceeds 1e-10 of the "
                f"kernel's integral {self.integral:g}"
            )


def _not_a_knot_band(n: int) -> np.ndarray:
    """Banded (1, 1) matrix of the not-a-knot slope system on n >= 3 uniform
    intervals, scaled by 1/h: rows 1 4 1 inside, and the ends eliminate
    the third-derivative jump at the second and the last-but-one node."""
    band = np.zeros((3, n + 1))
    band[0, 2:] = 1.0
    band[1, 1:-1] = 4.0
    band[2, :-2] = 1.0
    band[1, 0], band[0, 1] = 1.0, 2.0
    band[1, -1], band[2, -2] = 1.0, 2.0
    return band


@lru_cache(maxsize=16)
def _not_a_knot_factor(n: int) -> tuple:
    """LAPACK's LU factorization (``gttrf``, partial pivoting) of the
    not-a-knot band on n >= 3 intervals, for ``gttrs``: each spline fit is
    then one back substitution, bit for bit the solve ``gtsv`` would do.
    Cached: treat as read-only."""
    band = _not_a_knot_band(n)
    *factor, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
    if info != 0:
        raise ValueError(f"not-a-knot system on {n} intervals is singular")
    return tuple(factor)


def _node_slopes(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Slopes of the signal's not-a-knot cubic spline at the N + 1 nodes:
    with the samples, they fix its Hermite form on every interval.

    On N >= 3 intervals they come from one banded solve of the not-a-knot
    system.  On one or two intervals that system is singular and the spline
    is the line or the parabola through the samples.  Refuses non-finite
    samples with ``ValueError``."""
    if not np.all(np.isfinite(values)):
        raise ValueError("signal samples must be finite")
    n = grid.N
    slope = np.diff(values) / grid.tau
    if n == 1:
        return np.repeat(slope, 2)
    if n == 2:
        bend = (slope[1] - slope[0]) / 2.0
        return np.array([slope[0] - bend, slope[0] + bend, slope[1] + bend])
    rhs = np.empty(n + 1)
    rhs[1:-1] = 3.0 * (slope[:-1] + slope[1:])
    rhs[0] = (5.0 * slope[0] + slope[1]) / 2.0
    rhs[-1] = (slope[-2] + 5.0 * slope[-1]) / 2.0
    return dgttrs(*_not_a_knot_factor(n), rhs)[0]


def singular_convolve(g: TimeSeries, table: KernelMoments) -> TimeSeries:
    """Laplace convolution (g * e)(t_j) with the relaxation kernel ``e`` whose
    moment table on ``g.grid`` is ``table``.

    The signal's cubic spline is integrated exactly against the kernel
    through the table's Hermite weights: its node values and its node
    slopes, one not-a-knot solve, each make one discrete convolution, and
    node 0 adds its own column.  A table whose interpolation ``gap``
    exceeds 1e-10 of the kernel's integral over (0, T] raises
    :class:`QuadratureFailure`: below that, the interpolation error, by the
    gap's estimate, moves no node value by more than 1e-10 of the a-priori
    bound max|g| int_0^T e (relative digits are unrecoverable further down
    in doubles).  Non-finite samples raise ``ValueError``.
    """
    grid = g.grid
    if table.grid != grid:
        raise ValueError("moment table was built for a different grid")
    out = np.zeros(grid.N + 1)
    if not np.any(g.values):
        return TimeSeries(grid, out)
    s = _node_slopes(grid, g.values)
    table.check_gap()
    value, slope, first_value, first_slope = table.weights
    out[1:] = np.convolve(g.values[1:], value)[: grid.N]
    out[1:] += np.convolve(s[1:], slope)[: grid.N]
    out[1:] += g.values[0] * first_value + s[0] * first_slope
    return TimeSeries(grid, out)


def rl_integral(signal: TimeSeries, xi: float) -> TimeSeries:
    """Riemann-Liouville integral of order xi: the convolution with the power
    kernel t^(xi-1) / Gamma(xi)."""
    if xi <= 0.0:
        raise InvalidOrder(f"integration order must be positive, got {xi}")
    table = KernelMoments(RelaxationKernelSpec(xi, ()), signal.grid)
    return singular_convolve(signal, table)
