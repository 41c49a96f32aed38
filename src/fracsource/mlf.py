"""Multinomial Mittag-Leffler function and the derived relaxation kernel.

Two evaluation routes are provided: direct summation of the defining double
series, one shell march for a whole grid of points (reliable for moderate
arguments), and numerical inversion of the closed-form Laplace transform on a
deformed Bromwich contour (uniformly valid, used for large arguments).
``eval_kernel_grid`` dispatches between them; ``eval_kernel`` and
``ml_series`` are its and the shell sum's one-point forms.  Both routes
accept the kernel index eta as one value per point, so kernels that differ
only in eta are evaluated in one call.  The two regimes are cross-checked in
an overlap band by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln


class InvalidParameters(ValueError):
    """Raised when Mittag-Leffler parameters violate their constraints."""


class NonConvergence(RuntimeError):
    """A series or an iteration did not meet its stopping rule within its
    budget."""


class ContourFailure(RuntimeError):
    """Contour quadrature did not stabilize under node doubling."""


@dataclass(frozen=True)
class MLParameters:
    """Parameters (eta; xi_1, ..., xi_n) of the multinomial Mittag-Leffler
    function.  The arguments z_j are supplied per evaluation."""

    eta: float
    orders: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.eta <= 0.0:
            raise InvalidParameters(f"eta must be positive, got {self.eta}")
        if len(self.orders) < 1:
            raise InvalidParameters("at least one order xi_j is required")
        if any(xi <= 0.0 for xi in self.orders):
            raise InvalidParameters(f"all orders must be positive, got {self.orders}")

    @property
    def n(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class RelaxationKernelSpec:
    """Parameters of the relaxation kernel

        e(t) = t^(eta-1) * E_(xi_1,...,xi_n),eta(-m_1 t^xi_1, ..., -m_n t^xi_n)

    stored as ``terms = ((m_1, xi_1), ..., (m_n, xi_n))`` with rates m_j >= 0.
    """

    eta: float
    terms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.eta <= 0.0:
            raise InvalidParameters(f"eta must be positive, got {self.eta}")
        for m, xi in self.terms:
            if m < 0.0:
                raise InvalidParameters(f"rates must be nonnegative, got {m}")
            if xi <= 0.0:
                raise InvalidParameters(f"orders must be positive, got {xi}")

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(m for m, _ in self.terms)

    @property
    def orders(self) -> tuple[float, ...]:
        return tuple(xi for _, xi in self.terms)

    def reduced(self) -> "RelaxationKernelSpec":
        """Drop zero-rate terms; they do not contribute to the kernel."""
        kept = tuple((m, xi) for m, xi in self.terms if m > 0.0)
        if kept == self.terms:
            return self
        return RelaxationKernelSpec(self.eta, kept)

    def with_eta(self, eta: float) -> "RelaxationKernelSpec":
        return RelaxationKernelSpec(eta, self.terms)

    def decay_scale(self) -> float:
        """Time scale below which all kernel arguments are O(1) or smaller."""
        scales = [(1.0 / m) ** (1.0 / xi) for m, xi in self.terms if m > 0.0]
        return min(scales) if scales else math.inf


# series evaluation ---------------------------------------------------------

_SERIES_RTOL = 1e-15
_MIN_SHELLS = 10
_MAX_SHELLS = 500


# math.gamma elementwise: a scalar and the same value inside an array get the
# same bits, so a one-point call agrees exactly with a many-point one.
_gamma = np.vectorize(math.gamma, otypes=[float])


def _at(eta, idx):
    """``eta`` at the points ``idx`` when it holds one value per point."""
    return eta if np.ndim(eta) == 0 else eta[idx]


# Composition tables up to this many rows are cached: the shells the workloads
# reach fit (three arguments, shell 35: 666 rows); deeper shells are rebuilt.
_CACHED_COMPOSITION_ROWS = 4096


def _composition_matrix(k: int, n: int) -> np.ndarray:
    """All (l_1, ..., l_n) with nonnegative entries summing to k, as rows.
    Small tables are cached; callers must treat them as read-only."""
    if math.comb(k + n - 1, n - 1) > _CACHED_COMPOSITION_ROWS:
        return _compositions.__wrapped__(k, n)
    return _compositions(k, n)


@lru_cache(maxsize=4096)
def _compositions(k: int, n: int) -> np.ndarray:
    if n == 1:
        return np.array([[k]], dtype=np.int64)
    blocks = []
    for first in range(k + 1):
        rest = _composition_matrix(k - first, n - 1)
        head = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([head, rest]))
    return np.vstack(blocks)


def _shell_sum(
    eta: float | np.ndarray, xis: np.ndarray, logz: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the defining double series of E_((xi),eta)(z_1, ..., z_n), shell by
    shell in the total degree k, at many points at once.

    ``eta`` is one value or one per point.  ``logz`` holds log |z_j|, one row
    per argument and one column per point; ``neg`` marks the negative
    arguments, the same at every point.  A composition (l_1, ..., l_n)
    carries the sign (-1)^(sum of l_j over the negative arguments).
    Multinomial coefficients and gamma factors are combined in log space so
    individual terms cannot overflow.  Each shell is computed only at the
    live points, those neither converged nor refused.  Returns (values, ok);
    points whose shells cannot be certified within the budget are flagged
    not-ok.
    """
    eta = np.asarray(eta, dtype=float)
    total = np.full(logz.shape[1], 1.0 / _gamma(eta))  # k = 0 shell
    absacc = np.abs(total)
    done = np.zeros(total.size, dtype=bool)
    # Convergence forecast: the shell magnitude is bounded by
    # (sum |z_j|)^k / Gamma(eta + k xi_min).  That log bound is concave in k
    # (gammaln is convex), so its minimum over the budget sits at one of the
    # two ends; a point whose bound never drops below tolerance is refused
    # before any expensive work.
    log_sumabs = np.log(np.exp(logz).sum(axis=0))

    def log_bound(k: int) -> np.ndarray:
        return k * log_sumabs - gammaln(eta + k * np.min(xis))

    ok = np.minimum(log_bound(1), log_bound(_MAX_SHELLS)) <= math.log(_SERIES_RTOL)
    # numpy sums the rows of a many-column array in order but one column
    # pairwise; a point left alone from a many-point call keeps the row order,
    # so its value does not depend on when the others stopped.
    several = total.size > 1

    def column_sum(a: np.ndarray) -> np.ndarray:
        return np.cumsum(a, axis=0)[-1] if several and a.shape[1] == 1 else a.sum(axis=0)

    for k in range(1, _MAX_SHELLS + 1):
        live = np.flatnonzero(ok & ~done)
        if live.size == 0:
            break
        ls = _composition_matrix(k, xis.size)
        base = (
            gammaln(k + 1)
            - gammaln(ls + 1).sum(axis=1)[:, None]
            - gammaln(_at(eta, live) + (ls @ xis)[:, None])
        )
        log_term = base + ls @ logz[:, live]  # (ncomp, nlive)
        over = np.max(log_term, axis=0) > 700.0  # terms overflow doubles
        if np.any(over):
            ok[live[over]] = False
            live, log_term = live[~over], log_term[:, ~over]
        terms = np.exp(log_term, out=log_term)  # in place: the largest array
        shell_abs = column_sum(terms)
        sign = np.where(ls[:, neg].sum(axis=1) % 2, -1.0, 1.0)
        shell = column_sum(sign[:, None] * terms)
        total[live] += shell
        absacc[live] += shell_abs
        if k >= _MIN_SHELLS:
            done[live] = np.abs(shell) <= _SERIES_RTOL * np.maximum(
                np.abs(total[live]), 1e-300
            )
    ok &= done
    # Cancellation across shells erodes the result; refuse to certify when
    # the accumulated roundoff exceeds the target accuracy.
    ok &= absacc * 1e-16 <= 1e-9 * np.maximum(np.abs(total), 1e-300)
    return total, ok


def ml_series(params: MLParameters, args: tuple[float, ...] | list[float]) -> float:
    """E_((xi),eta)(z_1, ..., z_n) by the shell sum, for arguments of any
    sign.  Raises :class:`NonConvergence` when the sum cannot be certified
    within the shell budget (the caller should fall back to the contour)."""
    args = np.asarray([float(z) for z in args])
    if args.size != params.n:
        raise InvalidParameters(f"expected {params.n} arguments, got {args.size}")
    nonzero = args != 0.0
    z = args[nonzero]
    if z.size == 0:
        return 1.0 / math.gamma(params.eta)
    xis = np.asarray(params.orders)[nonzero]
    total, ok = _shell_sum(params.eta, xis, np.log(np.abs(z))[:, None], z < 0.0)
    if not ok[0]:
        raise NonConvergence(
            f"series sum not certified within {_MAX_SHELLS} shells "
            "(overflow, cancellation or slow decay)"
        )
    return float(total[0])


# contour (Talbot) evaluation -----------------------------------------------

# Modified Talbot contour parameters (midpoint rule on theta in (-pi, pi)).
_TALBOT_ALPHA = 0.6407
_TALBOT_SIGMA = -0.6122
_TALBOT_MU = 0.5017
_TALBOT_NU = 0.2645

# In double precision the truncation error is already below roundoff at 24
# nodes, while roundoff grows exponentially with the node count; 24 nodes
# validated against 48 beats larger counts across t in [1e-6, 10T].  Node
# counts must be even: only the upper half of the contour is summed.
_TALBOT_NODES = 24


@lru_cache(maxsize=64)
def _talbot_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z(theta) and derivatives z'(theta) of the m-point midpoint rule
    on theta in (-pi, pi), upper half (theta > 0) only."""
    theta = (np.arange(m // 2) + 0.5) * (2.0 * np.pi / m)
    cot = 1.0 / np.tan(_TALBOT_ALPHA * theta)
    z = _TALBOT_SIGMA + _TALBOT_MU * theta * cot + 1j * _TALBOT_NU * theta
    dz = (
        _TALBOT_MU * cot
        - _TALBOT_MU * _TALBOT_ALPHA * theta / np.sin(_TALBOT_ALPHA * theta) ** 2
        + 1j * _TALBOT_NU
    )
    return z, dz


def _talbot_invert(
    spec: RelaxationKernelSpec, ts: np.ndarray, eta: float | np.ndarray, m: int
) -> np.ndarray:
    """Invert s^(-eta) / (1 + sum_j m_j s^(-xi_j)) on the m-node contour;
    ``eta`` is one value or one per time.

    With s = (m/t) z the exponent is s t = m z, and on the principal branch
    s^(-xi) = (t/m)^xi z^(-xi) because m/t is real and positive.  So every
    complex power and exponential depends on the node alone, and the
    (times x nodes) denominator is 1 plus a real-weighted sum of per-node
    vectors.  Nodes theta and -theta contribute equal imaginary parts, so
    the upper half is summed and doubled.
    """
    z, dz = _talbot_nodes(m)
    x = ts / m
    denom = np.ones((ts.size, z.size), dtype=complex)
    for rate, xi in spec.terms:
        denom += np.multiply.outer(rate * x**xi, z ** (-xi))
    per_time = eta if np.ndim(eta) == 0 else eta[:, None]
    weight = np.exp(m * z) * z ** (-per_time) * dz
    return (2.0 / m) * x ** (eta - 1.0) * (weight / denom).imag.sum(axis=1)


def _valid_times(ts) -> np.ndarray:
    """``ts`` as a float array, refused unless every time is finite and > 0."""
    ts = np.asarray(ts, dtype=float)
    bad = ~(np.isfinite(ts) & (ts > 0.0))
    if np.any(bad):
        raise InvalidParameters(
            f"kernel evaluation requires finite t > 0, got {ts[bad].flat[0]}"
        )
    return ts


def ml_contour_grid(
    spec: RelaxationKernelSpec, ts: np.ndarray, *, eta: float | np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the relaxation kernel at finite times ``ts > 0`` by Talbot
    inversion of its Laplace transform on 24 nodes, validated against 48.
    ``eta``, one value or one per time, replaces ``spec.eta``."""
    ts = _valid_times(ts)
    spec = spec.reduced()
    eta = spec.eta if eta is None else eta
    base = _talbot_invert(spec, ts, eta, _TALBOT_NODES)
    check = _talbot_invert(spec, ts, eta, 2 * _TALBOT_NODES)
    # Relative agreement to 2e-8, with an absolute floor at 1e-12 of the
    # kernel's natural scale t^(eta-1)/Gamma(eta): once the kernel has decayed
    # that far below its envelope, double-precision quadrature can only
    # deliver absolute accuracy.
    envelope = ts ** (eta - 1.0) / _gamma(eta)
    bad = np.abs(base - check) > np.maximum(
        2e-8 * np.abs(base), 1e-12 * np.abs(envelope)
    )
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ContourFailure(
            f"quadrature unstable at t={ts[i]:g}: {base[i]:.15g} vs {check[i]:.15g}"
        )
    return base


# dispatching kernel evaluation ---------------------------------------------

_REGIME_THRESHOLD = 2.0


def _kernel_values(
    spec: RelaxationKernelSpec, ts: np.ndarray, eta: float | np.ndarray
) -> np.ndarray:
    """The reduced ``spec``'s kernel at the valid times ``ts`` with index
    ``eta``, one value or one per time, in place of ``spec.eta``.

    Points whose largest argument m_j t^xi_j is small go through the shell
    sum, the others through the contour; the switch point sits inside the
    band where both converge.  Points the series cannot certify fall back to
    the contour.
    """
    if not spec.terms:
        return ts ** (eta - 1.0) / _gamma(eta)
    out = np.empty_like(ts)
    eff = np.zeros_like(ts)
    for m, xi in spec.terms:
        np.maximum(eff, m * ts**xi, out=eff)
    small = eff <= _REGIME_THRESHOLD
    if np.any(small):
        xis = np.asarray(spec.orders)
        idx = np.nonzero(small)[0]
        # log |z_j(t)| = log m_j + xi_j log t, rows j, columns t
        logz = np.log(spec.rates)[:, None] + xis[:, None] * np.log(ts[idx])[None, :]
        values, series_ok = _shell_sum(
            _at(eta, idx), xis, logz, np.ones(xis.size, dtype=bool)
        )
        at = idx[series_ok]
        out[at] = ts[at] ** (_at(eta, at) - 1.0) * values[series_ok]
        small[idx[~series_ok]] = False
    if np.any(~small):
        out[~small] = ml_contour_grid(spec, ts[~small], eta=_at(eta, ~small))
    return out


def eval_kernel_grid(spec: RelaxationKernelSpec, ts: np.ndarray) -> np.ndarray:
    """Evaluate e_(m_1 xi_1, ..., m_n xi_n),eta over an array of finite
    times t > 0, by the shell sum or the contour (see ``_kernel_values``)."""
    ts = _valid_times(ts)
    spec = spec.reduced()
    return _kernel_values(spec, ts, spec.eta)


def eval_kernel(spec: RelaxationKernelSpec, t: float) -> float:
    """``eval_kernel_grid`` at the single time ``t``."""
    return float(eval_kernel_grid(spec, np.array([float(t)]))[0])


def kernel_antiderivative(spec: RelaxationKernelSpec, t: float) -> float:
    """Integral of the kernel over (0, t]; equals the kernel with eta + 1."""
    return eval_kernel(spec.with_eta(spec.eta + 1.0), t)
