"""Multinomial Mittag-Leffler function and the derived relaxation kernel.

Two evaluation routes are provided: direct summation of the defining double
series, one shell march for a whole grid of points (reliable for moderate
arguments), and numerical inversion of the closed-form Laplace transform on a
deformed Bromwich contour (uniformly valid, used for large arguments).
``eval_kernel_grid`` dispatches between them; ``eval_kernel`` and
``ml_series`` are its and the shell sum's one-point forms.  The two regimes
are cross-checked in an overlap band by the test suite.
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
    eta: float, xis: np.ndarray, logz: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the defining double series of E_((xi),eta)(z_1, ..., z_n), shell by
    shell in the total degree k, at many points at once.

    ``logz`` holds log |z_j|, one row per argument and one column per point;
    ``neg`` marks the negative arguments, the same at every point.  A
    composition (l_1, ..., l_n) carries the sign (-1)^(sum of l_j over the
    negative arguments).  Multinomial coefficients and gamma factors are
    combined in log space so individual terms cannot overflow.  Returns
    (values, ok); points whose shells cannot be certified within the budget
    are flagged not-ok.
    """
    total = np.full(logz.shape[1], 1.0 / math.gamma(eta))  # k = 0 shell
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
    for k in range(1, _MAX_SHELLS + 1):
        ls = _composition_matrix(k, xis.size)
        base = gammaln(k + 1) - gammaln(ls + 1).sum(axis=1) - gammaln(eta + ls @ xis)
        log_term = base[:, None] + ls @ logz  # (ncomp, npoints)
        ok &= ~(np.max(log_term, axis=0) > 700.0)  # terms overflow doubles
        terms = np.exp(log_term, out=log_term)  # in place: the largest array
        shell_abs = terms.sum(axis=0)
        sign = np.where(ls[:, neg].sum(axis=1) % 2, -1.0, 1.0)
        shell = (sign[:, None] * terms).sum(axis=0)
        active = ok & ~done
        total[active] += shell[active]
        absacc[active] += shell_abs[active]
        if k >= _MIN_SHELLS:
            done |= np.abs(shell) <= _SERIES_RTOL * np.maximum(
                np.abs(total), 1e-300
            )
        if np.all(done | ~ok):
            break
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


def _talbot_invert(spec: RelaxationKernelSpec, ts: np.ndarray, m: int) -> np.ndarray:
    """Invert s^(-eta) / (1 + sum_j m_j s^(-xi_j)) on the m-node contour.

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
    weight = np.exp(m * z) * z ** (-spec.eta) * dz
    return (2.0 / m) * x ** (spec.eta - 1.0) * (weight / denom).imag.sum(axis=1)


def ml_contour_grid(spec: RelaxationKernelSpec, ts: np.ndarray) -> np.ndarray:
    """Evaluate the relaxation kernel at times ``ts > 0`` by Talbot inversion
    of its Laplace transform on 24 nodes, validated against 48."""
    if np.any(ts <= 0.0):
        raise InvalidParameters("contour inversion requires t > 0")
    spec = spec.reduced()
    base = _talbot_invert(spec, ts, _TALBOT_NODES)
    check = _talbot_invert(spec, ts, 2 * _TALBOT_NODES)
    # Relative agreement to 2e-8, with an absolute floor at 1e-12 of the
    # kernel's natural scale t^(eta-1)/Gamma(eta): once the kernel has decayed
    # that far below its envelope, double-precision quadrature can only
    # deliver absolute accuracy.
    envelope = ts ** (spec.eta - 1.0) / math.gamma(spec.eta)
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


def eval_kernel_grid(spec: RelaxationKernelSpec, ts: np.ndarray) -> np.ndarray:
    """Evaluate e_(m_1 xi_1, ..., m_n xi_n),eta over an array of times t > 0.

    Points whose largest argument m_j t^xi_j is small go through the shell
    sum, the others through the contour; the switch point sits inside the
    band where both converge.  Points the series cannot certify fall back to
    the contour.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0.0):
        raise InvalidParameters("kernel evaluation requires t > 0")
    spec = spec.reduced()
    if not spec.terms:
        return ts ** (spec.eta - 1.0) / math.gamma(spec.eta)
    out = np.empty_like(ts)
    eff = np.zeros_like(ts)
    for m, xi in spec.terms:
        np.maximum(eff, m * ts**xi, out=eff)
    small = eff <= _REGIME_THRESHOLD
    if np.any(small):
        xis = np.asarray(spec.orders)
        # log |z_j(t)| = log m_j + xi_j log t, rows j, columns t
        logz = np.log(spec.rates)[:, None] + xis[:, None] * np.log(ts[small])[None, :]
        values, series_ok = _shell_sum(
            spec.eta, xis, logz, np.ones(xis.size, dtype=bool)
        )
        idx = np.nonzero(small)[0]
        out[idx[series_ok]] = (
            ts[idx[series_ok]] ** (spec.eta - 1.0) * values[series_ok]
        )
        small[idx[~series_ok]] = False
    if np.any(~small):
        out[~small] = ml_contour_grid(spec, ts[~small])
    return out


def eval_kernel(spec: RelaxationKernelSpec, t: float) -> float:
    """``eval_kernel_grid`` at the single time ``t > 0``."""
    if t <= 0.0:
        raise InvalidParameters(f"kernel evaluation requires t > 0, got {t}")
    return float(eval_kernel_grid(spec, np.array([float(t)]))[0])


def kernel_antiderivative(spec: RelaxationKernelSpec, t: float) -> float:
    """Integral of the kernel over (0, t]; equals the kernel with eta + 1."""
    return eval_kernel(spec.with_eta(spec.eta + 1.0), t)
