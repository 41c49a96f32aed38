"""Multinomial Mittag-Leffler function and the derived relaxation kernel.

Two evaluation routes are provided: direct summation of the defining double
series, one shell march for a whole grid of points, and numerical inversion
of the closed-form Laplace transform on a deformed Bromwich contour
(uniformly valid, a fraction of the series' cost).  Every kernel point goes
to the contour first, on 24 nodes checked against 32, and only the points
it refuses go to the series (``_kernel_values``); a point both refuse raises
:class:`ContourFailure`.  ``_kernel_sum`` inverts a weighted sum of kernels
that share their rates and orders, such as a mode's initial-state
trajectory, in one pass, and serves ``eval_kernel_grid`` and a kernel
table's first-interval moments, the latter at 48 nodes checked against 32,
where 24 nodes still truncate; ``eval_kernel`` and ``ml_series`` are
``eval_kernel_grid``'s and the shell sum's one-point forms.  Both routes
accept the kernel index eta as one value per point.

A solve's modes differ only in the eigenvalue, the rate of the kernel's last
term.  The contour's nodes and weights do not depend on the transform, so
``_kernel_sum`` inverts a whole family of such kernels in one pass: a rate
only shifts a real part, all else is built once.  ``eval_kernel_grid`` with
``rates`` returns such a family's values one row per rate (rate 0 drops the
last term); ``_kernel_values`` takes the last rate per point, so the refused
points of many kernels take one series pass.
The two routes are cross-checked in an overlap band by the test suite.
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
        if not 0.0 < self.eta < math.inf:
            raise InvalidParameters(f"eta must be positive and finite, got {self.eta}")
        if len(self.orders) < 1:
            raise InvalidParameters("at least one order xi_j is required")
        if not all(0.0 < xi < math.inf for xi in self.orders):
            raise InvalidParameters(
                f"all orders must be positive and finite, got {self.orders}"
            )

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
        if not 0.0 < self.eta < math.inf:
            raise InvalidParameters(f"eta must be positive and finite, got {self.eta}")
        for m, xi in self.terms:
            if not 0.0 <= m < math.inf:
                raise InvalidParameters(f"rates must be nonnegative and finite, got {m}")
            if not 0.0 < xi < math.inf:
                raise InvalidParameters(f"orders must be positive and finite, got {xi}")

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

    def with_rate(self, rate: float) -> "RelaxationKernelSpec":
        """The kernel with its last term's rate replaced by ``rate``."""
        *shared, (_, xi) = self.terms
        return RelaxationKernelSpec(self.eta, (*shared, (rate, xi)))


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


def _composition_matrix(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All (l_1, ..., l_n) with nonnegative entries summing to k as float rows,
    and the column of their log multinomial coefficients.  Small tables are
    cached; callers must treat them as read-only."""
    if math.comb(k + n - 1, n - 1) > _CACHED_COMPOSITION_ROWS:
        return _compositions.__wrapped__(k, n)
    return _compositions(k, n)


@lru_cache(maxsize=4096)
def _compositions(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    if n == 1:
        ls = np.array([[float(k)]])
    else:
        blocks = []
        for first in range(k + 1):
            rest = _composition_matrix(k - first, n - 1)[0]
            blocks.append(np.hstack([np.full((rest.shape[0], 1), float(first)), rest]))
        ls = np.vstack(blocks)
    return ls, gammaln(k + 1) - gammaln(ls + 1).sum(axis=1)[:, None]


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
    # sum of |term| (1 + |log term|): each exp(log term) is off by about
    # eps |log term| relative, on top of the sums' own rounding
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
    # A point's value must not depend on the other points in its call.  numpy
    # sums the rows of a many-column array in order but one column pairwise,
    # so a lone column is summed in row order too; and a matrix product rounds
    # by the column count, so the exponents are formed argument by argument.

    def column_sum(a: np.ndarray) -> np.ndarray:
        return np.cumsum(a, axis=0)[-1] if a.shape[1] == 1 else a.sum(axis=0)

    for k in range(1, _MAX_SHELLS + 1):
        live = np.flatnonzero(ok & ~done)
        if live.size == 0:
            break
        ls, coef = _composition_matrix(k, xis.size)
        if neg.all():  # every argument negative, as for kernels: one sign
            sign = (-1.0) ** k
        else:
            sign = np.where(ls[:, neg].sum(axis=1) % 2, -1.0, 1.0)[:, None]
        log_term = np.multiply.outer(ls[:, 0], logz[0, live])  # (ncomp, nlive)
        for j in range(1, xis.size):
            log_term += np.multiply.outer(ls[:, j], logz[j, live])
        log_term += coef - gammaln(_at(eta, live) + (ls @ xis)[:, None])
        over = np.max(log_term, axis=0) > 700.0  # terms overflow doubles
        if np.any(over):
            ok[live[over]] = False
            live, log_term = live[~over], log_term[:, ~over]
        weight = np.abs(log_term)
        weight += 1.0
        terms = np.exp(log_term, out=log_term)  # in place: the largest array
        weight *= terms
        shell_abs = column_sum(weight)
        shell = column_sum(sign * terms)
        total[live] += shell
        absacc[live] += shell_abs
        if k >= _MIN_SHELLS:
            done[live] = np.abs(shell) <= _SERIES_RTOL * np.maximum(
                np.abs(total[live]), 1e-300
            )
    ok &= done
    # Cancellation across shells erodes the result; refuse to certify when
    # the accumulated roundoff exceeds the target accuracy.
    ok &= absacc * 2.2e-16 <= 1e-9 * np.maximum(np.abs(total), 1e-300)
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
# nodes at panel and trajectory times (eta up to about 2.3), while roundoff
# grows exponentially with the node count, so those take the 24-node value,
# checked against 32 nodes, which on 6,000 random 1-3-term kernels refuse
# exactly the points 48 nodes refuse.  At the first-interval moments' eta +
# 1 .. eta + 4, t = tau, 24 nodes still truncate (up to 5e-8 relative, past
# the 2e-8 agreement) and 48 reach about 1e-13, so those take the 48-node
# value, checked against 32: on the mode kernels of 1-3-term operators,
# sigma = 0 and 0.5 to 1e8, N from 64 to 2048, they agree within 1.6e-4 of
# that tolerance (Weideman & Trefethen, Math. Comp. 76, 2007; Garrappa,
# SIAM J. Numer. Anal. 53, 2015).  A pair's first count serves; counts must
# be even, as only the upper half of the contour is summed.
_TALBOT_PAIR = (24, 32)
_FINER_PAIR = (32, 48)


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
    spec: RelaxationKernelSpec, ts: np.ndarray, powers: tuple, m: int, rates: tuple
) -> np.ndarray:
    """Invert sum_i w_i s^(-eta_i) / (1 + sum_j m_j s^(-xi_j)) on the m-node
    contour, one row per entry of ``rates``, each in turn the last term's
    rate m_n (the kernel's own is ``_own_rate(spec)``).  ``powers`` holds the
    numerator's weighted powers ((w_1, eta_1), (w_2, eta_2), ...); eta_1 is
    one value or one per time, the others one value each.

    With s = (m/t) z the exponent is s t = m z, and on the principal branch
    s^(-xi) = (t/m)^xi z^(-xi) because m/t is real and positive, so every
    complex power and exponential depends on the node alone.  Times z^alpha
    (alpha the last order), the denominator is p = z^alpha plus real-weighted
    per-node vectors, plus m_n (t/m)^alpha, a real shift of Re p alone: a row
    sums Im(q / (u + i Im p)) = (Im q u - Re q Im p) / (u^2 + (Im p)^2), u =
    Re p + m_n (t/m)^alpha, in real arithmetic, with p and q (bounded as t
    goes to 0) formed once for all rates, which pass a block at a time.
    q is exp(m z) z^(alpha - eta_1) z' times w_1 plus w_i (t/m)^(eta_i -
    eta_1) z^(eta_1 - eta_i).  Nodes theta and -theta contribute equal
    imaginary parts, so the upper half is summed and doubled.
    """
    (w1, eta), *rest = powers
    # a power kernel: a zero rate adds exactly nothing to the denominator
    *shared, (_, alpha) = spec.terms or ((0.0, 1.0),)
    z, dz = _talbot_nodes(m)
    x = ts / m
    p = z**alpha
    for rate, xi in shared:
        p = p + np.multiply.outer(rate * x**xi, z ** (alpha - xi))
    per_time = eta if np.ndim(eta) == 0 else eta[:, None]
    q = np.exp(m * z) * z ** (alpha - per_time) * dz
    numer = w1
    for w, eta_i in rest:
        numer = numer + (w * x ** (eta_i - eta))[:, None] * z ** (per_time - eta_i)
    q = q * numer
    cross, p_imag2 = q.real * p.imag, p.imag**2
    scale, x_alpha = (2.0 / m) * x ** (eta - 1.0), x**alpha
    rows = np.empty((len(rates), ts.size))
    step = 8192 // (ts.size * z.size + 1) + 1  # rates per block: arrays of about 64 kB
    for i in range(0, len(rates), step):
        u = p.real + np.multiply.outer(rates[i : i + step], x_alpha)[:, :, None]
        rows[i : i + step] = scale * ((q.imag * u - cross) / (u * u + p_imag2)).sum(axis=2)
    return rows


def _own_rate(spec: RelaxationKernelSpec) -> tuple:
    """``spec``'s own last rate as the family of one; zero for a power
    kernel."""
    return spec.rates[-1:] or (0.0,)


def _check_rates(rates) -> None:
    """Refuse a family whose ``rates`` are not all nonnegative and finite:
    each is a kernel's last rate."""
    r = np.asarray(rates, dtype=float)
    bad = ~((r >= 0.0) & (r < math.inf))
    if np.any(bad):
        raise InvalidParameters(f"rates must be nonnegative and finite, got {r[bad][0]}")


def _valid_times(ts) -> np.ndarray:
    """``ts`` as a float array, refused unless every time is finite and > 0."""
    ts = np.asarray(ts, dtype=float)
    bad = ~(np.isfinite(ts) & (ts > 0.0))
    if np.any(bad):
        raise InvalidParameters(
            f"kernel evaluation requires finite t > 0, got {ts[bad].flat[0]}"
        )
    return ts


def _contour_values(
    spec: RelaxationKernelSpec, ts: np.ndarray, powers: tuple, rates: tuple, nodes: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sum_i w_i e_(eta_i) of the reduced ``spec`` at the valid times ``ts``,
    for ``_talbot_invert``'s weighted ``powers`` and ``rates``, by one Talbot
    inversion on each of the ``nodes`` pair's two node counts (24 and 32, or
    32 and 48), and whether they agree: (base, check, ok), one row per rate
    each, ``base`` on the first count."""
    base, check = (_talbot_invert(spec, ts, powers, m, rates) for m in nodes)
    # Relative agreement to 2e-8, with an absolute floor at 1e-12 of the
    # natural scale sum_i |w_i| t^(eta_i-1)/Gamma(eta_i): once the kernels
    # have decayed that far below their envelope, double-precision quadrature
    # can only deliver absolute accuracy.
    envelope = sum(abs(w) * ts ** (eta - 1.0) / _gamma(eta) for w, eta in powers)
    ok = np.abs(base - check) <= np.maximum(2e-8 * np.abs(base), 1e-12 * envelope)
    return base, check, ok


def _raise_unserved(ts: np.ndarray, base: np.ndarray, check: np.ndarray, ok: np.ndarray):
    """Raise :class:`ContourFailure` naming the first time that ``ok`` leaves
    unserved, with its values ``base`` and ``check`` on the pair's two node
    counts (one row per rate each)."""
    if not np.all(ok):
        row, i = np.unravel_index(np.argmin(ok), ok.shape)
        raise ContourFailure(
            f"quadrature unstable at t={ts[i]:g}: {base[row, i]:.15g} vs {check[row, i]:.15g}"
        )


def ml_contour_grid(
    spec: RelaxationKernelSpec, ts: np.ndarray, *, eta: float | np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the relaxation kernel at finite times ``ts > 0`` by Talbot
    inversion of its Laplace transform on 24 nodes, validated against 32.
    ``eta``, one value or one per time, replaces ``spec.eta``."""
    ts = _valid_times(ts)
    spec = spec.reduced()
    powers = ((1.0, spec.eta if eta is None else eta),)
    base, check, ok = _contour_values(spec, ts, powers, _own_rate(spec), _TALBOT_PAIR)
    _raise_unserved(ts, base, check, ok)
    return base[0]


# series fallback and routing -----------------------------------------------


def _kernel_values(
    spec: RelaxationKernelSpec, ts: np.ndarray, eta: float | np.ndarray, rate=None
) -> np.ndarray:
    """The reduced ``spec``'s kernel at the valid times ``ts`` by the shell
    sum, NaN where the sum refuses, with index ``eta``, one value or one per
    time, in place of ``spec.eta``, and, if given, ``rate``, one
    nonnegative value per time, in place of its last term's rate: the points
    of many kernels that differ only there take one call, and a point whose
    rate is zero takes the kernel without that term.  The sum's convergence
    forecast refuses a point beyond its reach before any shell is summed."""
    if not spec.terms:
        return ts ** (eta - 1.0) / _gamma(eta)
    if rate is not None and np.any(rate == 0.0):
        out, zero = np.empty(ts.size), rate == 0.0
        out[zero] = _kernel_values(spec.with_rate(0.0).reduced(), ts[zero], _at(eta, zero))
        out[~zero] = _kernel_values(spec, ts[~zero], _at(eta, ~zero), rate[~zero])
        return out
    xis = np.asarray(spec.orders)
    # log |z_j(t)| = log m_j + xi_j log t, rows j, columns t
    log_rates = np.log(spec.rates)[:, None]
    if rate is not None:
        log_rates = np.repeat(log_rates, ts.size, axis=1)
        log_rates[-1] = np.log(rate)
    logz = log_rates + xis[:, None] * np.log(ts)[None, :]
    values, ok = _shell_sum(eta, xis, logz, np.ones(xis.size, dtype=bool))
    return np.where(ok, ts ** (eta - 1.0) * values, np.nan)


def _kernel_sum(
    spec: RelaxationKernelSpec, ts: np.ndarray, powers: tuple, rates: tuple, finer=False
) -> np.ndarray:
    """sum_i w_i e_(eta_i) of the reduced ``spec`` at the valid times ``ts``
    for the weighted ``powers`` ((w_1, eta_1), (w_2, eta_2), ...), one row
    per entry of ``rates`` in place of the last term's rate, contour first:
    one inversion of the whole sum, whose transform has the common
    denominator.  A family of kernels that differ only in that rate, such as
    a solve's modes, shares one contour set-up; one kernel is the family of
    ``_own_rate(spec)``.  A point takes the 24-node value where it agrees
    with the 32-node one, or with ``finer`` the 48-node value where it
    agrees with the 32-node one (a kernel table's first-interval moments);
    the points refused, of every row, take their own kernel's shell sum,
    ``sum_i w_i _kernel_values``, in one call, and a point both routes
    refuse raises :class:`ContourFailure`.  Every rate must be nonnegative
    and finite (``InvalidParameters``)."""
    _check_rates(rates)
    if spec.terms:
        base, check, ok = _contour_values(
            spec, ts, powers, rates, _FINER_PAIR if finer else _TALBOT_PAIR
        )
    else:  # pure powers of t: the series is exact
        base = check = np.empty((len(rates), ts.size))
        ok = np.zeros(base.shape, dtype=bool)
    out = check if finer else base
    rows, cols = np.nonzero(~ok)
    if rows.size:
        rate = np.asarray(rates, dtype=float)[rows]
        per_eta = [w * _kernel_values(spec, ts[cols], _at(eta, cols), rate) for w, eta in powers]
        served = sum(per_eta[1:], per_eta[0])
        ok[rows, cols] = ~np.isnan(served)
        _raise_unserved(ts, base, check, ok)
        out[rows, cols] = served
    return out


def eval_kernel_grid(
    spec: RelaxationKernelSpec, ts: np.ndarray, rates: tuple | None = None
) -> np.ndarray:
    """Evaluate e_(m_1 xi_1, ..., m_n xi_n),eta over an array of finite
    times t > 0 on the contour first, its 24-node value: where it certifies,
    it costs a fraction of the shell sum.  Only the points it refuses take
    the series; a point both routes refuse raises :class:`ContourFailure`.

    With ``rates``, the family of kernels with each of them in place of the
    reduced ``spec``'s last rate, one row per rate, from one contour set-up
    (``_kernel_sum``); a row equals its own kernel's values bit for bit, and
    a rate that is negative or not finite raises ``InvalidParameters``.
    Without, the kernel's own values, one per time."""
    ts = _valid_times(ts)
    spec = spec.reduced()
    own = rates is None
    rows = _kernel_sum(spec, ts, ((1.0, spec.eta),), _own_rate(spec) if own else rates)
    return rows[0] if own else rows


def eval_kernel(spec: RelaxationKernelSpec, t: float) -> float:
    """``eval_kernel_grid`` at the single time ``t``."""
    return float(eval_kernel_grid(spec, np.array([float(t)]))[0])


def kernel_antiderivative(spec: RelaxationKernelSpec, t: float) -> float:
    """Integral of the kernel over (0, t]; equals the kernel with eta + 1."""
    return eval_kernel(spec.with_eta(spec.eta + 1.0), t)
