"""Tests for the multinomial Mittag-Leffler evaluators.

The independent oracle is an mpmath summation of the defining double series
at adaptively sized precision, written from the definition without touching
the package's own composition machinery, with mpmath's Laplace inversion as
a fallback where the series is impractical.
"""

import math
import os
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracsource import mlf
from fracsource.mlf import (
    ContourFailure,
    InvalidParameters,
    MLParameters,
    NonConvergence,
    RelaxationKernelSpec,
    _kernel_values,
    _shell_sum,
    eval_kernel,
    eval_kernel_grid,
    kernel_antiderivative,
    ml_contour_grid,
    ml_series,
)


def contour_at(spec, t):
    """The contour route at one time."""
    return float(ml_contour_grid(spec, np.array([t]))[0])


def _series_budget(eta, orders, args, dps):
    """Shell count and working precision needed to certify the defining
    series, or None when the budget is impractical."""
    radius = sum(abs(z) for z in args)
    if radius <= 1.0:
        return 300, dps
    xi_min = min(orders)
    ks = np.arange(1, 20001)
    lg = np.array([math.lgamma(eta + xi_min * k) for k in ks])
    profile = ks * math.log(radius) - lg
    extra = max(0.0, float(np.max(profile))) / math.log(10.0)
    dps = int(dps + extra + 10)
    tail = np.nonzero(profile < -(dps + 10) * math.log(10.0))[0]
    if tail.size == 0 or extra > 400:
        return None
    return int(ks[tail[0]]) + 50, dps


def mpmath_multinomial_ml(eta, orders, args, dps=40, shells=300):
    """Reference summation of E_{(xi),eta}(z_1..z_n) at high precision.

    Working precision and shell count are sized to cover the largest
    intermediate shell so the alternating sum stays certified even for
    large arguments.  The sum stops once a shell falls below 1e-20 of the
    running total, far below what a double resolves.
    """
    budget = _series_budget(eta, orders, args, dps)
    if budget is None:
        raise ValueError("defining series impractical for these arguments")
    shells, dps = max(shells, budget[0]), budget[1]
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for k in range(shells):
            shell = mpmath.mpf(0)
            for combo in _compositions(k, len(orders)):
                coef = mpmath.factorial(k)
                for l in combo:
                    coef /= mpmath.factorial(l)
                term = coef / mpmath.gamma(
                    mpmath.mpf(eta)
                    + mpmath.fsum(mpmath.mpf(x) * l for x, l in zip(orders, combo))
                )
                for z, l in zip(args, combo):
                    term *= mpmath.mpf(z) ** l
                shell += term
            total += shell
            if k > 10 and abs(shell) < mpmath.mpf("1e-20") * max(abs(total), 1):
                break
        return float(total)


def _compositions(k, n):
    """All tuples of n nonnegative integers summing to k."""
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, n - 1):
            yield (first,) + rest


def mpmath_kernel(spec, t, dps=40):
    """t^(eta-1) * E_{(xi),eta}(-m_1 t^xi_1, ...) at high precision.

    Uses the defining series when its budget is practical and falls back to
    mpmath's own Laplace inversion of s^(-eta) / (1 + sum m_j s^(-xi_j))
    otherwise (an implementation independent of the package's contour).
    """
    args = [-m * t**xi for m, xi in spec.terms]
    if _series_budget(spec.eta, spec.orders, args, dps) is not None:
        val = mpmath_multinomial_ml(spec.eta, spec.orders, args, dps=dps)
        return t ** (spec.eta - 1.0) * val
    return mpmath_talbot(spec, t, dps)


def mpmath_talbot(spec, t, dps):
    """mpmath's Talbot inversion of s^(-eta) / (1 + sum m_j s^(-xi_j))."""
    with mpmath.workdps(dps):

        def transform(s):
            return mpmath.power(s, -spec.eta) / (
                1 + mpmath.fsum(m * mpmath.power(s, -xi) for m, xi in spec.terms)
            )

        return float(mpmath.invertlaplace(transform, t, method="talbot"))


class TestParameterValidation:
    def test_rejects_nonpositive_eta(self):
        with pytest.raises(InvalidParameters):
            MLParameters(0.0, (0.5,))
        with pytest.raises(InvalidParameters):
            RelaxationKernelSpec(-1.0, ((1.0, 0.5),))

    def test_rejects_nonpositive_orders(self):
        with pytest.raises(InvalidParameters):
            MLParameters(1.0, (0.5, 0.0))

    def test_rejects_negative_rates(self):
        with pytest.raises(InvalidParameters):
            RelaxationKernelSpec(1.0, ((-0.1, 0.5),))

    def test_rejects_empty_orders(self):
        with pytest.raises(InvalidParameters):
            MLParameters(1.0, ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        # NaN passes every sign test, and reduced() would drop a NaN rate
        for make in (
            lambda: MLParameters(bad, (0.5,)),
            lambda: MLParameters(1.0, (0.5, bad)),
            lambda: RelaxationKernelSpec(bad, ((1.0, 0.5),)),
            lambda: RelaxationKernelSpec(1.0, ((bad, 0.5),)),
            lambda: RelaxationKernelSpec(1.0, ((1.0, bad),)),
        ):
            with pytest.raises(InvalidParameters, match="finite"):
                make()


class TestSeries:
    def test_zero_arguments_give_reciprocal_gamma(self):
        for eta in (0.3, 1.0, 1.7):
            got = ml_series(MLParameters(eta, (0.5,)), (0.0,))
            assert got == pytest.approx(1.0 / math.gamma(eta), rel=1e-14)

    def test_exponential_identity(self):
        # E_{1,1}(z) = e^z; the positive z take the all-positive sign path
        for z in (-3.0, -1.0, -0.25, 0.5, 1.0, 2.0):
            got = ml_series(MLParameters(1.0, (1.0,)), (z,))
            assert got == pytest.approx(math.exp(z), rel=1e-13)

    def test_mixed_signs_against_mpmath(self):
        eta, orders, args = 0.9, (0.6, 0.8), (0.7, -0.4)
        got = ml_series(MLParameters(eta, orders), args)
        want = mpmath_multinomial_ml(eta, orders, args)
        assert got == pytest.approx(want, rel=1e-12)

    def test_two_parameter_closed_form(self):
        # E_{2,1}(-z^2) = cos(z)
        for z in (0.5, 1.0, 2.0):
            got = ml_series(MLParameters(1.0, (2.0,)), (-(z**2),))
            assert got == pytest.approx(math.cos(z), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_multinomial_against_mpmath(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        eta = float(rng.uniform(0.3, 1.5))
        orders = tuple(float(rng.uniform(0.3, 1.0)) for _ in range(n))
        args = tuple(float(-rng.uniform(0.05, 0.8)) for _ in range(n))
        got = ml_series(MLParameters(eta, orders), args)
        want = mpmath_multinomial_ml(eta, orders, args)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    @given(
        perm_seed=st.integers(0, 10_000),
        eta=st.floats(0.3, 1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_permutation_symmetry(self, perm_seed, eta):
        rng = np.random.default_rng(perm_seed)
        n = int(rng.integers(2, 4))
        orders = tuple(float(rng.uniform(0.3, 1.0)) for _ in range(n))
        args = tuple(float(-rng.uniform(0.05, 1.0)) for _ in range(n))
        try:
            base = ml_series(MLParameters(eta, orders), args)
        except NonConvergence:
            # draws outside the certifiable summation budget are vacuous here
            assume(False)
        perm = rng.permutation(n)
        swapped = ml_series(
            MLParameters(eta, tuple(orders[i] for i in perm)),
            tuple(args[i] for i in perm),
        )
        # the two summation orders share terms but not rounding; agreement is
        # limited by the series' own cancellation certification target
        assert swapped == pytest.approx(base, rel=2e-9, abs=1e-12)

    def test_refuses_cancellation_dominated_sum(self):
        # large positive effective argument magnitude with slow gamma growth:
        # the certified double-precision sum is unattainable and must refuse
        # rather than return garbage
        with pytest.raises(NonConvergence):
            ml_series(MLParameters(0.3, (0.1,)), (-80.0,))

    def test_point_unaffected_by_its_company(self):
        # each shell runs only over the live points; a point's flag must not
        # depend on which other points share the call: ones that converge
        # within a few shells, ones that need many more, and ones the
        # forecast refuses before the first shell.  Nor may its value, to the
        # last bit, refused or not: a refused point keeps the sum of the
        # shells it reached.
        xis = np.array([0.6, 0.3])
        neg = np.array([True, False])
        company = np.log(
            np.array(
                [
                    [1e-3, 0.5, 8.0, 1e3, 40.0],
                    [1e-3, 2.0, 0.1, 1e3, 30.0],
                ]
            )
        )
        for eta in (0.4, 1.0, 2.5):
            together = _shell_sum(eta, xis, company, neg)
            np.testing.assert_array_equal(together[1], [True, True, False, False, False])
            for j in range(company.shape[1]):
                alone = _shell_sum(eta, xis, company[:, j : j + 1], neg)
                assert together[1][j] == alone[1][0]
                assert together[0][j] == alone[0][0]
        # the same points with one eta per point, against one eta at a time
        etas = np.array([0.4, 2.5, 1.0, 0.4, 2.5])
        mixed = _shell_sum(etas, xis, company, neg)
        for j, eta in enumerate(etas):
            alone = _shell_sum(eta, xis, company[:, j : j + 1], neg)
            assert mixed[1][j] == alone[1][0]
            assert mixed[0][j] == alone[0][0]

    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_like_point_alone_equals_in_company(self, seed):
        # all arguments negative, as for kernels: a point summed alone and
        # within a call of up to a dozen points gets the same bits, whatever
        # the number of arguments and whenever the others converge
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            xis = rng.uniform(0.05, 1.0, n)
            neg = np.ones(n, dtype=bool)
            logz = np.log(rng.uniform(1e-3, 2.0, (n, int(rng.integers(2, 12)))))
            eta = rng.uniform(0.3, 5.0)
            values, ok = _shell_sum(eta, xis, logz, neg)
            for j in range(logz.shape[1]):
                alone, alone_ok = _shell_sum(eta, xis, logz[:, j : j + 1], neg)
                assert ok[j] == alone_ok[0]
                assert values[j] == alone[0]

    def test_exponential_rounding_counts_against_certification(self):
        # each term's exp(log term) is off by about eps |log term|; at these
        # points that rounding alone put the sums 1.4e-8 and 2.6e-9 off
        # while the estimate without it certified them
        points = [
            (RelaxationKernelSpec(0.8, ((2.0, 0.24), (1.0, 0.8))), 0.5),
            (RelaxationKernelSpec(1.0, ((40.0, 0.92), (32.0, 0.6), (12.0, 0.32))), 2.6e-3),
        ]
        spec, t = points[0]
        with pytest.raises(NonConvergence):
            ml_series(
                MLParameters(spec.eta, spec.orders), [-m * t**xi for m, xi in spec.terms]
            )
        for spec, t in points:
            got = eval_kernel_grid(spec, np.array([t]))[0]
            assert got == pytest.approx(mpmath_talbot(spec, t, 30), rel=1e-10)

    def test_deep_shells_leave_no_tables_resident(self):
        # three slow orders run the sum to about shell 500, where one
        # composition table alone holds 125,751 rows; before only small
        # tables were kept, this call left 1,370 tables and 571 MB cached
        statm = "/proc/self/statm"
        if not os.path.exists(statm):
            pytest.skip("resident memory is read from /proc/self/statm")

        def resident_mb():
            with open(statm) as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

        before = resident_mb()
        got = ml_series(MLParameters(1.0, (0.05, 0.05, 0.05)), (-0.345,) * 3)
        assert resident_mb() - before <= 64.0
        # the sum is E_(0.05),1(-1.035) = 0.48417972051772950 (mpmath); this
        # value is 1.3e-14 below it (5.1e-14 before each exponent was formed
        # argument by argument and each column summed in row order)
        assert got == 0.4841797205177234


class TestContour:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_mpmath_in_decay_regime(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 3))
        terms = tuple(
            (float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.3, 0.95)))
            for _ in range(n)
        )
        spec = RelaxationKernelSpec(float(rng.uniform(0.5, 1.2)), terms)
        # twice the time scale below which every kernel argument is O(1)
        t = 2.0 * min((1.0 / m) ** (1.0 / xi) for m, xi in terms)
        got = contour_at(spec, t)
        want = mpmath_kernel(spec, t)
        assert got == pytest.approx(want, rel=2e-8, abs=1e-13)

    @pytest.mark.parametrize("eta", [0.8, 1.4, 4.8])
    def test_grid_matches_mpmath_on_mode_kernels(self, eta):
        # the kernels a moment table requests: (psi, alpha - alpha_1) and
        # (sigma, alpha) for alpha = 0.8, alpha_1 = 0.4, eta from alpha to
        # alpha + 4, t from tau = 1/1024 to T = 1
        ts = np.array([1.0 / 1024.0, 1.0 / 32.0, 1.0])
        for sigma in (1e2, 1e4, 1e6, 1e8):
            spec = RelaxationKernelSpec(eta, ((0.5, 0.4), (sigma, 0.8)))
            got = ml_contour_grid(spec, ts)
            want = np.array([mpmath_talbot(spec, t, 30) for t in ts])
            # the accuracy the node-doubling check certifies: 2e-8 relative,
            # floored at 1e-12 of the envelope t^(eta-1)/Gamma(eta)
            envelope = ts ** (eta - 1.0) / math.gamma(eta)
            bound = np.maximum(2e-8 * np.abs(want), 1e-12 * envelope)
            assert np.all(np.abs(got - want) <= bound)

    def test_refuses_unstable_quadrature(self):
        # a large eta at small t: 24 and 32 nodes disagree by 3.5 times the
        # tolerance, so the contour must refuse rather than pick one
        spec = RelaxationKernelSpec(4.996, ((0.0105, 0.994),))
        with pytest.raises(ContourFailure):
            ml_contour_grid(spec, np.array([1.17e-5]))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_check_on_32_nodes_refuses_what_48_refuse(self, seed):
        # random 1-3-term kernels, rates 10^U(-2, 8), orders U(0.05, 1), eta
        # U(0.2, 5), t 10^U(-8, 2): checking the 24-node value against 32
        # nodes refuses exactly the points a check against 48 refuses, and
        # serves the same 24-node values
        assert mlf._TALBOT_PAIR == (24, 32)
        rng = np.random.default_rng(seed)
        refused = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            terms = tuple(
                (float(10.0 ** rng.uniform(-2, 8)), float(rng.uniform(0.05, 1.0)))
                for _ in range(n)
            )
            spec = RelaxationKernelSpec(float(rng.uniform(0.2, 5.0)), terms)
            at = (spec, np.array([10.0 ** rng.uniform(-8, 2)]), ((1.0, spec.eta),), (terms[-1][0],))
            base, _, ok = mlf._contour_values(*at, mlf._TALBOT_PAIR)
            base48, _, ok48 = mlf._contour_values(*at, (24, 48))
            assert ok.tobytes() == ok48.tobytes() and base.tobytes() == base48.tobytes()
            refused += int(not ok.all())
        assert refused >= 2

    def test_series_contour_overlap_band(self):
        # both evaluation paths live on max_j m_j t^xi_j in [0.5, 5]
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10:
            terms = ((float(rng.uniform(0.5, 10.0)), float(rng.uniform(0.4, 0.9))),)
            spec = RelaxationKernelSpec(float(rng.uniform(0.5, 1.3)), terms)
            target = float(rng.uniform(0.5, 5.0))
            m, xi = terms[0]
            t = (target / m) ** (1.0 / xi)
            try:
                a = ml_series(
                    MLParameters(spec.eta, spec.orders), (-m * t**xi,)
                ) * t ** (spec.eta - 1.0)
            except NonConvergence:
                continue
            b = contour_at(spec, t)
            assert a == pytest.approx(b, rel=1e-6)
            checked += 1


# a first-interval moment kernel of a sigma = 0 table, eta = alpha + 4
_CONTOUR_REFUSED = RelaxationKernelSpec(4.748, ((0.5131, 0.3192),))


class TestKernelEvaluation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_times_refused(self, bad):
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8),))
        with pytest.raises(InvalidParameters):
            eval_kernel_grid(spec, np.array([0.5, bad]))
        with pytest.raises(InvalidParameters):
            eval_kernel(spec, bad)
        with pytest.raises(InvalidParameters):
            ml_contour_grid(spec, np.array([0.5, bad]))

    def test_single_term_order_one_is_exponential(self):
        spec = RelaxationKernelSpec(1.0, ((2.5, 1.0),))
        ts = np.linspace(0.05, 3.0, 40)
        got = eval_kernel_grid(spec, ts)
        # every point goes through the contour, whose node-doubling check
        # certifies 2e-8; its values are far closer than that
        np.testing.assert_allclose(got, np.exp(-2.5 * ts), rtol=1e-10)

    def test_grid_matches_scalar(self):
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4)))
        ts = np.geomspace(1e-6, 5.0, 25)
        grid_vals = eval_kernel_grid(spec, ts)
        scalar_vals = np.array([eval_kernel(spec, t) for t in ts])
        np.testing.assert_allclose(grid_vals, scalar_vals, rtol=1e-9)

    @pytest.mark.parametrize(
        "spec, t",
        [
            # largest argument 0.27, within the series' reach; the contour
            # certifies it, so the contour serves it
            (RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4))), 0.05),
            # largest argument 5.2, beyond the series' reach: contour only
            (RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4))), 2.0),
            # argument 1.5, which the series refuses: contour only
            (RelaxationKernelSpec(0.5, ((1.5, 0.05),)), 1.0),
            # the contour refuses it (24 and 32 nodes differ by 3e-8): series
            (_CONTOUR_REFUSED, 1.0 / 128.0),
        ],
        ids=["series", "contour", "fallback", "contour-refused"],
    )
    def test_scalar_is_one_point_grid(self, spec, t):
        assert eval_kernel(spec, t) == eval_kernel_grid(spec, np.array([t]))[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_is_one_point_grid_at_random_draws(self, seed):
        # a point's value does not depend on the other points of its call,
        # on either route: the contour-first grid and the series it falls
        # back to (NaN where the series refuses), for random 1-3-term
        # kernels on grids reaching from the series' reach into the contour's
        rng = np.random.default_rng(seed)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            terms = tuple(
                (float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.05, 1.0))) for _ in range(n)
            )
            spec = RelaxationKernelSpec(float(rng.uniform(0.3, 4.5)), terms)
            ts = np.sort(rng.uniform(1e-4, 2.0, int(rng.integers(2, 20))))
            grid_vals = eval_kernel_grid(spec, ts)
            series = _kernel_values(spec, ts, spec.eta)
            for j, t in enumerate(ts):
                assert eval_kernel(spec, t) == grid_vals[j]
                alone = _kernel_values(spec, ts[j : j + 1], spec.eta)
                np.testing.assert_array_equal(alone, series[j : j + 1])

    def test_fallback_point_refused_by_series(self):
        with pytest.raises(NonConvergence):
            ml_series(MLParameters(0.5, (0.05,)), (-1.5,))
        spec = RelaxationKernelSpec(0.5, ((1.5, 0.05),))
        assert eval_kernel(spec, 1.0) == contour_at(spec, 1.0)

    def test_contour_refused_point_served_by_series(self):
        # a first-interval moment kernel, eta = alpha + 4, at t = tau = 1/128
        t = 1.0 / 128.0
        with pytest.raises(ContourFailure):
            contour_at(_CONTOUR_REFUSED, t)
        got = eval_kernel_grid(_CONTOUR_REFUSED, np.array([0.5, t]))
        want = [mpmath_talbot(_CONTOUR_REFUSED, s, 30) for s in (0.5, t)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_point_both_routes_refuse_raises(self, monkeypatch):
        def refusing(eta, xis, logz, neg):
            return np.zeros(logz.shape[1]), np.zeros(logz.shape[1], dtype=bool)

        monkeypatch.setattr(mlf, "_shell_sum", refusing)
        # the message carries the 24- and 32-node values
        with pytest.raises(ContourFailure, match=r"at t=\S+: \S+ vs \S+"):
            eval_kernel_grid(_CONTOUR_REFUSED, np.array([0.5, 1.0 / 128.0]))

    def test_contour_refusal_beyond_series_reach_raises(self, monkeypatch):
        # largest argument 5.2: a point the contour refuses is not summed,
        # the series' convergence forecast refuses it before any shell
        def refused(spec, ts, powers, rates, nodes):
            shape = (len(rates), ts.size)
            return np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=bool)

        def unreachable(*args):
            raise AssertionError("a shell was summed beyond the series' reach")

        monkeypatch.setattr(mlf, "_contour_values", refused)
        monkeypatch.setattr(mlf, "_composition_matrix", unreachable)
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4)))
        with pytest.raises(ContourFailure, match="0 vs 1"):
            eval_kernel_grid(spec, np.array([2.0]))

    def test_certified_contour_makes_no_series_call(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the series was called")

        monkeypatch.setattr(mlf, "_shell_sum", unreachable)
        # largest arguments from 2e-3 to 5.2, both sides of the series' reach
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4)))
        eval_kernel_grid(spec, np.geomspace(1e-6, 2.0, 40))

    def test_pointwise_values_within_reach_make_no_contour_call(self, monkeypatch):
        # the series is more accurate there, and the inverse problem
        # differentiates data built from these values
        def unreachable(*args):
            raise AssertionError("the contour was called")

        monkeypatch.setattr(mlf, "_contour_values", unreachable)
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4)))
        # largest arguments from 2e-3 to 1.1
        ts = np.geomspace(1e-6, 0.3, 40)
        want = [mpmath_talbot(spec, t, 30) for t in ts[::13]]
        got = _kernel_values(spec, ts, spec.eta)[::13]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_regime_handoff_against_mpmath(self):
        spec = RelaxationKernelSpec(0.9, ((4.0, 0.7),))
        ts = np.geomspace(1e-4, 10.0, 30)
        got = eval_kernel_grid(spec, ts)
        want = np.array([mpmath_kernel(spec, t) for t in ts])
        np.testing.assert_allclose(got, want, rtol=5e-8)

    def test_zero_rate_terms_drop_out(self):
        full = RelaxationKernelSpec(0.8, ((2.0, 0.6), (0.0, 0.3)))
        reduced = RelaxationKernelSpec(0.8, ((2.0, 0.6),))
        for t in (0.1, 1.0, 4.0):
            assert eval_kernel(full, t) == pytest.approx(
                eval_kernel(reduced, t), rel=1e-12
            )

    def test_monotone_decay_of_relaxation(self):
        # completely monotone kernel: positive and decreasing for eta <= 1
        spec = RelaxationKernelSpec(1.0, ((5.0, 0.6),))
        ts = np.geomspace(1e-3, 10.0, 50)
        vals = eval_kernel_grid(spec, ts)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)


# the initial-state kernels of the mode D^0.8 + 0.5 D^0.4 + 1e4: e_1 + 0.5 e_1.4
_MODE_SPEC = RelaxationKernelSpec(1.0, ((0.5, 0.4), (1e4, 0.8)))
_MODE_POWERS = ((1.0, 1.0), (0.5, 1.4))
_MODE_RATE = mlf._own_rate(_MODE_SPEC)


class TestKernelSum:
    """One contour inversion for a weighted sum of kernels sharing their
    rates and orders, and the per-eta series for what it refuses."""

    def test_one_pair_is_ml_contour_grid(self):
        ts = np.linspace(1.0 / 128.0, 1.0, 128)
        for eta in (_MODE_SPEC.eta, 1.4, 2.3):
            got = mlf._kernel_sum(_MODE_SPEC, ts, ((1.0, eta),), _MODE_RATE)[0]
            want = ml_contour_grid(_MODE_SPEC, ts, eta=eta)
            assert got.tobytes() == want.tobytes()

    def test_zero_weight_pair_changes_no_bit(self):
        # the numerator over its leading power is then exactly 1 + 0j
        ts = np.linspace(1.0 / 128.0, 1.0, 128)
        for m in (24, 48):
            one = mlf._talbot_invert(_MODE_SPEC, ts, ((1.0, 1.0),), m, _MODE_RATE)
            two = mlf._talbot_invert(_MODE_SPEC, ts, ((1.0, 1.0), (0.0, 1.4)), m, _MODE_RATE)
            assert one.tobytes() == two.tobytes()

    def test_refused_points_take_per_eta_route(self, monkeypatch):
        # largest argument 1e4 t^0.8 up to 0.16: within the series' reach,
        # so the points the combined inversion refuses take the per-eta
        # series sum
        ts = np.geomspace(1e-8, 1e-6, 128)
        contour_values = mlf._contour_values
        combined = contour_values(_MODE_SPEC, ts, _MODE_POWERS, _MODE_RATE, mlf._TALBOT_PAIR)[0][0]

        def refusing_sums(spec, ts, powers, rates, nodes):
            base, check, ok = contour_values(spec, ts, powers, rates, nodes)
            ok[:, ::3] = False
            return base, check, ok

        monkeypatch.setattr(mlf, "_contour_values", refusing_sums)
        got = mlf._kernel_sum(_MODE_SPEC, ts, _MODE_POWERS, _MODE_RATE)[0]
        refused = ts[::3]
        want = _kernel_values(_MODE_SPEC, refused, 1.0) + 0.5 * _kernel_values(
            _MODE_SPEC, refused, 1.4
        )
        assert np.all(np.isfinite(want))
        assert got[::3].tobytes() == want.tobytes()
        kept = np.ones(ts.size, dtype=bool)
        kept[::3] = False
        assert got[kept].tobytes() == combined[kept].tobytes()

    def test_point_both_routes_refuse_raises(self, monkeypatch):
        def refused(spec, ts, powers, rates, nodes):
            shape = (len(rates), ts.size)
            return np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=bool)

        def refusing(eta, xis, logz, neg):
            return np.zeros(logz.shape[1]), np.zeros(logz.shape[1], dtype=bool)

        monkeypatch.setattr(mlf, "_contour_values", refused)
        monkeypatch.setattr(mlf, "_shell_sum", refusing)
        # largest argument 1e4 t^0.8 = 0.85 at t = 1e-5: within the series' reach
        with pytest.raises(ContourFailure, match="0 vs 1"):
            mlf._kernel_sum(_MODE_SPEC, np.array([1e-5, 0.5]), _MODE_POWERS, _MODE_RATE)


# the mode kernels of 1-3-term operators with the eigenvalue's rate last, one
# with a zero-weight lower-order term, and their initial-state numerators
_FAMILIES = {
    "one-term": (RelaxationKernelSpec(1.0, ((1.0, 0.55),)), ((1.0, 1.0),)),
    "two-term": (_MODE_SPEC, _MODE_POWERS),
    "three-term": (
        RelaxationKernelSpec(1.0, ((0.8, 0.32), (0.3, 0.6), (1.0, 0.92))),
        ((1.0, 1.0), (0.8, 1.32), (0.3, 1.6)),
    ),
    "zero-weight": (
        RelaxationKernelSpec(1.0, ((0.0, 0.4), (0.5, 0.2), (1.0, 0.8))),
        ((1.0, 1.0), (0.5, 1.2)),
    ),
}
# a repeated eigenvalue, and first-interval points on both routes
_RATES = (0.5, 97.4, 1558.5, 1558.5, 2.5e4, 1e8)


class TestKernelFamily:
    """Kernels that differ only in their last rate, evaluated together: each
    row must be the one-kernel call, bit for bit, refusals included."""

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_rows_are_one_kernel_calls(self, name):
        spec, powers = _FAMILIES[name]
        spec = spec.reduced()
        ts = np.linspace(1.0 / 128.0, 1.0, 128)
        rows = mlf._kernel_sum(spec, ts, powers, _RATES)
        assert rows.shape == (len(_RATES), ts.size)
        for row, rate in zip(rows, _RATES):
            want = mlf._kernel_sum(spec.with_rate(rate), ts, powers, (rate,))[0]
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_pointwise_rates_are_one_kernel_calls(self, name, monkeypatch):
        # a kernel table's first-interval moments: four indices at t = tau,
        # one row per rate, at 48 nodes certified by 32, in one call.  The
        # 32-node rule certifies e_(eta+3.8) at rate 0.5, which the 24-node
        # rule refuses; refused there by a stand-in, the series serves that
        # rate's row
        spec = _FAMILIES[name][0].reduced()
        powers = ((1.0, spec.eta + 0.8 + np.arange(4)),)
        ts = np.full(4, 1.0 / 128.0)
        for pair, certified in ((mlf._TALBOT_PAIR, False), (mlf._FINER_PAIR, True)):
            ok = mlf._contour_values(spec, ts, powers, _RATES, pair)[2]
            assert ok[1:].all() and ok[0].all() == certified
        self._refusing(monkeypatch, _RATES[0], ts, alone=True)
        got = mlf._kernel_sum(spec, ts, powers, _RATES, finer=True)
        for values, rate in zip(got, _RATES):
            want = mlf._kernel_sum(spec.with_rate(rate), ts, powers, (rate,), finer=True)[0]
            assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-2.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rate_outside_the_kernels_refused(self, monkeypatch, bad):
        # no spec admits a negative or non-finite rate; eval_kernel_grid
        # refuses one in the family before any contour work (rate -2 once
        # returned values, and a NaN rate a RuntimeWarning)
        def unreachable(*args):
            raise AssertionError("contour work began")

        monkeypatch.setattr(mlf, "_talbot_invert", unreachable)
        spec = _FAMILIES["two-term"][0]
        with pytest.raises(InvalidParameters, match=f"got {bad}"):
            eval_kernel_grid(spec, np.array([0.1, 0.5]), rates=(40.0, bad))

    @staticmethod
    def _refusing(monkeypatch, rate, times, alone=False):
        """Patch the contour's check to refuse ``times`` of the kernel with
        last rate ``rate`` only: in the family's inversion, and with
        ``alone`` in that kernel's own inversion too."""
        contour_values = mlf._contour_values

        def refusing(spec, ts, powers, rates, nodes):
            base, check, ok = contour_values(spec, ts, powers, rates, nodes)
            if alone or len(rates) > 1:
                for row_ok, r in zip(ok, rates):
                    if np.all(r == rate):
                        row_ok[np.isin(ts, times)] = False
            return base, check, ok

        monkeypatch.setattr(mlf, "_contour_values", refusing)

    @pytest.mark.parametrize("name", ["one-term", "two-term"])
    def test_refused_rate_zero_takes_the_kernel_without_its_last_term(self, monkeypatch, name):
        # a table family's sigma = 0 row: where the contour refuses it, the
        # series serves the kernel without the last term (the one-term
        # kernel's is the power kernel), not a log of the zero rate
        spec, powers = _FAMILIES[name]
        spec = spec.reduced()
        head = RelaxationKernelSpec(spec.eta, spec.terms[:-1])
        ts = np.geomspace(1e-7, 1e-4, 64)
        rates = (0.0,) + _RATES
        plain = mlf._kernel_sum(spec, ts, powers, rates)
        refused = ts[::4]
        self._refusing(monkeypatch, 0.0, refused)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mlf._kernel_sum(spec, ts, powers, rates)
        per_eta = [w * _kernel_values(head, refused, eta) for w, eta in powers]
        want = sum(per_eta[1:], per_eta[0])
        assert np.all(np.isfinite(want))
        assert got[0, ::4].tobytes() == want.tobytes()
        np.testing.assert_allclose(got[0], plain[0], rtol=1e-10, atol=0.0)
        kept = np.ones(ts.size, dtype=bool)
        kept[::4] = False
        assert got[0, kept].tobytes() == plain[0, kept].tobytes()
        assert got[1:].tobytes() == plain[1:].tobytes()

    def test_refused_points_take_their_kernels_per_eta_route(self, monkeypatch):
        # largest argument 1558.5 t^0.92 up to 0.33: within the series' reach
        spec, powers = _FAMILIES["three-term"]
        ts = np.geomspace(1e-7, 1e-4, 128)
        plain = mlf._kernel_sum(spec, ts, powers, _RATES)
        refused = ts[::5]
        self._refusing(monkeypatch, _RATES[2], refused)
        calls = []
        kernel_values = mlf._kernel_values

        def recording(spec, ts, eta, rate=None):
            calls.append((ts, rate))
            return kernel_values(spec, ts, eta, rate)

        monkeypatch.setattr(mlf, "_kernel_values", recording)
        got = mlf._kernel_sum(spec, ts, powers, _RATES)
        # one per-eta series call per numerator term, for the refused points
        # of that kernel only, with its rate per point; a repeated rate is
        # refused in both its rows
        assert len(calls) == len(powers)
        for call_ts, rate in calls:
            np.testing.assert_array_equal(rate, _RATES[2])
            np.testing.assert_array_equal(call_ts, np.tile(refused, 2))
        monkeypatch.setattr(mlf, "_kernel_values", kernel_values)
        one = spec.with_rate(_RATES[2])
        per_eta = [w * kernel_values(one, refused, eta) for w, eta in powers]
        want = sum(per_eta[1:], per_eta[0])
        assert np.all(np.isfinite(want))
        for row in (2, 3):
            assert got[row, ::5].tobytes() == want.tobytes()
            kept = np.ones(ts.size, dtype=bool)
            kept[::5] = False
            assert got[row, kept].tobytes() == plain[row, kept].tobytes()
        others = [0, 1, 4, 5]
        assert got[others].tobytes() == plain[others].tobytes()

    def test_point_both_routes_refuse_raises_naming_its_time(self, monkeypatch):
        def refusing(eta, xis, logz, neg):
            return np.zeros(logz.shape[1]), np.zeros(logz.shape[1], dtype=bool)

        spec, powers = _FAMILIES["two-term"]
        ts = np.linspace(1.0 / 128.0, 1.0, 128)
        self._refusing(monkeypatch, _RATES[4], ts[[37, 90]], alone=True)
        monkeypatch.setattr(mlf, "_shell_sum", refusing)
        with pytest.raises(ContourFailure, match=f"at t={ts[37]:g}: "):
            mlf._kernel_sum(spec, ts, powers, _RATES)


class TestAntiderivative:
    def test_shifts_eta_by_one(self):
        spec = RelaxationKernelSpec(0.7, ((1.5, 0.7),))
        t = 0.8
        want = eval_kernel(spec.with_eta(1.7), t)
        assert kernel_antiderivative(spec, t) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_adaptive_quadrature(self, seed):
        # tanh-sinh quadrature absorbs the algebraic endpoint behavior
        # (both the explicit t^(eta-1) weight and the fractional-power cusps)
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 4))
        terms = tuple(
            (float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.1, 0.95)))
            for _ in range(n)
        )
        spec = RelaxationKernelSpec(float(rng.uniform(0.3, 1.4)), terms)
        t = float(rng.uniform(0.2, 2.0))
        want = kernel_antiderivative(spec, t)
        with mpmath.workdps(25):
            got = float(
                mpmath.quad(lambda s: eval_kernel(spec, float(s)), [0.0, t])
            )
        assert got == pytest.approx(want, rel=1e-8)

    def test_exponential_antiderivative_closed_form(self):
        spec = RelaxationKernelSpec(1.0, ((3.0, 1.0),))
        t = 1.2
        want = (1.0 - math.exp(-3.0 * t)) / 3.0
        assert kernel_antiderivative(spec, t) == pytest.approx(want, rel=1e-12)
