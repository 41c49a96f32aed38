"""Tests for the multinomial Mittag-Leffler evaluators.

The independent oracle is an mpmath summation of the defining double series
at adaptively sized precision, written from the definition without touching
the package's own composition machinery, with mpmath's Laplace inversion as
a fallback where the series is impractical.
"""

import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracsource.mlf import (
    ContourFailure,
    InvalidParameters,
    MLParameters,
    NonConvergence,
    RelaxationKernelSpec,
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
        # forecast refuses before the first shell.  Its value may move in the
        # last digits only: BLAS rounds a matrix product column by column
        # depending on the column count, and numpy sums one column pairwise
        # but many columns row by row.
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
                if alone[1][0]:
                    assert together[0][j] == pytest.approx(alone[0][0], rel=1e-13)
        # the same points with one eta per point, against one eta at a time
        etas = np.array([0.4, 2.5, 1.0, 0.4, 2.5])
        mixed = _shell_sum(etas, xis, company, neg)
        for j, eta in enumerate(etas):
            alone = _shell_sum(eta, xis, company[:, j : j + 1], neg)
            assert mixed[1][j] == alone[1][0]
            assert mixed[0][j] == pytest.approx(alone[0][0], rel=1e-13)

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
        assert got == 0.4841797205177047


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
        t = 2.0 * spec.decay_scale()
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
        # a large eta at small t: 24 and 48 nodes disagree by 3.5 times the
        # tolerance, so the contour must refuse rather than pick one
        spec = RelaxationKernelSpec(4.996, ((0.0105, 0.994),))
        with pytest.raises(ContourFailure):
            ml_contour_grid(spec, np.array([1.17e-5]))

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
        # the large-argument points go through the validated contour, whose
        # certified accuracy is coarser than the series region's
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
            # series point: largest argument 0.27
            (RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4))), 0.05),
            # contour point: largest argument 5.2
            (RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4))), 2.0),
            # fallback point: argument 1.5, but the series refuses
            (RelaxationKernelSpec(0.5, ((1.5, 0.05),)), 1.0),
        ],
        ids=["series", "contour", "fallback"],
    )
    def test_scalar_is_one_point_grid(self, spec, t):
        assert eval_kernel(spec, t) == eval_kernel_grid(spec, np.array([t]))[0]

    def test_fallback_point_refused_by_series(self):
        with pytest.raises(NonConvergence):
            ml_series(MLParameters(0.5, (0.05,)), (-1.5,))
        spec = RelaxationKernelSpec(0.5, ((1.5, 0.05),))
        assert eval_kernel(spec, 1.0) == contour_at(spec, 1.0)

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
