"""Tests for the discrete fractional-calculus layer.

Oracles are closed forms: Caputo derivatives of power functions,
Riemann-Liouville semigroup identities, and convolution integrals that reduce
to kernel antiderivatives or resolvent identities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from fracsource import fractional
from fracsource.fractional import (
    FractionalOperatorSpec,
    GridTooCoarse,
    InvalidOrder,
    InvalidSpec,
    KernelMoments,
    QuadratureFailure,
    TimeGrid,
    TimeSeries,
    caputo_multiterm,
    rl_integral,
    singular_convolve,
)
from fracsource.mlf import (
    RelaxationKernelSpec,
    eval_kernel,
    eval_kernel_grid,
    kernel_antiderivative,
)


class TestTimeGridAndSeries:
    def test_grid_nodes(self):
        grid = TimeGrid(2.0, 4)
        np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.tau == 0.5

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_series_shape_check(self):
        with pytest.raises(ValueError):
            TimeSeries(TimeGrid(1.0, 4), np.zeros(3))

    def test_series_algebra(self):
        grid = TimeGrid(1.0, 4)
        a = TimeSeries.from_function(grid, lambda t: t)
        b = TimeSeries.from_function(grid, lambda t: 1.0 - t)
        np.testing.assert_allclose((a + b).values, 1.0)
        np.testing.assert_allclose((2.0 * a).values, 2.0 * grid.nodes)


class TestOperatorSpec:
    def test_accepts_ordered_terms(self):
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4), (0.1, 0.2)))
        assert op.all_terms()[0] == (1.0, 0.8)

    def test_rejects_misordered_terms(self):
        with pytest.raises(InvalidSpec):
            FractionalOperatorSpec(0.5, ((0.5, 0.7),))
        with pytest.raises(InvalidSpec):
            FractionalOperatorSpec(0.8, ((0.5, 0.4), (0.1, 0.6)))

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidSpec):
            FractionalOperatorSpec(0.8, ((-1.0, 0.4),))

    def test_rejects_order_out_of_range(self):
        with pytest.raises(InvalidSpec):
            FractionalOperatorSpec(1.2)
        with pytest.raises(InvalidSpec):
            FractionalOperatorSpec(0.0)


class TestCaputoL1:
    def test_exact_on_linear(self):
        # the L1 scheme reproduces D^alpha t = t^(1-alpha)/Gamma(2-alpha)
        # exactly because the interpolant is the signal itself
        grid = TimeGrid(1.0, 64)
        sig = TimeSeries.from_function(grid, lambda t: 2.0 * t)
        for alpha in (0.3, 0.5, 0.9):
            got = caputo_multiterm(sig, FractionalOperatorSpec(alpha)).values[1:]
            want = 2.0 * grid.nodes[1:] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_constant_has_zero_derivative(self):
        grid = TimeGrid(1.0, 32)
        sig = TimeSeries.from_function(grid, lambda t: 3.0 + 0.0 * t)
        got = caputo_multiterm(sig, FractionalOperatorSpec(0.6, ((0.5, 0.3),)))
        np.testing.assert_allclose(got.values, 0.0, atol=1e-14)

    def test_alpha_one_is_backward_difference(self):
        grid = TimeGrid(1.0, 16)
        sig = TimeSeries.from_function(grid, lambda t: t**3)
        got = caputo_multiterm(sig, FractionalOperatorSpec(1.0)).values
        want = np.concatenate([[0.0], np.diff(sig.values) / grid.tau])
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_quadratic_convergence_envelope(self):
        # D^alpha t^2 = 2 t^(2-alpha)/Gamma(3-alpha); L1 error is O(N^-(2-alpha))
        alpha = 0.5
        errs = []
        for N in (64, 256):
            grid = TimeGrid(1.0, N)
            sig = TimeSeries.from_function(grid, lambda t: t**2)
            got = caputo_multiterm(sig, FractionalOperatorSpec(alpha)).values
            want = 2.0 * grid.nodes ** (2.0 - alpha) / math.gamma(3.0 - alpha)
            # measure away from the startup nodes, where the relative error
            # of the L1 scheme is O(1) at any resolution
            w = grid.nodes >= 0.25
            errs.append(np.max(np.abs(got[w] - want[w]) / want[w]))
        observed_order = math.log(errs[0] / errs[1]) / math.log(4.0)
        assert observed_order >= 1.4  # 2 - alpha = 1.5 up to constants

    def test_multiterm_is_sum_of_single_terms(self):
        grid = TimeGrid(1.0, 32)
        sig = TimeSeries.from_function(grid, lambda t: np.sin(t))
        op = FractionalOperatorSpec(0.9, ((0.7, 0.5), (0.2, 0.1)))
        combined = caputo_multiterm(sig, op).values
        parts = sum(
            psi * caputo_multiterm(sig, FractionalOperatorSpec(beta)).values
            if beta < 1.0
            else psi * caputo_multiterm(sig, FractionalOperatorSpec(1.0)).values
            for psi, beta in op.all_terms()
        )
        np.testing.assert_allclose(combined, parts, rtol=1e-13)

    def test_rejects_tiny_grid(self):
        sig = TimeSeries(TimeGrid(1.0, 1), np.array([0.0, 1.0]))
        with pytest.raises(GridTooCoarse):
            caputo_multiterm(sig, FractionalOperatorSpec(0.5))

    @given(
        alpha=st.floats(0.1, 1.0),
        c1=st.floats(-5.0, 5.0),
        c2=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, alpha, c1, c2):
        grid = TimeGrid(1.0, 24)
        op = FractionalOperatorSpec(alpha)
        f = TimeSeries.from_function(grid, lambda t: np.cos(3.0 * t))
        g = TimeSeries.from_function(grid, lambda t: t**1.5)
        lhs = caputo_multiterm(c1 * f + c2 * g, op).values
        rhs = (
            c1 * caputo_multiterm(f, op).values + c2 * caputo_multiterm(g, op).values
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


class TestRLIntegral:
    def test_exact_on_linear(self):
        # I^xi t = t^(1+xi)/Gamma(2+xi), exact by product integration
        grid = TimeGrid(1.0, 32)
        sig = TimeSeries.from_function(grid, lambda t: t)
        for xi in (0.25, 0.5, 1.0, 1.75):
            got = rl_integral(sig, xi).values
            want = grid.nodes ** (1.0 + xi) / math.gamma(2.0 + xi)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-16)

    def test_order_one_is_plain_integral(self):
        grid = TimeGrid(2.0, 128)
        sig = TimeSeries.from_function(grid, lambda t: np.exp(-t))
        got = rl_integral(sig, 1.0).values
        want = 1.0 - np.exp(-grid.nodes)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_semigroup_property(self):
        # I^a I^b = I^(a+b) on a smooth signal (up to interpolation error)
        grid = TimeGrid(1.0, 512)
        sig = TimeSeries.from_function(grid, lambda t: np.sin(2.0 * t))
        a, b = 0.6, 0.7
        once = rl_integral(rl_integral(sig, a), b).values
        direct = rl_integral(sig, a + b).values
        np.testing.assert_allclose(once, direct, atol=1e-7)

    def test_inverts_caputo_on_vanishing_data(self):
        # I^alpha D^alpha u = u when u(0) = 0
        grid = TimeGrid(1.0, 1024)
        sig = TimeSeries.from_function(grid, lambda t: t**2 * (1.0 + t))
        alpha = 0.7
        deriv = caputo_multiterm(sig, FractionalOperatorSpec(alpha))
        back = rl_integral(deriv, alpha).values
        np.testing.assert_allclose(back, sig.values, atol=1e-3)

    def test_rejects_nonpositive_order(self):
        sig = TimeSeries.from_function(TimeGrid(1.0, 8), lambda t: t)
        with pytest.raises(InvalidOrder):
            rl_integral(sig, 0.0)


class TestKronrodRule:
    def test_kronrod_exact_to_degree_22(self):
        x, wk, _ = fractional._KRONROD01
        for d in range(23):
            assert abs(wk @ x**d - 1.0 / (d + 1)) <= 1e-15

    def test_gauss_exact_to_degree_13(self):
        x, _, wg = fractional._KRONROD01
        for d in range(14):
            assert abs(wg @ x**d - 1.0 / (d + 1)) <= 1e-15
        # and no further: degree 14 is where the 7-point rule stops
        assert abs(wg @ x**14 - 1.0 / 15) > 1e-12

    def test_gauss_nodes_are_the_odd_kronrod_nodes(self):
        x, _, wg = fractional._KRONROD01
        assert np.all(np.diff(x) > 0.0) and 0.0 < x[0] and x[-1] < 1.0
        np.testing.assert_array_equal(np.nonzero(wg)[0], np.arange(1, 15, 2))
        gx, gw = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(x[1::2], (gx + 1.0) / 2.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(wg[1::2], gw / 2.0, rtol=0.0, atol=1e-15)


class TestLocalCoefficients:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 128, 1024])
    def test_matches_cubic_spline(self, n):
        grid = TimeGrid(1.0, n)
        values = np.random.default_rng(n).standard_normal(n + 1)
        got = fractional._local_coefficients(grid, values)
        want = CubicSpline(grid.nodes, values).c[::-1]
        # row k in units of the interval: coefficient of ((t - t_i)/tau)^k
        scale = grid.tau ** np.arange(4)[:, None]
        gap = np.max(np.abs(got - want) * scale)
        assert gap <= 1e-14 * np.max(np.abs(want) * scale)

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_reproduces_a_cubic(self, n):
        # not-a-knot reproduces any cubic; on one or two intervals the line
        # or parabola through the samples, so the test polynomial is cut
        # to that degree there
        poly = np.array([0.7, -1.3, 2.1, 0.9])
        poly[min(n, 3) + 1 :] = 0.0
        grid = TimeGrid(2.0, n)
        got = fractional._local_coefficients(
            grid, np.polynomial.polynomial.polyval(grid.nodes, poly)
        )
        # row k holds the k-th Taylor coefficient at each left node; compared
        # in interval units, as the coefficient of ((t - t_i)/tau)^k
        for k in range(4):
            deriv = np.polynomial.polynomial.polyder(poly, k)
            want = np.polynomial.polynomial.polyval(grid.nodes[:-1], deriv)
            np.testing.assert_allclose(
                got[k] * grid.tau**k,
                want / math.factorial(k) * grid.tau**k,
                rtol=0.0,
                atol=1e-13,
            )

    def test_non_finite_samples_refused(self):
        grid = TimeGrid(1.0, 8)
        for bad in (np.nan, np.inf):
            values = np.ones(grid.N + 1)
            values[3] = bad
            with pytest.raises(ValueError):
                fractional._local_coefficients(grid, values)


class TestFirstIntervalMoments:
    @pytest.mark.parametrize(
        "spec, grid",
        [
            # series route: largest argument 0.27 at tau
            (RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4))), TimeGrid(1.0, 20)),
            # contour route: largest argument 5.2 at tau
            (RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4))), TimeGrid(4.0, 2)),
            # no term: the power kernel in closed form
            (RelaxationKernelSpec(0.4, ()), TimeGrid(1.0, 8)),
            # argument 1.5: the series refuses eta + 1 and serves the rest
            (RelaxationKernelSpec(0.1, ((1.5, 0.15),)), TimeGrid(2.0, 2)),
        ],
        ids=["series", "contour", "power", "series-refuses"],
    )
    def test_one_call_equals_four_one_point_calls(self, spec, grid):
        table = KernelMoments(spec, grid)
        want = np.array(
            [
                math.factorial(k) * eval_kernel(spec.with_eta(spec.eta + k + 1.0), grid.tau)
                for k in range(4)
            ]
        )
        for rule in (0, 1):
            np.testing.assert_allclose(table.moments[rule, :, 0], want, rtol=1e-15, atol=0.0)


class TestSingularConvolve:
    def test_constant_signal_gives_antiderivative(self):
        # (1 * e)(t) = integral of the kernel
        grid = TimeGrid(1.0, 64)
        one = TimeSeries.from_function(grid, lambda t: np.ones_like(t))
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4)))
        got = singular_convolve(one, KernelMoments(spec, grid)).values
        want = np.array(
            [0.0] + [kernel_antiderivative(spec, t) for t in grid.nodes[1:]]
        )
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-14)

    def test_exponential_resolvent_identity(self):
        # for eta = xi = 1 the kernel is e^(-m t) and
        # (g * e)(t) with g = 1 equals (1 - e^(-m t))/m
        grid = TimeGrid(1.0, 64)
        m = 4.0
        one = TimeSeries.from_function(grid, lambda t: np.ones_like(t))
        spec = RelaxationKernelSpec(1.0, ((m, 1.0),))
        got = singular_convolve(one, KernelMoments(spec, grid))
        want = (1.0 - np.exp(-m * grid.nodes)) / m
        np.testing.assert_allclose(got.values, want, rtol=1e-8, atol=1e-14)

    def test_resolvent_ode_identity(self):
        # T = (g * e_alpha) solves D^alpha T + sigma T = g with T(0) = 0;
        # verified through the L1 residual on a resolved grid
        grid = TimeGrid(1.0, 512)
        alpha, sigma = 0.6, 5.0
        g = TimeSeries.from_function(grid, lambda t: 1.0 + np.sin(3.0 * t))
        spec = RelaxationKernelSpec(alpha, ((sigma, alpha),))
        T = singular_convolve(g, KernelMoments(spec, grid))
        res = (
            caputo_multiterm(T, FractionalOperatorSpec(alpha)).values
            + sigma * T.values
            - g.values
        )
        assert np.max(np.abs(res[grid.N // 4 :])) < 5e-3

    def test_zero_signal_gives_zero(self):
        grid = TimeGrid(1.0, 32)
        zero = TimeSeries.zeros(grid)
        spec = RelaxationKernelSpec(0.7, ((2.0, 0.7),))
        got = singular_convolve(zero, KernelMoments(spec, grid))
        np.testing.assert_array_equal(got.values, 0.0)

    def test_linear_in_signal(self):
        grid = TimeGrid(1.0, 48)
        table = KernelMoments(RelaxationKernelSpec(0.9, ((1.5, 0.9),)), grid)
        f = TimeSeries.from_function(grid, lambda t: t)
        g = TimeSeries.from_function(grid, lambda t: np.cos(t))
        lhs = singular_convolve(2.0 * f + g, table).values
        rhs = (
            2.0 * singular_convolve(f, table).values
            + singular_convolve(g, table).values
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_stiff_rate_stays_validated(self):
        # node-doubling validation must hold even for strongly decaying
        # kernels whose mass concentrates near the singular endpoint
        grid = TimeGrid(1.0, 64)
        g = TimeSeries.from_function(grid, lambda t: 1.0 + t)
        spec = RelaxationKernelSpec(0.8, ((2.0e4, 0.8),))
        got = singular_convolve(g, KernelMoments(spec, grid)).values
        # long-time limit of the convolution is g(t)/sigma for slowly
        # varying g (quasi-static balance)
        np.testing.assert_allclose(
            got[8:], (1.0 + grid.nodes[8:]) / 2.0e4, rtol=1e-2
        )

    def test_disagreeing_rules_refuse(self, monkeypatch):
        # relative noise of 1e-5 on the kernel values of the later intervals
        # makes the Kronrod rule and its embedded Gauss rule disagree far
        # past 1e-7
        grid = TimeGrid(1.0, 32)
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8),))
        g = TimeSeries.from_function(grid, lambda t: 1.0 + t)
        rng = np.random.default_rng(0)

        def noisy(spec, ts):
            values = eval_kernel_grid(spec, ts)
            later = np.asarray(ts) > grid.tau
            return values * np.where(later, 1.0 + 1e-5 * rng.standard_normal(values.shape), 1.0)

        monkeypatch.setattr(fractional, "eval_kernel_grid", noisy)
        table = KernelMoments(spec, grid)
        with pytest.raises(QuadratureFailure):
            singular_convolve(g, table)

    def test_non_finite_signal_refused(self):
        grid = TimeGrid(1.0, 16)
        table = KernelMoments(RelaxationKernelSpec(0.8, ((3.0, 0.8),)), grid)
        g = TimeSeries.from_function(grid, lambda t: 1.0 + t)
        g.values[5] = np.nan
        with pytest.raises(ValueError):
            singular_convolve(g, table)
        with pytest.raises(ValueError):
            rl_integral(g, 0.5)

    def test_table_is_grid_bound(self):
        spec = RelaxationKernelSpec(0.7, ((2.0, 0.7), (0.5, 0.3)))
        table = KernelMoments(spec, TimeGrid(1.0, 40))
        for other in (TimeGrid(1.0, 20), TimeGrid(2.0, 40)):
            with pytest.raises(ValueError):
                singular_convolve(TimeSeries.from_function(other, np.cos), table)
