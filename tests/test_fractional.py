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
from scipy.linalg import solve_banded

from test_mlf import mpmath_talbot

from fracsource import fractional, mlf
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
    caputo_power,
    rl_integral,
    singular_convolve,
)
from fracsource.mlf import (
    RelaxationKernelSpec,
    _kernel_sum,
    _own_rate,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_refuses_non_finite_horizon(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(bad, 4)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(InvalidSpec, match="finite"):
            FractionalOperatorSpec(0.8, ((bad, 0.4),))
        for alpha, terms in ((bad, ()), (0.8, ((0.5, bad),))):
            with pytest.raises(InvalidSpec):
                FractionalOperatorSpec(alpha, terms)

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

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_closed_form_of_power(self, p):
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4),))
        ts = np.array([0.0, 0.25, 1.0, 3.0])
        want = sum(
            psi * math.gamma(1.0 + p) / math.gamma(1.0 + p - beta) * ts ** (p - beta)
            for psi, beta in ((1.0, 0.8), (0.5, 0.4))
        )
        np.testing.assert_allclose(caputo_power(op, p, ts), want, rtol=1e-15)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_exact_on_cubic(self, n):
        # not-a-knot reproduces a cubic (cut to the line or parabola on one
        # or two intervals), and its Hermite form, values and slopes at
        # every node, node 0's included, is integrated exactly:
        # I^xi t^p = Gamma(p + 1) / Gamma(p + 1 + xi) t^(p + xi)
        poly = np.array([0.7, -1.3, 2.1, 0.9])
        poly[min(n, 3) + 1 :] = 0.0
        grid = TimeGrid(1.0, n)
        sig = TimeSeries(grid, np.polynomial.polynomial.polyval(grid.nodes, poly))
        for xi in (0.3, 0.75, 1.5):
            got = rl_integral(sig, xi).values
            want = sum(
                c * math.gamma(p + 1.0) / math.gamma(p + 1.0 + xi) * grid.nodes ** (p + xi)
                for p, c in enumerate(poly)
            )
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

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


class TestLocalCoefficients:
    """The spline's node slopes, which with its samples fix its Hermite form
    on every interval."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 128, 1024])
    def test_matches_cubic_spline(self, n):
        grid = TimeGrid(1.0, n)
        values = np.random.default_rng(n).standard_normal(n + 1)
        got = fractional._node_slopes(grid, values)
        spline = CubicSpline(grid.nodes, values)
        want = spline(grid.nodes, 1)
        # in units of the interval, against the spline's largest power
        # coefficient of ((t - t_i)/tau)^k
        scale = grid.tau ** np.arange(4)[:, None]
        gap = np.max(np.abs(got - want)) * grid.tau
        assert gap <= 1e-14 * np.max(np.abs(spline.c[::-1]) * scale)

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_reproduces_a_cubic(self, n):
        # not-a-knot reproduces any cubic; on one or two intervals the line
        # or parabola through the samples, so the test polynomial is cut
        # to that degree there
        poly = np.array([0.7, -1.3, 2.1, 0.9])
        poly[min(n, 3) + 1 :] = 0.0
        grid = TimeGrid(2.0, n)
        got = fractional._node_slopes(grid, np.polynomial.polynomial.polyval(grid.nodes, poly))
        # the derivative at every node, compared in interval units
        want = np.polynomial.polynomial.polyval(grid.nodes, np.polynomial.polynomial.polyder(poly))
        np.testing.assert_allclose(got * grid.tau, want * grid.tau, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 16, 128, 1024])
    def test_factored_solve_is_the_banded_solve(self, n):
        # the cached factor gives the slopes solve_banded gives, bit for bit
        grid = TimeGrid(1.0, n)
        rng = np.random.default_rng(n)
        for _ in range(10):
            values = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-5, 5)
            slope = np.diff(values) / grid.tau
            rhs = np.concatenate([
                [(5.0 * slope[0] + slope[1]) / 2.0],
                3.0 * (slope[:-1] + slope[1:]),
                [(slope[-2] + 5.0 * slope[-1]) / 2.0],
            ])
            want = solve_banded((1, 1), fractional._not_a_knot_band(n), rhs)
            got = fractional._node_slopes(grid, values)
            assert got.tobytes() == want.tobytes()

    def test_non_finite_samples_refused(self):
        grid = TimeGrid(1.0, 8)
        for bad in (np.nan, np.inf):
            values = np.ones(grid.N + 1)
            values[3] = bad
            with pytest.raises(ValueError):
                fractional._node_slopes(grid, values)


# mode kernels of the forward-sweep operators: e_(m xi),alpha of
# D^alpha + sum psi_i D^alpha_i + sigma, terms (psi_i, alpha - alpha_i), (sigma, alpha)
_MODE_KERNELS = {
    "one-term": lambda s: RelaxationKernelSpec(0.55, ((s, 0.55),)),
    "two-term": lambda s: RelaxationKernelSpec(0.75, ((0.5, 0.32), (s, 0.75))),
    "three-term": lambda s: RelaxationKernelSpec(0.92, ((0.8, 0.32), (0.3, 0.6), (s, 0.92))),
}


class TestFirstIntervalMoments:
    @pytest.mark.parametrize(
        "spec, grid",
        [
            # largest argument 0.27 at tau
            (RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4))), TimeGrid(1.0, 20)),
            # largest argument 5.2 at tau
            (RelaxationKernelSpec(0.8, ((3.0, 0.8), (0.5, 0.4))), TimeGrid(4.0, 2)),
            # no term: the power kernel in closed form
            (RelaxationKernelSpec(0.4, ()), TimeGrid(1.0, 8)),
            # argument 1.5, which the series refuses at eta + 1
            (RelaxationKernelSpec(0.1, ((1.5, 0.15),)), TimeGrid(2.0, 2)),
        ],
        ids=["series", "contour", "power", "series-refuses"],
    )
    def test_one_call_equals_four_one_point_calls(self, spec, grid):
        # the first interval takes the pointwise route, contour first at 48
        # nodes, its four indices in one call
        table = KernelMoments(spec, grid)
        tau = np.array([grid.tau])
        want = np.array(
            [
                math.factorial(k)
                * _kernel_sum(spec, tau, ((1.0, eta),), _own_rate(spec), finer=True)[0, 0]
                for k, eta in enumerate(spec.eta + np.arange(4) + 1.0)
            ]
        )
        np.testing.assert_allclose(table.moments[:, 0], want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [128, 1024])
    @pytest.mark.parametrize("kernel", sorted(_MODE_KERNELS))
    def test_family_matches_mpmath(self, kernel, n):
        # the contour's 48-node values, certified by the 32-node ones, against
        # a 30-digit inversion: within 2e-13 relative; the 48-node rule's
        # roundoff reaches 1.2e-13 at eta + 1 for the two-term kernel at
        # sigma = 25033, N = 128.  The 24-node values are off by up to 3.5e-8
        sigmas = (97.4, 1e4, 25033.0, 1e6, 1e8)
        tau = 1.0 / n
        got = fractional._first_moments(_MODE_KERNELS[kernel](1.0), tau, sigmas)
        for row, sigma in zip(got, sigmas):
            spec = _MODE_KERNELS[kernel](sigma)
            want = [
                math.factorial(k) * mpmath_talbot(spec.with_eta(spec.eta + k + 1.0), tau, 30)
                for k in range(4)
            ]
            np.testing.assert_allclose(row, want, rtol=2e-13, atol=0.0)
        if (kernel, n) == ("three-term", 1024):
            # the 24-node rule refuses e_(eta+4)(tau) at sigma = 97.4, and the
            # 32-node rule certifies the 48-node value there
            spec = _MODE_KERNELS[kernel](sigmas[0])
            powers = ((1.0, spec.eta + 4.0),)
            at = (spec, np.array([tau]), powers, (sigmas[0],))
            assert not mlf._contour_values(*at, mlf._TALBOT_PAIR)[2].any()
            assert mlf._contour_values(*at, mlf._FINER_PAIR)[2].all()


def direct_moments(spec, grid):
    """Later-interval moments without the panels: a 24-point Gauss-Legendre
    rule on the kernel evaluated directly at its nodes in every interval.
    Shape (k, p - 2)."""
    tau, n = grid.tau, grid.N
    x, w = fractional._gauss01(24)
    u = x * tau
    p = np.arange(2, n + 1, dtype=float)
    e = eval_kernel_grid(spec, (p[:, None] * tau - u).ravel()).reshape(n - 1, u.size)
    return ((w * tau)[:, None] * u[:, None] ** np.arange(4)).T @ e.T


class TestPanelTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 128, 1024])
    @pytest.mark.parametrize("kernel", sorted(_MODE_KERNELS))
    def test_matches_direct_kronrod_rule(self, kernel, n):
        grid = TimeGrid(1.0, n)
        for sigma in (0.0, 40.0, 1.0e4, 1.0e8):
            spec = _MODE_KERNELS[kernel](sigma)
            table = KernelMoments(spec, grid)
            assert table.moments.shape == (4, n)
            scale = np.max(np.abs(table.moments), axis=1, keepdims=True)
            gap = np.abs(table.moments[:, 1:] - direct_moments(spec, grid))
            assert np.all(gap <= 1e-12 * scale), (sigma, np.max(gap / scale))
            # and the table passes the interpolation check
            assert table.gap <= 1e-10 * abs(np.sum(table.moments[0]))

    def test_panel_interpolant_is_integrated_exactly(self, monkeypatch):
        # kernel values T_32 of each panel's own coordinate: the panel
        # interpolant is that degree-32 polynomial, and the moments must be
        # its exact integrals against u^k, whatever the kernel was
        grid = TimeGrid(1.0, 4)
        edges = np.array([1.0, 2.0, 4.0])

        def chebyshev(spec, ts):
            t = np.asarray(ts) / grid.tau
            i = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, edges.size - 2)
            a, b = edges[i], edges[i + 1]
            return np.cos(32.0 * np.arccos(np.clip((2.0 * t - a - b) / (b - a), -1.0, 1.0)))

        monkeypatch.setattr(
            fractional, "eval_kernel_grid",
            lambda spec, ts, rates: np.tile(chebyshev(spec, ts), (len(rates), 1)),
        )
        table = KernelMoments(RelaxationKernelSpec(0.8, ((3.0, 0.8),)), grid)
        # the same integrals in units of tau by a 64-point Gauss rule, exact
        # to degree 127, over the interval [p - 1, p] of t / tau that
        # interval p reads
        x, w = fractional._gauss01(64)
        k = np.arange(4)
        for p in range(2, grid.N + 1):
            want = (w[:, None] * x[:, None] ** k).T @ chebyshev(None, (p - x) * grid.tau)
            got = table.moments[:, p - 1] / grid.tau ** (k + 1.0)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n, edges", [
        (2, [1, 2]), (3, [1, 2, 3]), (5, [1, 2, 4, 5]), (128, [1, 2, 4, 8, 16, 32, 64, 128]),
    ])
    def test_dyadic_panels_in_one_kernel_call(self, monkeypatch, n, edges):
        calls = []

        def counting(spec, ts, rates):
            calls.append(np.asarray(ts).size)
            return eval_kernel_grid(spec, ts, rates)

        monkeypatch.setattr(fractional, "eval_kernel_grid", counting)
        KernelMoments(RelaxationKernelSpec(0.8, ((3.0, 0.8),)), TimeGrid(1.0, n))
        np.testing.assert_array_equal(fractional._panel_rule(n)[0], edges)
        assert calls == [(len(edges) - 1) * fractional._PANEL_NODES]

    def test_one_interval_has_no_panel(self, monkeypatch):
        monkeypatch.setattr(fractional, "eval_kernel_grid", None)
        table = KernelMoments(RelaxationKernelSpec(0.8, ((3.0, 0.8),)), TimeGrid(1.0, 1))
        assert table.moments.shape == (4, 1) and table.gap == 0.0

    @pytest.mark.parametrize("n", [1, 5, 128])
    @pytest.mark.parametrize("kernel", sorted(_MODE_KERNELS) + ["zero-weight"])
    def test_family_tables_are_one_rate_tables(self, kernel, n):
        # a repeated rate, and first-interval moments on both routes
        make = _MODE_KERNELS.get(
            kernel, lambda s: RelaxationKernelSpec(0.8, ((0.0, 0.4), (0.5, 0.2), (s, 0.8)))
        )
        rates = (0.5, 40.0, 1.0e4, 1.0e4, 1.0e8)
        grid = TimeGrid(1.0, n)
        tables = KernelMoments.family(make(1.0), rates, grid)
        assert len(tables) == len(rates)
        for table, rate in zip(tables, rates):
            want = KernelMoments(make(rate), grid)
            assert table.grid == grid
            assert table.moments.tobytes() == want.moments.tobytes()
            assert table.weights.tobytes() == want.weights.tobytes()
            assert table.gap == want.gap

    @pytest.mark.parametrize("n", [16, 128])
    @pytest.mark.parametrize("kernel", sorted(_MODE_KERNELS))
    def test_family_rate_zero_is_the_kernel_without_its_last_term(self, kernel, n):
        # a solve tables sigma = 0 as its family's rate 0; alone, that kernel
        # drops its last term (one-term: the power kernel, in closed form)
        make, grid = _MODE_KERNELS[kernel], TimeGrid(1.0, n)
        table = KernelMoments.family(make(1.0), (0.0, 40.0, 1.0e4), grid)[0]
        alone = KernelMoments(make(0.0), grid)
        np.testing.assert_allclose(table.moments, alone.moments, rtol=1e-13, atol=0.0)
        scale = np.abs(alone.weights).max()
        np.testing.assert_allclose(table.weights, alone.weights, rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("bad", [-2.0, math.nan, math.inf])
    def test_family_refuses_a_rate_outside_the_kernels(self, monkeypatch, bad):
        # before any contour work: the first-interval moments come first
        def unreachable(*args):
            raise AssertionError("contour work began")

        monkeypatch.setattr(mlf, "_talbot_invert", unreachable)
        with pytest.raises(mlf.InvalidParameters, match=f"got {bad}"):
            KernelMoments.family(_MODE_KERNELS["one-term"](1.0), (40.0, bad), TimeGrid(1.0, 16))

    def test_family_panel_values_in_one_kernel_call(self, monkeypatch):
        # three rates, one of them repeated: one call over the 7 panels'
        # nodes at N = 128, one row per rate
        calls = []

        def counting(spec, ts, rates):
            rows = eval_kernel_grid(spec, ts, rates)
            calls.append((np.asarray(ts).size, rows.shape))
            return rows

        monkeypatch.setattr(fractional, "eval_kernel_grid", counting)
        rates = (40.0, 1.0e4, 1.0e4, 1.0e8)
        tables = KernelMoments.family(_MODE_KERNELS["two-term"](1.0), rates, TimeGrid(1.0, 128))
        points = 7 * fractional._PANEL_NODES
        assert calls == [(points, (len(rates), points))]
        assert len(tables) == len(rates)

    def test_family_point_both_routes_refuse_raises(self, monkeypatch):
        # the contour refuses one rate's panel node at t = T = 1 and the
        # series, whose largest argument there is 1e8, refuses it too: the
        # family names that time, though its other rates' nodes are served
        contour_values = mlf._contour_values

        def refusing(spec, ts, powers, rates, nodes):
            base, check, ok = contour_values(spec, ts, powers, rates, nodes)
            ok[np.logical_and.outer(np.asarray(rates) == 1.0e8, ts == 1.0)] = False
            return base, check, ok

        monkeypatch.setattr(mlf, "_contour_values", refusing)
        make, grid = _MODE_KERNELS["one-term"], TimeGrid(1.0, 128)
        KernelMoments.family(make(1.0), (40.0, 1.0e4), grid)
        with pytest.raises(mlf.ContourFailure, match=r"at t=1: "):
            KernelMoments.family(make(1.0), (40.0, 1.0e8, 1.0e4), grid)

    def test_series_noise_is_not_an_interpolation_gap(self):
        # D^0.8 + 2 D^0.56 + 1: near t = 0.5 the shell sum's roundoff reached
        # ~2e-8 of the kernel, above 1e-10 of its integral, while it served
        # the panel nodes there.  The contour serves those nodes now, so the
        # table passes its unexempted gap check and convolves as the direct
        # rule does to near roundoff: a table of the direct moments, whose
        # weights are derived from them as every table's are
        grid = TimeGrid(1.0, 128)
        spec = RelaxationKernelSpec(0.8, ((2.0, 0.24), (1.0, 0.8)))
        table = KernelMoments(spec, grid)
        g = TimeSeries.from_function(grid, lambda t: 1.0 + t)
        got = singular_convolve(g, table).values
        with pytest.raises(ValueError, match="read-only"):
            table.moments[:, 1:] = 0.0
        moments = table.moments.copy()
        moments[:, 1:] = direct_moments(spec, grid)
        weights = fractional._hermite_weights(moments, grid.tau)
        direct = KernelMoments(spec, grid, (moments, table.gap, weights))
        want = singular_convolve(g, direct).values
        assert not np.array_equal(weights, table.weights)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


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

    def test_noisy_kernel_values_refuse(self, monkeypatch):
        # relative noise of 1e-5 on the kernel values of the later intervals:
        # the 17-node interpolant misses the nodes it skips far past 1e-10
        # of the kernel's integral
        grid = TimeGrid(1.0, 32)
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8),))
        g = TimeSeries.from_function(grid, lambda t: 1.0 + t)
        rng = np.random.default_rng(0)

        def noisy(spec, ts, rates):
            values = eval_kernel_grid(spec, ts, rates)
            later = np.asarray(ts) > grid.tau
            return values * np.where(later, 1.0 + 1e-5 * rng.standard_normal(values.shape), 1.0)

        monkeypatch.setattr(fractional, "eval_kernel_grid", noisy)
        table = KernelMoments(spec, grid)
        with pytest.raises(QuadratureFailure, match="interpolation gap"):
            singular_convolve(g, table)

    def test_table_integral_is_built_with_the_table(self):
        # the gap check's scale, |int_0^T e|, is read from the table; it is
        # the sum of its read-only first moments, bit for bit
        grid = TimeGrid(1.0, 32)
        tables = [KernelMoments(RelaxationKernelSpec(0.8, ((3.0, 0.8),)), grid)]
        tables += KernelMoments.family(_MODE_KERNELS["two-term"](1.0), (40.0, 1.0e4), grid)
        for table in tables:
            assert table.integral == abs(float(np.sum(table.moments[0])))

    def test_interpolation_gap_refuses(self, monkeypatch):
        # relative noise of 1e-6 on the panel nodes the 17-node interpolant
        # skips: the interpolant misses them by 1e-6 of each panel's kernel
        grid = TimeGrid(1.0, 32)
        spec = RelaxationKernelSpec(0.8, ((3.0, 0.8),))
        g = TimeSeries.from_function(grid, lambda t: 1.0 + t)

        def noisy(spec, ts, rates):
            values = eval_kernel_grid(spec, ts, rates)
            skipped = np.arange(values.size) % fractional._PANEL_NODES % 2 == 1
            return values * np.where(skipped, 1.0 + 1e-6, 1.0)

        monkeypatch.setattr(fractional, "eval_kernel_grid", noisy)
        table = KernelMoments(spec, grid)
        with pytest.raises(QuadratureFailure, match="interpolation gap"):
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


class TestCombinedTable:
    """``KernelMoments.combine``: the table of a weighted sum of kernels."""

    def _family(self, grid):
        return KernelMoments.family(_MODE_KERNELS["two-term"](1.0), (40.0, 900.0, 1.0e4), grid)

    def test_convolution_is_the_weighted_sum(self, monkeypatch):
        grid = TimeGrid(1.0, 64)
        tables = self._family(grid)
        w = np.array([0.7, -1.3, 2.1])
        built = []
        monkeypatch.setattr(KernelMoments, "__init__", lambda *a: built.append(a))
        with np.errstate(all="raise"):
            combined = KernelMoments.combine(tables, w)
        assert built == []  # no table is built: nothing is evaluated
        g = TimeSeries.from_function(grid, lambda t: 1.0 + t - 0.4 * t**2)
        want = sum(c * singular_convolve(g, t).values for c, t in zip(w, tables))
        got = singular_convolve(g, combined).values
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))
        for part in ("moments", "weights"):
            parts = np.array([getattr(t, part) for t in tables])
            np.testing.assert_allclose(getattr(combined, part), np.tensordot(w, parts, 1))
            assert not getattr(combined, part).flags.writeable
        assert combined.gap == pytest.approx(np.abs(w) @ [t.gap for t in tables])
        assert combined.integral == pytest.approx(np.abs(w) @ [t.integral for t in tables])
        assert combined.grid == grid

    def test_each_table_is_refused_in_turn(self):
        # the first table whose gap exceeds 1e-10 of its integral names the
        # failure, as singular_convolve would refuse it; the gap-weighted
        # sum of the combination alone would not show it
        tables = self._family(TimeGrid(1.0, 32))
        for table, scale in zip(tables[1:], (2e-10, 5e-10)):
            table.gap = scale * table.integral
        with pytest.raises(QuadratureFailure) as exc:
            KernelMoments.combine(tables, [1.0e6, 1.0, 1.0])
        first = tables[1]
        assert str(exc.value) == (
            f"kernel interpolation gap {first.gap:g} exceeds 1e-10 of the "
            f"kernel's integral {first.integral:g}"
        )
