"""Tests for the closed-form spectral forward solver.

Independent oracles: classical exponential decay at unit order, the
high-precision kernel reference from the Mittag-Leffler tests, explicit
resonant closed forms for the coupled pair, and power-law responses of the
mean mode.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from test_mlf import mpmath_kernel

from fracsource.catalog import SpaceTimeField, make_field, make_time_fn
from fracsource import catalog, forward, fractional, mlf, spectral
from fracsource.forward import (
    ProblemData,
    mode_kernel_spec,
    ode_residual,
    solve_forward,
)
from fracsource.fractional import FractionalOperatorSpec, TimeGrid, TimeSeries
from fracsource.mlf import RelaxationKernelSpec
from fracsource.oracle import FDGrid
from fracsource.spectral import Family, Field2D, ModeIndex, eigen


def _zero_source():
    return SpaceTimeField.static(Field2D.constant(0.0))


def _amp(grid, fn):
    return TimeSeries.from_function(grid, fn)


class TestCounts:
    """TimeGrid, FDGrid and ProblemData take their counts by one rule: a
    whole number is stored as an int, anything else is refused rather than
    truncated."""

    @staticmethod
    def _count(kind, value):
        if kind == "TimeGrid":
            return TimeGrid(1.0, value).N
        if kind == "FDGrid":
            return FDGrid(Mx=value, My=16, N=4).Mx
        return ProblemData(
            op=FractionalOperatorSpec(0.8),
            phi=Field2D.constant(0.0),
            source=_zero_source(),
            grid=TimeGrid(1.0, 4),
            n_max=value,
        ).n_max

    @pytest.mark.parametrize("value", [16, np.int64(16), 16.0, np.float64(16.0)])
    @pytest.mark.parametrize("kind", ["TimeGrid", "FDGrid", "ProblemData"])
    def test_whole_numbers_stored_as_int(self, kind, value):
        count = self._count(kind, value)
        assert count == 16 and type(count) is int

    @pytest.mark.parametrize("value", [16.5, True, "16", math.nan, math.inf, None])
    @pytest.mark.parametrize("kind", ["TimeGrid", "FDGrid", "ProblemData"])
    def test_others_refused(self, kind, value):
        with pytest.raises(ValueError, match="must be a whole number"):
            self._count(kind, value)


class TestModeKernelSpec:
    def test_rate_order_pairs(self):
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4),))
        spec = mode_kernel_spec(op, 7.0)
        assert spec.eta == 1.0
        assert spec.terms == ((0.5, 0.8 - 0.4), (7.0, 0.8))


class TestTrivialSolutions:
    def test_zero_data_is_zero(self):
        grid = TimeGrid(1.0, 16)
        prob = ProblemData(
            op=FractionalOperatorSpec(0.8),
            phi=Field2D.constant(0.0),
            source=_zero_source(),
            grid=grid,
            amplitude=_amp(grid, lambda t: np.zeros_like(t)),
            n_max=2,
            k_max=2,
        )
        bundle = solve_forward(prob)
        for index in bundle.coeffs.indices():
            np.testing.assert_array_equal(bundle.coeffs[index].values, 0.0)
        np.testing.assert_array_equal(bundle.energy.values, 0.0)

    @pytest.mark.parametrize("n_max, k_max", [(2, -1), (-2, 2)])
    def test_negative_truncation_refused(self, n_max, k_max):
        grid = TimeGrid(1.0, 16)
        with pytest.raises(ValueError):
            ProblemData(
                op=FractionalOperatorSpec(0.8),
                phi=Field2D.constant(0.0),
                source=_zero_source(),
                grid=grid,
                n_max=n_max,
                k_max=k_max,
            )

    def test_constant_mode_is_stationary_without_forcing(self):
        # the mean mode has eigenvalue zero: no forcing, no motion
        grid = TimeGrid(1.0, 16)
        prob = ProblemData(
            op=FractionalOperatorSpec(0.6),
            phi=Field2D.constant(2.0),
            source=_zero_source(),
            grid=grid,
            amplitude=_amp(grid, lambda t: np.zeros_like(t)),
            n_max=2,
            k_max=2,
        )
        bundle = solve_forward(prob)
        np.testing.assert_allclose(
            bundle.coeffs[ModeIndex(Family.Zero, 0, 0)].values, 2.0, rtol=1e-12
        )
        np.testing.assert_allclose(bundle.energy.values, 2.0, rtol=1e-12)

    def test_constant_mode_is_exactly_stationary_with_lower_order_terms(self):
        # P(s) / (s P(s)) = 1/s: the mean mode keeps phi_c to the last bit
        grid = TimeGrid(1.0, 16)
        prob = ProblemData(
            op=FractionalOperatorSpec(0.8, ((0.5, 0.4),)),
            phi=Field2D.constant(2.0),
            source=_zero_source(),
            grid=grid,
            amplitude=_amp(grid, lambda t: np.zeros_like(t)),
            n_max=2,
            k_max=2,
        )
        bundle = solve_forward(prob)
        mean = ModeIndex(Family.Zero, 0, 0)
        np.testing.assert_array_equal(
            bundle.coeffs[mean].values, bundle.phi_coeffs[mean]
        )

    def test_data_free_mode_builds_no_kernel(self):
        # a mode with no data puts no eigenvalue into the set-up, and its
        # trajectory reads no kernel piece; a zero forcing row counts as no
        # forcing, so a solve of zero data builds no piece either
        grid = TimeGrid(1.0, 16)
        sigma = np.array([
            eigen(ModeIndex(family, 0 if family is Family.Zero else 1, 1)).sigma_nk
            for family in Family
        ])
        assert forward._kernel_needs(sigma, np.zeros(3), np.zeros(3, bool)) == (set(), set())
        prob = ProblemData(
            op=FractionalOperatorSpec(0.8),
            phi=Field2D.constant(0.0),
            source=_zero_source(),
            grid=grid,
            amplitude=_amp(grid, lambda t: 1.0 + t),
            n_max=2,
            k_max=2,
        )
        setup = forward.SetUp(prob.op, grid, prob.phi, prob.source)
        np.testing.assert_array_equal(forward._mode_trajectory(0.0, None, 1.0, setup), 0.0)
        bundle = solve_forward(prob, setup=setup)
        np.testing.assert_array_equal(bundle.coeffs.values, 0.0)
        assert setup.relaxation == setup.tables == {}


class TestSingleModeClosedForms:
    def test_classical_exponential_decay(self):
        # alpha = 1, no extra terms: each mode decays like exp(-sigma t)
        grid = TimeGrid(0.005, 64)
        prob = ProblemData(
            op=FractionalOperatorSpec(1.0),
            phi=make_field("cos_mode", {"n": 1, "k": 1}),
            source=_zero_source(),
            grid=grid,
            amplitude=_amp(grid, lambda t: np.zeros_like(t)),
            n_max=2,
            k_max=2,
        )
        bundle = solve_forward(prob)
        idx = ModeIndex(Family.Odd, 1, 1)
        sigma = eigen(idx).sigma_nk
        phi_c = 1.0 / math.sqrt(2.0)  # cos(2 pi x) cos(pi y) in the root basis
        want = phi_c * np.exp(-sigma * grid.nodes)
        np.testing.assert_allclose(bundle.coeffs[idx].values, want, rtol=1e-9)

    def test_fractional_decay_against_mpmath(self):
        grid = TimeGrid(0.02, 24)
        op = FractionalOperatorSpec(0.8)
        prob = ProblemData(
            op=op,
            phi=make_field("cos_mode", {"n": 1, "k": 1}),
            source=_zero_source(),
            grid=grid,
            amplitude=_amp(grid, lambda t: np.zeros_like(t)),
            n_max=1,
            k_max=1,
        )
        bundle = solve_forward(prob)
        idx = ModeIndex(Family.Odd, 1, 1)
        sigma = eigen(idx).sigma_nk
        spec = RelaxationKernelSpec(1.0, ((sigma, 0.8),))
        got = bundle.coeffs[idx].values[1:]
        want = np.array([mpmath_kernel(spec, t) for t in grid.nodes[1:]])
        want /= math.sqrt(2.0)
        np.testing.assert_allclose(got, want, rtol=1e-7)

    def test_mean_mode_power_law_response(self):
        # eigenvalue zero, f = 1, a = 1: T = phi + t^alpha / Gamma(1 + alpha)
        alpha = 0.7
        grid = TimeGrid(1.0, 64)
        prob = ProblemData(
            op=FractionalOperatorSpec(alpha),
            phi=Field2D.constant(1.0),
            source=SpaceTimeField.static(Field2D.constant(1.0)),
            grid=grid,
            amplitude=_amp(grid, lambda t: np.ones_like(t)),
            n_max=1,
            k_max=1,
        )
        bundle = solve_forward(prob)
        idx = ModeIndex(Family.Zero, 0, 0)
        want = 1.0 + grid.nodes**alpha / math.gamma(1.0 + alpha)
        np.testing.assert_allclose(bundle.coeffs[idx].values, want, rtol=1e-8)


class TestAssociatedCoupling:
    def test_resonant_growth_closed_form(self):
        # alpha = 1: an initial associated (Even) mode drives its Odd partner
        # at the shared eigenvalue, giving the secular term
        # T_odd(t) = 4 lambda^(3/4) c t exp(-sigma t)
        n = 1
        sigma = (2 * n * math.pi) ** 4
        grid = TimeGrid(2e-3, 256)
        c = 0.6
        phi = Field2D.analytic(
            lambda x, y: c * np.asarray(x) * np.sin(2 * math.pi * np.asarray(x))
            * np.ones_like(np.asarray(y)),
            "assoc seed",
        )
        prob = ProblemData(
            op=FractionalOperatorSpec(1.0),
            phi=phi,
            source=_zero_source(),
            grid=grid,
            amplitude=_amp(grid, lambda t: np.zeros_like(t)),
            n_max=1,
            k_max=0,
        )
        bundle = solve_forward(prob)
        ts = grid.nodes
        lam34 = (2 * n * math.pi) ** 3
        even = bundle.coeffs[ModeIndex(Family.Even, n, 0)].values
        odd = bundle.coeffs[ModeIndex(Family.Odd, n, 0)].values
        np.testing.assert_allclose(even, c * np.exp(-sigma * ts), rtol=1e-8)
        np.testing.assert_allclose(
            odd, 4.0 * lam34 * c * ts * np.exp(-sigma * ts), rtol=1e-7, atol=1e-12
        )


@pytest.fixture(scope="module")
def mixed_bundle():
    op = FractionalOperatorSpec(0.8, ((0.5, 0.4),))
    grid = TimeGrid(1.0, 256)
    prob = ProblemData(
        op=op,
        phi=make_field("cos_exp"),
        source=SpaceTimeField.separable(
            make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))}),
            make_time_fn("constant"),
        ),
        grid=grid,
        amplitude=_amp(grid, lambda t: 1.0 + t),
        n_max=3,
        k_max=3,
    )
    return prob, solve_forward(prob)


class TestResidualAndEnergy:

    def test_all_mode_residuals_small(self, mixed_bundle):
        prob, bundle = mixed_bundle
        grid = prob.grid
        window = grid.nodes >= grid.T / 4
        for index in bundle.coeffs.indices():
            res = ode_residual(prob, bundle, index).values
            sigma = eigen(index).sigma_nk
            scale = max(
                float(np.max(np.abs(bundle.forcing_coeffs[index].values))),
                sigma * float(np.max(np.abs(bundle.coeffs[index].values))),
                1e-300,
            )
            assert np.max(np.abs(res[window])) / scale < 1e-3

    def test_energy_is_weighted_coefficient_sum(self, mixed_bundle):
        from fracsource.spectral import mode_mean

        prob, bundle = mixed_bundle
        manual = np.zeros(prob.grid.N + 1)
        for index in bundle.coeffs.indices():
            manual += mode_mean(index) * bundle.coeffs[index].values
        np.testing.assert_allclose(bundle.energy.values, manual, rtol=1e-13)

    def test_initial_coefficients_match_projection(self, mixed_bundle):
        prob, bundle = mixed_bundle
        for index in bundle.coeffs.indices():
            assert bundle.coeffs[index].values[0] == pytest.approx(
                bundle.phi_coeffs[index], abs=1e-12
            )

    def test_metadata_reports_truncation_tail(self, mixed_bundle):
        _, bundle = mixed_bundle
        assert "truncation_tail" in bundle.metadata
        assert bundle.metadata["truncation_tail"] >= 0.0


def test_each_even_mode_solved_once(monkeypatch):
    # every mode is solved once, through its family's function, so n = k = 4
    # takes 5 Zero, 4 * 5 Even and 4 * 5 Odd solves; the functions' leading
    # arguments name the mode, (k) for Zero and (n, k) for the others
    calls = {"mode_zero": [], "mode_even": [], "mode_odd": []}

    def counted(name, named):
        original = getattr(forward, name)

        def solve(*args, **kwargs):
            calls[name].append(args[:named])
            return original(*args, **kwargs)

        return solve

    for name, named in (("mode_zero", 1), ("mode_even", 2), ("mode_odd", 2)):
        monkeypatch.setattr(forward, name, counted(name, named))
    grid = TimeGrid(1.0, 16)
    prob = ProblemData(
        op=FractionalOperatorSpec(0.8),
        phi=make_field("cos_exp"),
        source=SpaceTimeField.static(Field2D.constant(1.0)),
        grid=grid,
        amplitude=_amp(grid, lambda t: 1.0 + t),
        n_max=4,
        k_max=4,
    )
    bundle = solve_forward(prob)
    for name, count in (("mode_zero", 5), ("mode_even", 20), ("mode_odd", 20)):
        assert len(calls[name]) == len(set(calls[name])) == count
    assert len(bundle.coeffs.indices()) == 45


_XY = {"terms": [[1.0, 0, 0], [0.5, 1, 1]]}  # 1 + xy/2


def _box_problem(phi=("cos_exp", None), source=("poly", _XY)):
    grid = TimeGrid(1.0, 32)
    return ProblemData(
        op=FractionalOperatorSpec(0.8, ((0.5, 0.4),)),
        phi=make_field(*phi),
        source=SpaceTimeField.static(make_field(*source)),
        grid=grid,
        amplitude=_amp(grid, lambda t: 1.0 + t),
        n_max=4,
        k_max=4,
    )


@pytest.mark.parametrize("data, counts", [
    # phi = cos_exp, f = 1 + xy/2: each Even mode shares its eigenvalue with
    # its Odd partner, 27 forced modes and 15 eigenvalues
    ({}, (15, 27)),
    # phi = 1 + xy/2, f = 1: the Odd modes are forced by their coupling alone
    ({"phi": ("poly", _XY), "source": ("constant", None)}, (13, 13)),
])
def test_one_table_per_distinct_eigenvalue(monkeypatch, data, counts):
    built, used, forced, solves = [], [], set(), []
    init, trajectory, convolve = (
        forward.KernelMoments.__init__, forward._mode_trajectory, forward.singular_convolve
    )

    def building(self, *args, **kwargs):
        built.append(id(self))
        # every table, the mean mode's included, before the mode loop
        assert not solves
        init(self, *args, **kwargs)

    def solving(phi_c, forcing, sigma, setup):
        solves.append(sigma)
        if forcing is not None and np.any(forcing):
            forced.add(sigma)
        return trajectory(phi_c, forcing, sigma, setup)

    def convolving(g, table):
        used.append(id(table))
        return convolve(g, table)

    monkeypatch.setattr(forward.KernelMoments, "__init__", building)
    monkeypatch.setattr(forward, "_mode_trajectory", solving)
    monkeypatch.setattr(forward, "singular_convolve", convolving)
    solve_forward(_box_problem(**data))
    assert (len(forced), len(used)) == counts
    assert len(built) == len(forced)
    assert set(built) == set(used)


def test_panel_values_in_one_kernel_call(monkeypatch):
    # the forward-sweep-shaped box tables 15 eigenvalues, sigma = 0's among
    # them as the family's rate 0: their panel values come from one call
    calls, evaluate = [], fractional.eval_kernel_grid

    def counting(spec, ts, rates):
        rows = evaluate(spec, ts, rates)
        calls.append((np.asarray(ts).size, rows.shape))
        return rows

    monkeypatch.setattr(fractional, "eval_kernel_grid", counting)
    solve_forward(_box_problem())
    points = 5 * fractional._PANEL_NODES  # panels [1, 2], ..., [16, 32]
    assert calls == [(points, (15, points))]


@pytest.mark.parametrize("op", [
    FractionalOperatorSpec(0.75, ((0.5, 0.43),)),
    FractionalOperatorSpec(0.92, ((0.8, 0.6), (0.3, 0.32))),
], ids=["two-term", "three-term"])
def test_forward_sweep_box_needs_no_series(monkeypatch, op):
    # a forward-sweep-shaped solve, N = 128 and n = k = 4: the contour
    # certifies every kernel point, sigma = 0's e_(alpha+4)(tau) included,
    # which its 24-node rule refused, so the shell sum is never called
    def unreachable(*args):
        raise AssertionError("the series was called")

    monkeypatch.setattr(mlf, "_kernel_values", unreachable)
    grid = TimeGrid(1.0, 128)
    solve_forward(ProblemData(
        op=op,
        phi=make_field("cos_exp"),
        source=SpaceTimeField.static(make_field("poly", _XY)),
        grid=grid,
        amplitude=_amp(grid, lambda t: 1.0 + 0.3 * t - 0.1 * t**2),
        n_max=4,
        k_max=4,
    ))


def _piece_bits(setup):
    return (
        {sigma: row.tobytes() for sigma, row in setup.relaxation.items()},
        {sigma: (t.moments.tobytes(), t.gap) for sigma, t in setup.tables.items()},
    )


def test_one_pass_set_up_equals_per_mode_set_up(monkeypatch):
    # the set-up of all a solve's eigenvalues at once equals that of one
    # eigenvalue at a time, bit for bit, piece by piece and in the solve
    set_up, built = forward.eigen_kernels, []

    def one_at_a_time(setup, relaxed, tabled):
        for sigma in relaxed | tabled:
            set_up(setup, relaxed & {sigma}, tabled & {sigma})

    def recording(build):
        def recorded(setup, *args):
            build(setup, *args)
            built.append(setup)
        return recorded

    monkeypatch.setattr(forward, "eigen_kernels", recording(set_up))
    batched = solve_forward(_box_problem()).coeffs.values
    monkeypatch.setattr(forward, "eigen_kernels", recording(one_at_a_time))
    alone = solve_forward(_box_problem()).coeffs.values
    together, single = built
    assert 0.0 in together.tables and _piece_bits(together) == _piece_bits(single)
    assert batched.tobytes() == alone.tobytes()


def count_projections(monkeypatch):
    """Count the projections of phi (``project_field``) and of f's terms
    (``term_coefficients``) the solvers make, in the dict returned."""
    counts, project = {"phi": 0, "f": 0}, spectral.project_modes

    def counting(key):
        def counted(*args):
            counts[key] += 1
            return project(*args)
        return counted

    monkeypatch.setattr(spectral, "project_modes", counting("phi"))
    monkeypatch.setattr(catalog, "project_modes", counting("f"))
    return counts


def _count_builds(monkeypatch):
    """Count the projections, tables and initial-state inversions made, in
    the dict returned."""
    counts = count_projections(monkeypatch)
    counts.update(tables=0, inversions=0)
    family, kernel_sum = forward.KernelMoments.family, forward._kernel_sum

    def tabling(spec, rates, grid):
        counts["tables"] += len(rates)
        return family(spec, rates, grid)

    def inverting(*args):
        counts["inversions"] += 1
        return kernel_sum(*args)

    monkeypatch.setattr(forward.KernelMoments, "family", tabling)
    monkeypatch.setattr(forward, "_kernel_sum", inverting)
    return counts


def test_second_solve_with_one_set_up_builds_nothing(monkeypatch):
    # a set-up passed to several solves of one problem serves each
    # projection and kernel piece once, and a piece is the same bits
    counts = _count_builds(monkeypatch)
    base = _box_problem()
    setup = forward.SetUp(base.op, base.grid, base.phi, base.source)
    first = solve_forward(base, setup=setup)
    assert counts == {"phi": 1, "f": 1, "tables": 15, "inversions": 1}
    again = solve_forward(base, setup=setup)
    assert counts == {"phi": 1, "f": 1, "tables": 15, "inversions": 1}
    assert again.coeffs.values.tobytes() == first.coeffs.values.tobytes()


@pytest.mark.parametrize("other", ["op", "grid", "phi", "source"])
def test_set_up_of_other_data_refused(monkeypatch, other):
    # a set-up serves one problem: one made from another operator, grid,
    # phi or source is refused before it serves a piece
    base = _box_problem()
    data = {"op": base.op, "grid": base.grid, "phi": base.phi, "source": base.source}
    data[other] = {
        "op": FractionalOperatorSpec(0.7, ((0.5, 0.4),)),
        "grid": TimeGrid(1.0, 64),
        "phi": make_field("cos_exp"),
        "source": SpaceTimeField.static(make_field("constant")),
    }[other]
    counts = _count_builds(monkeypatch)
    with pytest.raises(ValueError, match="another problem"):
        solve_forward(base, setup=forward.SetUp(**data))
    assert counts == {"phi": 0, "f": 0, "tables": 0, "inversions": 0}


def test_missing_amplitude_refused_before_any_projection(monkeypatch):
    counts = count_projections(monkeypatch)
    with pytest.raises(ValueError, match="known amplitude"):
        solve_forward(replace(_box_problem(), amplitude=None))
    assert counts == {"phi": 0, "f": 0}
