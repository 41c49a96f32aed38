"""Tests for the amplitude recovery from the energy datum.

Oracles: exact Caputo derivatives of power data, forward-generated energies
round-tripped back to their amplitudes, and the linear-response behavior of
the recovery map.
"""

import math

import numpy as np
import pytest

from test_forward import count_projections

from fracsource.catalog import SpaceTimeField, make_field, make_time_fn
from fracsource.forward import ProblemData, solve_forward
from fracsource.fractional import (
    FractionalOperatorSpec,
    QuadratureFailure,
    TimeGrid,
    TimeSeries,
    caputo_multiterm,
)
from fracsource import forward, fractional, inverse
from fracsource.inverse import (
    CompatibilityViolation,
    EnergyDatum,
    MeanTooSmall,
    recover_source,
    solve_inverse,
    stability_probe,
)
from fracsource.mlf import NonConvergence
from fracsource.spectral import Family, Field2D, SpectralCoefficients, eigen, mode_mean


def _unit_source():
    return SpaceTimeField.static(Field2D.constant(1.0))


class TestClosedFormRecovery:
    def test_linear_energy_power_law_amplitude(self):
        # E(t) = t with f = 1 forces a(t) = t^(1-alpha)/Gamma(2-alpha)
        alpha = 0.5
        grid = TimeGrid(1.0, 1024)
        datum = EnergyDatum(TimeSeries.from_function(grid, lambda t: t))
        amp = recover_source(_unit_source(), datum, FractionalOperatorSpec(alpha), grid)
        want = grid.nodes[1:] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        rel = np.abs(amp.a.values[1:] - want) / want
        assert np.max(rel) < 5e-3  # the L1 envelope; in practice far smaller

    def test_constant_energy_zero_amplitude(self):
        grid = TimeGrid(1.0, 128)
        datum = EnergyDatum(TimeSeries.from_function(grid, lambda t: 1.0 + 0.0 * t))
        amp = recover_source(
            _unit_source(), datum, FractionalOperatorSpec(0.7), grid
        )
        np.testing.assert_allclose(amp.a.values, 0.0, atol=1e-12)

    def test_zero_data_recovers_zero(self):
        grid = TimeGrid(1.0, 128)
        datum = EnergyDatum(TimeSeries.zeros(grid))
        amp = recover_source(
            _unit_source(), datum, FractionalOperatorSpec(0.8, ((0.5, 0.4),)), grid
        )
        assert np.max(np.abs(amp.a.values)) < 1e-12


class TestValidation:
    def test_small_mean_rejected(self):
        grid = TimeGrid(1.0, 64)
        datum = EnergyDatum(TimeSeries.from_function(grid, lambda t: t))
        # cos(2 pi x) integrates to zero over the unit square
        f = SpaceTimeField.static(make_field("cos_mode", {"n": 1, "k": 0}))
        with pytest.raises(MeanTooSmall):
            recover_source(f, datum, FractionalOperatorSpec(0.5), grid)

    def test_incompatible_datum_rejected(self):
        grid = TimeGrid(1.0, 64)
        datum = EnergyDatum(TimeSeries.from_function(grid, lambda t: 2.0 + t))
        with pytest.raises(CompatibilityViolation):
            recover_source(
                _unit_source(),
                datum,
                FractionalOperatorSpec(0.5),
                grid,
                phi=Field2D.constant(1.0),
            )

    def test_grid_mismatch_rejected(self):
        datum = EnergyDatum(TimeSeries.from_function(TimeGrid(1.0, 64), lambda t: t))
        with pytest.raises(ValueError):
            recover_source(
                _unit_source(), datum, FractionalOperatorSpec(0.5), TimeGrid(1.0, 32)
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_datum_rejected(self, bad):
        # one bad sample used to spread into most nodes of the amplitude
        grid = TimeGrid(1.0, 64)
        E = grid.nodes.copy()
        E[20] = bad
        with pytest.raises(ValueError, match="must be finite"):
            recover_source(
                _unit_source(), EnergyDatum(TimeSeries(grid, E)), FractionalOperatorSpec(0.5)
            )

    def test_negative_flux_modes_rejected(self):
        datum = EnergyDatum(TimeSeries.from_function(TimeGrid(1.0, 64), lambda t: t))
        with pytest.raises(ValueError):
            recover_source(
                _unit_source(), datum, FractionalOperatorSpec(0.5), flux_modes=-1
            )

    @pytest.mark.parametrize("flux_modes", [2.5, True, "2"])
    def test_non_integral_flux_modes_rejected(self, flux_modes):
        datum = EnergyDatum(TimeSeries.from_function(TimeGrid(1.0, 64), lambda t: t))
        with pytest.raises(ValueError, match="flux_modes must be a whole number"):
            recover_source(
                _unit_source(), datum, FractionalOperatorSpec(0.5), flux_modes=flux_modes
            )


class TestRoundTrip:
    def _round_trip(self, op, source, amp_fn, n_gen=512, n_rec=256, n_max=4):
        gen_grid = TimeGrid(1.0, n_gen)
        a_true = TimeSeries.from_function(gen_grid, amp_fn)
        phi = make_field("cos_exp")
        gen = ProblemData(
            op=op, phi=phi, source=source, grid=gen_grid, amplitude=a_true,
            n_max=n_max, k_max=n_max,
        )
        bundle = solve_forward(gen)
        rec_grid = TimeGrid(1.0, n_rec)
        stride = n_gen // n_rec
        datum = EnergyDatum(TimeSeries(rec_grid, bundle.energy.values[::stride]))
        amp = recover_source(source, datum, op, rec_grid, flux_modes=n_max)
        want = np.asarray(amp_fn(rec_grid.nodes), dtype=float)
        return float(np.max(np.abs(amp.a.values - want)) / np.max(np.abs(want)))

    def test_unit_mean_source(self):
        err = self._round_trip(
            FractionalOperatorSpec(0.8), _unit_source(), lambda t: 1.0 + t
        )
        assert err < 1e-10

    def test_multiterm_operator(self):
        err = self._round_trip(
            FractionalOperatorSpec(0.8, ((0.5, 0.4),)),
            _unit_source(),
            lambda t: np.ones_like(t),
        )
        # the startup correction covers the three leading local exponents;
        # higher singular powers of the multi-term response remain at the
        # L1 level
        assert err < 1e-3

    def test_source_exciting_boundary_flux(self):
        # f = 1 + xy/2 feeds the mean-bearing associated modes, so the
        # recovery must close the boundary-flux Volterra term; without it the
        # error plateaus at the percent level regardless of resolution
        f = SpaceTimeField.static(
            make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
        )
        err = self._round_trip(FractionalOperatorSpec(0.8), f, lambda t: 1.0 + t)
        assert err < 1e-2

    def test_flux_closure_consistent_with_truncation(self):
        # with flux_modes = n_max = 4, dividing by the full mean of f left a
        # bias of 5e-3; the consistently truncated mean removes it
        f = SpaceTimeField.static(
            make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
        )
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4),))
        gen_grid = TimeGrid(1.0, 256)
        gen = ProblemData(
            op=op, phi=make_field("cos_exp"), source=f, grid=gen_grid,
            amplitude=TimeSeries.from_function(gen_grid, lambda t: 1.0 + t),
            n_max=4, k_max=4,
        )
        energy = solve_forward(gen).energy.values[::2]
        grid = TimeGrid(1.0, 128)
        amp = recover_source(
            f, EnergyDatum(TimeSeries(grid, energy)), op, grid, flux_modes=4
        )
        late = grid.nodes > 0.1
        want = 1.0 + grid.nodes[late]
        err = np.max(np.abs(amp.a.values[late] - want) / want)
        assert err <= 1e-3

    def test_flux_closure_covers_initial_datum(self):
        # phi = 1 + xy/2 seeds the mean-bearing associated modes too; their
        # homogeneous trajectories feed the boundary flux, which the closure
        # over the a * F_n convolutions alone misses (4.6e-2 error)
        poly = make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
        f = SpaceTimeField.static(poly)
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4),))
        gen_grid = TimeGrid(1.0, 256)
        gen = ProblemData(
            op=op, phi=poly, source=f, grid=gen_grid,
            amplitude=TimeSeries.from_function(gen_grid, lambda t: 1.0 + t),
            n_max=4, k_max=0,
        )
        energy = solve_forward(gen).energy.values[::2]
        grid = TimeGrid(1.0, 128)
        amp = recover_source(
            f, EnergyDatum(TimeSeries(grid, energy)), op, grid, phi=poly,
            flux_modes=4,
        )
        late = grid.nodes > 0.1
        want = 1.0 + grid.nodes[late]
        err = np.max(np.abs(amp.a.values[late] - want) / want)
        assert err <= 1e-3

    @pytest.mark.parametrize("second, bound", [
        # cos(2 pi x) is the Odd (1, 0) root function: mean-free, no
        # associated content, so the recovery must leave it out entirely
        (make_field("cos_mode", {"n": 1, "k": 0}), 1e-3),
        # x sin(2 pi x) is the Even (1, 0) root function: dropping its term
        # from the recovery moves the error from 6.3e-5 to 3.8e-4
        (Field2D.analytic(lambda x, y: x * np.sin(2 * math.pi * x)), 2e-4),
    ], ids=["odd", "even"])
    def test_two_term_separable_source(self, second, bound):
        # f = (1 + xy/2) * 1 + g(x) * t: the truncated mean and the flux
        # closure must recombine both terms' projections mode by mode
        poly = make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
        f = SpaceTimeField(terms=(
            (poly, make_time_fn("constant")),
            (second, make_time_fn("poly_t", {"coeffs": (0.0, 1.0)})),
        ))
        op = FractionalOperatorSpec(0.6, ((0.3, 0.3),))
        gen_grid = TimeGrid(1.0, 256)
        gen = ProblemData(
            op=op, phi=poly, source=f, grid=gen_grid,
            amplitude=TimeSeries.from_function(gen_grid, lambda t: 1.0 + t),
            n_max=6, k_max=0,
        )
        energy = solve_forward(gen).energy.values[::2]
        grid = TimeGrid(1.0, 128)
        amp = recover_source(
            f, EnergyDatum(TimeSeries(grid, energy)), op, grid, phi=poly,
            flux_modes=6,
        )
        assert amp.metadata["flux_modes_excited"] == 6
        late = grid.nodes > 0.1
        err = np.max(np.abs(amp.a.values[late] - (1.0 + grid.nodes[late])))
        assert err <= bound

    def test_flux_closure_reported_in_metadata(self):
        grid = TimeGrid(1.0, 64)
        datum = EnergyDatum(TimeSeries.from_function(grid, lambda t: 1.0 + t**2))
        f = SpaceTimeField.static(
            make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
        )
        amp = recover_source(f, datum, FractionalOperatorSpec(0.8), grid)
        assert amp.metadata["flux_modes_excited"] > 0
        assert amp.metadata["flux_iterations"] >= 1
        amp_plain = recover_source(
            _unit_source(), datum, FractionalOperatorSpec(0.8), grid
        )
        assert amp_plain.metadata["flux_modes_excited"] == 0

    def test_term_without_mean_bearing_content_runs_no_flux_sweep(self):
        # cos(pi y) projects to quadrature roundoff on the k = 0 box; those
        # coefficients are not data and must not start a flux closure
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4),))
        phi = Field2D.constant(1.0)
        f = SpaceTimeField(
            terms=(
                (Field2D.constant(1.0), make_time_fn("constant")),
                (make_field("cos_mode", {"n": 0, "k": 1}),
                 make_time_fn("poly_t", {"coeffs": (0.0, 1.0)})),
            )
        )
        gen_grid = TimeGrid(1.0, 256)
        gen = ProblemData(
            op=op, phi=phi, source=f, grid=gen_grid,
            amplitude=TimeSeries.from_function(gen_grid, lambda t: 1.0 + t),
            n_max=4, k_max=0,
        )
        energy = solve_forward(gen).energy.values[::2]
        grid = TimeGrid(1.0, 128)
        amp = recover_source(
            f, EnergyDatum(TimeSeries(grid, energy)), op, grid, phi=phi,
            flux_modes=4,
        )
        assert amp.metadata["flux_modes_excited"] == 0
        assert amp.metadata["flux_iterations"] == 0


def _poly_phi_problem():
    """phi = f = 1 + xy/2 under 0.8 + 0.5 D^0.4 with n_max = 4: phi seeds the
    mean-bearing associated modes, so the forward energy carries phi's mean
    truncated at n_max (1.11939), not its integral (1.125)."""
    poly = make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
    grid = TimeGrid(1.0, 128)
    return ProblemData(
        op=FractionalOperatorSpec(0.8, ((0.5, 0.4),)), phi=poly,
        source=SpaceTimeField.static(poly), grid=grid, n_max=4, k_max=0,
    )


class TestFluxClosureBudget:
    def test_unsettled_closure_refuses(self, monkeypatch):
        # one fixed-point sweep cannot settle the flux the associated modes
        # of 1 + xy/2 carry; returning that amplitude would be unbacked
        prob = _poly_phi_problem()
        a_true = TimeSeries.from_function(prob.grid, lambda t: 1.0 + t)
        datum = EnergyDatum(solve_forward(prob.with_amplitude(a_true)).energy)
        monkeypatch.setattr(inverse, "_MAX_FLUX_ITERATIONS", 1)
        with pytest.raises(NonConvergence, match="flux closure"):
            solve_inverse(prob, datum)


class TestKernelSetUp:
    def test_kernels_built_in_one_pass_before_the_closure(self, monkeypatch):
        # the recovery lists its modes for the forward solver's one-pass
        # set-up: one table per excited eigenvalue and one inversion for
        # phi's trajectories, and the closure builds nothing more
        prob = _poly_phi_problem()
        a_true = TimeSeries.from_function(prob.grid, lambda t: 1.0 + t)
        datum = EnergyDatum(solve_forward(prob.with_amplitude(a_true)).energy)
        built, inverted, at_set_up = [], [], []
        init, kernel_sum = forward.KernelMoments.__init__, forward._kernel_sum
        set_up = inverse.eigen_kernels

        def building(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        def inverting(*args):
            inverted.append(args[-1])
            return kernel_sum(*args)

        def setting_up(*args):
            kernels = set_up(*args)
            at_set_up.append((len(built), len(inverted)))
            return kernels

        monkeypatch.setattr(forward.KernelMoments, "__init__", building)
        monkeypatch.setattr(forward, "_kernel_sum", inverting)
        monkeypatch.setattr(inverse, "eigen_kernels", setting_up)
        amp = recover_source(
            prob.source, datum, prob.op, prob.grid, phi=prob.phi, flux_modes=4
        )
        assert amp.metadata["flux_iterations"] > 1
        assert at_set_up == [(len(built), len(inverted))]
        assert len(built) == amp.metadata["flux_modes_excited"] == 4
        assert len(inverted) == 1 and len(inverted[0]) == 4


def _cos_exp_problem(k_max):
    """The inverse-cli benchmark's problem at N = 64: phi = cos_exp seeds
    every mode and f = 1 + xy/2 excites the mean-bearing associated ones."""
    poly = make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
    return ProblemData(
        op=FractionalOperatorSpec(0.8, ((0.5, 0.4),)), phi=make_field("cos_exp"),
        source=SpaceTimeField.static(poly), grid=TimeGrid(1.0, 64), n_max=4, k_max=k_max,
    )


def _forward_datum(prob):
    a = TimeSeries.from_function(prob.grid, lambda t: 1.0 + t - 0.2 * t**2)
    return EnergyDatum(solve_forward(prob.with_amplitude(a)).energy)


def _count_set_ups(monkeypatch):
    """Record the rate of every table built (the rates ``KernelMoments.family``
    is given) and of every initial-state row computed, in the lists returned."""
    tabled, relaxed = [], []
    family, kernel_sum = forward.KernelMoments.family, forward._kernel_sum

    def building(spec, rates, grid):
        tabled.extend(rates)
        return family(spec, rates, grid)

    def relaxing(*args):
        relaxed.extend(args[-1])
        return kernel_sum(*args)

    monkeypatch.setattr(forward.KernelMoments, "family", building)
    monkeypatch.setattr(forward, "_kernel_sum", relaxing)
    return tabled, relaxed


class TestSharedKernels:
    """The recovery and the forward solve of one solve_inverse call, and the
    recoveries of one stability_probe call, set up each kernel piece once."""

    def test_solve_inverse_builds_each_piece_once(self, monkeypatch):
        prob = _cos_exp_problem(k_max=4)
        datum = _forward_datum(prob)
        tabled, relaxed = _count_set_ups(monkeypatch)
        amp, _ = solve_inverse(prob, datum)
        assert amp.metadata["flux_modes_excited"] == 4
        assert len(tabled) == len(set(tabled)) > 4
        assert len(relaxed) == len(set(relaxed)) > 4

    def test_stability_probe_sets_up_kernels_once(self, monkeypatch):
        # phi = 1 + xy/2 seeds the associated modes, so each recovery
        # needs their initial-state trajectories as well as their tables
        prob = _poly_phi_problem()
        datum = _forward_datum(prob)
        tabled, relaxed = _count_set_ups(monkeypatch)
        stability_probe(prob, datum, deltas=(1e-1, 1e-2))
        assert sorted(tabled) == sorted(set(tabled)) and len(tabled) == 4
        assert sorted(relaxed) == sorted(set(relaxed)) and len(relaxed) == 4

    def test_solve_inverse_projects_the_k0_box_once(self, monkeypatch):
        # with k_max = 0 the recovery's box is the forward solve's box
        prob = _cos_exp_problem(k_max=0)
        datum = _forward_datum(prob)
        counts = count_projections(monkeypatch)
        solve_inverse(prob, datum)
        assert counts == {"phi": 1, "f": 1}

    def test_stability_probe_projects_once(self, monkeypatch):
        prob = _poly_phi_problem()
        datum = _forward_datum(prob)
        counts = count_projections(monkeypatch)
        stability_probe(prob, datum)
        assert counts == {"phi": 1, "f": 1}

    def test_shared_set_up_moves_no_value(self):
        # invariant: a piece is the same bits whichever solve builds it
        prob = _cos_exp_problem(k_max=4)
        datum = _forward_datum(prob)
        amp, bundle = solve_inverse(prob, datum)
        alone = recover_source(
            prob.source, datum, prob.op, prob.grid, phi=prob.phi, flux_modes=prob.n_max
        )
        forward_alone = solve_forward(prob.with_amplitude(alone.a))
        assert amp.a.values.tobytes() == alone.a.values.tobytes()
        for part in ("coeffs", "phi_coeffs", "forcing_coeffs"):
            got, want = getattr(bundle, part).values, getattr(forward_alone, part).values
            assert got.tobytes() == want.tobytes()
        assert bundle.energy.values.tobytes() == forward_alone.energy.values.tobytes()
        assert bundle.metadata["truncation_tail"] == forward_alone.metadata["truncation_tail"]


def _two_term_problem():
    """f = (1 + xy/2) + x^3 (1 + t) under the operator of
    ``_poly_phi_problem``: the two terms' mean-bearing associated content
    differs mode by mode, so each weighs the modes' tables its own way."""
    poly = make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
    cubic = make_field("poly", {"terms": ((1.0, 3, 0),)})
    f = SpaceTimeField(terms=(
        (poly, make_time_fn("constant")),
        (cubic, make_time_fn("poly_t", {"coeffs": (1.0, 1.0)})),
    ))
    return ProblemData(
        op=FractionalOperatorSpec(0.8, ((0.5, 0.4),)), phi=poly, source=f,
        grid=TimeGrid(1.0, 128), n_max=4, k_max=0,
    )


def _per_mode_closure(prob, datum):
    """The flux closure with one convolution per excited mode and sweep,
    a F_n against mode n's own table through the forward solver's mode
    trajectory: the reference the combined tables must reproduce.  Returns
    the amplitude and the number of sweeps."""
    grid, op, n_max = prob.grid, prob.op, prob.n_max
    f_coeffs = prob.source.coeff_series(grid, n_max, 0)
    phi_coeffs = SpectralCoefficients.project_field(prob.phi, n_max, 0)
    fmean = f_coeffs.mean().values
    associated = [i for i in f_coeffs.indices() if i.family is Family.Even]
    excited = [i for i in associated if np.any(f_coeffs[i].values)]
    setup = forward.SetUp(op, grid, prob.phi, prob.source)
    forward.eigen_kernels(setup, *forward._kernel_needs(
        (i, phi_coeffs[i], i in excited) for i in associated
    ))

    def trajectory(index, phi_c, forcing=None):
        return forward._mode_trajectory(phi_c, forcing, eigen(index).sigma_nk, setup).values

    homog = sum(mode_mean(i) * (trajectory(i, phi_coeffs[i]) - phi_coeffs[i]) for i in associated)
    E = TimeSeries(grid, datum.E.values - homog)
    deriv = caputo_multiterm(E, op).values + inverse._startup_correction(E, op)

    def ratio(flux):
        a = np.empty(grid.N + 1)
        a[1:] = (deriv[1:] + flux[1:]) / fmean[1:]
        inverse._extrapolate_origin(a, grid.N)
        return a

    a = ratio(np.zeros(grid.N + 1))
    for sweeps in range(1, inverse._MAX_FLUX_ITERATIONS + 1):
        flux = np.zeros(grid.N + 1)
        for i in excited:
            forcing = TimeSeries(grid, a * f_coeffs[i].values)
            flux += eigen(i).sigma_nk * mode_mean(i) * trajectory(i, 0.0, forcing)
        new = ratio(flux)
        change, a = np.max(np.abs(new - a)), new
        if change <= 1e-12 * max(1.0, np.max(np.abs(a))):
            return a, sweeps
    raise AssertionError("the per-mode reference closure did not settle")


def _recover(prob, datum):
    return recover_source(
        prob.source, datum, prob.op, prob.grid, phi=prob.phi, flux_modes=prob.n_max
    )


def _count_convolutions(monkeypatch):
    """Count every ``singular_convolve`` call the solvers make, in the
    list returned."""
    calls, original = [], fractional.singular_convolve

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    for module in (forward, inverse):
        monkeypatch.setattr(module, "singular_convolve", counting, raising=False)
    return calls


class TestCombinedFluxTables:
    """The closure convolves a h_t once per source term and sweep, against
    the modes' tables combined with that term's weights."""

    @pytest.mark.parametrize("make", [
        lambda: _cos_exp_problem(k_max=0), _poly_phi_problem, _two_term_problem,
    ], ids=["inverse-cli", "poly-phi", "two-term"])
    def test_matches_the_per_mode_closure(self, make):
        # invariant: a convolution is linear in its kernel
        prob = make()
        datum = _forward_datum(prob)
        amp = _recover(prob, datum)
        want, sweeps = _per_mode_closure(prob, datum)
        assert amp.metadata["flux_iterations"] == sweeps > 1
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(amp.a.values, want, rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("make, terms", [
        (_poly_phi_problem, 1), (_two_term_problem, 2),
    ], ids=["one-term", "two-term"])
    def test_one_convolution_per_live_term_per_sweep(self, monkeypatch, make, terms):
        prob = make()
        datum = _forward_datum(prob)
        calls = _count_convolutions(monkeypatch)
        amp = _recover(prob, datum)
        assert amp.metadata["flux_modes_excited"] == 4
        assert len(calls) == terms * amp.metadata["flux_iterations"] > 0
        assert len(calls) == amp.metadata["flux_convolutions"]

    def test_bad_excited_table_refused_before_any_sweep(self, monkeypatch):
        # the first bad table in the excited modes' order names the failure,
        # with the message singular_convolve gives
        prob = _poly_phi_problem()
        datum = _forward_datum(prob)
        set_up = inverse.eigen_kernels

        spoiled = []

        def spoiling(setup, *args):
            set_up(setup, *args)
            # the excited modes are Even (n, 0), n = 1..4, in increasing sigma
            tables = [setup.tables[sigma] for sigma in sorted(setup.tables)]
            for table, scale in zip(tables[1:3], (1e-9, 1e-8)):
                table.gap = scale * table.integral
                spoiled.append(table)

        monkeypatch.setattr(inverse, "eigen_kernels", spoiling)
        calls = _count_convolutions(monkeypatch)
        with pytest.raises(QuadratureFailure) as exc:
            _recover(prob, datum)
        assert calls == []
        first = spoiled[0]
        assert str(exc.value) == (
            f"kernel interpolation gap {first.gap:g} exceeds 1e-10 of the "
            f"kernel's integral {first.integral:g}"
        )


class TestSolveInverse:
    def test_accepts_forward_energy_with_truncated_phi_mean(self):
        prob = _poly_phi_problem()
        grid = prob.grid
        a_true = TimeSeries.from_function(grid, lambda t: 1.0 + t)
        energy = solve_forward(prob.with_amplitude(a_true)).energy
        assert abs(energy.values[0] - 1.125) > 1e-3  # the exact integral
        amp, _ = solve_inverse(prob, EnergyDatum(energy))
        late = grid.nodes > 0.1
        err = np.max(np.abs(amp.a.values[late] - a_true.values[late]))
        assert err <= 1e-3

    def test_energy_off_the_truncated_mean_rejected(self):
        prob = _poly_phi_problem()
        datum = EnergyDatum(TimeSeries.from_function(prob.grid, lambda t: 1.125 + t))
        with pytest.raises(CompatibilityViolation):
            solve_inverse(prob, datum)

    def test_self_consistency_residual_small(self):
        op = FractionalOperatorSpec(0.8)
        grid = TimeGrid(1.0, 256)
        a_true = TimeSeries.from_function(grid, lambda t: 1.0 + t)
        phi = make_field("cos_exp")
        gen = ProblemData(
            op=op, phi=phi, source=_unit_source(), grid=grid, amplitude=a_true,
            n_max=4, k_max=4,
        )
        bundle = solve_forward(gen)
        prob = ProblemData(
            op=op, phi=phi, source=_unit_source(), grid=grid, n_max=4, k_max=4
        )
        amp, rec_bundle = solve_inverse(prob, EnergyDatum(bundle.energy))
        assert amp.metadata["energy_residual"] < 1e-9
        np.testing.assert_allclose(amp.a.values, 1.0 + grid.nodes, atol=1e-10)


@pytest.fixture(scope="module")
def setup():
    op = FractionalOperatorSpec(0.8)
    grid = TimeGrid(1.0, 128)
    phi = make_field("cos_exp")
    a_true = TimeSeries.from_function(grid, lambda t: 1.0 + t)
    gen = ProblemData(
        op=op, phi=phi, source=_unit_source(), grid=grid, amplitude=a_true,
        n_max=4, k_max=4,
    )
    bundle = solve_forward(gen)
    prob = ProblemData(
        op=op, phi=phi, source=_unit_source(), grid=grid, n_max=4, k_max=4
    )
    return prob, EnergyDatum(bundle.energy)


class TestStability:

    def test_energy_perturbation_is_linear(self, setup):
        prob, datum = setup
        rep = stability_probe(prob, datum)
        assert rep.slope == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("deltas", [
        (), (0.1,), (0.1, 0.1), (0.0, 0.1), (-0.1, 0.1), (float("nan"), 0.1),
        (float("inf"), 0.1),
    ], ids=["none", "one", "repeated", "zero", "negative", "nan", "inf"])
    def test_deltas_without_a_slope_refused_before_any_recovery(self, monkeypatch, deltas):
        # two distinct finite positive deltas at least, or the log-log fit
        # is degenerate (one point) or undefined (log of d <= 0)
        prob = _poly_phi_problem()
        datum = EnergyDatum(TimeSeries.zeros(prob.grid))

        def recovering(*args, **kwargs):
            raise AssertionError("recovered before checking the deltas")

        monkeypatch.setattr(inverse, "recover_source", recovering)
        with pytest.raises(ValueError, match="deltas"):
            stability_probe(prob, datum, deltas=deltas)

    def test_unchanged_amplitude_refused_before_the_fit(self):
        # d = 1e-300 leaves the amplitude as it was: log 0 has no slope
        prob = _poly_phi_problem()
        with pytest.raises(ValueError, match="delta = 1e-300 changed the amplitude by 0"):
            stability_probe(prob, _forward_datum(prob), deltas=(1e-1, 1e-300))

    def test_base_amplitude_matches_solve_inverse(self):
        # the probe recovers with phi's flux closure and flux_modes = n_max,
        # as solve_inverse does; without them it was off by 4.6e-2
        prob = _poly_phi_problem()
        gen_grid = TimeGrid(1.0, 256)
        gen = ProblemData(
            op=prob.op, phi=prob.phi, source=prob.source, grid=gen_grid,
            amplitude=TimeSeries.from_function(gen_grid, lambda t: 1.0 + t),
            n_max=4, k_max=0,
        )
        energy = solve_forward(gen).energy.values[::2]
        datum = EnergyDatum(TimeSeries(prob.grid, energy))
        amp, _ = solve_inverse(prob, datum)
        rep = stability_probe(prob, datum, deltas=(1e-1, 1e-2))
        np.testing.assert_allclose(rep.base.values, amp.a.values, rtol=0.0, atol=1e-12)
