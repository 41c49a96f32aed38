"""Tests for the catalog of named analytic inputs."""

import math

import numpy as np
import pytest

from fracsource.catalog import (
    SpaceTimeField,
    UnknownCatalogName,
    make_field,
    make_time_fn,
    manufactured_quadratic,
)
from fracsource.fractional import FractionalOperatorSpec, TimeGrid
from fracsource.spectral import Family, ModeIndex, project


class TestFieldCatalog:
    def test_unknown_name_raises(self):
        with pytest.raises(UnknownCatalogName):
            make_field("no_such_field")
        with pytest.raises(UnknownCatalogName):
            make_time_fn("no_such_fn")

    def test_constant(self):
        f = make_field("constant", {"value": 3.0})
        assert f(0.2, 0.9) == pytest.approx(3.0)

    def test_poly(self):
        f = make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
        assert f(0.4, 0.5) == pytest.approx(1.0 + 0.5 * 0.4 * 0.5)

    def test_cos_mode(self):
        f = make_field("cos_mode", {"n": 1, "k": 2})
        x, y = 0.3, 0.25
        assert f(x, y) == pytest.approx(
            math.cos(2 * math.pi * x) * math.cos(2 * math.pi * y)
        )

    @pytest.mark.parametrize("name, params", [
        ("constant", {"value": 3.0}),
        ("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 2))}),
        ("cos_mode", {"n": 1, "k": 2}),
        ("cos_exp", {}),
    ])
    @pytest.mark.parametrize("x, y", [
        (0.3, np.array([0.0, 0.4, 1.0])),
        (np.array([0.0, 0.4, 1.0]), 0.3),
        (np.array([[0.1], [0.6]]), np.array([[0.0, 0.2, 0.9]])),
    ], ids=["scalar-array", "array-scalar", "column-row"])
    def test_fields_broadcast_arguments(self, name, params, x, y):
        f = make_field(name, params)
        X, Y = np.broadcast_arrays(x, y)
        got = f(x, y)
        assert got.shape == X.shape
        want = [f(float(a), float(b)) for a, b in zip(X.ravel(), Y.ravel())]
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-15)

    def test_cos_exp_boundary_compatibility(self):
        # equal values at x = 0 and x = 1; flat in y at both walls
        f = make_field("cos_exp")
        ys = np.linspace(0.0, 1.0, 5)
        np.testing.assert_allclose(f(0.0, ys), f(1.0, ys), rtol=1e-14)
        eps = 1e-6
        dy0 = (f(0.5, eps) - f(0.5, 0.0)) / eps
        dy1 = (f(0.5, 1.0) - f(0.5, 1.0 - eps)) / eps
        assert abs(dy0) < 1e-4 and abs(dy1) < 1e-4


class TestTimeCatalog:
    def test_poly_t(self):
        h = make_time_fn("poly_t", {"coeffs": (1.0, 0.0, 2.0)})
        np.testing.assert_allclose(h(np.array([0.0, 1.0, 2.0])), [1.0, 3.0, 9.0])

    def test_exp_t(self):
        h = make_time_fn("exp_t", {"rate": -1.0, "amplitude": 2.0})
        assert h(1.0) == pytest.approx(2.0 * math.exp(-1.0))


class TestSpaceTimeField:
    def test_sum_of_terms(self):
        f = SpaceTimeField(
            terms=(
                (make_field("constant"), make_time_fn("constant")),
                (make_field("poly", {"terms": ((1.0, 1, 0),)}),
                 make_time_fn("poly_t", {"coeffs": (0.0, 1.0)})),
            )
        )
        assert f(0.5, 0.3, 2.0) == pytest.approx(1.0 + 0.5 * 2.0)

    def test_time_factors_broadcast_constant_law(self):
        f = SpaceTimeField(
            terms=(
                (make_field("constant"), lambda t: 2.0),
                (make_field("constant"), make_time_fn("poly_t", {"coeffs": (0.0, 1.0)})),
            )
        )
        ts = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(f.time_factors(ts), [[2.0, 2.0, 2.0], ts])

    def test_time_factors_refuse_non_finite(self):
        f = SpaceTimeField(
            terms=(
                (make_field("constant"), make_time_fn("constant")),
                (make_field("constant"), make_time_fn("exp_t", {"rate": 1000.0})),
            )
        )
        with pytest.raises(ValueError, match=r"source term 1: time factor at t=0\.75 is inf"):
            f.time_factors(np.linspace(0.0, 1.0, 5))

    def test_coeff_series_matches_pointwise_projection(self):
        grid = TimeGrid(1.0, 3)
        g = make_field("poly", {"terms": ((1.0, 1, 0),)})
        f = SpaceTimeField.separable(g, make_time_fn("poly_t", {"coeffs": (0.0, 1.0)}))
        coeffs = f.coeff_series(grid, 2, 2)
        idx = ModeIndex(Family.Even, 1, 0)
        want = project(g, idx) * grid.nodes
        np.testing.assert_allclose(coeffs[idx].values, want, rtol=1e-11)

    def test_coeff_series_snaps_every_term_against_the_whole_source(self):
        # cos(pi y) has no content in the k = 0 box: its projections there
        # are quadrature roundoff, zeroed against the constant term's scale
        grid = TimeGrid(1.0, 8)
        const = SpaceTimeField.static(make_field("constant"))
        cos_y = make_field("cos_mode", {"n": 0, "k": 1})
        f = SpaceTimeField(
            terms=const.terms + ((cos_y, make_time_fn("poly_t", {"coeffs": (0.0, 1.0)})),)
        )
        got = f.coeff_series(grid, 4, 0)
        want = const.coeff_series(grid, 4, 0)
        for index in want.indices():
            np.testing.assert_array_equal(got[index].values, want[index].values)
        assert [i for i in got.indices() if np.any(got[i].values)] == [
            ModeIndex(Family.Zero, 0, 0)
        ]
        # the per-term parts: the snapped row of each term and its time
        # factor, whose product coeff_series is, bit for bit
        spatial, hvals = f.term_coefficients(grid, 4, 0)
        assert np.any(spatial[0]) and not np.any(spatial[1])
        np.testing.assert_array_equal(hvals, f.time_factors(grid.nodes))
        assert got.values.tobytes() == (spatial.T @ hvals).tobytes()


class TestManufactured:
    def test_exact_solution_satisfies_data(self):
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4),))
        phi, source, exact = manufactured_quadratic(op)
        x, y = 0.3, 0.6
        assert exact(x, y, 0.0) == pytest.approx(phi(x, y), rel=1e-13)
        # the forcing amplitude at t = 0 is kappa * 1 (all Caputo terms of
        # t^2 vanish at the origin)
        kappa = (2 * math.pi) ** 4 + math.pi**4
        assert source(x, y, 0.0) == pytest.approx(kappa * phi(x, y), rel=1e-12)
