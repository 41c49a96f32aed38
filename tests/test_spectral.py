"""Tests for the biorthogonal eigenstructure and projection machinery.

The root system and its conjugate family admit closed-form inner products,
so most oracles here are hand-computed integrals frozen into the tests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsource.catalog import SpaceTimeField, make_field
from fracsource.fractional import QuadratureFailure, TimeGrid
from fracsource.spectral import (
    DatumKind,
    Family,
    Field2D,
    InsufficientData,
    MissingCoefficient,
    ModeIndex,
    SpectralCoefficients,
    biorthogonality_matrix,
    decay_report,
    eigen,
    enumerate_modes,
    eval_W,
    eval_Z,
    mode_mean,
    project,
    project_modes,
    synthesize,
)


class TestModeIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeIndex(Family.Zero, 1, 0)  # Zero family fixes n = 0
        with pytest.raises(ValueError):
            ModeIndex(Family.Odd, 0, 2)  # paired families need n >= 1
        with pytest.raises(ValueError):
            ModeIndex(Family.Even, 1, -1)

    def test_enumeration_covers_box(self):
        modes = enumerate_modes(2, 3)
        zero = [i for i in modes if i.family is Family.Zero]
        assert len(zero) == 4  # k = 0..3
        assert len(modes) == 4 + 2 * 2 * 4  # plus Odd/Even for n = 1, 2

    def test_enumeration_solve_order(self):
        # the Zero family first, then each Even(n, k) right before Odd(n, k)
        modes = enumerate_modes(2, 3)
        assert modes[:4] == [ModeIndex(Family.Zero, 0, k) for k in range(4)]
        pairs = [(modes[r], modes[r + 1]) for r in range(4, len(modes), 2)]
        assert [(e.family, o.family) for e, o in pairs] == [(Family.Even, Family.Odd)] * 8
        assert all((e.n, e.k) == (o.n, o.k) for e, o in pairs)

    def test_box_built_once_per_size(self):
        # every list is fresh, so a caller's edit stays its own, while the
        # coefficient arrays of one box share its modes and row map
        edited = enumerate_modes(2, 3)
        edited.pop()
        assert len(enumerate_modes(2, 3)) == len(edited) + 1
        a, b = (SpectralCoefficients(2, 3, np.zeros(20)) for _ in range(2))
        assert a.modes is b.modes and a._rows is b._rows
        assert list(a.modes) == enumerate_modes(2, 3)
        assert [a._rows[i] for i in a.modes] == list(range(20))

    def test_eigenvalues_closed_form(self):
        assert eigen(ModeIndex(Family.Zero, 0, 0)).sigma_nk == 0.0
        assert eigen(ModeIndex(Family.Zero, 0, 2)).sigma_nk == pytest.approx(
            (2 * math.pi) ** 4
        )
        got = eigen(ModeIndex(Family.Odd, 1, 1)).sigma_nk
        assert got == pytest.approx((2 * math.pi) ** 4 + math.pi**4)
        # Odd and Even share the eigenvalue at equal index
        assert got == eigen(ModeIndex(Family.Even, 1, 1)).sigma_nk


class TestBasisFunctions:
    def test_root_functions_at_sample_points(self):
        x = np.array([0.0, 0.25, 0.5])
        y = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(eval_Z(ModeIndex(Family.Zero, 0, 0), x, y), 1.0)
        np.testing.assert_allclose(
            eval_Z(ModeIndex(Family.Odd, 1, 0), x, y), np.cos(2 * math.pi * x)
        )
        np.testing.assert_allclose(
            eval_Z(ModeIndex(Family.Even, 1, 0), x, y),
            x * np.sin(2 * math.pi * x),
            atol=1e-15,
        )

    def test_nonlocal_value_coupling(self):
        # every root function takes equal values at x = 0 and x = 1
        y = np.linspace(0.0, 1.0, 7)
        for index in enumerate_modes(3, 3):
            left = eval_Z(index, np.zeros_like(y), y)
            right = eval_Z(index, np.ones_like(y), y)
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_conjugate_functions_at_sample_points(self):
        x = np.array([0.0, 0.25, 1.0])
        y = np.zeros_like(x)
        np.testing.assert_allclose(
            eval_W(ModeIndex(Family.Zero, 0, 0), x, y), 2.0 * (1.0 - x)
        )
        np.testing.assert_allclose(
            eval_W(ModeIndex(Family.Even, 2, 0), x, y),
            4.0 * np.sin(4 * math.pi * x),
            atol=1e-14,
        )

    def test_mode_means_closed_form(self):
        assert mode_mean(ModeIndex(Family.Zero, 0, 0)) == 1.0
        assert mode_mean(ModeIndex(Family.Zero, 0, 3)) == 0.0
        assert mode_mean(ModeIndex(Family.Odd, 2, 0)) == 0.0
        # integral of x sin(2 n pi x) over [0,1] is -1/(2 n pi)
        for n in (1, 2, 5):
            assert mode_mean(ModeIndex(Family.Even, n, 0)) == pytest.approx(
                -1.0 / (2 * n * math.pi)
            )
        assert mode_mean(ModeIndex(Family.Even, 1, 2)) == 0.0


def _tensor_grid_gram(N, K):
    """Reference Gram matrix: Z and W evaluated per mode on the full q x q
    tensor Gauss grid, at the 2q nodes biorthogonality_matrix returns."""
    q = 2 * max(32, 4 * max(2 * N, K))
    g, w = np.polynomial.legendre.leggauss(q)
    g, w = (g + 1.0) / 2.0, w / 2.0
    X, Y = np.meshgrid(g, g, indexing="ij")
    wgt = np.outer(w, w).ravel()
    modes = enumerate_modes(N, K)
    Z = np.stack([eval_Z(i, X, Y).ravel() for i in modes])
    W = np.stack([eval_W(i, X, Y).ravel() for i in modes])
    return (Z * wgt) @ W.T


class TestBiorthogonality:
    def test_gram_identity_small_box(self):
        G = biorthogonality_matrix(3, 3)
        np.testing.assert_allclose(G, np.eye(G.shape[0]), atol=1e-11)

    @pytest.mark.parametrize("box", [(3, 3), (6, 6)])
    def test_separable_gram_matches_tensor_grid(self, box):
        G = biorthogonality_matrix(*box)
        assert np.max(np.abs(G - _tensor_grid_gram(*box))) <= 1e-14

    def test_projection_recovers_synthesis_coefficients(self):
        # build a field from known coefficients, project it back
        targets = {
            ModeIndex(Family.Zero, 0, 1): 0.7,
            ModeIndex(Family.Odd, 1, 2): -1.3,
            ModeIndex(Family.Even, 2, 0): 0.4,
        }

        def fn(x, y):
            out = np.zeros(np.broadcast_arrays(np.asarray(x), np.asarray(y))[0].shape)
            for idx, c in targets.items():
                out = out + c * eval_Z(idx, x, y)
            return out

        field = Field2D.analytic(fn, "combo")
        for idx, c in targets.items():
            assert project(field, idx) == pytest.approx(c, abs=1e-11)
        # a mode absent from the combination projects to zero
        assert project(field, ModeIndex(Family.Odd, 2, 1)) == pytest.approx(
            0.0, abs=1e-11
        )


class TestField2D:
    def test_tabulated_matches_analytic(self):
        xs = np.linspace(0.0, 1.0, 201)
        ys = np.linspace(0.0, 1.0, 201)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        tab = Field2D.tabulated(xs, ys, np.cos(2 * math.pi * X) * np.cos(math.pi * Y))
        x = np.array([0.31, 0.62])
        y = np.array([0.17, 0.83])
        want = np.cos(2 * math.pi * x) * np.cos(math.pi * y)
        np.testing.assert_allclose(tab(x, y), want, atol=5e-6)

    @pytest.mark.parametrize("xs, ys", [
        (np.linspace(0.0, 0.5, 9), np.linspace(0.0, 1.0, 9)),
        (np.linspace(0.0, 1.0, 9), np.linspace(0.1, 1.0, 9)),
    ])
    def test_tabulated_refuses_partial_cover(self, xs, ys):
        # a grid short of the square would be extrapolated over the rest
        with pytest.raises(ValueError, match="does not cover"):
            Field2D.tabulated(xs, ys, np.zeros((xs.size, ys.size)))

    def test_tabulated_refuses_non_finite_entries(self):
        xs, ys = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 5)
        values = np.ones((3, 5))
        values[1, 2], values[2, 4] = -np.inf, np.nan
        with pytest.raises(ValueError, match=r"value at x=0\.5, y=0\.5 is -inf"):
            Field2D.tabulated(xs, ys, values)
        ys[4] = np.nan
        with pytest.raises(ValueError, match="y axis holds nan"):
            Field2D.tabulated(xs, ys, np.ones((3, 5)))

    @pytest.mark.parametrize("field", [
        Field2D.constant(2.5),
        Field2D.tabulated(
            np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3),
            np.add.outer(np.linspace(0.0, 1.0, 5), 2.0 * np.linspace(0.0, 1.0, 3)),
        ),
    ], ids=["constant", "tabulated"])
    @pytest.mark.parametrize("x, y", [
        (0.25, np.array([0.0, 0.5, 1.0])),
        (np.array([0.0, 0.5, 1.0]), 0.75),
        (np.array([[0.0], [0.25], [1.0]]), np.array([[0.0, 0.5]])),
    ], ids=["scalar-array", "array-scalar", "column-row"])
    def test_call_broadcasts_arguments(self, field, x, y):
        X, Y = np.broadcast_arrays(x, y)
        got = field(x, y)
        assert got.shape == X.shape
        want = [field(float(a), float(b)) for a, b in zip(X.ravel(), Y.ravel())]
        np.testing.assert_allclose(got.ravel(), want, rtol=0.0, atol=1e-15)

    def test_csv_round_trip(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 33)
        ys = np.linspace(0.0, 1.0, 33)
        path = tmp_path / "field.csv"
        with open(path, "w") as fh:
            fh.write("x,y,value\n")
            for x in xs:
                for y in ys:
                    fh.write(f"{x},{y},{x * y}\n")
        f = Field2D.from_csv(path)
        assert f(0.5, 0.5) == pytest.approx(0.25, abs=1e-12)


class TestSpectralCoefficients:
    def test_missing_coefficient_raises(self):
        coeffs = SpectralCoefficients(2, 2, np.zeros(len(enumerate_modes(2, 2))))
        with pytest.raises(MissingCoefficient):
            coeffs[ModeIndex(Family.Odd, 3, 0)]

    def test_out_of_box_rejected(self):
        modes = len(enumerate_modes(2, 2))
        with pytest.raises(ValueError):
            SpectralCoefficients(2, 2, np.zeros(modes + 1))
        with pytest.raises(ValueError):
            SpectralCoefficients(2, 2, np.zeros((modes, 4)), TimeGrid(1.0, 4))

    def test_project_field_round_trips_through_synthesize(self):
        field = Field2D.analytic(
            lambda x, y: np.cos(2 * math.pi * np.asarray(x))
            * np.ones_like(np.asarray(y)),
            "single mode",
        )
        coeffs = SpectralCoefficients.project_field(field, 3, 3)
        x = np.linspace(0.0, 1.0, 9)
        y = np.full_like(x, 0.4)
        pts = np.stack([x, y], axis=-1)
        got = synthesize(coeffs, pts)
        np.testing.assert_allclose(got, np.cos(2 * math.pi * x), atol=1e-10)

    @given(c=st.floats(-10.0, 10.0))
    @settings(max_examples=10, deadline=None)
    def test_projection_is_linear_in_field(self, c):
        base = Field2D.analytic(
            lambda x, y: np.asarray(x) * np.sin(2 * math.pi * np.asarray(x))
            * np.ones_like(np.asarray(y)),
            "assoc",
        )
        scaled = Field2D.analytic(lambda x, y: c * base(x, y), "scaled")
        idx = ModeIndex(Family.Even, 1, 0)
        assert project(scaled, idx) == pytest.approx(
            c * project(base, idx), rel=1e-10, abs=1e-12
        )


def _per_mode_projections(field, modes):
    """Reference: one tensor Gauss-Legendre sum per mode at the node count
    the projection settles on, 2 max(32, 4 max(2n, k)) per axis, snapped at
    1e-12 of the largest magnitude."""
    out = []
    for index in modes:
        q = 2 * max(32, 4 * max(2 * index.n, index.k))
        g, w = np.polynomial.legendre.leggauss(q)
        g, w = (g + 1.0) / 2.0, w / 2.0
        X, Y = np.meshgrid(g, g, indexing="ij")
        out.append(w @ (field(X, Y) * eval_W(index, X, Y)) @ w)
    out = np.array(out)
    out[np.abs(out) <= 1e-12 * np.max(np.abs(out))] = 0.0
    return out


class TestProjectModes:
    FIELDS = {
        "cos_exp": make_field("cos_exp"),
        "1+xy/2": make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))}),
    }

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_batched_matches_per_mode_loop(self, name):
        field = self.FIELDS[name]
        modes = enumerate_modes(16, 16)
        want = _per_mode_projections(field, modes)
        phi = SpectralCoefficients.project_field(field, 16, 16)
        f = SpaceTimeField.static(field).coeff_series(TimeGrid(1.0, 1), 16, 16)
        for got in (
            np.array([phi[i] for i in modes]),
            np.array([f[i].values[0] for i in modes]),
        ):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
            np.testing.assert_array_equal(got == 0.0, want == 0.0)

    def test_order_and_duplicates_kept(self):
        field = self.FIELDS["1+xy/2"]
        modes = [ModeIndex(Family.Even, 3, 0), ModeIndex(Family.Zero, 0, 0),
                 ModeIndex(Family.Even, 3, 0), ModeIndex(Family.Odd, 1, 9)]
        got = project_modes(field, modes)
        assert got.shape == (4,)
        assert got[0] == got[2]
        for index, value in zip(modes, got):
            assert value == pytest.approx(project(field, index), abs=1e-15)

    def test_unresolved_field_refused_naming_the_mode(self):
        # 40 periods in x: 32 and 64 nodes disagree on the low-frequency
        # modes, whose node count starts at 32
        fast = Field2D.analytic(
            lambda x, y: np.cos(80 * math.pi * np.asarray(x))
            * np.ones_like(np.asarray(y)),
            "cos(2 pi 40 x)",
        )
        first = str(ModeIndex(Family.Zero, 0, 0))
        with pytest.raises(QuadratureFailure, match="node doubling") as exc:
            project(fast, ModeIndex(Family.Odd, 1, 0))
        assert str(ModeIndex(Family.Odd, 1, 0)) in str(exc.value)
        with pytest.raises(QuadratureFailure) as exc:
            SpectralCoefficients.project_field(fast, 2, 2)
        assert first in str(exc.value)
        with pytest.raises(QuadratureFailure) as exc:
            SpaceTimeField.static(fast).coeff_series(TimeGrid(1.0, 1), 2, 2)
        assert first in str(exc.value)


class TestDecayReport:
    def test_smooth_initial_field_flagged_ok(self):
        field = Field2D.analytic(
            lambda x, y: (1.0 + np.cos(2 * math.pi * np.asarray(x)))
            * np.exp(np.cos(math.pi * np.asarray(y))),
            "smooth",
        )
        coeffs = SpectralCoefficients.project_field(field, 10, 10)
        rep = decay_report(coeffs, DatumKind.InitialPhi)
        assert rep.k_exponent <= -2.0
        assert rep.k_ok

    def test_insufficient_shells_raise(self):
        field = Field2D.constant(1.0)
        coeffs = SpectralCoefficients.project_field(field, 2, 2)
        with pytest.raises(InsufficientData):
            decay_report(coeffs, DatumKind.InitialPhi)
