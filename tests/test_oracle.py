"""Tests for the finite-difference reference solver.

The FDM shares no code path with the spectral construction, so closed forms
(exponential decay, manufactured solutions) and cross-comparison against the
spectral solver are both meaningful.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from fracsource import oracle
from fracsource.catalog import SpaceTimeField, make_field, manufactured_quadratic
from fracsource.forward import ProblemData, solve_forward
from fracsource.fractional import FractionalOperatorSpec, TimeGrid, TimeSeries
from fracsource.mlf import RelaxationKernelSpec, eval_kernel_grid
from fracsource.oracle import (
    _HISTORY_BLOCK,
    _HISTORY_SUB_BLOCK,
    FDGrid,
    SingularSystem,
    StepRejected,
    _spatial_operator,
    compare,
    fdm_forward,
)
from fracsource.spectral import Field2D, synthesize


def _problem(op, phi, source, grid, amp_fn=None, n_max=4):
    amp = None
    if amp_fn is not None:
        amp = TimeSeries.from_function(grid, amp_fn)
    return ProblemData(
        op=op, phi=phi, source=source, grid=grid, amplitude=amp,
        n_max=n_max, k_max=n_max,
    )


def _zero_source():
    return SpaceTimeField.static(Field2D.constant(0.0))


class TestFDGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FDGrid(4, 32, 16)
        with pytest.raises(ValueError):
            FDGrid(32, 32, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_horizon(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FDGrid(32, 32, 16, T=bad)

    def test_spacings(self):
        g = FDGrid(16, 32, 10, T=2.0)
        assert g.hx == pytest.approx(1.0 / 16)
        assert g.hy == pytest.approx(1.0 / 32)
        assert g.tau == pytest.approx(0.2)
        assert g.xs.size == 17 and g.ys.size == 33


def _ghost_node_operator(grid):
    """Reference operator: the five-point fourth difference per axis, with
    each ghost node eliminated by hand.  x: u_{-1} = u_1, u_{-2} = u_2,
    u_{Mx} = u_0 and u_{Mx+1} = 2 u_1 - u_{Mx-1}; y: even reflection at both
    faces."""
    Mx, M = grid.Mx, grid.My + 1
    stencil = (1.0, -4.0, 6.0, -4.0, 1.0)
    Ax = sp.lil_matrix((Mx, Mx))
    for i in range(Mx):
        for off, c in zip(range(-2, 3), stencil):
            j = i + off
            if j == -1:
                Ax[i, 1] += c
            elif j == -2:
                Ax[i, 2] += c
            elif j == Mx:
                Ax[i, 0] += c
            elif j == Mx + 1:
                Ax[i, 1] += 2.0 * c
                Ax[i, Mx - 1] -= c
            else:
                Ax[i, j] += c
    Ay = sp.lil_matrix((M, M))
    for j in range(M):
        for off, c in zip(range(-2, 3), stencil):
            i = abs(j + off)
            if i > grid.My:
                i = 2 * grid.My - i
            Ay[j, i] += c
    Ax = Ax.tocsr() / grid.hx**4
    Ay = Ay.tocsr() / grid.hy**4
    return (sp.kron(Ax, sp.identity(M)) + sp.kron(sp.identity(Mx), Ay)).tocsr()


class TestSpatialOperator:
    @pytest.mark.parametrize("Mx, My", [(8, 8), (9, 8), (8, 9), (16, 33), (33, 16), (64, 64)])
    def test_squared_second_differences_match_ghost_nodes(self, Mx, My):
        grid = FDGrid(Mx, My, 1)
        got = _spatial_operator(grid)
        want = _ghost_node_operator(grid)
        got.sort_indices()
        want.sort_indices()
        assert got.shape == want.shape == (Mx * (My + 1),) * 2
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


class TestJordanBasis:
    @pytest.mark.parametrize("Mx", [8, 9, 16, 64])
    def test_eigenvectors_and_generalized_vectors(self, Mx):
        # columns 0..Mx//2 are the c_n, the last (Mx - 1) // 2 the g_n of
        # pairs n = 1, 2, ...: Dx c_n = lam_n c_n, (Dx - lam_n) g_n = c_n
        S, lam = oracle._jordan_basis(Mx)
        Dx = oracle._second_difference(Mx, coupled=True).toarray() * Mx**2
        n_c, P = Mx // 2 + 1, (Mx - 1) // 2
        assert S.shape == (Mx, Mx) and lam.shape == (Mx,) and n_c + P == Mx
        lam_max = np.max(np.abs(lam))
        i = np.arange(Mx)
        for n in range(n_c):
            c = S[:, n]
            np.testing.assert_allclose(c, np.cos(2.0 * math.pi * n * i / Mx), atol=1e-13)
            assert np.max(np.abs(Dx @ c - lam[n] * c)) <= 1e-12 * lam_max
        for q in range(P):
            g, c = S[:, n_c + q], S[:, 1 + q]
            assert lam[n_c + q] == lam[1 + q]
            gap = np.max(np.abs(Dx @ g - lam[1 + q] * g - c))
            assert gap <= 1e-12 * lam_max * np.max(np.abs(g))


class TestFDMForward:
    def test_zero_data_is_zero(self):
        prob = _problem(
            FractionalOperatorSpec(0.8),
            Field2D.constant(0.0),
            _zero_source(),
            TimeGrid(1.0, 32),
            amp_fn=lambda t: np.zeros_like(t),
        )
        hist = fdm_forward(prob, FDGrid(16, 16, 32))
        np.testing.assert_array_equal(hist.values, 0.0)

    def test_boundary_value_coupling_exact(self):
        # u(0, y, t) = u(1, y, t) holds exactly at every step by construction
        prob = _problem(
            FractionalOperatorSpec(0.8),
            make_field("cos_exp"),
            SpaceTimeField.static(Field2D.constant(1.0)),
            TimeGrid(0.5, 32),
            amp_fn=lambda t: 1.0 + t,
        )
        hist = fdm_forward(prob, FDGrid(16, 16, 32, T=0.5))
        np.testing.assert_array_equal(hist.values[:, 0, :], hist.values[:, -1, :])

    def test_fractional_single_mode_decay(self):
        # phi = sqrt(2) cos(pi y): exact coefficient decay through the
        # two-parameter relaxation at eigenvalue pi^4
        alpha = 0.8
        phi = Field2D.analytic(
            lambda x, y: math.sqrt(2.0)
            * np.cos(math.pi * np.asarray(y))
            * np.ones_like(np.asarray(x)),
            "y-mode",
        )
        errs = []
        for M, N in ((16, 256), (32, 1024)):
            prob = _problem(
                FractionalOperatorSpec(alpha), phi, _zero_source(),
                TimeGrid(1.0, N), amp_fn=lambda t: np.zeros_like(t),
            )
            hist = fdm_forward(prob, FDGrid(M, M, N))
            spec = RelaxationKernelSpec(1.0, ((math.pi**4, alpha),))
            decay = eval_kernel_grid(spec, np.array([0.5]))[0]
            ys = hist.grid.ys
            got = hist.values[N // 2]
            want = np.broadcast_to(
                math.sqrt(2.0) * np.cos(math.pi * ys)[None, :] * decay, got.shape
            )
            errs.append(
                np.linalg.norm(got - want) / np.linalg.norm(want)
            )
        assert errs[1] <= 0.02
        assert errs[1] < errs[0]  # refinement helps

    def test_classical_limit_single_mode(self):
        # alpha = 1 reduces the stepper to backward Euler; the y-mode decays
        # like exp(-pi^4 t)
        phi = Field2D.analytic(
            lambda x, y: math.sqrt(2.0)
            * np.cos(math.pi * np.asarray(y))
            * np.ones_like(np.asarray(x)),
            "y-mode",
        )
        prob = _problem(
            FractionalOperatorSpec(1.0), phi, _zero_source(), TimeGrid(0.02, 512),
            amp_fn=lambda t: np.zeros_like(t),
        )
        hist = fdm_forward(prob, FDGrid(32, 32, 512, T=0.02))
        ys = hist.grid.ys
        got = hist.values[-1]
        want = np.broadcast_to(
            math.sqrt(2.0)
            * np.cos(math.pi * ys)[None, :]
            * math.exp(-math.pi**4 * 0.02),
            got.shape,
        )
        # residual error is the O(h^2) discrete eigenvalue bias plus the
        # backward-Euler step error
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.015

    def test_manufactured_spatial_order_two(self):
        op = FractionalOperatorSpec(0.8)
        phi, source, exact = manufactured_quadratic(op)
        errs = []
        for M in (16, 32):
            prob = _problem(op, phi, source, TimeGrid(0.5, 512), amp_fn=None)
            hist = fdm_forward(prob, FDGrid(M, M, 512, T=0.5))
            X, Y = np.meshgrid(hist.grid.xs, hist.grid.ys, indexing="ij")
            want = exact(X, Y, 0.5)
            errs.append(np.max(np.abs(hist.values[-1] - want)) / np.max(np.abs(want)))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.7

    def test_temporal_order_at_least_one(self):
        op = FractionalOperatorSpec(0.8)
        phi, source, exact = manufactured_quadratic(op)
        errs = []
        M = 32
        for N in (64, 256):
            prob = _problem(op, phi, source, TimeGrid(0.5, N))
            hist = fdm_forward(prob, FDGrid(M, M, N, T=0.5))
            X, Y = np.meshgrid(hist.grid.xs, hist.grid.ys, indexing="ij")
            want = exact(X, Y, 0.5)
            errs.append(np.max(np.abs(hist.values[-1] - want)))
        # subtract the common spatial bias before measuring the time order
        assert errs[1] < errs[0]


def _unblocked_march(problem, grid):
    """Reference L1 march: at every step the history is summed over all
    earlier differences, term by term, with no blocking.  Each step is a
    sparse LU solve refined once, so the reference does not carry one
    factorization's rounding.  The residual is taken in extended precision,
    with c0 apart from L and L from its exact integer entries: rounding in
    the assembled diagonal c0 + L_ii, or in entries divided by a rounded
    hy^4, moves the operator along the spatial mean, which no step damps,
    by up to about 1e-11 of c0."""
    X, Y = np.meshgrid(grid.xs[:-1], grid.ys, indexing="ij")
    terms = problem.op.all_terms()
    scales = [psi * grid.tau ** (-beta) / math.gamma(2.0 - beta) for psi, beta in terms]
    c0 = sum(scales)
    Dx = oracle._second_difference(grid.Mx, coupled=True)
    Dy = oracle._second_difference(grid.My + 1, coupled=False)
    L_ext = (
        sp.kron(Dx @ Dx * grid.Mx**4, sp.identity(grid.My + 1))
        + sp.kron(sp.identity(grid.Mx), Dy @ Dy * grid.My**4)
    ).astype(np.longdouble)
    solver = splu((c0 * sp.identity(X.size) + _spatial_operator(grid)).tocsc())
    us = [np.asarray(problem.phi(X, Y), dtype=float).ravel()]
    for p in range(1, grid.N + 1):
        rhs = np.asarray(problem.source(X, Y, p * grid.tau), dtype=float).ravel()
        rhs = rhs + c0 * us[-1]
        for j in range(1, p):
            lag = p - j
            for scale, (_, beta) in zip(scales, terms):
                b = (lag + 1.0) ** (1.0 - beta) - lag ** (1.0 - beta)
                rhs -= scale * b * (us[j] - us[j - 1])
        u = solver.solve(rhs)
        u_ext = u.astype(np.longdouble)
        u += solver.solve(np.asarray(rhs - c0 * u_ext - L_ext @ u_ext, dtype=float))
        us.append(u)
    return np.array(us).reshape(grid.N + 1, grid.Mx, grid.My + 1)


class TestBlockedHistory:
    @pytest.mark.parametrize("N", [200, 40, 75])
    def test_matches_unblocked_march(self, N):
        # N = 200 crosses three block boundaries and stops partway into the
        # fourth block; N = 40 never leaves the first block; N = 75 crosses
        # into the second block, then one sub-block boundary in it, and stops
        # partway into the next sub-block.  Every block is whole sub-blocks,
        # and N = 40 crosses sub-block boundaries of the first block.
        assert 3 * _HISTORY_BLOCK < 200 < 4 * _HISTORY_BLOCK
        assert 40 < _HISTORY_BLOCK
        assert _HISTORY_BLOCK % _HISTORY_SUB_BLOCK == 0 and _HISTORY_SUB_BLOCK < 40
        assert _HISTORY_BLOCK + _HISTORY_SUB_BLOCK < 75 < 2 * _HISTORY_BLOCK
        assert (75 - _HISTORY_BLOCK) % _HISTORY_SUB_BLOCK != 0
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4), (0.3, 0.1)))
        phi, source, _ = manufactured_quadratic(op)
        prob = _problem(op, phi, source, TimeGrid(0.5, N))
        grid = FDGrid(16, 16, N, T=0.5)
        got = fdm_forward(prob, grid).values[:, :-1, :]
        want = _unblocked_march(prob, grid)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("Mx, My", [(9, 12), (16, 9)])
    def test_x_asymmetric_data_match_unblocked_march(self, Mx, My):
        # data even about x = 1/2, as in the other marches here, leave the
        # generalized vectors (discrete x sin 2 pi n x) and so every pair's
        # coupling at zero; these excite them.  An odd Mx has (Mx - 1) / 2
        # pairs and no unpaired cosine at n = Mx / 2.
        op = FractionalOperatorSpec(0.8, ((0.5, 0.4), (0.3, 0.1)))
        phi = Field2D.analytic(
            lambda x, y: 1.0 + x * np.sin(2.0 * math.pi * x) * np.cos(math.pi * y), "x sin"
        )
        f = make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
        source = SpaceTimeField.separable(f, lambda t: 1.0 + t)
        prob = _problem(op, phi, source, TimeGrid(0.5, 40))
        grid = FDGrid(Mx, My, 40, T=0.5)
        got = fdm_forward(prob, grid).values[:, :-1, :]
        want = _unblocked_march(prob, grid)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSingularSystem:
    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_failed_block_inverse_refuses(self, monkeypatch, failure):
        # np.linalg.inv is called once per march, on the x Jordan basis S
        def inv(a):
            if failure == "raise":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(np.shape(a), np.nan)

        monkeypatch.setattr(np.linalg, "inv", inv)
        prob = _problem(
            FractionalOperatorSpec(0.8),
            make_field("cos_exp"),
            SpaceTimeField.static(Field2D.constant(1.0)),
            TimeGrid(0.5, 8),
        )
        with pytest.raises(SingularSystem):
            fdm_forward(prob, FDGrid(8, 8, 8, T=0.5))


class TestProbeCheck:
    def test_operator_mismatch_refuses(self, monkeypatch):
        # a cosine-basis operator that disagrees with _spatial_operator is
        # refused before the march, not refined against
        sparse = oracle._spatial_operator
        monkeypatch.setattr(oracle, "_spatial_operator", lambda grid: 1.001 * sparse(grid))
        prob = _problem(
            FractionalOperatorSpec(0.8),
            make_field("cos_exp"),
            SpaceTimeField.static(Field2D.constant(1.0)),
            TimeGrid(0.5, 8),
        )
        with pytest.raises(SingularSystem, match="differs from the sparse operator"):
            fdm_forward(prob, FDGrid(8, 8, 8, T=0.5))

    def test_perturbed_jordan_pair_refuses(self, monkeypatch):
        # g_1 scaled by 1 + 1e-6 is a generalized vector of coupling
        # 2 lam_1 (1 + 1e-6), so the basis' coupling 2 lam_1 is off by 1e-6
        # of itself; the probe reads about 1e-8 on 8 x 8
        exact = oracle._jordan_basis

        def perturbed(m):
            S, lam = exact(m)
            S[:, m // 2 + 1] *= 1.0 + 1e-6
            return S, lam

        monkeypatch.setattr(oracle, "_jordan_basis", perturbed)
        prob = _problem(
            FractionalOperatorSpec(0.8),
            make_field("cos_exp"),
            SpaceTimeField.static(Field2D.constant(1.0)),
            TimeGrid(0.5, 8),
        )
        with pytest.raises(SingularSystem, match="differs from the sparse operator"):
            fdm_forward(prob, FDGrid(8, 8, 8, T=0.5))


class TestStepGuards:
    def _march(self, phi, amplitude):
        prob = _problem(
            FractionalOperatorSpec(0.8),
            phi,
            SpaceTimeField.static(Field2D.constant(1.0)),
            TimeGrid(0.5, 8),
            amp_fn=lambda t: np.full_like(t, amplitude),
        )
        return fdm_forward(prob, FDGrid(8, 8, 8, T=0.5))

    def test_norm_growth_refuses(self):
        with pytest.raises(StepRejected, match=r"^norm growth beyond 1e\+06 at step 1$"):
            self._march(Field2D.constant(0.0), 1e12)

    def test_non_finite_solution_refuses(self):
        with pytest.raises(StepRejected, match=r"^non-finite solution at step 1$"):
            self._march(Field2D.constant(math.nan), 1.0)


class TestCompare:
    def test_spectral_resampled_is_exact(self):
        grid = TimeGrid(0.5, 64)
        prob = _problem(
            FractionalOperatorSpec(0.8),
            make_field("cos_mode", {"n": 1, "k": 1}),
            SpaceTimeField.static(Field2D.constant(1.0)),
            grid,
            amp_fn=lambda t: 1.0 + t,
        )
        bundle = solve_forward(prob)
        fd = FDGrid(16, 16, 64, T=0.5)
        X, Y = np.meshgrid(fd.xs, fd.ys, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
        vals = np.stack(
            [synthesize(bundle.coeffs, pts, j) for j in range(grid.N + 1)]
        )
        from fracsource.oracle import FieldHistory

        hist = FieldHistory(grid=fd, values=vals)
        rep = compare(bundle, hist, [0.25, 0.5])
        assert max(rep.l2) < 1e-13
        assert max(rep.sup) < 1e-13

    def test_spectral_vs_fdm_equivalence(self):
        grid = TimeGrid(1.0, 256)
        prob = _problem(
            FractionalOperatorSpec(0.8),
            make_field("cos_mode", {"n": 1, "k": 1}),
            SpaceTimeField.static(Field2D.constant(1.0)),
            grid,
            amp_fn=lambda t: 1.0 + t,
            n_max=4,
        )
        bundle = solve_forward(prob)
        hist = fdm_forward(prob, FDGrid(32, 32, 256))
        rep = compare(bundle, hist, [0.5, 1.0])
        assert rep.max_l2 <= 0.02

    def test_refinement_shrinks_error(self):
        grid = TimeGrid(1.0, 128)
        prob = _problem(
            FractionalOperatorSpec(0.8),
            make_field("cos_mode", {"n": 1, "k": 1}),
            SpaceTimeField.static(Field2D.constant(1.0)),
            grid,
            amp_fn=lambda t: 1.0 + t,
            n_max=4,
        )
        bundle = solve_forward(prob)
        coarse = compare(bundle, fdm_forward(prob, FDGrid(16, 16, 128)), [1.0])
        fine = compare(bundle, fdm_forward(prob, FDGrid(32, 32, 128)), [1.0])
        assert fine.max_l2 < coarse.max_l2

    def test_off_grid_time_rejected(self):
        grid = TimeGrid(1.0, 64)
        prob = _problem(
            FractionalOperatorSpec(0.8),
            Field2D.constant(0.0),
            _zero_source(),
            grid,
            amp_fn=lambda t: np.zeros_like(t),
        )
        bundle = solve_forward(prob)
        hist = fdm_forward(prob, FDGrid(16, 16, 64))
        with pytest.raises(ValueError):
            compare(bundle, hist, [0.33333])

    def test_energy_of_history_matches_spectral(self):
        grid = TimeGrid(1.0, 256)
        prob = _problem(
            FractionalOperatorSpec(0.8),
            make_field("cos_exp"),
            SpaceTimeField.static(Field2D.constant(1.0)),
            grid,
            amp_fn=lambda t: 1.0 + t,
            n_max=4,
        )
        bundle = solve_forward(prob)
        hist = fdm_forward(prob, FDGrid(32, 32, 256))
        e_fd = hist.energy().values
        e_sp = bundle.energy.values
        scale = np.max(np.abs(e_sp))
        assert np.max(np.abs(e_fd - e_sp)) / scale < 0.02
