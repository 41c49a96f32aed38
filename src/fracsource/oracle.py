"""Brute-force finite-difference reference solver for the forward problem.

A fully discrete cross-check for the spectral construction: the fourth-order
spatial operator as squared second-order central differences, with ghost nodes
eliminated through the boundary conditions, and an implicit L1 discretization
of the multi-term Caputo derivative in time.  Each step is solved by fast
diagonalization in y (the reflected y operator is diagonal in the DCT-I
basis, leaving one dense x-block per cosine) with one refinement against the
sparse operator.  The scheme shares no code path with the spectral solver,
so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .forward import ProblemData, SolutionBundle
from .fractional import TimeGrid, TimeSeries, l1_weights
from .spectral import synthesize


class SingularSystem(RuntimeError):
    """The implicit step matrix could not be inverted."""


class StepRejected(RuntimeError):
    """The solution norm exploded in a single step (instability guard)."""


_GROWTH_LIMIT = 1e6
# Steps per block of the L1 history sum in fdm_forward.  On a 64 x 64 grid
# with 1024 steps, blocks of 32, 64 and 128 time within 10 % of each other.
_HISTORY_BLOCK = 64


@dataclass(frozen=True)
class FDGrid:
    """Uniform tensor grid: Mx, My spatial intervals, N time intervals."""

    Mx: int
    My: int
    N: int
    T: float = 1.0

    def __post_init__(self):
        if self.Mx < 8 or self.My < 8:
            raise ValueError("need at least 8 intervals per spatial axis")
        if self.N < 1 or self.T <= 0.0:
            raise ValueError("need N >= 1 time intervals and T > 0")

    @property
    def hx(self) -> float:
        return 1.0 / self.Mx

    @property
    def hy(self) -> float:
        return 1.0 / self.My

    @property
    def tau(self) -> float:
        return self.T / self.N

    @property
    def xs(self) -> np.ndarray:
        """All x nodes including both boundaries (x = 1 duplicates x = 0)."""
        return np.linspace(0.0, 1.0, self.Mx + 1)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.My + 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


def _second_difference(m: int, coupled: bool) -> sp.csr_matrix:
    """Three-point second difference on u_0..u_{m-1}, reflected evenly at the
    first node (u_{-1} = u_1).  Past the last node it either couples to the
    first (u_m = u_0, the nonlocal x-edges) or reflects again (the y-faces)."""
    D = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m), format="lil")
    D[0, 1] = 2.0
    if coupled:
        D[m - 1, 0] = 1.0
    else:
        D[m - 1, m - 2] = 2.0
    return D.tocsr()


def _spatial_operator(grid: FDGrid) -> sp.csr_matrix:
    """Fourth differences on the unknowns u(x_i, y_j), i < Mx.  Every boundary
    condition holds for u and for u_xx (u_yy) alike, so each fourth difference
    is the square of one second difference."""
    Dx = _second_difference(grid.Mx, coupled=True)
    Dy = _second_difference(grid.My + 1, coupled=False)
    Ax = (Dx @ Dx) / grid.hx**4
    Ay = (Dy @ Dy) / grid.hy**4
    Iy = sp.identity(grid.My + 1, format="csr")
    Ix = sp.identity(grid.Mx, format="csr")
    return (sp.kron(Ax, Iy) + sp.kron(Ix, Ay)).tocsr()


def _trapezoid(m: int, h: float) -> np.ndarray:
    """Trapezoid weights on the m + 1 nodes of a closed grid of step h."""
    w = np.full(m + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


@dataclass
class FieldHistory:
    """FD solution snapshots on the full node set including x = 1."""

    grid: FDGrid
    values: np.ndarray  # (N+1, Mx+1, My+1)

    def energy(self) -> TimeSeries:
        """Spatial mean at every step (trapezoid on both axes)."""
        wy = _trapezoid(self.grid.My, self.grid.hy)
        # x is value-coupled at the edges, so interior-style weights apply
        vals = np.einsum("tij,j->t", self.values[:, :-1, :], wy) * self.grid.hx
        return TimeSeries(TimeGrid(self.grid.T, self.grid.N), vals)


def _amplitude_on(grid: FDGrid, problem: ProblemData) -> np.ndarray:
    if problem.amplitude is None:
        return np.ones(grid.N + 1)
    src = problem.amplitude
    if abs(src.grid.T - grid.T) > 1e-12 * max(src.grid.T, grid.T):
        raise ValueError("amplitude horizon does not match the FD grid")
    return np.interp(grid.times, src.grid.nodes, src.values)


def _block_solver(grid: FDGrid, c0: float):
    """Direct solve of (c0 I + L) u = rhs by fast diagonalization in y.

    The reflected y operator Dy Dy is diagonal in the DCT-I basis
    V[i, j] = cos(pi i j / My), with eigenvalues (2 - 2 cos(j pi / My))^2 / hy^4,
    so the system splits into My + 1 dense x-blocks (c0 + mu_j) I + Ax, one per
    cosine; the nonlocal x operator Ax is non-normal and stays dense.  Each
    block is inverted once, and a solve is a transform along y, one batched
    product with the inverses and the transform back.
    """
    j = np.arange(grid.My + 1)
    V = np.cos(np.pi * np.outer(j, j) / grid.My)
    w = _trapezoid(grid.My, 1.0)
    V_inv = (2.0 / grid.My) * w[:, None] * V * w[None, :]  # DCT-I is its own inverse up to weights
    mu = (2.0 - 2.0 * np.cos(np.pi * j / grid.My)) ** 2 / grid.hy**4
    Dx = _second_difference(grid.Mx, coupled=True).toarray()
    Ax = (Dx @ Dx) / grid.hx**4
    try:
        blocks = np.linalg.inv((c0 + mu)[:, None, None] * np.eye(grid.Mx) + Ax)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"block inversion failed: {exc}") from exc
    if not np.all(np.isfinite(blocks)):
        raise SingularSystem("block inversion returned non-finite entries")

    def solve(rhs: np.ndarray) -> np.ndarray:
        coef = V_inv @ rhs.reshape(grid.Mx, grid.My + 1).T  # one row per cosine
        coef = (blocks @ coef[:, :, None])[:, :, 0]
        return (V @ coef).T.reshape(-1)

    return solve


def fdm_forward(problem: ProblemData, grid: FDGrid) -> FieldHistory:
    """March the implicit L1 / central-difference scheme.

    Each step solves (c0 I + L) u = rhs with the y-diagonalized block solver
    of ``_block_solver``, set up once per march, and refines the result once
    against the sparse operator L of ``_spatial_operator``.  The source is
    evaluated once per march: each separable term's spatial factor on the
    nodes and its time factor at the step times.  The L1 history at step p
    is the Toeplitz sum sum_{j<p} c_{p-j} (u_j - u_{j-1}); it is taken in
    blocks of ``_HISTORY_BLOCK`` steps: at the start of a block one matrix
    product gives every step in it the contribution of all earlier blocks,
    and each step adds the at most ``_HISTORY_BLOCK - 1`` terms of its own.
    """
    xs = grid.xs[:-1]
    ys = grid.ys
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    dof = grid.Mx * (grid.My + 1)

    L = _spatial_operator(grid)
    tau = grid.tau
    c = l1_weights(problem.op, tau, grid.N)  # coefficient of the difference m steps back
    c0 = float(c[0])
    solve = _block_solver(grid, c0)

    step_times = np.arange(grid.N + 1) * tau
    g_vals = np.array([g(X, Y).reshape(dof) for g, _ in problem.source.terms])
    h_vals = problem.source.time_factors(step_times)

    a_vals = _amplitude_on(grid, problem)
    u = problem.phi(X, Y).reshape(dof)
    diffs = np.zeros((grid.N + 1, dof))
    out = np.empty((grid.N + 1, grid.Mx + 1, grid.My + 1))

    def store(p: int, flat: np.ndarray) -> None:
        plane = flat.reshape(grid.Mx, grid.My + 1)
        out[p, :-1, :] = plane
        out[p, -1, :] = plane[0, :]  # value coupling at the nonlocal edge

    store(0, u)
    for start in range(1, grid.N + 1, _HISTORY_BLOCK):
        stop = min(start + _HISTORY_BLOCK, grid.N + 1)
        # far[i]: history of step start + i over the differences 1..start-1
        lags = np.arange(start, stop)[:, None] - np.arange(1, start)[None, :]
        far = c[lags] @ diffs[1:start]
        for p in range(start, stop):
            rhs = a_vals[p] * (h_vals[:, p] @ g_vals) + c0 * u - far[p - start]
            if p > start:
                rhs -= c[p - start:0:-1] @ diffs[start:p]
            new = solve(rhs)
            new += solve(rhs - (c0 * new + L @ new))
            if not np.all(np.isfinite(new)):
                raise StepRejected(f"non-finite solution at step {p}")
            if np.linalg.norm(new) > _GROWTH_LIMIT * max(1.0, np.linalg.norm(u)):
                raise StepRejected(f"norm growth beyond {_GROWTH_LIMIT:g} at step {p}")
            diffs[p] = new - u
            u = new
            store(p, u)

    return FieldHistory(grid=grid, values=out)


@dataclass
class ErrorReport:
    """Relative errors of the spectral solution against the FD reference."""

    times: list[float]
    l2: list[float]
    sup: list[float]

    @property
    def max_l2(self) -> float:
        return max(self.l2)


def step_indices(times, *grids) -> list[tuple[int, ...]]:
    """Step index of each time on every grid (a TimeGrid or an FDGrid);
    ValueError unless each time is a node of all of them."""
    out = []
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        steps = tuple(int(round(t / g.tau)) for g in grids)
        if not all(abs(p * g.tau - t) < 1e-9 * g.T for p, g in zip(steps, grids)):
            raise ValueError(f"t = {t:g} is not a node of every time grid")
        out.append(steps)
    return out


def compare(bundle: SolutionBundle, history: FieldHistory, times) -> ErrorReport:
    """Sample the spectral expansion at the FD nodes at the requested times
    and report relative L2 and sup discrepancies (normalized by the FD
    solution's norms, with an absolute fallback for vanishing fields)."""
    grid = history.grid
    tgrid = bundle.energy.grid
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    wgt = np.outer(_trapezoid(grid.Mx, grid.hx), _trapezoid(grid.My, grid.hy))

    out_t, out_l2, out_sup = [], [], []
    times = np.atleast_1d(np.asarray(times, dtype=float))
    for t, (p, j) in zip(times, step_indices(times, grid, tgrid)):
        ref = history.values[p]
        spec = synthesize(bundle.coeffs, pts, j)
        diff = spec - ref
        ref_l2 = math.sqrt(float(np.sum(wgt * ref**2)))
        ref_sup = float(np.max(np.abs(ref)))
        out_t.append(float(t))
        out_l2.append(
            math.sqrt(float(np.sum(wgt * diff**2))) / max(ref_l2, 1e-300)
            if ref_l2 > 0.0
            else float(np.max(np.abs(diff)))
        )
        out_sup.append(
            float(np.max(np.abs(diff))) / max(ref_sup, 1e-300)
            if ref_sup > 0.0
            else float(np.max(np.abs(diff)))
        )
    return ErrorReport(times=out_t, l2=out_l2, sup=out_sup)
