"""Brute-force finite-difference reference solver for the forward problem.

A fully discrete cross-check for the spectral construction: the fourth-order
spatial operator as squared second-order central differences, with ghost nodes
eliminated through the boundary conditions, and an implicit L1 discretization
of the multi-term Caputo derivative in time.  The march runs in a closed-form
basis, the DCT-I along y and along x the Jordan basis of the nonlocal second
difference (the discrete pairs cos 2 pi n x, x sin 2 pi n x), where a step
matrix is diagonal but for one coupling per pair.  A probe checks the basis
operator against the sparse operator once per march.  One worker thread per
march sums the far L1 history of the next block of steps while the main
thread marches the current one.  The scheme shares no code path with the
spectral solver, so their agreement is meaningful evidence.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .forward import ProblemData, SolutionBundle
from .fractional import TimeGrid, TimeSeries, l1_weights, whole_number
from .spectral import synthesize


class SingularSystem(RuntimeError):
    """The implicit step matrix could not be inverted."""


class StepRejected(RuntimeError):
    """The solution norm exploded in a single step (instability guard)."""


_GROWTH_LIMIT = 1e6
# Steps per block of the L1 history sum in fdm_forward, and per sub-block of
# a block.  On a 64 x 64 grid with 1024 steps (one BLAS thread, the far
# history in the worker; medians of 12-30 round-robin marches, four runs),
# no pair of blocks 32/64/128 and sub-blocks 4/8/16 beats 64/8 by more than
# 7 %, and never outside the quartiles; blocks of 128 take -2 to +22 %.
# Without sub-blocks the march takes about 26 % longer.
_HISTORY_BLOCK = 64
_HISTORY_SUB_BLOCK = 8
# Largest relative gap, on a fixed probe, between the step operator applied
# in the x-Jordan x y-cosine basis and c0 I + _spatial_operator.
_PROBE_RTOL = 1e-10


@dataclass(frozen=True)
class FDGrid:
    """Uniform tensor grid: Mx, My spatial intervals, N time intervals."""

    Mx: int
    My: int
    N: int
    T: float = 1.0

    def __post_init__(self):
        for name in ("Mx", "My", "N"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        if self.Mx < 8 or self.My < 8:
            raise ValueError("need at least 8 intervals per spatial axis")
        if self.N < 1 or not 0.0 < self.T < math.inf:
            raise ValueError(f"need N >= 1 time intervals and finite T > 0, got T={self.T}")

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
        raise ValueError("forward solve needs a known amplitude a(t)")
    src = problem.amplitude
    if abs(src.grid.T - grid.T) > 1e-12 * max(src.grid.T, grid.T):
        raise ValueError("amplitude horizon does not match the FD grid")
    return np.interp(grid.times, src.grid.nodes, src.values)


def _jordan_basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Jordan basis S of the nonlocal Dx / hx^2 on m nodes (hx = 1 / m), and
    each column's eigenvalue.  With theta_n = 2 pi n / m: the eigenvectors
    c_n(i) = cos(theta_n i) of lam_n = -4 sin^2(theta_n / 2) / hx^2 for
    n = 0..m // 2, then g_n(i) = hx^2 i sin(theta_n i) / (2 sin theta_n) for
    n = 1..(m - 1) // 2, generalized: (Dx / hx^2 - lam_n) g_n = c_n."""
    i, n_c, n_g = np.arange(m), np.arange(m // 2 + 1), np.arange(1, (m + 1) // 2)
    # theta_n i is reduced mod 2 pi before scaling, as in the cosine basis
    cos = np.cos(2.0 * np.pi * (np.outer(i, n_c) % m) / m)
    sin = np.sin(2.0 * np.pi * (np.outer(i, n_g) % m) / m)
    gen = i[:, None] * sin / (2.0 * m**2 * np.sin(2.0 * np.pi * n_g / m))
    n = np.concatenate([n_c, n_g])
    return np.hstack([cos, gen]), -4.0 * m**2 * np.sin(np.pi * n / m) ** 2


@dataclass(frozen=True)
class _StepBasis:
    """The step matrix c0 I + L in the basis S (``_jordan_basis``) along x
    and V (the DCT-I, eigenvalues mu_j of Dy Dy / hy^4) along y: an
    (Mx, My + 1) plane has coefficients S_inv @ plane @ V_inv.  Ax maps g_n
    to lam_n^2 g_n + 2 lam_n c_n, so the step matrix is ``diag`` =
    c0 + lam_k^2 + mu_j plus ``coupling`` = 2 lam_n from the coefficient of
    each g_n (the last P rows) to that of its c_n (rows 1..P)."""

    S: np.ndarray
    S_inv: np.ndarray
    V: np.ndarray
    V_inv: np.ndarray
    diag: np.ndarray  # (Mx, My + 1)
    coupling: np.ndarray  # (P, 1)

    def to_coef(self, plane: np.ndarray) -> np.ndarray:
        return self.S_inv @ plane @ self.V_inv

    def to_plane(self, coef: np.ndarray) -> np.ndarray:
        return self.S @ (coef @ self.V)


def _probe_gap(grid: FDGrid, basis: _StepBasis, c0: float) -> float:
    """Relative gap between the step operator applied in the basis and
    c0 I + _spatial_operator, on a fixed pseudo-random probe.  Rounding
    leaves about 1e-15; one coupling 2 lam_n off by 1e-6 of itself leaves
    1.2e-12 (n = 1) to 2.6e-9 (n = 20) on 64 x 64, 1.2e-8 (n = 1) on 8 x 8."""
    probe = np.random.default_rng(0).standard_normal((grid.Mx, grid.My + 1))
    want = c0 * probe + (_spatial_operator(grid) @ probe.reshape(-1)).reshape(probe.shape)
    coef, P = basis.to_coef(probe), len(basis.coupling)
    step = basis.diag * coef
    step[1:P + 1] += basis.coupling * coef[-P:]
    return float(np.linalg.norm(basis.to_plane(step) - want) / np.linalg.norm(want))


def _step_basis(grid: FDGrid, c0: float) -> _StepBasis:
    """Set up c0 I + L in the x-Jordan x y-cosine basis: S is inverted once,
    and the basis operator must match ``_spatial_operator`` on the probe of
    ``_probe_gap``.  SingularSystem if either fails."""
    j = np.arange(grid.My + 1)
    # i j is reduced mod 2 My before scaling, and 2 - 2 cos is taken as
    # 4 sin^2, which does not cancel at small j
    V = np.cos(np.pi * (np.outer(j, j) % (2 * grid.My)) / grid.My)
    w = _trapezoid(grid.My, 1.0)
    V_inv = (2.0 / grid.My) * w[:, None] * V * w[None, :]  # DCT-I is its own inverse up to weights
    mu = (4.0 * np.sin(0.5 * np.pi * j / grid.My) ** 2) ** 2 / grid.hy**4
    S, lam = _jordan_basis(grid.Mx)
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"x basis inversion failed: {exc}") from exc
    if not np.all(np.isfinite(S_inv)):
        raise SingularSystem("x basis inversion returned non-finite entries")
    coupling = 2.0 * lam[1:(grid.Mx + 1) // 2, None]  # 2 lam_n for the pairs n = 1..P
    basis = _StepBasis(S, S_inv, V, V_inv, c0 + lam[:, None] ** 2 + mu, coupling)
    gap = _probe_gap(grid, basis, c0)
    if not gap <= _PROBE_RTOL:
        raise SingularSystem(
            f"basis operator differs from the sparse operator by {gap:.2e} "
            f"(relative) on the probe, above {_PROBE_RTOL:g}"
        )
    return basis


def _lagged_sums(c: np.ndarray, diffs: np.ndarray, lo: int, hi: int, first: int, last: int) -> np.ndarray:
    """L1 history of steps lo..hi-1 over the differences first..last-1: row
    p - lo is sum_j c[p - j] diffs[j].  One matrix product."""
    lags = np.arange(lo, hi)[:, None] - np.arange(first, last)[None, :]
    return c[lags] @ diffs[first:last]


def fdm_forward(problem: ProblemData, grid: FDGrid) -> FieldHistory:
    """March the implicit L1 / central-difference scheme.

    Each step solves (c0 I + L) u = rhs in the basis of ``_step_basis``, set
    up once per march: it divides by the diagonal, then takes each Jordan
    pair's coupling off its c_n coefficient.  φ, the source's spatial
    factors, u, its differences and the history live in that basis; one
    transform back per step gives the field that is stored and read by the
    step guards.  a(t) and the source's time factors are sampled once, before
    any set-up, and a missing a(t) is refused as ``solve_forward`` does.

    The L1 history at step p is the Toeplitz sum
    sum_{j<p} c_{p-j} (u_j - u_{j-1}), taken in two levels.  At the start of
    each block of ``_HISTORY_BLOCK`` steps two matrix products add what all
    earlier blocks contribute: one over the previous block, and one over
    every block before it, which the worker took while the previous block
    marched.  At the start of each sub-block of ``_HISTORY_SUB_BLOCK`` steps
    one more adds the block's earlier sub-blocks; each step then adds the at
    most ``_HISTORY_SUB_BLOCK - 1`` terms of its own sub-block.  Each split
    depends on the block index only, so a march is the same to the bit from
    run to run.  The worker is joined before the march returns or raises.
    """
    X, Y = np.meshgrid(grid.xs[:-1], grid.ys, indexing="ij")
    tau = grid.tau
    step_times = np.arange(grid.N + 1) * tau
    src = _amplitude_on(grid, problem) * problem.source.time_factors(step_times)
    c = l1_weights(problem.op, tau, grid.N)  # coefficient of the difference m steps back
    c0 = float(c[0])
    basis = _step_basis(grid, c0)
    diag, to_plane, P = basis.diag, basis.to_plane, len(basis.coupling)
    lead = basis.coupling / diag[1:P + 1]  # each c_n takes lead times its g_n off
    g_coef = np.array([basis.to_coef(g(X, Y)).reshape(-1) for g, _ in problem.source.terms])

    plane = problem.phi(X, Y)
    u = basis.to_coef(plane)
    shape = u.shape
    diffs = np.zeros((grid.N + 1, u.size))
    tail = c[_HISTORY_SUB_BLOCK - 1:0:-1].copy()  # c_{S-1}..c_1; np.dot on a reversed view is 4x slower
    out = np.empty((grid.N + 1, grid.Mx + 1, grid.My + 1))
    out[0, :-1] = plane
    norm = np.linalg.norm(plane)
    with ThreadPoolExecutor(max_workers=1) as pool:
        early = None  # the worker's sum for this block, over all blocks before the previous one
        for start in range(1, grid.N + 1, _HISTORY_BLOCK):
            stop = min(start + _HISTORY_BLOCK, grid.N + 1)
            far = _lagged_sums(c, diffs, start, stop, max(1, start - _HISTORY_BLOCK), start)
            if early is not None:
                far += early.result()
            hi = min(stop + _HISTORY_BLOCK, grid.N + 1)
            early = pool.submit(_lagged_sums, c, diffs, stop, hi, 1, start) if 1 < start and stop < hi else None
            for sub in range(start, stop, _HISTORY_SUB_BLOCK):
                sub_stop = min(sub + _HISTORY_SUB_BLOCK, stop)
                near = far[sub - start:sub_stop - start] + _lagged_sums(c, diffs, sub, sub_stop, start, sub)
                for p in range(sub, sub_stop):
                    hist = near[p - sub]
                    if p > sub:
                        hist = hist + np.dot(tail[sub - p:], diffs[sub:p])
                    rhs = (np.dot(src[:, p], g_coef) - hist).reshape(shape) + c0 * u
                    new = rhs / diag
                    new[1:P + 1] -= lead * new[-P:]
                    plane = to_plane(new)
                    new_norm = np.linalg.norm(plane)
                    # a finite norm means finite entries; an infinite one may be overflow
                    if not np.isfinite(new_norm) and not np.isfinite(plane).all():
                        raise StepRejected(f"non-finite solution at step {p}")
                    if new_norm > _GROWTH_LIMIT * max(1.0, norm):
                        raise StepRejected(f"norm growth beyond {_GROWTH_LIMIT:g} at step {p}")
                    diffs[p] = (new - u).reshape(-1)
                    u, norm = new, new_norm
                    out[p, :-1] = plane
    out[:, -1] = out[:, 0]  # value coupling at the nonlocal edge

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
