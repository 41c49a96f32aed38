"""Bi-orthogonal spectral machinery on the unit square.

The fourth-order operator with value/second-derivative coupling between the
faces x = 0 and x = 1 is not self-adjoint; its root functions come in three
families (indexed Zero / Odd / Even) that pair with a conjugate family into a
bi-orthonormal system.  This module evaluates both families, projects data
onto the conjugate functions, synthesizes fields from coefficients, and fits
coefficient-decay exponents as a regularity diagnostic.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .fractional import QuadratureFailure, TimeGrid, TimeSeries, _gauss01


class MissingCoefficient(KeyError):
    """A mode index lies outside the truncation box of the coefficients."""


class InsufficientData(ValueError):
    """Too few populated shells to fit decay exponents."""


class Family(enum.Enum):
    """The three bi-orthogonal families: indices 0k, (2n-1)k and 2nk."""

    Zero = "zero"
    Odd = "odd"
    Even = "even"


@dataclass(frozen=True, order=True)
class ModeIndex:
    family: Family
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.family is Family.Zero:
            if self.n != 0:
                raise ValueError("family Zero carries no x-index; use n=0")
        elif self.n < 1:
            raise ValueError(f"n must be >= 1 for {self.family}, got {self.n}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")


@dataclass(frozen=True)
class EigenData:
    mu_k: float
    lambda_n: float
    sigma_nk: float


def eigen(index: ModeIndex) -> EigenData:
    """Eigenvalues mu_k = (k pi)^4, lambda_n = (2 n pi)^4 and their sum."""
    mu = (index.k * math.pi) ** 4
    lam = 0.0 if index.family is Family.Zero else (2 * index.n * math.pi) ** 4
    return EigenData(mu_k=mu, lambda_n=lam, sigma_nk=mu + lam)


def _y_factor(k: int, y) -> np.ndarray:
    # k = 0 takes normalization 1 (the constant member of the Neumann cosine
    # basis); k >= 1 takes the usual sqrt(2) normalization.
    if k == 0:
        return np.ones_like(np.asarray(y, dtype=float))
    return math.sqrt(2.0) * np.cos(k * math.pi * np.asarray(y, dtype=float))


def _z_x_factor(family: Family, n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if family is Family.Zero:
        return np.ones_like(x)
    if family is Family.Odd:
        return np.cos(2 * n * math.pi * x)
    return x * np.sin(2 * n * math.pi * x)


def _w_x_factor(family: Family, n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if family is Family.Zero:
        return 2.0 * (1.0 - x)
    if family is Family.Odd:
        return 4.0 * (1.0 - x) * np.cos(2 * n * math.pi * x)
    return 4.0 * np.sin(2 * n * math.pi * x)


def eval_Z(index: ModeIndex, x, y) -> np.ndarray:
    """Evaluate the root function Z at points of the closed unit square."""
    return _z_x_factor(index.family, index.n, x) * _y_factor(index.k, y)


def eval_W(index: ModeIndex, x, y) -> np.ndarray:
    """Evaluate the conjugate function W paired with Z at the same index."""
    return _w_x_factor(index.family, index.n, x) * _y_factor(index.k, y)


def mode_mean(index: ModeIndex) -> float:
    """Closed-form integral of Z over the unit square.

    Only k = 0 modes have nonzero mean: the Zero mode is the constant 1 and
    the Even modes integrate to -1/(2 n pi); the Odd cosines are mean-free.
    """
    if index.k != 0:
        return 0.0
    if index.family is Family.Zero:
        return 1.0
    if index.family is Family.Even:
        return -1.0 / (2 * index.n * math.pi)
    return 0.0


def enumerate_modes(n_max: int, k_max: int) -> list[ModeIndex]:
    """All mode indices in the truncation box: the Zero family, then per
    (n, k) each Even mode right before the Odd mode it couples to, which is
    the order the forward solver needs.  A fresh list of the box's one
    tuple (:func:`_box`)."""
    return list(_box(n_max, k_max)[0])


# A run uses one or two boxes (the solve's, and an inverse run's flux box).
@lru_cache(maxsize=16)
def _box(n_max: int, k_max: int) -> tuple[tuple[ModeIndex, ...], dict]:
    """The truncation box's modes in ``enumerate_modes`` order, and the row
    of each.  Cached: treat as read-only."""
    modes = [ModeIndex(Family.Zero, 0, k) for k in range(k_max + 1)]
    for n in range(1, n_max + 1):
        for k in range(k_max + 1):
            modes += [ModeIndex(Family.Even, n, k), ModeIndex(Family.Odd, n, k)]
    return tuple(modes), {index: r for r, index in enumerate(modes)}


# fields ----------------------------------------------------------------------


class Field2D:
    """Scalar field on the closed unit square.

    Either wraps an analytic callable of vectorized (x, y) or a tabulated
    rectangular grid of values with bilinear interpolation; a tabulated grid
    must cover the square, as it is never extrapolated.  Calls broadcast
    (x, y) to one shape before the wrapped callable sees them.
    """

    def __init__(self, fn, description: str = "analytic"):
        self._fn = fn
        self.description = description

    @classmethod
    def analytic(cls, fn, description: str = "analytic") -> "Field2D":
        return cls(fn, description)

    @classmethod
    def constant(cls, c: float) -> "Field2D":
        return cls(lambda x, y: np.full(x.shape, c), f"constant {c}")

    @classmethod
    def tabulated(cls, xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> "Field2D":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.size < 2 or ys.size < 2:
            raise ValueError("tabulated fields need at least a 2x2 grid")
        if values.shape != (xs.size, ys.size):
            raise ValueError(
                f"value grid shape {values.shape} does not match axes "
                f"({xs.size}, {ys.size})"
            )
        for name, axis in (("x", xs), ("y", ys)):
            if not np.all(np.isfinite(axis)):
                raise ValueError(
                    f"tabulated {name} axis holds {axis[~np.isfinite(axis)][0]}"
                )
            if axis.min() > 0.0 or axis.max() < 1.0:
                raise ValueError(
                    f"tabulated {name} axis spans [{axis.min():g}, {axis.max():g}], "
                    "which does not cover [0, 1]"
                )
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"tabulated value at x={xs[i]:g}, y={ys[j]:g} is {values[i, j]}"
            )
        # imported here, its only use: scipy.interpolate loads scipy.optimize
        # too, which costs every process that imports the package time and memory
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator((xs, ys), values, method="linear")

        def fn(x, y):
            return interp(np.stack([x.ravel(), y.ravel()], axis=-1)).reshape(x.shape)

        return cls(fn, f"tabulated {xs.size}x{ys.size}")

    @classmethod
    def from_csv(cls, path) -> "Field2D":
        """Load a tabulated field from CSV.

        Two layouts are accepted: a header ``x,y,value`` followed by one row
        per grid point (the points must form a full rectangular grid), or a
        bare rectangular block of values assumed uniform over the square with
        rows indexing x and columns indexing y.
        """
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
        if not rows:
            raise ValueError(f"{path}: empty field file")
        header = [c.strip().lower() for c in rows[0]]
        if header == ["x", "y", "value"]:
            if len(rows) == 1 or any(len(r) != 3 for r in rows[1:]):
                raise ValueError(f"{path}: expected rows of x, y and value")
            data = np.array([[float(c) for c in r] for r in rows[1:]])
            xs = np.unique(data[:, 0])
            ys = np.unique(data[:, 1])
            if data.shape[0] != xs.size * ys.size:
                raise ValueError(f"{path}: points do not form a full grid")
            grid = np.zeros((xs.size, ys.size))
            filled = np.zeros(grid.shape, dtype=bool)
            ix = np.searchsorted(xs, data[:, 0])
            iy = np.searchsorted(ys, data[:, 1])
            grid[ix, iy] = data[:, 2]
            filled[ix, iy] = True
            if not np.all(filled):
                raise ValueError(f"{path}: grid has missing entries")
            return cls.tabulated(xs, ys, grid)
        block = np.array([[float(c) for c in r] for r in rows])
        xs = np.linspace(0.0, 1.0, block.shape[0])
        ys = np.linspace(0.0, 1.0, block.shape[1])
        return cls.tabulated(xs, ys, block)

    def __call__(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return np.asarray(self._fn(x, y), dtype=float)


# projection and synthesis ----------------------------------------------------


def _gauss_moments(field: Field2D, q: int, x_factors, y_factors) -> np.ndarray:
    """Integrals of field(x, y) * X_i(x) * Y_j(y) over the unit square for
    every pair of factors, by q-point tensor Gauss-Legendre: one field
    evaluation and two matrix products."""
    g, w = _gauss01(q)
    X, Y = np.meshgrid(g, g, indexing="ij")
    xw = np.stack([fn(g) for fn in x_factors]) * w
    yw = np.stack([fn(g) for fn in y_factors]) * w
    return xw @ field(X, Y) @ yw.T


_DOUBLING_TOL = 1e-9  # absolute agreement of every quadrature with its doubled rule


def _nodes_for(n: int, k: int) -> int:
    """Gauss-Legendre nodes per axis that resolve the factors of mode (n, k)."""
    return max(32, 4 * max(2 * n, k))


def project_modes(field: Field2D, modes: list[ModeIndex]) -> np.ndarray:
    """Coefficients <field, W_i> for every mode in ``modes``, in order.

    Each mode is integrated with q = ``_nodes_for(n, k)`` Gauss-Legendre
    nodes per axis, enough to resolve its oscillatory factors.  Modes that
    share q share one field evaluation at q and one at 2q nodes: W is the
    product X_n(x) Y_k(y), so each coefficient is an entry of
    (X w) F (Y w)^T.  Every coefficient must agree between q and 2q nodes to
    1e-9 absolutely; otherwise QuadratureFailure names the first mode that
    does not.
    """
    groups: dict[int, list[int]] = {}
    for pos, index in enumerate(modes):
        groups.setdefault(_nodes_for(index.n, index.k), []).append(pos)
    coarse = np.empty(len(modes))
    fine = np.empty(len(modes))
    for q, positions in groups.items():
        group = [modes[p] for p in positions]
        xkeys = list(dict.fromkeys((i.family, i.n) for i in group))
        ks = list(dict.fromkeys(i.k for i in group))
        rows = [xkeys.index((i.family, i.n)) for i in group]
        cols = [ks.index(i.k) for i in group]
        x_factors = [partial(_w_x_factor, family, n) for family, n in xkeys]
        y_factors = [partial(_y_factor, k) for k in ks]
        for nodes, out in ((q, coarse), (2 * q, fine)):
            moments = _gauss_moments(field, nodes, x_factors, y_factors)
            out[positions] = moments[rows, cols]
    bad = np.flatnonzero(~(np.abs(coarse - fine) <= _DOUBLING_TOL))
    if bad.size:
        i = bad[0]
        raise QuadratureFailure(
            f"projection onto {modes[i]} unstable under node doubling: "
            f"{coarse[i]:.12g} vs {fine[i]:.12g} ({bad.size} of {len(modes)} "
            "modes fail)"
        )
    return fine


def project(field: Field2D, index: ModeIndex) -> float:
    """Coefficient <field, W_index>; see ``project_modes``."""
    return float(project_modes(field, [index])[0])


def snap_tiny(coeffs: np.ndarray, scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Copy of ``coeffs`` with each entry whose contribution |c| * scale is at
    most 1e-12 of the largest one set to zero: quadrature roundoff, not data,
    that would seed cancellation-dominated convolutions.  ``scale`` broadcasts
    against ``coeffs``; a separable source scales each term's row of spatial
    coefficients by that term's max |h(t)|."""
    contrib = np.abs(coeffs) * scale
    return np.where(contrib <= 1e-12 * np.max(contrib, initial=0.0), 0.0, coeffs)


class SpectralCoefficients:
    """Coefficients over a truncation box as one array.

    ``values`` holds one row per mode of ``enumerate_modes(N_max, K_max)``:
    shape (modes,) for static data (projections of phi) or (modes, N+1) on
    ``grid`` for time-dependent data (source coefficients, mode trajectories).
    """

    def __init__(self, N_max: int, K_max: int, values, grid: TimeGrid | None = None):
        self.N_max, self.K_max, self.grid = N_max, K_max, grid
        self.modes, self._rows = _box(N_max, K_max)
        self.values = np.asarray(values, dtype=float)
        shape = (len(self.modes),) + (() if grid is None else (grid.N + 1,))
        if self.values.shape != shape:
            raise ValueError(
                f"expected coefficients of shape {shape} for the box "
                f"({N_max}, {K_max}), got {self.values.shape}"
            )

    def __getitem__(self, index: ModeIndex):
        """The coefficient of ``index``: a float, or a TimeSeries viewing its row."""
        try:
            row = self.values[self._rows[index]]
        except KeyError:
            raise MissingCoefficient(f"{index} outside the truncation box") from None
        return float(row) if self.grid is None else TimeSeries(self.grid, row)

    @property
    def data(self) -> dict:
        """Read-only ``{index: self[index]}`` view; series share the array."""
        return {index: self[index] for index in self.modes}

    def indices(self) -> list[ModeIndex]:
        return sorted(self.modes, key=lambda i: (i.family.value, i.n, i.k))

    def mean(self):
        """Integral of the truncated expansion over the unit square,
        sum_i mode_mean(i) * row i: a float, or a TimeSeries on ``grid``."""
        w = np.array([mode_mean(i) for i in self.modes])
        rows = np.flatnonzero(w)
        w = w[rows].reshape((-1,) + (1,) * (self.values.ndim - 1))
        # a series sum along axis 0 adds the rows one after another, in mode order
        total = (w * self.values[rows]).sum(axis=0)
        return float(total) if self.grid is None else TimeSeries(self.grid, total)

    @classmethod
    def project_field(
        cls, field2d: Field2D, n_max: int, k_max: int
    ) -> "SpectralCoefficients":
        modes = enumerate_modes(n_max, k_max)
        return cls(n_max, k_max, snap_tiny(project_modes(field2d, modes)))


def synthesize(
    coeffs: SpectralCoefficients,
    points,
    time_index: int | None = None,
) -> np.ndarray:
    """Evaluate the truncated expansion sum_i c_i Z_i at the given points."""
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    column = coeffs.values
    if coeffs.grid is not None:
        if time_index is None:
            raise ValueError("time-dependent coefficients need a time index")
        column = column[:, time_index]
    values = np.zeros(x.shape)
    for r in np.flatnonzero(column):
        values = values + column[r] * eval_Z(coeffs.modes[r], x, y)
    return values


def _gram_once(modes: list[ModeIndex], q: int) -> np.ndarray:
    # Z and W are both X(x) Y(y), so <Z_i, W_j> is the product of an x Gram
    # and a y Gram, each a q-point Gauss-Legendre sum.
    g, w = _gauss01(q)
    zx = np.stack([_z_x_factor(i.family, i.n, g) for i in modes])
    wx = np.stack([_w_x_factor(i.family, i.n, g) for i in modes])
    y = np.stack([_y_factor(i.k, g) for i in modes])
    return ((zx * w) @ wx.T) * ((y * w) @ y.T)


def biorthogonality_matrix(N: int, K: int) -> np.ndarray:
    """Gram matrix <Z_i, W_j> over the truncation box; identity when the
    families are bi-orthonormal.  Row/column order follows enumerate_modes.

    All modes share one Gauss rule sized for the highest frequency, and the
    matrix is the entrywise product of a 1-D x Gram and a 1-D y Gram; the
    node count is doubled once and the two results must agree entrywise to
    1e-9.
    """
    modes = enumerate_modes(N, K)
    q = _nodes_for(N, K)
    g1 = _gram_once(modes, q)
    g2 = _gram_once(modes, 2 * q)
    if np.max(np.abs(g1 - g2)) > _DOUBLING_TOL:
        raise QuadratureFailure("Gram matrix unstable under node doubling")
    return g2


# decay diagnostics -----------------------------------------------------------


class DatumKind(enum.Enum):
    SourceF = "source"
    InitialPhi = "initial"


@dataclass
class DecayReport:
    datum_kind: DatumKind
    k_exponent: float
    joint_exponent: float
    predicted_k_exponent: float
    predicted_joint_exponent: float

    @property
    def k_ok(self) -> bool:
        return self.k_exponent <= self.predicted_k_exponent

    @property
    def joint_ok(self) -> bool:
        return self.joint_exponent <= self.predicted_joint_exponent


def decay_report(coeffs: SpectralCoefficients, datum_kind: DatumKind) -> DecayReport:
    """Fit decay exponents of the coefficient magnitudes.

    The k-exponent comes from log|h_0k| against log k over the Zero family;
    the joint exponent from log|h_(2n-1)k| against log(nk) over the Odd
    family with n, k >= 1.  A time-dependent coefficient's magnitude is its
    largest absolute value.  Magnitudes below a floor relative to the largest
    coefficient are treated as exact zeros and excluded.
    """
    peaks = np.abs(coeffs.values).reshape(len(coeffs.modes), -1).max(axis=1)
    mags = dict(zip(coeffs.modes, peaks.tolist()))
    floor = 1e-13 * max(mags.values())

    zero_pts = [
        (math.log(i.k), math.log(m))
        for i, m in mags.items()
        if i.family is Family.Zero and i.k >= 1 and m > floor
    ]
    odd_pts = [
        (math.log(i.n * i.k), math.log(m))
        for i, m in mags.items()
        if i.family is Family.Odd and i.n >= 1 and i.k >= 1 and m > floor
    ]

    def fit(pts, label):
        shells = {round(a, 12) for a, _ in pts}
        if len(shells) < 4:
            raise InsufficientData(
                f"only {len(shells)} populated shells for the {label} fit"
            )
        a = np.array([p[0] for p in pts])
        b = np.array([p[1] for p in pts])
        return float(np.polyfit(a, b, 1)[0])

    if datum_kind is DatumKind.InitialPhi:
        predicted_k, predicted_joint = -2.0, -1.0
    else:
        predicted_k, predicted_joint = -1.0, -1.0
    return DecayReport(
        datum_kind=datum_kind,
        k_exponent=fit(zero_pts, "k-decay"),
        joint_exponent=fit(odd_pts, "joint-decay"),
        predicted_k_exponent=predicted_k,
        predicted_joint_exponent=predicted_joint,
    )
