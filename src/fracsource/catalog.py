"""Named analytic inputs for the solvers and the CLI.

All catalog fields are smooth closed forms whose regularity and boundary
compatibility can be guaranteed symbolically, which is what the solution
theory requires of the data.  Space-time sources are stored as sums of
separable terms g(x, y) * h(t) so each spatial factor is projected once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fractional import FractionalOperatorSpec, TimeGrid, caputo_power
from .spectral import (
    Field2D,
    SpectralCoefficients,
    enumerate_modes,
    project_modes,
    snap_tiny,
)


class UnknownCatalogName(KeyError):
    """Requested catalog entry does not exist."""


# spatial fields --------------------------------------------------------------


def _poly_field(terms) -> Field2D:
    terms = [(float(c), int(px), int(py)) for c, px, py in terms]

    def fn(x, y):
        out = np.zeros(x.shape)
        for c, px, py in terms:
            out = out + c * x**px * y**py
        return out

    return Field2D.analytic(fn, f"poly {terms}")


def _cos_mode_field(n: int, k: int, amplitude: float = 1.0) -> Field2D:
    n, k = int(n), int(k)

    def fn(x, y):
        return amplitude * np.cos(2 * n * math.pi * x) * np.cos(k * math.pi * y)

    return Field2D.analytic(fn, f"cos_mode n={n} k={k}")


def _cos_exp_field(amplitude: float = 1.0) -> Field2D:
    # (1 + cos(2 pi x)) exp(cos(pi y)): periodic-compatible in x, all odd
    # y-derivatives vanish at y = 0 and y = 1, coefficients decay
    # super-algebraically in both indices.
    def fn(x, y):
        return amplitude * (1.0 + np.cos(2 * math.pi * x)) * np.exp(np.cos(math.pi * y))

    return Field2D.analytic(fn, "cos_exp")


_FIELDS = {
    "constant": lambda value=1.0: Field2D.constant(float(value)),
    "poly": lambda terms=((1.0, 0, 0),): _poly_field(terms),
    "cos_mode": _cos_mode_field,
    "cos_exp": _cos_exp_field,
}


def make_field(name: str, params: dict | None = None) -> Field2D:
    """Instantiate a named spatial field from the catalog."""
    try:
        ctor = _FIELDS[name]
    except KeyError:
        raise UnknownCatalogName(
            f"unknown field {name!r}; available: {sorted(_FIELDS)}"
        ) from None
    return ctor(**(params or {}))


# time amplitudes --------------------------------------------------------------


def _poly_t(coeffs=(1.0,)):
    coeffs = [float(c) for c in coeffs]

    def fn(t):
        t = np.asarray(t, dtype=float)
        return sum(c * t**p for p, c in enumerate(coeffs))

    return fn


def _exp_t(rate=1.0, amplitude=1.0):
    def fn(t):
        return amplitude * np.exp(rate * np.asarray(t, dtype=float))

    return fn


_TIME_FNS = {
    "constant": lambda value=1.0: _poly_t((value,)),
    "poly_t": _poly_t,
    "exp_t": _exp_t,
}


def make_time_fn(name: str, params: dict | None = None):
    """Instantiate a named time amplitude from the catalog."""
    try:
        ctor = _TIME_FNS[name]
    except KeyError:
        raise UnknownCatalogName(
            f"unknown time amplitude {name!r}; available: {sorted(_TIME_FNS)}"
        ) from None
    return ctor(**(params or {}))


def time_samples(laws: dict, ts) -> np.ndarray:
    """The time laws ``laws`` (label -> callable of t) at the times ``ts``,
    one row per law; a law that returns a constant is broadcast to ``ts``.
    A law that is not finite at some time (an overflowing exponential)
    raises ``ValueError`` naming its label and the first such time."""
    ts = np.asarray(ts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array([np.broadcast_to(h(ts), ts.shape) for h in laws.values()], dtype=float)
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        row, i = bad[0]
        raise ValueError(f"{list(laws)[row]}: time factor at t={ts[i]:g} is {out[row, i]}")
    return out


# space-time sources -----------------------------------------------------------


@dataclass
class SpaceTimeField:
    """Source term f(x, y, t) stored as a sum of separable terms."""

    terms: tuple  # of (Field2D, callable of t)

    @classmethod
    def static(cls, field: Field2D) -> "SpaceTimeField":
        return cls(terms=((field, _poly_t((1.0,))),))

    @classmethod
    def separable(cls, field: Field2D, time_fn) -> "SpaceTimeField":
        return cls(terms=((field, time_fn),))

    def __call__(self, x, y, t: float) -> np.ndarray:
        out = None
        for g, h in self.terms:
            v = g(x, y) * float(np.asarray(h(t)))
            out = v if out is None else out + v
        return out

    def time_factors(self, ts) -> np.ndarray:
        """Each term's time factor at the times ``ts``, one row per term,
        refused where it is not finite (see ``time_samples``)."""
        return time_samples({f"source term {i}": h for i, (_, h) in enumerate(self.terms)}, ts)

    def term_coefficients(self, grid: TimeGrid, n_max: int, k_max: int) -> tuple:
        """Each term's spatial coefficients over the box, snapped against the
        whole source's scale (see ``snap_tiny``), and its time factor at
        ``grid.nodes``: two arrays with a row per term."""
        hvals = self.time_factors(grid.nodes)
        modes = enumerate_modes(n_max, k_max)
        spatial = snap_tiny(
            np.array([project_modes(g, modes) for g, _ in self.terms]),
            np.max(np.abs(hvals), axis=1, keepdims=True),
        )
        return spatial, hvals

    def coeff_series(self, grid: TimeGrid, n_max: int, k_max: int) -> SpectralCoefficients:
        """Projections f_nk(t) onto the conjugate family, one row per mode:
        the product of the ``term_coefficients``."""
        spatial, hvals = self.term_coefficients(grid, n_max, k_max)
        return SpectralCoefficients(n_max, k_max, spatial.T @ hvals, grid)


# manufactured solutions --------------------------------------------------------


def manufactured_quadratic(op: FractionalOperatorSpec):
    """Manufactured data with exact solution u*(x,y,t) = (1+t^2) cos(2 pi x) cos(pi y).

    The spatial factor satisfies both the nonlocal x-conditions and the
    homogeneous y-conditions, so substituting u* into the equation yields the
    forcing amplitude exactly; the source is returned with a(t) = 1 and the
    full amplitude folded into f's time factor.
    """
    kappa = (2 * math.pi) ** 4 + math.pi**4

    def time_amp(t):
        return kappa * (1.0 + np.asarray(t, dtype=float) ** 2) + caputo_power(op, 2.0, t)

    phi = _cos_mode_field(1, 1)
    source = SpaceTimeField.separable(phi, time_amp)

    def exact(x, y, t):
        return (1.0 + float(t) ** 2) * phi(x, y)

    return phi, source, exact
