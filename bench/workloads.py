"""The three benchmark workloads.

Each workload is built once from the seed (set-up), then hands out rounds of
operations.  An operation has an untimed ``prepare`` step that makes its
inputs, a timed ``run`` step that calls the package's public functions or its
CLI entry point, and an untimed ``check`` of the output against the
independent computations in ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks
import fracsource as fs
from fracsource import (
    FDGrid,
    Field2D,
    FractionalOperatorSpec,
    ProblemData,
    SpaceTimeField,
    TimeGrid,
    TimeSeries,
    make_field,
)
from fracsource import cli

# Timed calls go through the package namespace (fs.solve_forward, cli.main),
# never through names bound here, so the traced run sees them.

T = 1.0


def _poly_source() -> SpaceTimeField:
    """f = 1 + xy/2: excites every mode, including the mean-bearing
    associated (Even, k = 0) ones that feed the inverse flux closure."""
    return SpaceTimeField.static(make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))}))


def _amplitude(grid: TimeGrid, coeffs) -> TimeSeries:
    return TimeSeries(grid, np.polynomial.polynomial.polyval(grid.nodes, coeffs))


def _draw_shaped_amplitude(rng, shape) -> tuple[float, ...]:
    """a(t) = c0 (1 + c1 t + c2 t^2) with c0 in [0.9, 1.1] and (c1, c2)
    jittered around ``shape``."""
    c0 = float(rng.uniform(0.9, 1.1))
    return (c0,) + tuple(c0 * (c + float(rng.uniform(-SHAPE_JITTER, SHAPE_JITTER))) for c in shape)


def _draw_amplitude(rng) -> tuple[float, float, float]:
    """a(t) = 1 + c1 t + c2 t^2, at least 0.4 on [0, 1] so relative errors
    stay meaningful."""
    return (1.0, float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.2, 0.2)))


class Operation:
    """One unit of timed work.  ``figure`` is the accuracy figure the check
    produced; ``error`` names the first violated check, if any."""

    def prepare(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def check(self, result) -> tuple[float, str | None]:
        raise NotImplementedError


# forward-sweep ---------------------------------------------------------------

# One round is three operations, one per slot.  A slot fixes the shape of
# the operator, D^alpha + sum psi_i D^alpha_i, by the centres of alpha and of
# each lower-order pair (psi_i, gap alpha_{i-1} - alpha_i), and the shape of
# a(t) = c0 (1 + c1 t + c2 t^2); each draw jitters every centre and draws the
# scale c0.  So every operation is a distinct operator and starts with cold
# kernel tables, every round has the same mix of regimes (single-, two- and
# three-term kernels, alpha from 0.55 to 0.92, psi from 0.3 to 0.8), and the
# figures compare across seeds: the worst mode-ODE residual moves by a factor
# of two with the shape of a(t) (the L1 error on the mean mode dominates it).
# Gaps stay near 0.3: a three-term kernel with gaps 0.17/0.19 at
# alpha = 0.55 took 43 s for one solve instead of 3-5 s (see CHANGES.md).
FORWARD_SLOTS = (
    (0.55, (), (0.3, -0.1)),
    (0.75, ((0.5, 0.32),), (-0.3, 0.1)),
    (0.92, ((0.8, 0.32), (0.3, 0.28)), (0.2, 0.1)),
)
ALPHA_JITTER = 0.005
PSI_JITTER = 0.02
GAP_JITTER = 0.005
SHAPE_JITTER = 0.02
FORWARD_N = 128
FORWARD_MODES = 4


class ForwardOp(Operation):
    def __init__(self, phi, source, rng, slot):
        centre, pairs, shape = slot
        alpha = centre + float(rng.uniform(-ALPHA_JITTER, ALPHA_JITTER))
        terms = []
        order = alpha
        for psi, gap in pairs:
            order -= gap + float(rng.uniform(-GAP_JITTER, GAP_JITTER))
            terms.append((psi + float(rng.uniform(-PSI_JITTER, PSI_JITTER)), order))
        self.op = FractionalOperatorSpec(alpha, tuple(terms))
        self.amp = _draw_shaped_amplitude(rng, shape)
        self.grid = TimeGrid(T, FORWARD_N)
        self.problem = ProblemData(
            op=self.op, phi=phi, source=source, grid=self.grid,
            amplitude=_amplitude(self.grid, self.amp),
            n_max=FORWARD_MODES, k_max=FORWARD_MODES,
        )

    def run(self):
        return fs.solve_forward(self.problem)

    def check(self, bundle) -> tuple[float, str | None]:
        grid = self.grid
        e0 = float(bundle.energy.values[0])
        if abs(e0 - checks.PHI_INTEGRAL) > checks.E0_TOL:
            return float("nan"), f"E(0) = {e0!r}, integral of phi = {checks.PHI_INTEGRAL!r}"
        trajectories = {
            (i.family.value, i.n, i.k): bundle.coeffs[i].values for i in bundle.coeffs.indices()
        }
        if not self.op.terms:
            idx = [grid.N // 4, grid.N // 2, grid.N]
            for k in (0, 1):
                got = trajectories["zero", 0, k]
                want = checks.zero_mode_closed_form(self.op.alpha, k, self.amp, grid.nodes[idx])
                gap = float(np.max(np.abs(got[idx] - want) / np.max(np.abs(got))))
                if not gap <= checks.CLOSED_FORM_RTOL:
                    return float("nan"), f"Zero k={k} off its closed form by {gap:.2e}"
        worst = 0.0
        for index in bundle.coeffs.indices():
            family, n, k = index.family.value, index.n, index.k
            forcing = bundle.forcing_coeffs[index].values
            if family == "odd":  # coupled to the Even mode of the same index
                forcing = forcing + 4.0 * (2 * n * np.pi) ** 3 * trajectories["even", n, k]
            worst = max(worst, checks.scaled_ode_residual(
                trajectories[family, n, k], forcing, checks.sigma(family, n, k),
                self.op.all_terms(), grid.tau, grid.nodes,
            ))
        if not worst <= checks.ODE_RESIDUAL_TOL:
            return worst, f"scaled mode-ODE residual {worst:.2e}"
        return worst, None


class ForwardSweep:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.phi = make_field("cos_exp")
        self.source = _poly_source()

    def round(self, r: int) -> list[Operation]:
        rng = np.random.default_rng([self.seed, r])
        return [ForwardOp(self.phi, self.source, rng, slot) for slot in FORWARD_SLOTS]


# inverse-cli -----------------------------------------------------------------

INVERSE_OP = FractionalOperatorSpec(0.8, ((0.5, 0.4),))
INVERSE_N = 128
INVERSE_MODES = 4


class InverseOp(Operation):
    def __init__(self, workload: "InverseCli", amp):
        self.w = workload
        self.amp = amp

    def prepare(self) -> None:
        # The forward map is linear in (phi, a): E = E[phi, 1] + c1 E[0, t] + c2 E[0, t^2].
        energy = self.w.e_base + sum(c * e for c, e in zip(self.amp[1:], self.w.e_powers))
        grid = self.w.grid
        np.savetxt(self.w.energy_csv, np.column_stack([grid.nodes, energy]),
                   delimiter=",", header="t,E", comments="", fmt="%.17g")

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["inverse", str(self.w.config), "--out", str(self.w.out)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"fracsource inverse exited with code {code}")
        return np.loadtxt(self.w.out / "amplitude.csv", delimiter=",", skiprows=1)

    def check(self, table) -> tuple[float, str | None]:
        t, a = table[:, 0], table[:, 1]
        if not np.allclose(t, self.w.grid.nodes, rtol=0.0, atol=1e-12):
            return float("nan"), "amplitude.csv is not on the recovery grid"
        err = checks.nodal_relerr(a, np.polynomial.polynomial.polyval(t, self.amp))
        if not err <= checks.INVERSE_RELERR_TOL:
            return err, f"recovered a(t) off by {err:.2e}"
        return err, None


class InverseCli:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.grid = TimeGrid(T, INVERSE_N)
        self.config = workdir / "inverse.json"
        self.energy_csv = workdir / "energy.csv"
        self.out = workdir / "inverse_out"
        # Data come from forward solves on the 2N grid (no inverse crime).
        # Only the k = 0 modes carry the spatial mean and none of them couples
        # to k > 0, so k_max = 0 yields the same energy as the full box.
        gen = TimeGrid(T, 2 * INVERSE_N)
        phi = make_field("cos_exp")
        source = _poly_source()
        zero = Field2D.constant(0.0)

        def energy(field, coeffs):
            problem = ProblemData(op=INVERSE_OP, phi=field, source=source, grid=gen,
                                  amplitude=_amplitude(gen, coeffs),
                                  n_max=INVERSE_MODES, k_max=0)
            return fs.solve_forward(problem).energy.values[::2]

        self.e_base = energy(phi, (1.0,))
        self.e_powers = [energy(zero, (0.0,) * p + (1.0,)) for p in (1, 2)]
        with open(self.config, "w") as fh:
            json.dump({
                "operator": {"alpha": INVERSE_OP.alpha, "terms": [list(t) for t in INVERSE_OP.terms]},
                "grid": {"T": T, "N": INVERSE_N},
                "phi": {"name": "cos_exp"},
                "source": {"field": {"name": "poly", "params": {"terms": [[1.0, 0, 0], [0.5, 1, 1]]}}},
                "modes": {"n_max": INVERSE_MODES, "k_max": INVERSE_MODES},
                "energy": {"csv": str(self.energy_csv)},
            }, fh)
        # One untimed command fills the kernel tables the timed ones reuse.
        warm = InverseOp(self, (1.0, 1.0, 0.0))
        warm.prepare()
        warm.run()

    def round(self, r: int) -> list[Operation]:
        rng = np.random.default_rng([self.seed, r])
        return [InverseOp(self, _draw_amplitude(rng))]


# oracle-check ----------------------------------------------------------------

ORACLE_N = 1024
ORACLE_MODES = 16
ORACLE_FD = (64, 64)
ORACLE_TIMES = (T / 4, T / 2, T)
# psi and the shape of a(t) are jittered around fixed values, as in
# forward-sweep: the L2 gap moves by 20 % between psi = 0.3 and psi = 0.9.
ORACLE_PSI = 0.5
ORACLE_SHAPE = (0.3, -0.1)


class OracleOp(Operation):
    def __init__(self, phi, source, rng):
        psi = ORACLE_PSI + float(rng.uniform(-PSI_JITTER, PSI_JITTER))
        amp = _draw_shaped_amplitude(rng, ORACLE_SHAPE)
        self.grid = TimeGrid(T, ORACLE_N)
        self.problem = ProblemData(
            op=FractionalOperatorSpec(0.8, ((psi, 0.4),)), phi=phi, source=source,
            grid=self.grid, amplitude=_amplitude(self.grid, amp),
            n_max=ORACLE_MODES, k_max=ORACLE_MODES,
        )
        self.fd = FDGrid(ORACLE_FD[0], ORACLE_FD[1], ORACLE_N, T)

    def run(self):
        bundle = fs.solve_forward(self.problem)
        history = fs.fdm_forward(self.problem, self.fd)
        return bundle, history, fs.compare(bundle, history, ORACLE_TIMES)

    def check(self, result) -> tuple[float, str | None]:
        bundle, history, report = result
        fd = self.fd
        worst = 0.0
        for t, reported in zip(ORACLE_TIMES, report.l2):
            p = int(round(t / fd.tau))
            j = int(round(t / self.grid.tau))
            modes = [(i.family.value, i.n, i.k, float(bundle.coeffs[i].values[j]))
                     for i in bundle.coeffs.indices()]
            field = checks.spectral_field(modes, fd.xs, fd.ys)
            gap = checks.relative_l2(field, history.values[p], fd.hx, fd.hy)
            if abs(gap - reported) > checks.ORACLE_REPORT_RTOL * gap:
                return gap, f"compare() reports {reported:.6e}, recomputed {gap:.6e}"
            worst = max(worst, gap)
        if not worst <= checks.ORACLE_L2_TOL:
            return worst, f"spectral vs FD L2 gap {worst:.2e}"
        return worst, None


class OracleCheck:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.phi = make_field("cos_exp")
        self.source = SpaceTimeField.static(Field2D.constant(1.0))

    def round(self, r: int) -> list[Operation]:
        rng = np.random.default_rng([self.seed, r])
        return [OracleOp(self.phi, self.source, rng)]


WORKLOADS = {
    "forward-sweep": ForwardSweep,
    "inverse-cli": InverseCli,
    "oracle-check": OracleCheck,
}
