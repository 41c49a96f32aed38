"""Command-line front end: config ingestion, dispatch, and result emission.

Configs are JSON documents; numeric tables are emitted as CSV and structured
reports as JSON so every artifact is toolchain-neutral and diffable.
Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
4 compatibility violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import (
    SpaceTimeField,
    UnknownCatalogName,
    make_field,
    make_time_fn,
    time_samples,
)
from .forward import ProblemData, solve_forward
from .fractional import (
    FractionalOperatorSpec,
    GridTooCoarse,
    InvalidOrder,
    InvalidSpec,
    QuadratureFailure,
    TimeGrid,
    TimeSeries,
    whole_number,
)
from .inverse import (
    CompatibilityViolation,
    EnergyDatum,
    MeanTooSmall,
    solve_inverse,
)
from .mlf import (
    ContourFailure,
    InvalidParameters,
    MLParameters,
    NonConvergence,
    RelaxationKernelSpec,
    eval_kernel,
    eval_kernel_grid,
    kernel_antiderivative,
    ml_contour_grid,
    ml_series,
)
from .oracle import FDGrid, SingularSystem, StepRejected, compare, fdm_forward, step_indices
from .spectral import (
    DatumKind,
    Field2D,
    InsufficientData,
    SpectralCoefficients,
    biorthogonality_matrix,
    decay_report,
    synthesize,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_COMPATIBILITY = 4


class ConfigError(ValueError):
    """The config file is malformed or violates an input invariant."""


_VALIDATION_ERRORS = (
    ConfigError,
    UnknownCatalogName,
    InvalidParameters,
    InvalidSpec,
    InvalidOrder,
    MeanTooSmall,
)
_NUMERICAL_ERRORS = (
    NonConvergence,
    ContourFailure,
    QuadratureFailure,
    GridTooCoarse,
    SingularSystem,
    StepRejected,
    InsufficientData,
)


# config parsing ----------------------------------------------------------------


@contextmanager
def _parsing():
    """Report a malformed config value or input file met inside the block (a
    non-numeric order, a grid TimeGrid refuses, a section that is not an
    object, a data path that cannot be read) as a ConfigError, exit 2."""
    try:
        yield
    except (AttributeError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({path}:{exc.lineno}): {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing required field {key!r} in {where}")
    return cfg[key]


def _parse_operator(cfg: dict) -> FractionalOperatorSpec:
    section = _require(cfg, "operator")
    alpha = float(_require(section, "alpha", "operator"))
    terms = tuple(
        (float(psi), float(a_i)) for psi, a_i in section.get("terms", [])
    )
    return FractionalOperatorSpec(alpha, terms)


def _parse_grid(cfg: dict) -> TimeGrid:
    section = _require(cfg, "grid")
    return TimeGrid(float(section.get("T", 1.0)), _require(section, "N", "grid"))


def _parse_field(section, where: str) -> Field2D:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    if "csv" in section:
        path = section["csv"]
        if not Path(path).exists():
            raise ConfigError(f"{where}: file not found: {path}")
        return Field2D.from_csv(path)
    return make_field(_require(section, "name", where), section.get("params"))


def _parse_source(cfg: dict) -> SpaceTimeField:
    section = _require(cfg, "source")
    if isinstance(section, dict):
        section = [section]
    terms = []
    for i, term in enumerate(section):
        where = f"source[{i}]"
        g = _parse_field(_require(term, "field", where), where)
        tsec = term.get("time", {"name": "constant"})
        h = make_time_fn(_require(tsec, "name", where + ".time"), tsec.get("params"))
        terms.append((g, h))
    return SpaceTimeField(terms=tuple(terms))


def _parse_amplitude(cfg: dict, grid: TimeGrid, key: str = "amplitude"):
    section = cfg.get(key)
    if section is None:
        return None
    if "csv" in section:
        return TimeSeries(grid, _read_series_csv(section["csv"], grid))
    fn = make_time_fn(_require(section, "name", key), section.get("params"))
    return TimeSeries(grid, time_samples({key: fn}, grid.nodes)[0])


def _parse_kernel(cfg: dict) -> RelaxationKernelSpec:
    section = _require(cfg, "kernel")
    eta = float(section.get("eta", 1.0))
    terms = tuple(
        (float(m), float(xi)) for m, xi in _require(section, "terms", "kernel")
    )
    return RelaxationKernelSpec(eta, terms)


def _parse_times(cfg: dict) -> np.ndarray:
    section = _require(cfg, "times")
    if isinstance(section, list):
        ts = np.asarray(section, dtype=float)
    else:
        start = float(_require(section, "start", "times"))
        stop = float(_require(section, "stop", "times"))
        count = whole_number(section.get("count", 50), "times.count")
        spacing = section.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"times.spacing must be 'linear' or 'log', got {spacing!r}")
        space = np.geomspace if spacing == "log" else np.linspace
        ts = space(start, stop, count)
    if ts.size == 0:
        raise ConfigError("times selects no evaluation times")
    if not np.all(np.isfinite(ts)):
        raise ConfigError("evaluation times must be finite")
    return ts


def _read_series_csv(path: str, grid: TimeGrid) -> np.ndarray:
    """Values of a (t, value) CSV at the grid nodes by linear interpolation.
    A header row is optional.  Every entry must be finite, and the t column
    must increase strictly and cover [0, T]: the series is never extrapolated."""
    if not Path(path).exists():
        raise ConfigError(f"series file not found: {path}")
    lines = Path(path).read_text().splitlines()
    try:
        np.array("".join(lines[:1]).split(","), dtype=float)
    except ValueError:  # a first row that is not numeric is a header
        del lines[:1]
    raw = np.loadtxt(lines, delimiter=",", ndmin=2)
    if raw.shape[1] < 2:
        raise ConfigError(f"{path}: expected two columns, t and the value")
    if not np.all(np.isfinite(raw[:, :2])):
        raise ConfigError(f"{path}: the t and value columns must be finite")
    t, v = raw[:, 0], raw[:, 1]
    if np.any(np.diff(t) <= 0.0):
        raise ConfigError(f"{path}: the t column is not strictly increasing")
    if t[0] > 0.0 or t[-1] < grid.T:
        raise ConfigError(
            f"{path}: the t column spans [{t[0]:g}, {t[-1]:g}], which does not "
            f"cover [0, {grid.T:g}]"
        )
    return np.interp(grid.nodes, t, v)


# emission ----------------------------------------------------------------------


def _write_csv(path: Path, header: str, columns) -> None:
    """The columns as CSV rows of %.17g values under ``header``, byte for
    byte what ``np.savetxt`` writes, in one formatting of the whole table."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + row * len(table) % tuple(table.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_coeffs(path: Path, coeffs: SpectralCoefficients, grid: TimeGrid) -> None:
    with open(path, "w") as fh:
        fh.write("family,n,k,t,value\n")
        for index in coeffs.indices():
            series = coeffs[index]
            for t, v in zip(grid.nodes, series.values):
                fh.write(f"{index.family.name},{index.n},{index.k},{t:.17g},{v:.17g}\n")


def _write_field_slice(path: Path, coeffs: SpectralCoefficients, time_index: int) -> None:
    xs = np.linspace(0.0, 1.0, 65)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = synthesize(coeffs, np.stack([X, Y], axis=-1), time_index)
    _write_csv(path, "x,y,value", [X.ravel(), Y.ravel(), vals.ravel()])


# commands ----------------------------------------------------------------------


def cmd_mlf_eval(cfg: dict, out: Path) -> int:
    with _parsing():
        spec = _parse_kernel(cfg)
        ts = _parse_times(cfg)
    if np.any(ts < 0.0):
        raise ConfigError("evaluation times must be nonnegative")
    pos = ts > 0.0
    values = np.empty_like(ts)
    values[pos] = eval_kernel_grid(spec, ts[pos])
    values[~pos] = 0.0 if spec.eta > 1.0 else (
        1.0 / math.gamma(spec.eta) if spec.eta == 1.0 else math.inf
    )
    anti = np.zeros_like(ts)
    anti[pos] = eval_kernel_grid(spec.with_eta(spec.eta + 1.0), ts[pos])
    _write_csv(out / "mlf_eval.csv", "t,kernel,antiderivative", (ts, values, anti))
    print(f"wrote {out / 'mlf_eval.csv'} ({ts.size} rows)")
    return EXIT_OK


@_parsing()
def _build_problem(cfg: dict) -> ProblemData:
    op = _parse_operator(cfg)
    grid = _parse_grid(cfg)
    phi = _parse_field(_require(cfg, "phi"), "phi")
    source = _parse_source(cfg)
    source.time_factors(grid.nodes)  # refuses a factor that is not finite on the grid
    modes = cfg.get("modes", {})
    return ProblemData(
        op=op,
        phi=phi,
        source=source,
        grid=grid,
        amplitude=_parse_amplitude(cfg, grid) or TimeSeries(grid, np.ones(grid.N + 1)),
        n_max=modes.get("n_max", 16),
        k_max=modes.get("k_max", 16),
    )


def cmd_forward(cfg: dict, out: Path) -> int:
    problem = _build_problem(cfg)
    bundle = solve_forward(problem)
    grid = problem.grid
    _write_csv(out / "energy.csv", "t,E", (grid.nodes, bundle.energy.values))
    _write_coeffs(out / "coefficients.csv", bundle.coeffs, grid)
    _write_field_slice(out / "field_final.csv", bundle.coeffs, grid.N)
    _write_json(out / "forward_metadata.json", {
        "truncation_tail": bundle.metadata["truncation_tail"],
        "elapsed_seconds": bundle.metadata["elapsed_seconds"],
        "n_max": problem.n_max,
        "k_max": problem.k_max,
        "energy_final": float(bundle.energy.values[-1]),
    })
    print(f"forward solve done; energy(T) = {bundle.energy.values[-1]:.9g}")
    return EXIT_OK


def cmd_inverse(cfg: dict, out: Path) -> int:
    # The energy is carried by the k = 0 modes alone, and none of them
    # couples to a k > 0 mode, so both forward solves below, the synthesis
    # and solve_inverse's, solve the k = 0 box: modes.k_max (still
    # validated) changes nothing this command writes.
    problem = replace(_build_problem(cfg), k_max=0)
    grid = problem.grid
    with _parsing():
        esec = _require(cfg, "energy")
        gen = None
        if "csv" in esec:
            energy = _read_series_csv(esec["csv"], grid)
        elif "synthesize" in esec:
            syn = esec["synthesize"]
            gen_grid = TimeGrid(grid.T, syn.get("N", 2 * grid.N))
            stride = gen_grid.N // grid.N
            if stride * grid.N != gen_grid.N:
                raise ConfigError("synthesis N must be a multiple of the recovery N")
            amp = _parse_amplitude(syn, gen_grid, key="amplitude")
            if amp is None:
                raise ConfigError("energy.synthesize needs an amplitude")
            gen = replace(problem, grid=gen_grid, amplitude=amp)
        else:
            raise ConfigError("energy section needs either 'csv' or 'synthesize'")
        true_amp = _parse_amplitude(cfg, grid, key="amplitude_true")
    if gen is not None:
        energy = solve_forward(gen).energy.values[::stride]

    amplitude, bundle = solve_inverse(problem, EnergyDatum(TimeSeries(grid, energy)))
    _write_csv(out / "amplitude.csv", "t,a", (grid.nodes, amplitude.a.values))
    meta = {
        "energy_residual": amplitude.metadata["energy_residual"],
        "flux_iterations": amplitude.metadata["flux_iterations"],
        "flux_convolutions": amplitude.metadata["flux_convolutions"],
    }
    if true_amp is not None:
        scale = float(np.max(np.abs(true_amp.values)))
        meta["round_trip_error"] = float(
            np.max(np.abs(amplitude.a.values - true_amp.values)) / max(scale, 1e-300)
        )
    _write_json(out / "inverse_metadata.json", meta)
    print(f"recovered amplitude; self-consistency residual = {meta['energy_residual']:.3g}")
    if "round_trip_error" in meta:
        print(f"round-trip error vs supplied amplitude = {meta['round_trip_error']:.3g}")
    return EXIT_OK


# verification suites -------------------------------------------------------------


def _two_parameter_ml(xi: float, eta: float, z: float, kmax: int = 400) -> float:
    """Direct summation of the two-parameter function E_{xi,eta}(z) with
    log-space terms; the verify suite draws arguments in a regime where the
    series is free of catastrophic cancellation."""
    total = 0.0
    logabs = math.log(abs(z)) if z != 0.0 else -math.inf
    for k in range(kmax):
        logterm = k * logabs - math.lgamma(eta + xi * k)
        sign = -1.0 if (z < 0.0 and k % 2 == 1) else 1.0
        total += sign * math.exp(logterm)
        if k > 10 and logterm < math.log(1e-18 * max(abs(total), 1e-30)):
            break
    return total


def suite_biorthonormality(n_max: int = 6, k_max: int = 6, tol: float = 1e-10) -> dict:
    G = biorthogonality_matrix(n_max, k_max)
    dev = float(np.max(np.abs(G - np.eye(G.shape[0]))))
    return {"max_deviation": dev, "passed": dev < tol, "tolerance": tol}


def suite_kernel_antiderivative(draws: int = 20, seed: int = 0, tol: float = 1e-8) -> dict:
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(1, 4))
        terms = tuple(
            (float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.05, 0.95)))
            for _ in range(n)
        )
        spec = RelaxationKernelSpec(float(rng.uniform(0.3, 1.5)), terms)
        t = float(rng.uniform(0.2, 2.0))
        ref = kernel_antiderivative(spec, t)
        with warnings.catch_warnings():
            # the endpoint singularity makes quad report roundoff saturation
            # even when the estimate is far below the target tolerance
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _err = quad(
                lambda s: eval_kernel(spec, s), 0.0, t,
                points=[0.0], limit=400, epsabs=0.0, epsrel=1e-11,
            )
        worst = max(worst, abs(val - ref) / abs(ref))
    return {"max_relative_error": worst, "passed": worst < tol, "tolerance": tol}


def suite_reduction_permutation(draws: int = 50, seed: int = 1, tol: float = 1e-10) -> dict:
    rng = np.random.default_rng(seed)
    worst_red = 0.0
    worst_perm = 0.0
    for _ in range(draws):
        xi = float(rng.uniform(0.4, 1.0))
        eta = float(rng.uniform(0.3, 1.5))
        z = float(-rng.uniform(0.1, 1.5))
        a = ml_series(MLParameters(eta, (xi,)), (z,))
        b = _two_parameter_ml(xi, eta, z)
        worst_red = max(worst_red, abs(a - b) / max(abs(b), 1e-300))

        n = int(rng.integers(2, 4))
        orders = tuple(float(rng.uniform(0.3, 1.0)) for _ in range(n))
        args = tuple(float(-rng.uniform(0.1, 1.0)) for _ in range(n))
        base = ml_series(MLParameters(eta, orders), args)
        perm = rng.permutation(n)
        swapped = ml_series(
            MLParameters(eta, tuple(orders[i] for i in perm)),
            tuple(args[i] for i in perm),
        )
        worst_perm = max(worst_perm, abs(base - swapped) / max(abs(base), 1e-300))
    worst = max(worst_red, worst_perm)
    return {
        "max_reduction_error": worst_red,
        "max_permutation_error": worst_perm,
        "passed": worst < tol,
        "tolerance": tol,
    }


def suite_series_contour(draws: int = 25, seed: int = 2, tol: float = 1e-6) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    refused = 0
    attempts = 0
    while done < draws and attempts < 40 * draws:
        attempts += 1
        n = int(rng.integers(1, 4))
        terms = tuple(
            (float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.2, 0.95)))
            for _ in range(n)
        )
        spec = RelaxationKernelSpec(float(rng.uniform(0.3, 1.5)), terms)
        target = float(rng.uniform(0.5, 5.0))
        # place t so the largest single-term argument lands on the target
        t = min((target / m) ** (1.0 / xi) for m, xi in terms)
        try:
            args = tuple(-m * t**xi for m, xi in terms)
            a = t ** (spec.eta - 1.0) * ml_series(MLParameters(spec.eta, spec.orders), args)
        except NonConvergence:
            # the series refuses when it cannot certify the sum in doubles
            # (heavy cancellation); cross-validate on certifiable draws only
            refused += 1
            continue
        b = float(ml_contour_grid(spec, np.array([t]))[0])
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        done += 1
    return {
        "max_relative_error": worst,
        "comparisons": done,
        "refused_draws": refused,
        "passed": worst < tol and done >= draws,
        "tolerance": tol,
    }


def suite_decay(n_max: int = 12, k_max: int = 12) -> dict:
    phi = make_field("cos_exp")
    phi_coeffs = SpectralCoefficients.project_field(phi, n_max, k_max)
    rep_phi = decay_report(phi_coeffs, DatumKind.InitialPhi)
    f = SpaceTimeField.static(
        make_field("poly", {"terms": ((1.0, 0, 0), (0.5, 1, 1))})
    )
    f_coeffs = f.coeff_series(TimeGrid(1.0, 1), n_max, k_max)
    rep_f = decay_report(f_coeffs, DatumKind.SourceF)
    return {
        "phi_k_exponent": rep_phi.k_exponent,
        "phi_passed": bool(rep_phi.k_ok),
        "f_joint_exponent": rep_f.joint_exponent,
        "f_passed": bool(rep_f.joint_ok),
        "passed": bool(rep_phi.k_ok and rep_f.joint_ok),
    }


_SUITES = {
    "biorthonormality": suite_biorthonormality,
    "kernel-antiderivative": suite_kernel_antiderivative,
    "reduction-permutation": suite_reduction_permutation,
    "series-contour": suite_series_contour,
    "decay": suite_decay,
}


def cmd_verify(cfg: dict, out: Path) -> int:
    names = cfg.get("suites", sorted(_SUITES))
    unknown = [s for s in names if s not in _SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; available: {sorted(_SUITES)}")
    report = {}
    all_ok = True
    for name in names:
        try:
            result = _SUITES[name]()
        except (*_NUMERICAL_ERRORS, ArithmeticError) as exc:
            result = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        report[name] = result
        all_ok &= result["passed"]
        print(f"{name}: {'PASS' if result['passed'] else 'FAIL'}")
    report["passed"] = all_ok
    _write_json(out / "verify.json", report)
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def cmd_oracle_compare(cfg: dict, out: Path, tol: float | None) -> int:
    problem = _build_problem(cfg)
    with _parsing():
        fd = cfg.get("fd", {})
        fd_grid = FDGrid(
            Mx=fd.get("Mx", 32),
            My=fd.get("My", 32),
            N=fd.get("N", problem.grid.N),
            T=problem.grid.T,
        )
        times = cfg.get("times", [problem.grid.T / 2.0, problem.grid.T])
        step_indices(times, fd_grid, problem.grid)
        threshold = tol if tol is not None else float(cfg.get("tol", 0.02))
    bundle = solve_forward(problem)
    history = fdm_forward(problem, fd_grid)
    report = compare(bundle, history, times)
    payload = {
        "times": report.times,
        "relative_l2": report.l2,
        "relative_sup": report.sup,
        "tolerance": threshold,
        "passed": report.max_l2 <= threshold,
    }
    _write_json(out / "oracle_compare.json", payload)
    for t, l2, s in zip(report.times, report.l2, report.sup):
        print(f"t = {t:g}: relative L2 = {l2:.3e}, sup = {s:.3e}")
    return EXIT_OK if payload["passed"] else EXIT_NUMERICAL


_COMMANDS = {
    "mlf-eval": cmd_mlf_eval,
    "forward": cmd_forward,
    "inverse": cmd_inverse,
    "verify": cmd_verify,
    "oracle-compare": cmd_oracle_compare,
}


@lru_cache(maxsize=1)  # once per process: a parser is a web of reference cycles
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsource",
        description="Forward and inverse solvers for a multi-term time-fractional "
        "fourth-order equation with nonlocal boundary conditions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output directory")
    sub.choices["oracle-compare"].add_argument(
        "--tol", type=float, default=None,
        help="relative L2 tolerance, overriding the config's 'tol'",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        with _parsing():  # an out path that names a file cannot be a directory
            out = Path(args.out or cfg.get("out", "out"))
            out.mkdir(parents=True, exist_ok=True)
        options = {"tol": args.tol} if "tol" in args else {}
        return _COMMANDS[args.command](cfg, out, **options)
    except CompatibilityViolation as exc:
        print(f"compatibility violation: {exc}", file=sys.stderr)
        return EXIT_COMPATIBILITY
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
