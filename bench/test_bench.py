"""Tests of the benchmark's own checks, run with ``python3 -m pytest bench``.

Each reference figure the checks use is derived here a second way (scipy
quadrature, closed forms with math.gamma), and every workload's check must
pass on the solver's output and fail on a perturbed copy of it.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad

import checks
import hostspeed
import run
import tracing
import workloads
from fracsource import Family, ModeIndex, TimeGrid

HERE = Path(__file__).resolve().parent


def _phi(x, y):
    return (1.0 + math.cos(2 * math.pi * x)) * math.exp(math.cos(math.pi * y))


def _f(x, y):
    return 1.0 + x * y / 2.0


def _w_zero(k):
    yk = (lambda y: 1.0) if k == 0 else (lambda y: math.sqrt(2.0) * math.cos(k * math.pi * y))
    return lambda x, y: 2.0 * (1.0 - x) * yk(y)


def _integral(fn):
    return dblquad(lambda y, x: fn(x, y), 0.0, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]


# reference figures -------------------------------------------------------------


def test_phi_integral_is_bessel_i0():
    assert checks.PHI_INTEGRAL == pytest.approx(_integral(_phi), rel=1e-11)


@pytest.mark.parametrize("k", [0, 1])
def test_zero_family_projections(k):
    w = _w_zero(k)
    assert checks.PHI_ZERO[k] == pytest.approx(_integral(lambda x, y: _phi(x, y) * w(x, y)), abs=1e-11)
    assert checks.F_ZERO[k] == pytest.approx(_integral(lambda x, y: _f(x, y) * w(x, y)), abs=1e-11)


def test_closed_form_mean_mode_matches_power_series():
    # sigma = 0: T(t) = phi_c + f_c sum_p c_p p! t^(alpha+p) / Gamma(alpha+p+1)
    alpha, amp, ts = 0.55, (1.0, 0.3, -0.1), [0.25, 0.5, 1.0]
    want = [
        checks.PHI_ZERO[0] + checks.F_ZERO[0] * sum(
            c * math.factorial(p) * t ** (alpha + p) / math.gamma(alpha + p + 1)
            for p, c in enumerate(amp)
        )
        for t in ts
    ]
    got = checks.zero_mode_closed_form(alpha, 0, amp, ts)
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_closed_form_unit_order_is_exponential():
    # alpha = 1, a = 1: T' + s T = f_c, T(0) = phi_c
    sig, t = math.pi**4, 0.01
    want = checks.PHI_ZERO[1] * math.exp(-sig * t) + checks.F_ZERO[1] * (1 - math.exp(-sig * t)) / sig
    got = checks.zero_mode_closed_form(1.0, 1, (1.0,), [t])[0]
    assert got == pytest.approx(want, rel=1e-12)


def test_l1_caputo_is_exact_on_linear_signals():
    grid = TimeGrid(1.0, 64)
    got = checks.l1_caputo(2.0 * grid.nodes, grid.tau, 0.6)
    want = 2.0 * grid.nodes ** 0.4 / math.gamma(1.4)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_relative_l2_of_a_uniform_offset():
    ref = np.ones((9, 9))
    assert checks.relative_l2(1.01 * ref, ref, 1 / 8, 1 / 8) == pytest.approx(0.01, rel=1e-12)


# workload checks on real outputs and on perturbed ones ------------------------------


def _scaled_bundle(bundle, factor, energy=False):
    out = copy.deepcopy(bundle)
    if energy:
        out.energy.values *= factor
    else:
        for series in out.coeffs.data.values():
            series.values *= factor
    return out


class _Perturbed:
    """A workload whose operations return a perturbed output."""

    def __init__(self, ops, perturb):
        self.ops, self.perturb = ops, perturb

    def round(self, r):
        perturb = self.perturb

        class Op:
            def __init__(self, op):
                self.op = op

            def prepare(self):
                self.op.prepare()

            def run(self):
                return perturb(self.op.run())

            def check(self, result):
                return self.op.check(result)

        return [Op(op) for op in self.ops]


@pytest.fixture(scope="module")
def single_term_forward():
    op = workloads.ForwardSweep(7, None).round(0)[0]
    assert not op.op.terms
    return op, op.run()


def test_forward_single_term_passes(single_term_forward):
    op, bundle = single_term_forward
    assert bundle.energy.values[0] == pytest.approx(checks.PHI_INTEGRAL, abs=checks.E0_TOL)
    figure, error = op.check(bundle)
    assert error is None and 0.0 < figure <= checks.ODE_RESIDUAL_TOL


def test_forward_zero_modes_match_mpmath(single_term_forward):
    op, bundle = single_term_forward
    idx = [32, 64, 128]
    for k in (0, 1):
        got = bundle.coeffs[ModeIndex(Family.Zero, 0, k)].values
        want = checks.zero_mode_closed_form(op.op.alpha, k, op.amp, op.grid.nodes[idx])
        np.testing.assert_allclose(got[idx], want, rtol=0, atol=1e-12 * np.max(np.abs(got)))


@pytest.mark.parametrize("energy", [False, True])
def test_forward_perturbed_output_fails(single_term_forward, energy):
    op, bundle = single_term_forward
    _, error = op.check(_scaled_bundle(bundle, 1.01, energy=energy))
    assert error is not None


def test_perturbed_operation_counts_as_failed(single_term_forward):
    op, _ = single_term_forward
    res = run.measure(_Perturbed([op], lambda b: _scaled_bundle(b, 1.01)), seconds=0.0)
    assert (res.attempted, res.failed, len(res.errors)) == (1, 1, 1)


def test_inverse_round_trip_and_perturbation(tmp_path):
    workload = workloads.InverseCli(3, tmp_path)
    op = workload.round(0)[0]
    op.prepare()
    table = op.run()
    truth = np.polynomial.polynomial.polyval(table[:, 0], op.amp)
    figure, error = op.check(table)
    assert error is None
    assert figure == pytest.approx(checks.nodal_relerr(table[:, 1], truth))
    assert figure <= checks.INVERSE_RELERR_TOL
    # the bound is criterion 7's 1e-2, so a 2 % scaling must fail
    scaled = table.copy()
    scaled[:, 1] *= 1.02
    assert op.check(scaled)[1] is not None


def test_oracle_gap_and_perturbation():
    op = workloads.OracleCheck(3, None).round(0)[0]
    bundle, history, report = op.run()
    figure, error = op.check((bundle, history, report))
    assert error is None and 0.0 < figure <= checks.ORACLE_L2_TOL
    assert figure == pytest.approx(report.max_l2, rel=checks.ORACLE_REPORT_RTOL)
    shifted = copy.deepcopy(history)
    shifted.values *= 1.01
    assert op.check((bundle, shifted, report))[1] is not None


# tracing and the launcher -----------------------------------------------------------


def test_tracer_counts_and_restores(single_term_forward):
    import fracsource
    from fracsource import forward

    op, _ = single_term_forward
    originals = (fracsource.solve_forward, forward.mode_even, forward.singular_convolve)
    tracer = tracing.install()
    try:
        tracer.op = 0
        fracsource.solve_forward(op.problem)
        tracer.op = -1
    finally:
        tracer.uninstall()
    assert (fracsource.solve_forward, forward.mode_even, forward.singular_convolve) == originals
    metrics = tracing.layer_metrics(tracer, [0], [0])
    assert set(metrics) == set(tracing.LAYER_UNITS)
    assert metrics["forward.mode_solves"] >= 45  # one solve per mode at n = k = 4
    assert metrics["fractional.singular_convolve.calls"] > 0
    assert 0 < metrics["mlf.series.points"] + metrics["mlf.contour.points"] <= (
        metrics["mlf.eval_kernel_grid.points"]
    )


def test_scaled_time_removes_probes_and_rescales():
    sampler = hostspeed.Sampler()
    assert sampler.scaled(2.0, sampler.mark()) == 2.0  # no probe at all
    sampler.samples = [hostspeed.REF_PROBE_S] * 3
    mark = sampler.mark()
    sampler.samples += [2.0 * hostspeed.REF_PROBE_S] * 10  # the host ran at half speed
    wall = 1.0 + 20.0 * hostspeed.REF_PROBE_S
    assert sampler.scaled(wall, mark) == pytest.approx(0.5)
    # a window without a probe falls back to every probe so far
    assert sampler.scaled(1.0, sampler.mark()) == pytest.approx(
        hostspeed.REF_PROBE_S / hostspeed.trimmed_mean(sampler.samples))


def test_trimmed_mean_drops_outliers():
    assert hostspeed.trimmed_mean([1.0] * 18 + [0.0, 100.0]) == 1.0


def test_sampler_probes_while_running():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    count = len(sampler.samples)
    assert count >= 5
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert len(sampler.samples) == count  # stopped


def test_solve_time_averages_slot_medians():
    assert run.solve_time([1.0, 10.0, 3.0, 30.0, 2.0, 20.0], [0, 1, 0, 1, 0, 1]) == pytest.approx(11.0)
    assert run.solve_time([], []) is None


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_UNITS.items())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_launcher_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "forward-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
