"""End-to-end tests of the command line interface.

Every test drives ``fracsource.cli.main`` with a JSON config written to a
temporary directory and asserts on exit codes and emitted artifacts.
"""

import argparse
import csv
import gc
import json
import math

import numpy as np
import pytest

from fracsource import forward
from fracsource.cli import (
    EXIT_COMPATIBILITY,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    _read_series_csv,
    _write_csv,
    main,
)
from fracsource.catalog import make_field
from fracsource.fractional import TimeGrid
from fracsource.spectral import Family, ModeIndex, SpectralCoefficients, eigen


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _forward_cfg(N=64, n_max=2):
    return {
        "operator": {"alpha": 0.8},
        "grid": {"T": 1.0, "N": N},
        "phi": {"name": "cos_mode", "params": {"n": 1, "k": 1}},
        "source": {"field": {"name": "constant"}},
        "amplitude": {"name": "poly_t", "params": {"coeffs": [1.0, 1.0]}},
        "modes": {"n_max": n_max, "k_max": n_max},
    }


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestMlfEval:
    def test_exponential_special_case(self, tmp_path):
        # eta = 1 with a single unit-order term gives exactly exp(-t)
        cfg = _write_cfg(tmp_path, "c.json", {
            "kernel": {"eta": 1.0, "terms": [[1.0, 1.0]]},
            "times": {"start": 0.1, "stop": 2.0, "count": 8},
        })
        assert main(["mlf-eval", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        rows = _read_csv(tmp_path / "o" / "mlf_eval.csv")
        np.testing.assert_allclose(rows["kernel"], np.exp(-rows["t"]), rtol=1e-10)
        np.testing.assert_allclose(
            rows["antiderivative"], 1.0 - np.exp(-rows["t"]), rtol=1e-8
        )

    def test_negative_time_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, "c.json", {
            "kernel": {"eta": 1.0, "terms": [[1.0, 0.5]]},
            "times": {"start": -1.0, "stop": 1.0, "count": 4},
        })
        assert main(["mlf-eval", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("spacing, code", [
        ("linear", EXIT_OK), ("log", EXIT_OK), ("logarithmic", EXIT_VALIDATION),
    ])
    def test_spacing_is_linear_or_log(self, tmp_path, spacing, code):
        cfg = _write_cfg(tmp_path, "c.json", {
            "kernel": {"eta": 1.0, "terms": [[1.0, 0.5]]},
            "times": {"start": 0.1, "stop": 1.0, "count": 4, "spacing": spacing},
        })
        assert main(["mlf-eval", cfg, "--out", str(tmp_path / "o")]) == code

    @pytest.mark.parametrize("times", [[], {"start": 0.1, "stop": 1.0, "count": 0}])
    def test_no_times_rejected(self, tmp_path, times):
        cfg = _write_cfg(tmp_path, "c.json", {
            "kernel": {"eta": 1.0, "terms": [[1.0, 0.5]]},
            "times": times,
        })
        assert main(["mlf-eval", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o" / "mlf_eval.csv").exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, tmp_path, bad):
        cfg = _write_cfg(tmp_path, "c.json", {
            "kernel": {"eta": 0.8, "terms": [[1.0, 0.5]]},
            "times": [0.5, bad],
        })
        assert main(["mlf-eval", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o" / "mlf_eval.csv").exists()


class TestForward:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = _write_cfg(tmp_path, "c.json", _forward_cfg())
        out = tmp_path / "o"
        assert main(["forward", cfg, "--out", str(out)]) == EXIT_OK
        for name in (
            "energy.csv",
            "coefficients.csv",
            "field_final.csv",
            "forward_metadata.json",
        ):
            assert (out / name).exists()
        meta = json.loads((out / "forward_metadata.json").read_text())
        assert meta["n_max"] == 2
        assert math.isfinite(meta["energy_final"])

    def test_coefficients_csv_reads_back(self, tmp_path, monkeypatch):
        # one line per mode, in indices() order, and node, each value to the bit
        import fracsource.cli as cli

        bundles = []

        def keeping(problem):
            bundles.append(forward.solve_forward(problem))
            return bundles[-1]

        monkeypatch.setattr(cli, "solve_forward", keeping)
        cfg = _write_cfg(tmp_path, "c.json", _forward_cfg(N=16))
        assert main(["forward", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        coeffs = bundles[0].coeffs
        with open(tmp_path / "o" / "coefficients.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["family", "n", "k", "t", "value"]
        assert len(rows) == len(coeffs.modes) * (coeffs.grid.N + 1)
        assert [(f, int(n), int(k), float(t), float(v)) for f, n, k, t, v in rows] == [
            (i.family.name, i.n, i.k, t, v)
            for i in coeffs.indices()
            for t, v in zip(coeffs.grid.nodes.tolist(), coeffs[i].values.tolist())
        ]

    def test_deterministic_reruns(self, tmp_path):
        cfg = _write_cfg(tmp_path, "c.json", _forward_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["forward", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["forward", cfg, "--out", str(out2)]) == EXIT_OK
        for name in ("energy.csv", "coefficients.csv", "field_final.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_operator_ordering(self, tmp_path):
        payload = _forward_cfg()
        # lower-order exponent must stay strictly below alpha
        payload["operator"] = {"alpha": 0.5, "terms": [[1.0, 0.9]]}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["forward", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_field_csv_short_of_the_square_refused(self, tmp_path, capsys):
        # points on [0, 0.5]^2 only: the rest of the square would be extrapolated
        xs = np.linspace(0.0, 0.5, 5)
        lines = ["x,y,value"] + [f"{x},{y},{1.0 + x * y}" for x in xs for y in xs]
        (tmp_path / "phi.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg()
        payload["phi"] = {"csv": str(tmp_path / "phi.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["forward", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert "does not cover [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", ["points", "block"])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_field_csv_non_finite_refused(self, tmp_path, capsys, layout, bad):
        # one entry of a 5 x 5 phi is not finite, in either CSV layout
        xs = np.linspace(0.0, 1.0, 5)
        grid = [[str(1.0 + float(x * y)) for y in xs] for x in xs]
        grid[2][3] = bad
        if layout == "points":
            lines = ["x,y,value"] + [
                f"{x},{y},{grid[i][j]}" for i, x in enumerate(xs) for j, y in enumerate(xs)
            ]
        else:
            lines = [",".join(row) for row in grid]
        (tmp_path / "phi.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg()
        payload["phi"] = {"csv": str(tmp_path / "phi.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["forward", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert f"tabulated value at x=0.5, y=0.75 is {bad}" in capsys.readouterr().err

    def test_overflowing_source_time_factor_refused(self, tmp_path, capsys):
        # exp(1000 t) overflows on the grid: refused while the problem is built
        payload = _forward_cfg()
        payload["source"] = {
            "field": {"name": "constant"},
            "time": {"name": "exp_t", "params": {"rate": 1000.0}},
        }
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["forward", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "source term 0: time factor at t=0.71875 is inf" in err
        assert not (tmp_path / "o" / "energy.csv").exists()

    def test_missing_field_reported(self, tmp_path):
        payload = _forward_cfg()
        del payload["phi"]
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["forward", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["forward", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_tol_rejected(self, tmp_path):
        # only oracle-compare reads a tolerance; elsewhere --tol is a usage error
        cfg = _write_cfg(tmp_path, "c.json", _forward_cfg())
        with pytest.raises(SystemExit) as exc:
            main(["forward", cfg, "--out", str(tmp_path / "o"), "--tol", "1e-3"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


class TestInverse:
    def test_synthesized_round_trip(self, tmp_path):
        payload = _forward_cfg(N=128, n_max=2)
        del payload["amplitude"]
        payload["energy"] = {
            "synthesize": {
                "N": 256,
                "amplitude": {"name": "poly_t", "params": {"coeffs": [1.0, 1.0]}},
            }
        }
        payload["amplitude_true"] = {"name": "poly_t", "params": {"coeffs": [1.0, 1.0]}}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main(["inverse", cfg, "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "inverse_metadata.json").read_text())
        assert meta["round_trip_error"] < 1e-2
        rows = _read_csv(out / "amplitude.csv")
        np.testing.assert_allclose(rows["a"][1:], 1.0 + rows["t"][1:], rtol=1e-2)

    def test_flux_convolutions_written(self, tmp_path):
        # f = (1 + xy/2) + x^3 t: both terms excite the mean-bearing
        # associated modes, so each flux sweep makes two convolutions
        poly = {"name": "poly", "params": {"terms": [[1.0, 0, 0], [0.5, 1, 1]]}}
        cubic = {"name": "poly", "params": {"terms": [[1.0, 3, 0]]}}
        law = {"name": "poly_t", "params": {"coeffs": [1.0, 1.0]}}
        ramp = {"name": "poly_t", "params": {"coeffs": [0.0, 1.0]}}
        payload = {
            "operator": {"alpha": 0.8, "terms": [[0.5, 0.4]]},
            "grid": {"T": 1.0, "N": 32},
            "phi": {"name": "cos_exp"},
            "source": [{"field": poly}, {"field": cubic, "time": ramp}],
            "modes": {"n_max": 2, "k_max": 2},
            "energy": {"synthesize": {"N": 64, "amplitude": law}},
            "amplitude_true": law,
        }
        cfg = _write_cfg(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main(["inverse", cfg, "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "inverse_metadata.json").read_text())
        assert meta["flux_convolutions"] == 2 * meta["flux_iterations"] > 0
        assert meta["round_trip_error"] < 1e-2

    def test_energy_from_csv(self, tmp_path):
        # E = t^alpha / Gamma(1 + alpha) with f = 1 recovers a(t) = 1
        alpha = 0.8
        ts = np.linspace(0.0, 1.0, 65)
        es = ts**alpha / math.gamma(1.0 + alpha)
        lines = ["t,E"] + [f"{t:.17g},{e:.17g}" for t, e in zip(ts, es)]
        (tmp_path / "energy.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg(N=64)
        del payload["amplitude"]
        payload["phi"] = {"name": "constant", "params": {"value": 0.0}}
        payload["energy"] = {"csv": str(tmp_path / "energy.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main(["inverse", cfg, "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out / "amplitude.csv")
        half = rows["t"] >= 0.5
        np.testing.assert_allclose(rows["a"][half], 1.0, rtol=2e-2)

    def test_energy_from_headerless_csv(self, tmp_path):
        # a first row of numbers is data: without the header the datum and
        # the recovered amplitude are the same
        ts = np.linspace(0.0, 1.0, 65)
        rows = [f"{t:.17g},{t**0.8 / math.gamma(1.8):.17g}" for t in ts]
        amplitudes = []
        for name, lines in (("headed", ["t,E"] + rows), ("bare", rows)):
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
            payload = _forward_cfg(N=64)
            del payload["amplitude"]
            payload["phi"] = {"name": "constant", "params": {"value": 0.0}}
            payload["energy"] = {"csv": str(tmp_path / f"{name}.csv")}
            cfg = _write_cfg(tmp_path, f"{name}.json", payload)
            out = tmp_path / name
            assert main(["inverse", cfg, "--out", str(out)]) == EXIT_OK
            amplitudes.append((out / "amplitude.csv").read_text())
        assert amplitudes[0] == amplitudes[1]

    @pytest.mark.parametrize("ts", [
        np.linspace(0.0, 0.5, 33),  # ends at T/2
        np.linspace(0.0, 1.0, 65)[::-1],  # unsorted
    ])
    def test_energy_csv_must_cover_horizon_in_order(self, tmp_path, ts):
        lines = ["t,E"] + [f"{t:.17g},{t:.17g}" for t in ts]
        (tmp_path / "energy.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg(N=64)
        del payload["amplitude"]
        payload["phi"] = {"name": "constant", "params": {"value": 0.0}}
        payload["energy"] = {"csv": str(tmp_path / "energy.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["inverse", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("header", [["t"], []])
    def test_energy_csv_needs_two_columns(self, tmp_path, header):
        lines = header + [f"{t:.17g}" for t in np.linspace(0.0, 1.0, 65)]
        (tmp_path / "energy.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg(N=64)
        del payload["amplitude"]
        payload["energy"] = {"csv": str(tmp_path / "energy.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["inverse", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_amplitude_csv_must_cover_horizon(self, tmp_path):
        ts = np.linspace(0.0, 0.5, 33)
        lines = ["t,a"] + [f"{t:.17g},1" for t in ts]
        (tmp_path / "a.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg(N=64)
        payload["amplitude"] = {"csv": str(tmp_path / "a.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["forward", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("row, column, bad", [
        (10, 1, "nan"),  # E column
        (10, 0, "nan"),  # t column: a NaN also passes the ordering check
        (64, 1, "inf"),
    ])
    def test_energy_csv_non_finite_refused(self, tmp_path, capsys, row, column, bad):
        ts = np.linspace(0.0, 1.0, 65)
        cells = [[f"{t:.17g}", f"{t:.17g}"] for t in ts]
        cells[row][column] = bad
        lines = ["t,E"] + [",".join(c) for c in cells]
        (tmp_path / "energy.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg(N=64)
        del payload["amplitude"]
        payload["phi"] = {"name": "constant", "params": {"value": 0.0}}
        payload["energy"] = {"csv": str(tmp_path / "energy.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["inverse", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "Traceback" not in err

    def test_amplitude_csv_non_finite_refused(self, tmp_path, capsys):
        ts = np.linspace(0.0, 1.0, 65)
        lines = ["t,a"] + [f"{t:.17g},{'inf' if j == 7 else 1}" for j, t in enumerate(ts)]
        (tmp_path / "a.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg(N=64)
        payload["amplitude"] = {"csv": str(tmp_path / "a.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["forward", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert "must be finite" in capsys.readouterr().err

    def test_incompatible_datum_exit_code(self, tmp_path):
        # phi has mean 1/2 but the datum starts at 2: compatibility failure
        ts = np.linspace(0.0, 1.0, 65)
        lines = ["t,E"] + [f"{t:.17g},{2.0 + t:.17g}" for t in ts]
        (tmp_path / "energy.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg(N=64)
        del payload["amplitude"]
        payload["phi"] = {"name": "constant", "params": {"value": 0.5}}
        payload["energy"] = {"csv": str(tmp_path / "energy.csv")}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        code = main(["inverse", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_COMPATIBILITY

    def test_zero_mean_source_exit_code(self, tmp_path):
        payload = _forward_cfg(N=64)
        del payload["amplitude"]
        payload["source"] = {"field": {"name": "cos_mode", "params": {"n": 1, "k": 0}}}
        payload["energy"] = {
            "synthesize": {
                "N": 128,
                "amplitude": {"name": "poly_t", "params": {"coeffs": [1.0, 1.0]}},
            }
        }
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert main(["inverse", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def _inverse_cfg(tmp_path, k_max):
    # the inverse-cli benchmark's data at N = 32: f = 1 + xy/2 excites the
    # mean-bearing associated modes, and every mode carries phi = cos_exp;
    # E(0) is phi's mean over the modes n <= 3 that the recovery keeps
    e0 = SpectralCoefficients.project_field(make_field("cos_exp"), 3, 0).mean()
    ts = np.linspace(0.0, 1.0, 33)
    energy = tmp_path / "energy.csv"
    lines = ["t,E"] + [f"{t:.17g},{e0 + t + 0.2 * t**2:.17g}" for t in ts]
    energy.write_text("\n".join(lines) + "\n")
    payload = {
        "operator": {"alpha": 0.8, "terms": [[0.5, 0.4]]},
        "grid": {"T": 1.0, "N": 32},
        "phi": {"name": "cos_exp"},
        "source": {"field": {"name": "poly", "params": {"terms": [[1.0, 0, 0], [0.5, 1, 1]]}}},
        "modes": {"n_max": 3, "k_max": k_max},
        "energy": {"csv": str(energy)},
    }
    return _write_cfg(tmp_path, f"k{k_max}.json", payload)


class TestInverseBox:
    """The energy is carried by the k = 0 modes alone, so the command solves
    that box whatever modes.k_max says."""

    def test_no_table_for_a_k_positive_eigenvalue(self, tmp_path, monkeypatch):
        k0 = {0.0} | {eigen(ModeIndex(Family.Even, n, 0)).sigma_nk for n in range(1, 4)}
        tabled, relaxed = [], []
        family, kernel_sum = forward.KernelMoments.family, forward._kernel_sum

        def tabling(spec, rates, grid):
            tabled.extend(rates)
            return family(spec, rates, grid)

        def relaxing(*args):
            relaxed.extend(args[-1])
            return kernel_sum(*args)

        monkeypatch.setattr(forward.KernelMoments, "family", tabling)
        monkeypatch.setattr(forward, "_kernel_sum", relaxing)
        cfg = _inverse_cfg(tmp_path, k_max=3)
        assert main(["inverse", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert tabled and relaxed
        assert set(tabled) <= k0 and set(relaxed) <= k0

    def test_outputs_do_not_depend_on_k_max(self, tmp_path):
        written = {}
        for k_max in (0, 4):
            out = tmp_path / f"o{k_max}"
            assert main(["inverse", _inverse_cfg(tmp_path, k_max), "--out", str(out)]) == EXIT_OK
            meta = json.loads((out / "inverse_metadata.json").read_text())
            written[k_max] = (out / "amplitude.csv").read_bytes(), meta["energy_residual"]
        assert written[0][0] == written[4][0]
        assert written[0][1] == pytest.approx(written[4][1], rel=0.0, abs=1e-15)


class TestLeftovers:
    def test_commands_leave_no_cyclic_parser_or_class(self, tmp_path):
        # argparse's parser and formatters, and numpy.savetxt's per-call
        # class, are reference cycles that only a full collection frees
        cfg = _inverse_cfg(tmp_path, k_max=2)
        main(["inverse", cfg, "--out", str(tmp_path / "warm")])
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for i in range(3):
                assert main(["inverse", cfg, "--out", str(tmp_path / f"o{i}")]) == EXIT_OK
            gc.collect()
            left = [
                type(o).__name__ for o in gc.garbage
                if isinstance(o, (argparse.ArgumentParser, argparse.HelpFormatter, type))
            ]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert left == []

    def test_csv_bytes_are_savetxt_bytes(self, tmp_path):
        columns = (
            np.array([-0.0, 1.0, 0.1]),
            np.array([1e-300, 1.7976931348623157e308, -0.1]),
        )
        _write_csv(tmp_path / "ours.csv", "t,value", columns)
        np.savetxt(
            tmp_path / "numpy.csv", np.column_stack(columns), delimiter=",",
            header="t,value", comments="", fmt="%.17g",
        )
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    def test_headed_series_csv_parsed_once(self, tmp_path, monkeypatch):
        # a header row is recognised before parsing, not by a parse that
        # fails on it and a second one that skips it
        grid = TimeGrid(1.0, 16)
        rows = [f"{t:.17g},{1.0 + t * t:.17g}" for t in np.linspace(0.0, 1.0, 33)]
        parsed, loadtxt = [], np.loadtxt

        def counting(*args, **kwargs):
            parsed.append(args[0])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        values = []
        for name, lines in (("headed", ["t,E"] + rows), ("bare", rows)):
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
            parsed.clear()
            values.append(_read_series_csv(str(tmp_path / f"{name}.csv"), grid))
            assert len(parsed) == 1
        assert values[0].tobytes() == values[1].tobytes()
        np.testing.assert_allclose(values[0], 1.0 + grid.nodes**2, rtol=0.0, atol=1e-3)


class TestMalformedConfig:
    @pytest.mark.parametrize("command, edit", [
        ("forward", {"grid": {"T": 1.0, "N": 0}}),
        ("forward", {"grid": {"T": 1.0, "N": None}}),
        ("forward", {"grid": {"T": -1.0, "N": 64}}),
        ("forward", {"operator": {"alpha": "abc"}}),
        ("forward", {"grid": 5}),
        ("forward", {"modes": [1]}),
        ("oracle-compare", {"fd": {"Mx": 4}}),
        ("oracle-compare", {"fd": {"Mx": 16, "My": 16, "N": 64}, "times": [0.3]}),
        ("forward", {"modes": {"n_max": 2, "k_max": -1}}),
        ("forward", {"modes": {"n_max": -2, "k_max": 2}}),
    ])
    def test_exits_validation_without_traceback(self, tmp_path, capsys, command, edit):
        cfg = _write_cfg(tmp_path, "c.json", {**_forward_cfg(), **edit})
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, edit", [
        ("oracle-compare", {"fd": {"Mx": 16, "My": 16, "N": 64}, "times": [0.3]}),
        ("inverse", {"energy": {"synthesize": {
            "N": 96, "amplitude": {"name": "poly_t", "params": {"coeffs": [1.0]}},
        }}}),
    ])
    def test_refused_before_any_solve(self, tmp_path, monkeypatch, command, edit):
        # an off-grid compare time and a synthesis N that is not a multiple
        # of the recovery N are config errors, found before the solves run
        import fracsource.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_forward called on a refused config")

        monkeypatch.setattr(cli, "solve_forward", no_solve)
        cfg = _write_cfg(tmp_path, "c.json", {**_forward_cfg(), **edit})
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


class TestUnreadableInput:
    """An input file that cannot be read or parsed exits 2 with a one-line
    message, like any other invalid input."""

    def _refused(self, capsys, command, cfg, tmp_path):
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error" in err
        assert "Traceback" not in err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "c.json").mkdir()
        self._refused(capsys, "forward", str(tmp_path / "c.json"), tmp_path)

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"operator": {"alpha": "\xe9"}}')
        self._refused(capsys, "forward", str(path), tmp_path)

    @pytest.mark.parametrize("command, section", [("forward", "phi"), ("inverse", "energy")])
    def test_data_csv_path_is_a_directory(self, tmp_path, capsys, command, section):
        (tmp_path / "data.csv").mkdir()
        payload = _forward_cfg()
        payload[section] = {"csv": str(tmp_path / "data.csv")}
        if section == "energy":
            del payload["amplitude"]
        self._refused(capsys, command, _write_cfg(tmp_path, "c.json", payload), tmp_path)

    @pytest.mark.parametrize("lines", [
        ["x,y,value"],
        ["x,y,value", "0,0", "0,1", "1,0", "1,1"],  # no value column
    ], ids=["no-rows", "short-rows"])
    def test_field_csv_rows_malformed(self, tmp_path, capsys, lines):
        (tmp_path / "phi.csv").write_text("\n".join(lines) + "\n")
        payload = _forward_cfg()
        payload["phi"] = {"csv": str(tmp_path / "phi.csv")}
        self._refused(capsys, "forward", _write_cfg(tmp_path, "c.json", payload), tmp_path)


    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_out_path_is_a_file(self, tmp_path, capsys, where):
        afile = tmp_path / "afile"
        afile.write_text("")
        payload = {"suites": ["biorthonormality"]}
        argv = ["verify"]
        if where == "config":
            payload["out"] = str(afile)
            argv.append(_write_cfg(tmp_path, "c.json", payload))
        else:
            argv += [_write_cfg(tmp_path, "c.json", payload), "--out", str(afile)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error") and err.count("\n") == 1
        assert afile.read_text() == ""

_SYNTH = {"N": 128, "amplitude": {"name": "poly_t", "params": {"coeffs": [1.0, 1.0]}}}
_NAN_AMP = {"name": "constant", "params": {"value": math.nan}}
_OVERFLOWING_AMP = {"name": "exp_t", "params": {"rate": 800.0}}  # exp(800) is inf


class TestRefusedValues:
    """A non-finite parameter or amplitude, and a count with a fractional
    part, each exit 2 with a one-line message, never run or truncated."""

    @staticmethod
    def _refused(capsys, command, cfg, out):
        assert main([command, cfg, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, edit", [
        ("forward", {"operator": {"alpha": 0.8, "terms": [[math.nan, 0.4]]}}),
        ("forward", {"operator": {"alpha": 0.8, "terms": [[math.inf, 0.4]]}}),
        ("forward", {"grid": {"T": math.nan, "N": 64}}),
        ("forward", {"grid": {"T": math.inf, "N": 64}}),
        ("forward", {"amplitude": _NAN_AMP}),
        ("forward", {"amplitude": _OVERFLOWING_AMP}),
        ("inverse", {"energy": {"synthesize": {**_SYNTH, "amplitude": _NAN_AMP}}}),
        ("inverse", {"energy": {"synthesize": _SYNTH}, "amplitude_true": _OVERFLOWING_AMP}),
        ("forward", {"grid": {"T": 1.0, "N": 8.7}}),
        ("forward", {"modes": {"n_max": 1.9, "k_max": 1}}),
        ("forward", {"modes": {"n_max": 1, "k_max": True}}),
        ("forward", {"modes": {"n_max": "2", "k_max": 1}}),
        ("oracle-compare", {"fd": {"Mx": 16.5, "My": 16, "N": 64}}),
        ("oracle-compare", {"fd": {"Mx": 16, "My": 16, "N": 64.5}}),
        ("inverse", {"energy": {"synthesize": {**_SYNTH, "N": 128.5}}}),
    ])
    def test_problem_config(self, tmp_path, capsys, monkeypatch, command, edit):
        import fracsource.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_forward called on a refused config")

        monkeypatch.setattr(cli, "solve_forward", no_solve)
        cfg = _write_cfg(tmp_path, "c.json", {**_forward_cfg(), **edit})
        self._refused(capsys, command, cfg, tmp_path / "o")

    @pytest.mark.parametrize("kernel, times", [
        ({"eta": 1.0, "terms": [[math.nan, 0.5]]}, [0.5]),
        ({"eta": 1.0, "terms": [[math.inf, 0.5]]}, [0.5]),
        ({"eta": math.nan, "terms": [[1.0, 0.5]]}, [0.5]),
        ({"eta": math.inf, "terms": [[1.0, 0.5]]}, [0.5]),
        ({"eta": 1.0, "terms": [[1.0, math.nan]]}, [0.5]),
        ({"eta": 1.0, "terms": [[1.0, 0.5]]}, {"start": 0.1, "stop": 1.0, "count": 4.5}),
    ])
    def test_mlf_eval_config(self, tmp_path, capsys, kernel, times):
        cfg = _write_cfg(tmp_path, "c.json", {"kernel": kernel, "times": times})
        self._refused(capsys, "mlf-eval", cfg, tmp_path / "o")
        assert not (tmp_path / "o" / "mlf_eval.csv").exists()

    def test_integral_float_counts_accepted(self, tmp_path):
        as_int = _write_cfg(tmp_path, "a.json", _forward_cfg(N=64, n_max=2))
        as_float = _write_cfg(tmp_path, "b.json", _forward_cfg(N=64.0, n_max=2.0))
        for cfg, out in ((as_int, "a"), (as_float, "b")):
            assert main(["forward", cfg, "--out", str(tmp_path / out)]) == EXIT_OK
        energy = [(tmp_path / out / "energy.csv").read_text() for out in "ab"]
        assert energy[0] == energy[1]


class TestVerify:
    def test_single_suite_passes(self, tmp_path):
        cfg = _write_cfg(tmp_path, "c.json", {"suites": ["biorthonormality"]})
        out = tmp_path / "o"
        assert main(["verify", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "verify.json").read_text())
        assert report["biorthonormality"]["passed"] is True
        assert report["passed"] is True

    def test_unknown_suite_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, "c.json", {"suites": ["no-such-suite"]})
        assert main(["verify", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


class TestOracleCompare:
    def test_forward_matches_reference(self, tmp_path):
        payload = _forward_cfg(N=128, n_max=2)
        payload["fd"] = {"Mx": 16, "My": 16, "N": 128}
        payload["times"] = [0.5, 1.0]
        cfg = _write_cfg(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main(["oracle-compare", cfg, "--out", str(out), "--tol", "0.05"]) == EXIT_OK
        report = json.loads((out / "oracle_compare.json").read_text())
        assert report["passed"] is True
        assert max(report["relative_l2"]) < 0.05

    @staticmethod
    def _refused_before_any_solve(tmp_path, monkeypatch, cfg, *flags):
        import fracsource.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_forward called on a refused config")

        monkeypatch.setattr(cli, "solve_forward", no_solve)
        out = tmp_path / "o"
        assert main(["oracle-compare", cfg, "--out", str(out), *flags]) == EXIT_VALIDATION
        assert not (out / "oracle_compare.json").exists()

    @pytest.mark.parametrize("t", [-0.25, 2.0])
    def test_time_outside_horizon_refused(self, tmp_path, capsys, monkeypatch, t):
        # a negative time would read the step that many from the end, and a
        # time past T a step past the history
        payload = {**_forward_cfg(), "fd": {"Mx": 16, "My": 16, "N": 64}, "times": [t]}
        cfg = _write_cfg(tmp_path, "c.json", payload)
        self._refused_before_any_solve(tmp_path, monkeypatch, cfg)
        assert capsys.readouterr().err == (
            f"validation error: t = {t:g} lies outside the horizon [0, 1]\n"
        )

    @pytest.mark.parametrize("flags, tol", [
        (["--tol", "nan"], None), (["--tol", "-1"], None), ([], "1e999"),
    ], ids=["nan", "negative", "inf"])
    def test_bad_tolerance_refused(self, tmp_path, monkeypatch, flags, tol):
        # JSON reads 1e999 as inf
        text = json.dumps({**_forward_cfg(), "fd": {"Mx": 16, "My": 16, "N": 64}})
        if tol is not None:
            text = text[:-1] + f', "tol": {tol}}}'
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        self._refused_before_any_solve(tmp_path, monkeypatch, str(cfg), *flags)

    def test_tight_tolerance_fails_numerically(self, tmp_path):
        payload = _forward_cfg(N=64, n_max=2)
        payload["fd"] = {"Mx": 16, "My": 16, "N": 64}
        payload["times"] = [1.0]
        cfg = _write_cfg(tmp_path, "c.json", payload)
        code = main(["oracle-compare", cfg, "--out", str(tmp_path / "o"),
                     "--tol", "1e-12"])
        assert code == EXIT_NUMERICAL
