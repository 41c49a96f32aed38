"""End-to-end tests of the command line interface.

Every test drives ``fracsource.cli.main`` with a JSON config written to a
temporary directory and asserts on exit codes and emitted artifacts.
"""

import json
import math

import numpy as np
import pytest

from fracsource.cli import (
    EXIT_COMPATIBILITY,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


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

    def test_tight_tolerance_fails_numerically(self, tmp_path):
        payload = _forward_cfg(N=64, n_max=2)
        payload["fd"] = {"Mx": 16, "My": 16, "N": 64}
        payload["times"] = [1.0]
        cfg = _write_cfg(tmp_path, "c.json", payload)
        code = main(["oracle-compare", cfg, "--out", str(tmp_path / "o"),
                     "--tol", "1e-12"])
        assert code == EXIT_NUMERICAL
