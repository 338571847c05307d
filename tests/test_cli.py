"""Command-line interface: files, round trips, determinism, exit codes."""

import contextlib
import copy
import csv
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chimaxwell import __version__, chi_solver
from chimaxwell import polarization as pol
from chimaxwell.cli import _column_text, _write_json, _write_profile_csv, main
from chimaxwell.errors import ChiMaxwellError
from chimaxwell.polarization import energy_of


def read_report(path):
    return json.loads(path.read_text())


class TestVerifyCommand:
    def test_all_checks_pass_exit_zero(self, tmp_path, capsys):
        assert main(["verify", "--seed", "42", "--trials", "50",
                     "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path / "verify_report.json")
        assert report["overall_pass"] is True
        assert report["seed"] == 42
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))  # every check present exactly once
        out = capsys.readouterr().out
        assert "OK: " in out

    def test_deterministic_reports_modulo_timestamp(self, tmp_path):
        main(["verify", "--seed", "9", "--trials", "40", "--out", str(tmp_path / "a")])
        main(["verify", "--seed", "9", "--trials", "40", "--out", str(tmp_path / "b")])
        ra = read_report(tmp_path / "a" / "verify_report.json")
        rb = read_report(tmp_path / "b" / "verify_report.json")
        ra.pop("timestamp")
        rb.pop("timestamp")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_different_seeds_differ(self, tmp_path):
        main(["verify", "--seed", "1", "--trials", "40", "--out", str(tmp_path / "a")])
        main(["verify", "--seed", "2", "--trials", "40", "--out", str(tmp_path / "b")])
        ra = read_report(tmp_path / "a" / "verify_report.json")
        rb = read_report(tmp_path / "b" / "verify_report.json")
        residuals = lambda r: [c["residual"] for c in r["checks"]]
        assert residuals(ra) != residuals(rb)

    def test_zero_trials_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_negative_seed_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_trials_exceeding_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        # 2**62 trials are 2**74 bytes: rejected before any input is drawn
        def unreachable(rng, trials):
            raise AssertionError("inputs were drawn")

        monkeypatch.setattr("chimaxwell.verify._inputs", unreachable)
        assert main(["verify", "--trials", str(2**62), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "physical memory" in err
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_failing_check_exit_one(self, tmp_path, monkeypatch):
        from chimaxwell import cli as cli_mod
        from chimaxwell.verify import VerifyReport

        def fake_verification(seed, trials):
            report = VerifyReport(seed=seed, trials=trials)
            report.add("synthetic.failure", "forced failure", 1.0, 1e-12)
            return report

        monkeypatch.setattr(cli_mod, "run_verification", fake_verification)
        assert main(["verify", "--trials", "1", "--out", str(tmp_path)]) == 1
        report = read_report(tmp_path / "verify_report.json")
        assert report["overall_pass"] is False

    def test_report_rejects_duplicate_check_names(self):
        from chimaxwell.verify import VerifyReport
        report = VerifyReport(seed=0, trials=1)
        report.add("a", "s", 0.0, 1.0)
        with pytest.raises(ValueError):
            report.add("a", "s", 0.0, 1.0)


class TestPolarizationTable:
    def test_rest_frame_timelike_row(self, tmp_path):
        assert main(["polarization-table", "--mass", "1", "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader((tmp_path / "polarization_table.csv").open()))
        u_rows = [r for r in rows if r["field"] == "u" and r["lambda"] == "0_t"]
        values = {int(r["component"]): complex(float(r["real"]), float(r["imag"]))
                  for r in u_rows}
        assert values == {0: 1 + 0j, 1: 0j, 2: 0j, 3: 0j}

    def test_row_counts_per_momentum(self, tmp_path):
        main(["polarization-table", "--p", "0,0,3", "--mass", "4", "--out", str(tmp_path)])
        rows = list(csv.DictReader((tmp_path / "polarization_table.csv").open()))
        assert len([r for r in rows if r["field"] == "u"]) == 16  # 4 modes x 4 comps
        assert len([r for r in rows if r["field"] in "BE"]) == 36  # 3x2x2x3

    def test_transversality_recheck_on_reread(self, tmp_path):
        main(["polarization-table", "--p", "0,0,3", "--mass", "4", "--out", str(tmp_path)])
        rows = list(csv.DictReader((tmp_path / "polarization_table.csv").open()))
        p = np.array([0.0, 0.0, 3.0])
        p4 = np.array([energy_of(p, 4.0), *p])
        for mode in ("+1", "-1", "0"):
            u = np.zeros(4, dtype=complex)
            for r in rows:
                if r["field"] == "u" and r["lambda"] == mode:
                    u[int(r["component"])] = complex(float(r["real"]), float(r["imag"]))
            metric = np.array([1.0, -1.0, -1.0, -1.0])
            assert abs(np.sum(metric * p4 * u)) <= 1e-12 * np.max(np.abs(u)) * 8

    def test_empty_mode_list_header_only(self, tmp_path):
        main(["polarization-table", "--modes", "", "--out", str(tmp_path)])
        lines = (tmp_path / "polarization_table.csv").read_text().strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("field,lambda")

    def test_values_roundtrip_exactly(self, tmp_path):
        main(["polarization-table", "--p", "0.1,0.7,-2.3", "--mass", "0.37",
              "--out", str(tmp_path)])
        from chimaxwell.polarization import polarization_vector
        rows = list(csv.DictReader((tmp_path / "polarization_table.csv").open()))
        p = np.array([0.1, 0.7, -2.3])
        for r in rows:
            if r["field"] == "u" and r["lambda"] == "-1":
                u = polarization_vector(p, "-1", 0.37).u
                comp = int(r["component"])
                assert float(r["real"]) == u[comp].real  # bit-faithful
                assert float(r["imag"]) == u[comp].imag

    def test_nonpositive_mass_exit_code(self, tmp_path):
        assert main(["polarization-table", "--mass", "0", "--out", str(tmp_path)]) == 2


class TestMasslessScan:
    def test_slope_in_json_summary(self, tmp_path):
        assert main(["massless-scan", "--modes", "0_t", "--scheme", "constant",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "massless_scan.json").read_text())
        assert abs(summary["slopes"]["0_t"] - (-1.0)) <= 0.02

    def test_csv_columns(self, tmp_path):
        main(["massless-scan", "--modes", "+1", "--scheme", "mass", "--out", str(tmp_path)])
        rows = list(csv.DictReader((tmp_path / "massless_scan.csv").open()))
        assert set(rows[0]) == {"m", "norm", "mode", "scheme"}
        assert len(rows) == 6

    def test_each_mass_ladder_evaluated_once(self, tmp_path, monkeypatch):
        calls = []
        evaluate = pol.polarization_vector
        monkeypatch.setattr(pol, "polarization_vector",
                            lambda *args: calls.append(args) or evaluate(*args))
        assert main(["massless-scan", "--out", str(tmp_path)]) == 0
        assert len(calls) == len(pol.MODES)

    @pytest.mark.parametrize("args", [["--p", "1,2"], ["--modes", "2"]],
                             ids=["two-component-p", "unknown-mode"])
    def test_malformed_argument_usage_error(self, tmp_path, args):
        with pytest.raises(SystemExit) as exc:
            main(["massless-scan", *args, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["polarization-table", "--p", "1e200,0,0"],
        ["polarization-table", "--p", "nan,0,0"],
        ["polarization-table", "--mass", "nan"],
        ["polarization-table", "--mass", "inf"],
        ["polarization-table", "--mass", "1e-320"],  # 1/m overflows
        ["massless-scan", "--p", "nan,0,0"],
        ["massless-scan", "--p", "1e200,0,0"],
        ["massless-scan", "--p", "1e150,0,0"],  # |u| is finite, its norm is not
    ], ids=["table-p-huge", "table-p-nan", "table-mass-nan", "table-mass-inf",
            "table-mass-tiny", "scan-p-nan", "scan-p-huge", "scan-norm-overflow"])
    def test_non_finite_inputs_exit_code(self, tmp_path, capsys, args):
        # one error line, no warning before it, and no file written
        assert main([*args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())


class TestPlanewaveCommand:
    def test_residual_pair_written(self, tmp_path, capsys):
        assert main(["planewave", "--p", "0,0,1", "--chi", "1", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "planewave.json").read_text())
        assert payload["residual_first"] <= 1e-13
        assert payload["residual_divergence"] <= 1e-13
        assert payload["on_shell"] is True
        assert "residuals" in capsys.readouterr().out

    def test_zero_momentum_exit_code(self, tmp_path):
        assert main(["planewave", "--p", "0,0,0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("p", ["1e200,0,0", "0,0,-1e155", "nan,0,0", "0,inf,1"])
    def test_non_finite_p_squared_exit_code(self, tmp_path, capsys, p):
        # one error line and no warning before it
        assert main(["planewave", "--p", p, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "planewave.json").exists()


    @pytest.mark.parametrize("args", [
        ["--amplitude", "inf"],
        ["--amplitude", "nan"],
        ["--chi", "nan"],
        ["--chi", "inf"],
        ["--p", "1e100,0,0", "--amplitude", "1e300"],  # finite psi, overflowing residual
    ], ids=["amplitude-inf", "amplitude-nan", "chi-nan", "chi-inf", "residual-overflow"])
    def test_non_finite_amplitudes_exit_code(self, tmp_path, capsys, args):
        # one error line and no warning before it
        assert main(["planewave", "--p", "0,0,1", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "planewave.json").exists()


class TestUnwritableOut:
    @pytest.mark.parametrize("args, below", [
        (["verify", "--trials", "1"], False),
        (["polarization-table"], False),
        (["massless-scan"], False),
        (["planewave", "--p", "0,0,1"], False),
        (["simulate"], False),
        (["simulate"], True),
    ], ids=["verify", "polarization-table", "massless-scan", "planewave", "simulate",
            "simulate-below-a-file"])
    def test_out_that_cannot_be_a_directory_exit_code(self, tmp_path, capsys, args, below):
        if args == ["simulate"]:
            cfg = {"grid": {"n": 8, "L": 1.0, "dims": 1}, "t_end": 0.1,
                   "scenario": {"type": "vacuum_planewave", "params": {"k": [1]}}}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = [*args, "--config", str(tmp_path / "cfg.json")]
        path = tmp_path / "taken"
        path.write_bytes(b"not a directory\n")
        out = path / "sub" if below else path
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert path.read_bytes() == b"not a directory\n"


PROFILE_HEADER = "z,ex,ey,ez,bx,by,bz,chi_re,chi_im,chi_re_t,chi_im_t"


def row_wise_profile(state):
    """The text of a state's profile, row by row with repr: the reference
    for the column-wise writer, down to the sign of a zero."""
    z = np.arange(state.grid.n) * state.grid.dx
    rows = np.column_stack([z, *state.e, *state.b, state.chi_re, state.chi_im,
                            state.chi_re_t, state.chi_im_t]).tolist()
    return "\n".join([PROFILE_HEADER, *(",".join(map(repr, row)) for row in rows)]) + "\n"


class TestSimulateCommand:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "grid": {"n": 32, "L": 6.283185307179586, "dims": 1},
            "scenario": {"type": "chi_planewave", "params": {"k": [1]}},
            "dt": 0.02,
            "t_end": 1.0,
            "output_every": 8,
            "chi_mode": "real",
        }
        cfg.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_emits_files_and_summary(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_over_series"]["gauss_e"] <= 1e-10
        assert (out / "diagnostics.csv").exists()
        assert (out / "snapshot_000000.bin").exists()

    def test_csv_profiles_for_1d(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "csv"])
        profiles = sorted(out.glob("profile_*.csv"))
        assert profiles
        header = profiles[0].read_text().split("\n")[0]
        assert header == "z,ex,ey,ez,bx,by,bz,chi_re,chi_im,chi_re_t,chi_im_t"

    def test_profiles_match_snapshots_bit_exactly(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--format", "csv"]) == 0
        profiles = sorted(out.glob("profile_*.csv"))
        snapshots = sorted(out.glob("snapshot_*.bin"))
        assert len(profiles) == len(snapshots) == 8
        for profile, snapshot in zip(profiles, snapshots):
            state = chi_solver.load_snapshot(snapshot.with_suffix(""))
            rows = profile.read_text().splitlines()[1:]
            values = np.array([[float(v) for v in row.split(",")] for row in rows])
            want = np.column_stack([np.arange(state.grid.n) * state.grid.dx,
                                    *state.e, *state.b, state.chi_re, state.chi_im,
                                    state.chi_re_t, state.chi_im_t])
            assert np.array_equal(values, want)

    @pytest.mark.parametrize("scenario, zero_columns", [
        ({"type": "chi_gaussian"}, True),
        ({"type": "vacuum_planewave", "params": {"k": [3], "helicity": 1}}, False),
    ], ids=["chi-gaussian", "vacuum-planewave"])
    def test_profiles_match_row_wise_text(self, tmp_path, scenario, zero_columns):
        cfg = self.write_config(tmp_path, scenario=scenario)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--format", "csv"]) == 0
        profiles = sorted(out.glob("profile_*.csv"))
        snapshots = sorted(out.glob("snapshot_*.bin"))
        assert len(profiles) == len(snapshots) == 8
        for profile, snapshot in zip(profiles, snapshots):
            state = chi_solver.load_snapshot(snapshot.with_suffix(""))
            assert profile.read_text() == row_wise_profile(state)
            # chi_gaussian leaves ex, ey and B zero; no transverse column
            # of the wave is
            transverse = np.concatenate([state.e[:2], state.b[:2]])
            assert np.all(np.any(transverse != 0.0, axis=1)) != zero_columns

    def test_profile_keeps_the_sign_of_zero(self, tmp_path):
        grid = chi_solver.Grid(8, 1.0, dims=1)
        rng = np.random.default_rng(8)
        e = rng.standard_normal((3, 8))
        e[0] = -0.0                  # all -0.0: printed, not taken for +0.0
        e[1, ::2], e[1, 1::2] = 0.0, -0.0
        b = np.zeros((3, 8))         # all +0.0
        b[2] = [1e-300, -1e22, 0.1, 5e-324, -0.0, 1.0, 2.0**53, np.pi]
        chi = [np.full(8, -0.0), np.zeros(8), rng.standard_normal(8), np.zeros(8)]
        state = chi_solver.FieldState(grid, 0.0, e, b, *chi)
        path = tmp_path / "profile.csv"
        _write_profile_csv(path, state, _column_text(np.arange(8) * grid.dx))
        assert path.read_text() == row_wise_profile(state)
        rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
        assert {row[1] for row in rows} == {"-0.0"}
        assert [row[2] for row in rows[:2]] == ["0.0", "-0.0"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_run_prints_only_the_error(self, tmp_path, capsys, fmt):
        # a uniform chi of 1e200 passes the gate, but its energy overflows:
        # the strict summary writer rejects the run in one line, and no
        # warning (which the test settings turn into an error) comes first
        cfg = self.write_config(tmp_path, grid={"n": 8, "L": 1.0, "dims": 1}, t_end=0.1,
                                scenario={"type": "custom", "params": {"chi_re": [1e200] * 8}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: summary.json") and err.count("\n") == 1
        assert not (out / "summary.json").exists()
        # the energy overflows to inf, not to NaN
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["inf", "inf"]

    @pytest.mark.parametrize("dims, fmt, kept", [(3, "json", False), (1, "csv", True)])
    def test_keeps_intermediate_states_only_for_profiles(self, tmp_path, monkeypatch,
                                                         dims, fmt, kept):
        seen = []
        run = chi_solver.run

        def recording(*args, **kwargs):
            seen.append(kwargs.get("keep_snapshots", True))  # run's default
            return run(*args, **kwargs)

        monkeypatch.setattr(chi_solver, "run", recording)
        cfg = self.write_config(
            tmp_path, grid={"n": 8, "L": 6.283185307179586, "dims": dims},
            scenario={"type": "vacuum_planewave",
                      "params": {"k": [0, 0, 1] if dims == 3 else [1]}},
            dt=None, t_end=1.0, output_every=2)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--format", fmt]) == 0
        assert seen == [kept]
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("output_every", [0, 2])
    def test_summary_counts_every_step(self, tmp_path, output_every):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point: still 3 steps
        cfg = self.write_config(tmp_path, grid={"n": 16, "L": 6.283185307179586, "dims": 1},
                                t_end=0.3, dt=0.1, output_every=output_every)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 3

    def test_summary_records_step_cfl_ratio_and_version(self, tmp_path):
        # c = 2: the run takes 3 internal steps of 0.1, each 0.05 in physical time
        cfg = self.write_config(tmp_path, grid={"n": 16, "L": 6.283185307179586, "dims": 1},
                                t_end=0.15, dt=0.05, c=2.0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 3
        assert summary["dt_eff"] == pytest.approx(0.05, rel=1e-15)
        bound = 0.5 * 6.283185307179586 / 16  # 0.5 dx / (c sqrt(dims)), internal time
        assert summary["cfl_ratio"] == pytest.approx(0.1 / bound, rel=1e-15)
        assert summary["version"] == __version__

    def test_physical_unit_conversion(self, tmp_path):
        # same scenario expressed with c = 2: times halve internally
        cfg1 = self.write_config(tmp_path, t_end=1.0, dt=0.02, c=1.0)
        out1 = tmp_path / "o1"
        main(["simulate", "--config", str(cfg1), "--out", str(out1)])
        cfg2 = self.write_config(tmp_path, t_end=0.5, dt=0.01, c=2.0)
        out2 = tmp_path / "o2"
        main(["simulate", "--config", str(cfg2), "--out", str(out2)])
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["final"]["energy"] == s2["final"]["energy"]
        assert s2["t_end"] == pytest.approx(0.5)

    def test_vacuum_period_error_in_summary(self, tmp_path):
        # one full period of the lowest mode: the state must return to itself
        period = 6.283185307179586
        cfg = self.write_config(
            tmp_path,
            scenario={"type": "vacuum_planewave", "params": {"k": [1], "helicity": -1}},
            t_end=period, dt=period / 256, output_every=0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["l2_change_from_initial"] <= 1e-6

    @pytest.mark.parametrize("overrides", [
        None,
        {"scenario": {"type": "nope"}},
        {"chi_mode": "imaginary"},
        {"t_end": 0.0},
        {"t_end": -1.0},
        {"dt": 0},
        {"scenario": {"type": "vacuum_planewave",
                      "params": {"k": [1], "amplitude": float("nan")}}},
        # a uniform chi of 1e200 meets both constraints, but its energy is inf
        pytest.param({"grid": {"n": 8, "L": 1.0, "dims": 1}, "t_end": 0.1,
                      "scenario": {"type": "custom", "params": {"chi_re": [1e200] * 8}}},
                     marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
        {"scenario": "chi_gaussian"},
        {"scenario": {"type": "chi_gaussian", "params": [1, 2]}},
        {"scenario": {"type": "chi_gaussian", "params": {"width": 0}}},
        {"scenario": {"type": "chi_gaussian", "params": {"width": "a"}}},
        {"scenario": {"type": "custom", "params": {"chi_re": "x"}}},
        {"grid": {"n": 8, "L": 6.283185307179586, "dims": 3},
         "scenario": {"type": "chi_gaussian", "params": {"center": [1.0]}}},
        {"scenario": {"type": "vacuum_planewave", "params": {"k": [1], "helicity": 2}}},
        {"scenario": {"type": "vacuum_planewave", "params": {"k": [0.5]}}},
        {"output_every": -3},
        {"grid": {"n": 16.5, "L": 6.283185307179586, "dims": 1}},
        {"grid": {"n": 16, "L": 6.283185307179586, "dims": True}},
        {"output_every": 2.5},
        {"grid": {"n": 16, "L": "6.283185307179586", "dims": 1}},
        {"t_end": True},
        {"dt": "0.02"},
        {"c": True},
        {"grid": {"n": 8, "L": 1e300, "dims": 3}, "scenario": {"type": "chi_gaussian"}},
        {"grid": {"n": 16, "L": 10**400, "dims": 1}},
        {"t_end": 1e300, "output_every": 0},
        {"scenario": {"type": "chi_planewave", "params": {"k": [1], "amplitude": float("inf")}}},
        {"scenario": {"type": "chi_planewave", "params": {"k": ["1"]}}},
        {"scenario": {"type": "vacuum_planewave", "params": {"k": [1], "helicity": True}}},
        {"scenario": {"type": "chi_gaussian", "params": {"width": "0.5"}}},
        {"scenario": {"type": "chi_planewave", "params": {"k": [1], "amplitude": True}}},
        {"scenario": {"type": "chi_gaussian", "params": {"center": ["2"]}}},
        {"scenario": {"type": "custom", "params": {"chi_re": ["0.5"] * 32}}},
        {"scenario": {"type": ["custom"]}},
        {"grid": {"n": 8, "L": 6.283185307179586, "dims": 3},
         "scenario": {"type": "vacuum_planewave", "params": {"k": [0, 0, True]}}},
        {"grid": {"n": 8, "L": 1.0, "dims": 1},
         "scenario": {"type": "custom", "params": {"chi_re": [0.5, 0, 0, 0, 0, 0, 0, True]}}},
        {"scenario": {"type": "chi_gaussian", "params": {"width": 5e-324}}},
        {"scenario": {"type": "chi_planewave", "params": {"k": [0]}}},
        {"scenario": {"type": "custom", "params": {"chi_re": [0.0] * 16}}},
        {"t_end": 1.0, "dt": 1e-310},
        {"grid": {"n": 2**1100, "L": 6.283185307179586, "dims": 1}},
        {"grid": {"n": 16, "L": 6.283185307179586, "dims": 1},
         "scenario": {"type": "vacuum_planewave", "params": {"k": [8]}}},
        {"grid": {"n": 16, "L": 6.283185307179586, "dims": 3},
         "scenario": {"type": "chi_planewave", "params": {"k": [9, 0, 0]}}},
        # the mean of the periodized Gaussian, (w sqrt(2 pi)/L)^3, overflows
        {"grid": {"n": 8, "L": 1.0, "dims": 3},
         "scenario": {"type": "chi_gaussian", "params": {"width": 1e200}}},
    ], ids=["missing-grid-keys", "unknown-scenario-type", "bad-chi-mode",
            "zero-t-end", "negative-t-end", "zero-dt", "nan-amplitude",
            "infinite-energy", "scenario-not-object", "params-not-object",
            "zero-width", "non-numeric-width", "non-numeric-custom-field",
            "short-3d-center", "helicity-two", "fractional-mode-number",
            "negative-output-every", "fractional-n", "bool-dims",
            "fractional-output-every", "string-L", "bool-t-end", "string-dt",
            "bool-c", "huge-3d-L", "L-beyond-float", "over-2**53-steps",
            "infinite-amplitude", "string-mode-number", "bool-helicity",
            "string-width", "bool-amplitude", "string-center",
            "custom-field-of-strings", "list-scenario-type", "bool-among-mode-numbers",
            "bool-among-custom-numbers", "tiny-width", "zero-chi-mode",
            "custom-field-wrong-shape", "step-count-beyond-float", "n-beyond-float",
            "nyquist-mode-number", "aliased-mode-number", "huge-3d-width"])
    def test_bad_config_exit_code(self, tmp_path, capsys, overrides):
        # every configuration error exits 2 with one line on stderr, no traceback
        if overrides is None:
            path = tmp_path / "bad.json"
            path.write_text("{\"grid\": {}}")
        else:
            path = self.write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "summary.json").exists()

    def test_state_exceeding_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        # 3-D n=4096 is 5.5 TB a state: rejected before any grid array exists
        def unreachable(grid):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(chi_solver, "SpectralSpace", unreachable)
        cfg = self.write_config(tmp_path, grid={"n": 4096, "L": 1.0, "dims": 3},
                                scenario={"type": "chi_gaussian"}, dt=None)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and err.count("\n") == 1
        assert not (tmp_path / "summary.json").exists()

    # Legal, but 1e12 outputs: 640 TB of snapshots, or of kept states.
    ENDLESS = {"grid": {"n": 8, "L": 1.0, "dims": 1}, "t_end": 1e6, "dt": 1e-6,
               "output_every": 1, "scenario": {"type": "chi_planewave"}}

    @staticmethod
    def forbid_grids(monkeypatch):
        # a missing bound fails here instead of writing snapshots for days
        def unreachable(grid):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(chi_solver, "SpectralSpace", unreachable)

    def test_outputs_exceeding_free_space_exit_code(self, tmp_path, capsys, monkeypatch):
        self.forbid_grids(monkeypatch)
        cfg = self.write_config(tmp_path, **self.ENDLESS)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "free space" in err and err.count("\n") == 1
        assert not list(out.glob("snapshot_*")) and not (out / "summary.json").exists()

    def test_free_space_counts_whole_blocks(self, tmp_path, capsys, monkeypatch):
        # 101 outputs of a 1-D n=8 state: 64 640 bytes of data, but each
        # .bin and .json fills at least one file-system block
        self.forbid_grids(monkeypatch)
        monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=100_000))
        cfg = self.write_config(tmp_path, grid={"n": 8, "L": 1.0, "dims": 1}, t_end=1.0,
                                dt=0.01, output_every=1, scenario={"type": "chi_planewave"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "free space" in err and err.count("\n") == 1
        assert not list(out.glob("snapshot_*"))

    def test_free_space_counts_the_profiles(self, tmp_path, capsys, monkeypatch):
        # 101 outputs of a 1-D n=16 state; with --format csv each also
        # writes a profile of up to 275 bytes a cell plus its header line
        block = os.statvfs(tmp_path).f_bsize
        blocks = lambda size: -(-size // block) * block
        snapshots = 101 * (blocks(80 * 16) + block)
        profiles = 101 * blocks(52 + 275 * 16)
        free = SimpleNamespace(free=snapshots)
        monkeypatch.setattr(shutil, "disk_usage", lambda path: free)
        cfg = self.write_config(tmp_path, grid={"n": 16, "L": 1.0, "dims": 1}, t_end=1.0,
                                dt=0.01, output_every=1, scenario={"type": "chi_planewave"})
        argv = ["simulate", "--config", str(cfg), "--format", "csv", "--out"]
        with monkeypatch.context() as patch:
            self.forbid_grids(patch)  # checked before anything is built
            assert main([*argv, str(tmp_path / "csv")]) == 2
        err = capsys.readouterr().err
        assert "snapshots and profiles" in err and "free space" in err
        assert err.count("\n") == 1 and not (tmp_path / "csv").exists()
        argv[4] = "json"  # the snapshots alone fit
        assert main([*argv, str(tmp_path / "json")]) == 0
        free.free = snapshots + profiles - 1
        argv[4] = "csv"
        assert main([*argv, str(tmp_path / "short")]) == 2
        free.free += 1
        assert main([*argv, str(tmp_path / "enough")]) == 0
        written = sorted((tmp_path / "enough").glob("profile_*.csv"))
        assert len(written) == 101
        assert max(len(p.read_bytes()) for p in written) <= 52 + 275 * 16

    def test_kept_states_exceeding_memory_raise_before_any_grid(self, monkeypatch):
        self.forbid_grids(monkeypatch)
        cfg = self.ENDLESS
        grid = chi_solver.Grid(cfg["grid"]["n"], cfg["grid"]["L"], cfg["grid"]["dims"])
        with pytest.raises(ChiMaxwellError, match="physical memory"):
            chi_solver.run(grid, cfg["scenario"], cfg["t_end"], cfg["dt"],
                           cfg["output_every"], keep_snapshots=True)

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_cfl_violation_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, dt=5.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestOutMadeAtFirstWrite:
    """A command makes --out when it writes its first file, so one that
    fails before then leaves a missing --out missing."""

    @pytest.mark.parametrize("args, config", [
        (["verify", "--trials", str(2**62)], None),
        (["polarization-table", "--mass", "0"], None),
        (["massless-scan", "--p", "1e150,0,0"], None),
        (["planewave", "--p", "1e150,0,0", "--chi", "1e200"], None),
        (["simulate"], {"grid": {"n": 8, "L": 1.0, "dims": 1}, "t_end": 0.1,
                        "scenario": {"type": "nope"}}),
        # the monopole of test_custom_monopole_data_rejected: B_z = sin(z), div B != 0
        (["simulate"], {"grid": {"n": 16, "L": 2 * np.pi, "dims": 1}, "t_end": 0.1,
                        "scenario": {"type": "custom", "params": {"b": [
                            [0.0] * 16, [0.0] * 16,
                            np.sin(np.arange(16) * (2 * np.pi / 16)).tolist()]}}}),
        (["simulate"], TestSimulateCommand.ENDLESS),
    ], ids=["verify-trials-beyond-memory", "table-zero-mass", "scan-overflow",
            "planewave-overflowing-residuals", "simulate-unknown-scenario",
            "simulate-gate-rejection", "simulate-beyond-free-space"])
    def test_failing_command_leaves_missing_out_missing(self, tmp_path, capsys, monkeypatch,
                                                        args, config):
        monkeypatch.setattr("chimaxwell.verify._inputs", None)  # 2**62 trials are never drawn
        if config is TestSimulateCommand.ENDLESS:
            TestSimulateCommand.forbid_grids(monkeypatch)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = [*args, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "missing" / "out"
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_summary_not_strict_json_writes_no_profile(self, tmp_path, capsys):
        # a uniform chi of 1e200 passes the gate, but its energy overflows the summary
        cfg = {"grid": {"n": 8, "L": 1.0, "dims": 1}, "t_end": 0.1, "dt": 0.02, "output_every": 8,
               "scenario": {"type": "custom", "params": {"chi_re": [1e200] * 8}}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(out),
                     "--format", "csv"]) == 2
        assert capsys.readouterr().err.startswith("error: summary.json")
        assert not list(out.glob("profile_*"))


ABSENT = object()
NOT_NUMBERS = st.sampled_from([True, False, None, "1", [1], {"a": 1}])
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
# Wrong types, non-finite and out-of-range values, and absent keys.  A step
# count beyond 2**53 is out of range; a legal but long run is left out.
BAD = {
    "grid": NOT_NUMBERS,
    "n": st.one_of(NOT_NUMBERS, st.sampled_from([ABSENT, 0, 4, 12, -16, 16.0, 2**40])),
    "L": st.one_of(NOT_NUMBERS, NON_FINITE,
                   st.sampled_from([ABSENT, 0.0, -1.0, 1e-300, 1e300, 10**400])),
    "dims": st.one_of(NOT_NUMBERS, st.sampled_from([0, 2, 1.5, 3.0])),
    "scenario": st.one_of(NOT_NUMBERS, st.sampled_from([
        ABSENT, {"type": "nope"}, {"type": "custom", "params": {"chi_re": "x"}},
        {"type": "vacuum_planewave", "params": {"helicity": 0}},
        {"type": "chi_planewave", "params": {"k": [0.5]}}]),
        st.builds(lambda kind, name, value: {"type": kind, "params": {name: value}},
                  st.sampled_from(["vacuum_planewave", "chi_planewave", "chi_gaussian"]),
                  st.sampled_from(["amplitude", "width", "k", "center", "helicity"]),
                  st.one_of(NOT_NUMBERS, NON_FINITE, st.floats(-2.0, 2.0),
                            st.just([1e300] * 3)))),
    "t_end": st.one_of(NOT_NUMBERS, NON_FINITE, st.sampled_from([ABSENT, 0.0, -1.0, 1e300])),
    "dt": st.one_of(NOT_NUMBERS, NON_FINITE, st.sampled_from([0, -0.1, 1e-300, 10.0])),
    "c": st.one_of(NOT_NUMBERS, NON_FINITE, st.sampled_from([0.0, -1.0])),
    "output_every": st.one_of(NOT_NUMBERS, NON_FINITE, st.sampled_from([-1, 2.5, 10**30])),
    "chi_mode": st.sampled_from(["imaginary", 1, None]),
}


@st.composite
def simulate_configs(draw):
    """A legal config of at most ~60 steps with up to three keys spoiled."""
    cfg = {
        "grid": {"n": draw(st.sampled_from([8, 16])),
                 "L": draw(st.sampled_from([6.283185307179586, 1.0])),
                 "dims": draw(st.sampled_from([1, 3]))},
        "scenario": draw(st.sampled_from([
            {"type": "vacuum_planewave"}, {"type": "chi_planewave"},
            {"type": "vacuum_planewave", "params": {"helicity": 1, "amplitude": 0.5}},
            {"type": "chi_gaussian", "params": {"width": 1.0}},
            {"type": "custom", "params": {}}])),
        "t_end": draw(st.floats(0.01, 0.3)),
        "dt": draw(st.one_of(st.none(), st.floats(0.02, 0.2))),
        "c": draw(st.floats(1.0, 2.0)),
        "output_every": draw(st.integers(0, 4)),
        "chi_mode": draw(st.sampled_from(["real", "complex"])),
    }
    cfg = copy.deepcopy(cfg)  # sampled values are shared between examples
    for key in draw(st.lists(st.sampled_from(sorted(BAD)), max_size=3, unique=True)):
        owner = cfg["grid"] if key in ("n", "L", "dims") and isinstance(cfg["grid"], dict) else cfg
        value = draw(BAD[key])
        if value is ABSENT:
            owner.pop(key, None)
        else:
            owner[key] = copy.deepcopy(value)
    return cfg


class TestSimulateConfigProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=simulate_configs())
    def test_any_config_exits_zero_or_two(self, cfg):
        # exit 2 comes with one stderr line and no summary.json
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["simulate", "--config", str(path), "--out", str(out)])
            assert code in (0, 2)
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert not (out / "summary.json").exists()
            else:
                assert (out / "summary.json").exists()


def write_nan_summary(base):
    _write_json(base.with_suffix(".json"), {"energy": float("nan")})


def write_nan_time_snapshot(base):
    g = chi_solver.Grid(8, 1.0, dims=1)
    zero = np.zeros(g.shape)
    chi_solver.save_snapshot(chi_solver.FieldState(
        g, float("nan"), np.zeros((3, *g.shape)), np.zeros((3, *g.shape)),
        zero, zero, zero, zero), base)


class TestStrictJson:
    @pytest.mark.parametrize("write", [write_nan_summary, write_nan_time_snapshot],
                             ids=["cli-json", "snapshot-sidecar"])
    def test_nan_raises_and_writes_nothing(self, tmp_path, write):
        with pytest.raises(ChiMaxwellError, match="JSON compliant"):
            write(tmp_path / "out")
        assert list(tmp_path.iterdir()) == []


class TestSnapshotFileRoundtrip:
    def test_bit_faithful_reload(self, tmp_path):
        from chimaxwell.chi_solver import Grid, init_state, load_snapshot, run
        cfgdir = tmp_path / "out"
        g = Grid(16, 6.283185307179586, dims=1)
        final, _, _ = run(g, {"type": "vacuum_planewave", "params": {"k": [1]}},
                          0.5, output_every=0, out_dir=cfgdir)
        names = sorted(cfgdir.glob("snapshot_*.bin"))
        reloaded = load_snapshot(names[-1].with_suffix(""))
        assert np.array_equal(reloaded.e, final.e)
        assert np.array_equal(reloaded.chi_re_t, final.chi_re_t)
