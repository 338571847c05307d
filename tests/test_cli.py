"""Command-line interface: files, round trips, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from chimaxwell import chi_solver
from chimaxwell.cli import _write_json, main
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
    ], ids=["missing-grid-keys", "unknown-scenario-type", "bad-chi-mode",
            "zero-t-end", "negative-t-end", "zero-dt", "nan-amplitude",
            "infinite-energy", "scenario-not-object", "params-not-object",
            "zero-width", "non-numeric-width", "non-numeric-custom-field",
            "short-3d-center", "helicity-two", "fractional-mode-number",
            "negative-output-every"])
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

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_cfl_violation_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, dt=5.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


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
