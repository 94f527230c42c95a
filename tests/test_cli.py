import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from knosim import cli
from knosim.errors import ConfigError, SingularDriveError

FAST_OVERRIDES = {"n_steps": 400, "n_samples": 41}


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = {"preset": "fig2-4", **FAST_OVERRIDES, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestResolveConfig:
    def test_preset(self):
        cfg = cli.resolve_config("fig2-4")
        assert cfg.protocol == "sta"
        assert cfg.sta
        assert abs(cfg.params.omega0 - 2 * np.pi * 0.02) < 1e-12
        assert abs(cfg.params.delta_z - cfg.params.omega0) < 1e-12
        assert cfg.params.schedule == "cosine"
        assert cfg.n_steps is None  # start at the sample grid

    def test_fig1_preset(self):
        cfg = cli.resolve_config("fig1")
        assert cfg.protocol == "linear_response"
        assert not cfg.sta
        assert abs(cfg.params.delta_z - 2 * cfg.params.omega0) < 1e-12
        assert cfg.params.schedule == "linear"
        assert cfg.n_steps == 20000

    def test_file_with_preset_inheritance(self, tmp_path):
        cfg = cli.resolve_config(write_config(tmp_path))
        assert cfg.n_steps == 400
        assert cfg.protocol == "sta"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"preset": "fig2-4", "omega_0": 1.0}))
        with pytest.raises(ConfigError, match="omega_0"):
            cli.resolve_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("no-such-config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            cli.resolve_config(str(path))

    @pytest.mark.parametrize("setting", [
        {"n_steps": "many"}, {"n_samples": "x"}, {"jobs": "two"}, {"half_width": "wide"},
        {"n_points": "many"}, {"chi_values": ["x"]}, {"chi_values": "0.5"}, {"n_steps": 400.5},
        {"phi": "x"}, {"kerr": "abc"}, {"tau": None}, {"dim": "many"}, {"dim": 30.5},
        {"sta": "false"}, {"sta": 1}, {"phi": True}, {"jobs": True}, {"preset": []},
    ])
    def test_non_numeric_rejected(self, tmp_path, capsys, setting):
        assert cli.main(["validate", write_config(tmp_path, **setting)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [{"n_steps": 0}, {"n_steps": 99}, {"jobs": 0}])
    def test_zero_steps_or_jobs_rejected(self, tmp_path, setting):
        with pytest.raises(ConfigError):
            cli.resolve_config(write_config(tmp_path, **setting))

    def test_zero_steps_flag_rejected(self, capsys):
        assert cli.main(["validate", "fig2-4", "--steps", "0"]) == 2
        assert "n_steps" in capsys.readouterr().err

    def test_null_steps_start_at_sample_grid(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"preset": "fig1", "n_steps": None}))
        assert cli.resolve_config(str(path)).n_steps is None

    def test_bad_protocol(self, tmp_path):
        with pytest.raises(ConfigError, match="protocol"):
            cli.resolve_config(write_config(tmp_path, protocol="adiabatic"))


class TestSimulate:
    def test_sta_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["simulate", cfg_path, "--out", str(out)])
        assert rc == 0
        for name in ("trajectory.csv", "theta_q.csv", "chern.json", "run-manifest.json"):
            assert (out / name).exists(), name
        chern = json.loads((out / "chern.json").read_text())
        assert abs(chern["c1"] - 1) < 0.05
        assert chern["method"] == "sta_polar"
        assert abs(chern["c1"] - chern["c1_quadrature"]) < 0.01
        man = json.loads((out / "run-manifest.json").read_text())
        assert man["protocol"] == "sta"
        assert man["final_edge_population"] < 1e-6
        for obj in (chern, man):
            assert obj["n_steps_used"] == 800
            assert [n for n, _ in obj["refine_history"]] == [800]
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t_us,theta_rad,sx,sy,sz,pop,norm"

    def test_deterministic(self, tmp_path):
        cfg_path = write_config(tmp_path)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_chi_override(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "chi"
        rc = cli.main(["simulate", cfg_path, "--chi", "1.5", "--out", str(out)])
        assert rc == 0
        chern = json.loads((out / "chern.json").read_text())
        assert abs(chern["chi"] - 1.5) < 1e-12
        assert abs(chern["c1"]) < 0.05

    def test_json_format(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "json"
        rc = cli.main(["simulate", cfg_path, "--format", "json", "--out", str(out)])
        assert rc == 0
        obj = json.loads((out / "trajectory.json").read_text())
        assert set(obj) == set(cli.TRAJ_HEADER)

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KNOSIM_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["simulate", write_config(tmp_path)])
        assert rc == 0
        assert (tmp_path / "envout" / "chern.json").exists()

    @pytest.mark.parametrize("setting", [{"sta": True}, {"phi": 0.3}])
    def test_linear_response_checked_before_running(self, tmp_path, monkeypatch, capsys, setting):
        def no_run(*args, **kwargs):
            raise AssertionError("propagation started for an unreadable linear response")

        monkeypatch.setattr(cli.dynamics, "run", no_run)
        cfg_path = write_config(tmp_path, protocol="linear_response", **setting)
        out = tmp_path / "lr"
        assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 2
        assert "linear response" in capsys.readouterr().err
        assert not out.exists()

    def test_polar_readout_needs_sta(self, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("propagation started for an unreadable polar angle")

        monkeypatch.setattr(cli.dynamics, "run", no_run)
        cfg_path = write_config(tmp_path, sta=False)
        out = tmp_path / "sta_off"
        assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 2
        assert "polar-angle readout" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["validate", cfg_path]) == 1
        assert "FAIL the polar-angle readout needs the counterdiabatic ramp" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"preset": "fig2-4", "bogus": 1}))
        assert cli.main(["simulate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestDeterminism:
    def test_outputs_identical_across_blas_threads_and_jobs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def outputs(name, args, **env):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "knosim.cli", *args, "--out", str(out)],
                env={**os.environ, "PYTHONPATH": pythonpath, **env},
                check=True, capture_output=True, timeout=300,
            )
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        one = outputs("blas1", ["simulate", cfg_path], OPENBLAS_NUM_THREADS="1")
        two = outputs("blas2", ["simulate", cfg_path], OPENBLAS_NUM_THREADS="2")
        assert "trajectory.csv" in one and one == two
        # the snapshots are samples of the state stack, lifted off the basis
        movie = ["wigner", write_config(tmp_path, "movie.json", half_width=3.0, n_points=41)]
        one = outputs("movie1", movie, OPENBLAS_NUM_THREADS="1")
        two = outputs("movie2", movie, OPENBLAS_NUM_THREADS="2")
        assert "wigner_t4.csv" in one and one == two
        sweep = ["sweep", cfg_path, "--chis=0.3,1.5", "--jobs"]
        assert outputs("jobs1", [*sweep, "1"]) == outputs("jobs2", [*sweep, "2"])


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", cfg_path, "--chis", "0,1.5", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "chi,c1,method,initial,converged,status,n_steps_used,refine_diff"
        assert len(lines) == 3
        row0 = lines[1].split(",")
        assert abs(float(row0[1]) - 1) < 0.05
        row1 = lines[2].split(",")
        assert abs(float(row1[1])) < 0.05
        man = json.loads((out / "run-manifest.json").read_text())
        assert [p["chi"] for p in man["points"]] == [0.0, 1.5]
        for row, point in zip((row0, row1), man["points"]):
            history = point["refine_history"]
            assert [n for n, _ in history] == [800]
            assert int(row[6]) == 800
            assert float(row[7]) == history[-1][1]

    def test_failed_point_has_empty_history(self, tmp_path, monkeypatch):
        def singular(params, initial, sta, **kw):
            raise SingularDriveError("vanishing gap")

        monkeypatch.setattr(cli.dynamics, "run", singular)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", write_config(tmp_path), "--chis=-1", "--out", str(out)]) == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[5] == "vanishing gap"
        assert row[6:] == ["0", "nan"]
        man = json.loads((out / "run-manifest.json").read_text())
        assert man["points"] == [
            {"chi": -1.0, "refine_history": [], "basis_dim": None, "leakage_bound": None}
        ]

    def test_transition_status_does_not_depend_on_steps(self, tmp_path):
        # chi = +-1 puts the degeneracy on the ramp: the point fails the same
        # way whatever step count the run would have started from
        rows = {}
        for steps in ("400", "800"):
            out = tmp_path / steps
            assert cli.main(["sweep", "fig2-4", "--chis=-1,1", "--steps", steps,
                             "--out", str(out)]) == 0
            rows[steps] = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows["400"] == rows["800"]
        for row, chi in zip(rows["400"], ("-1.0", "1.0")):
            fields = row.split(",")
            assert fields[1] == "nan" and fields[4] == "false"
            assert fields[5] == f"counterdiabatic coefficient singular at chi={chi}"

    def test_sta_on_selects_the_sta_sweep(self, tmp_path):
        path = tmp_path / "fig1.json"
        path.write_text(json.dumps({"preset": "fig1", **FAST_OVERRIDES, "chi_values": [0.5]}))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", str(path), "--sta", "on", "--out", str(out)]) == 0
        man = json.loads((out / "run-manifest.json").read_text())
        assert man["sweep_protocol"] == "sta"
        assert (out / "sweep.csv").read_text().splitlines()[1].split(",")[2] == "sta_polar"

    @pytest.mark.parametrize("preset", ["fig2-4", "fig1"])
    def test_sweep_point_is_the_simulate_readout(self, tmp_path, preset):
        # simulate and sweep read C1 off the same run by the same topology.chern
        cfg_path = write_config(tmp_path, preset=preset)
        sim, sweep = tmp_path / "sim", tmp_path / "sweep"
        assert cli.main(["simulate", cfg_path, "--chi", "0.3", "--out", str(sim)]) == 0
        assert cli.main(["sweep", cfg_path, "--chis=0.3", "--out", str(sweep)]) == 0
        chern = json.loads((sim / "chern.json").read_text())
        row = (sweep / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[5] == "ok"
        assert float(row[1]) == chern["c1"]
        assert row[2] == chern["method"] == {"fig2-4": "sta_polar", "fig1": "linear_response"}[preset]
        assert row[4] == ("true" if chern["converged"] else "false")
        assert int(row[6]) == chern["n_steps_used"]
        assert float(row[7]) == chern["refine_diff"]

    def test_sweep_without_chis(self, tmp_path):
        assert cli.main(["sweep", write_config(tmp_path), "--out", str(tmp_path / "x")]) == 2


class TestBasisRecord:
    @pytest.mark.parametrize("preset, m", [("fig2-4", 8), ("fig1", 10)])
    def test_manifests_record_basis_dim_and_leakage_bound(self, tmp_path, preset, m):
        cfg_path = write_config(tmp_path, preset=preset, n_points=41)
        mans = {}
        for cmd in ("simulate", "wigner", "sweep"):
            out = tmp_path / cmd
            chis = ["--chis=0.5"] if cmd == "sweep" else []
            assert cli.main([cmd, cfg_path, *chis, "--out", str(out)]) == 0
            mans[cmd] = json.loads((out / "run-manifest.json").read_text())
        for record in (mans["simulate"], mans["wigner"], *mans["sweep"]["points"]):
            assert record["basis_dim"] == m
            assert 0 < record["leakage_bound"] <= cli.model.LEAKAGE_TOL


class TestWigner:
    def test_snapshot_files(self, tmp_path):
        cfg_path = write_config(tmp_path, half_width=3.0, n_points=41)
        out = tmp_path / "wig"
        rc = cli.main(["wigner", cfg_path, "--out", str(out)])
        assert rc == 0
        for k in range(5):
            assert (out / f"wigner_t{k}.csv").exists()
        lines = (out / "wigner_t0.csv").read_text().splitlines()
        assert lines[0] == "re_alpha,im_alpha,w,low_confidence"
        assert len(lines) == 1 + 41 * 41
        man = json.loads((out / "run-manifest.json").read_text())
        assert len(man["snapshot_times_us"]) == 5
        assert man["n_steps_used"] == 800
        assert [n for n, _ in man["refine_history"]] == [800]

    def test_sta_off_is_honoured(self, tmp_path):
        cfg_path = write_config(tmp_path, half_width=3.0, n_points=41)
        runs = {}
        for name, flags in (("default", []), ("off", ["--sta", "off"])):
            out = tmp_path / name
            assert cli.main(["wigner", cfg_path, "--out", str(out), *flags]) == 0
            man = json.loads((out / "run-manifest.json").read_text())
            runs[name] = (man["sta"], (out / "trajectory.csv").read_text())
        assert runs["default"][0] is True
        assert runs["off"][0] is False
        assert runs["off"][1] != runs["default"][1]

    def test_file_sta_is_honoured(self, tmp_path):
        # a file's own "sta" holds, --sta wins over it, and a preset's bare
        # ramp (fig1) still gives way to the movie's STA default
        runs = {}
        for name, extra, flags in (
            ("default", {}, []), ("file_off", {"sta": False}, []),
            ("flag_on", {"sta": False}, ["--sta", "on"]), ("fig1", {"preset": "fig1"}, []),
        ):
            cfg_path = write_config(tmp_path, f"{name}.json", half_width=3.0, n_points=41, **extra)
            out = tmp_path / name
            assert cli.main(["wigner", cfg_path, "--out", str(out), *flags]) == 0
            man = json.loads((out / "run-manifest.json").read_text())
            runs[name] = (man["sta"], (out / "trajectory.csv").read_text())
        assert runs["file_off"][0] is False
        assert runs["file_off"][1] != runs["default"][1]
        assert runs["flag_on"] == runs["default"]
        assert runs["fig1"][0] is True

    @pytest.mark.parametrize(
        "setting", [{"n_points": 11}, {"half_width": "nan"}, {"half_width": 0}]
    )
    def test_bad_grid_rejected_before_running(self, tmp_path, monkeypatch, capsys, setting):
        def no_run(*args, **kwargs):
            raise AssertionError("propagation started on an invalid grid config")

        monkeypatch.setattr(cli.dynamics, "run", no_run)
        out = tmp_path / "wig"
        assert cli.main(["wigner", write_config(tmp_path, **setting), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_preset_ok(self, capsys):
        assert cli.main(["validate", "fig2-4"]) == 0
        report = capsys.readouterr().out
        assert "stabilizer_ratio" in report
        assert report.strip().endswith("OK")

    def test_invalid_reports_failure(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, omega0=2 * np.pi * 500.0)
        with pytest.warns(UserWarning):
            rc = cli.main(["validate", cfg_path])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_runtime_estimate_scales_with_steps(self, tmp_path, capsys):
        cfg = cli.resolve_config("fig1")
        est = cli.estimated_runtime_s(cfg)
        worst = cli.estimated_runtime_s(cfg, worst=True)
        assert np.isfinite(est) and est > 0
        # an explicit n_steps N runs 3N steps when it converges at once, 7N at most
        assert worst == pytest.approx(7 / 3 * est)
        # the per-step cost is now cached, so only the step count changes
        cfg.n_steps *= 2
        assert cli.estimated_runtime_s(cfg) == 2 * est
        assert cli.estimated_runtime_s(cfg, worst=True) == 2 * worst
        # from the sample grid: 1200 steps if the first doubling converges,
        # and the budget of 7 passes of 4000 steps at most
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"preset": "fig1", "n_steps": None}))
        assert cli.main(["validate", str(path)]) == 0
        report = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()[:-1])
        step_s = cli.dynamics.step_seconds(cfg.params, cfg.sta)
        # printed to 3 significant digits, so a 0.0 printout fails
        assert float(report["estimated_runtime_s"]) == pytest.approx(1200 * step_s, rel=6e-3)
        assert float(report["max_runtime_s"]) == pytest.approx(28000 * step_s, rel=6e-3)

    def test_linear_response_with_sta_fails(self, capsys):
        assert cli.main(["validate", "fig1", "--sta", "on"]) == 1
        assert "FAIL linear response needs the bare ramp" in capsys.readouterr().out

    def test_movie_snapshots_off_the_sample_grid_fail(self, tmp_path, capsys):
        # 0.375 tau is not a multiple of tau / 42: validate fails it as simulate does
        cfg_path = write_config(tmp_path, protocol="wigner_movie", n_samples=43, n_steps=420)
        assert cli.main(["validate", cfg_path]) == 1
        assert "FAIL snapshot time 0.375 is not on the sample grid" in capsys.readouterr().out
        assert cli.main(["simulate", cfg_path, "--out", str(tmp_path / "movie")]) == 2
        assert "sample grid" in capsys.readouterr().err
        assert not (tmp_path / "movie").exists()
        assert cli.main(["validate", write_config(tmp_path, protocol="wigner_movie")]) == 0
