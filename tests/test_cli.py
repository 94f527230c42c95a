import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knosim
from knosim import cli, dynamics, model, topology, wigner
from knosim.errors import ConfigError, SingularDriveError

FAST_OVERRIDES = {"n_steps": 400, "n_samples": 41}


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = {"preset": "fig2-4", **FAST_OVERRIDES, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def validate_refused(capsys, *argv) -> str:
    """The stderr of validate on argv, which must exit 2 with one error line
    and no report, as every command refuses a config that cannot be built."""
    assert cli.main(["validate", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return err


def run_cli(*args, **env) -> subprocess.CompletedProcess:
    """knosim's command line in a new process, on this source tree, with env
    over the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "knosim.cli", *args],
        env={**os.environ, "PYTHONPATH": pythonpath, **env},
        check=True, capture_output=True, text=True, timeout=300,
    )


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

    @pytest.mark.parametrize("text, error", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "top level must be a JSON object"),
        ('{"protocol": "sta", "kerr": 1}', "missing required keys: pump, omega0, delta_z, tau"),
    ], ids=["syntax", "not-an-object", "missing-keys"])
    def test_invalid_json(self, tmp_path, capsys, text, error):
        path = tmp_path / "broken.json"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and error in line

    @pytest.mark.parametrize("setting", [
        {"n_steps": "many"}, {"n_samples": "x"}, {"jobs": "two"}, {"half_width": "wide"},
        {"n_points": "many"}, {"chi_values": ["x"]}, {"chi_values": "0.5"}, {"n_steps": 400.5},
        {"phi": "x"}, {"kerr": "abc"}, {"tau": None}, {"dim": "many"}, {"dim": 30.5},
        {"sta": "false"}, {"sta": 1}, {"phi": True}, {"jobs": True}, {"preset": []},
        {"chi_values": [0.5, float("nan")]}, {"chi_values": [float("inf")]},
        {"format": "xml"}, {"initial": "ket2"}, {"kerr": -1.0}, {"pump": 0.0}, {"tau": 0.0},
        {"hx_prefactor": "lab"},
    ])
    def test_non_numeric_rejected(self, tmp_path, capsys, setting):
        assert cli.main(["validate", write_config(tmp_path, **setting)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")

    def test_non_finite_chis_named_where_read(self, tmp_path, capsys):
        # the file and the flag alike: not delta_0's error from the first run
        path = write_config(tmp_path, protocol="sweep", chi_values=[0.5, float("nan")])
        assert cli.main(["validate", path]) == 2
        assert cli.main(["sweep", "fig2-4", "--chis=0.5,nan", "--out", str(tmp_path / "sw")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: chi_values must be finite, got [0.5, nan]"] * 2
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("setting", [{"n_steps": 0}, {"n_steps": 99}, {"jobs": 0}])
    def test_zero_steps_or_jobs_rejected(self, tmp_path, setting):
        with pytest.raises(ConfigError):
            cli.resolve_config(write_config(tmp_path, **setting))

    OUT_OF_RULE = [  # (fields replaced, the ConfigError's message); phi is a ModelParams field
        ({"jobs": 0}, "jobs"), ({"format": "xml"}, "format"), ({"initial": "ket2"}, "initial"),
        ({"n_points": 11}, "n_points"), ({"half_width": 0}, "half_width"),
        ({"n_steps": 99}, "n_steps"), ({"chi_values": [float("nan")]}, "chi_values"),
        ({"sta": 1}, "sta"),
        ({"protocol": "sweep"}, "^sweep requires a non-empty chi_values list$"),
        ({"protocol": "linear_response"}, "^linear response needs the bare ramp: set sta off$"),
        ({"sta": False},
         "^the polar-angle readout needs the counterdiabatic ramp: set sta on$"),
        ({"protocol": "linear_response", "sta": False, "phi": 0.3},
         "^linear response assumes phi = 0, got 0.3$"),
        ({"protocol": "linear_response", "sta": False, "n_samples": 5},
         "^need >= 10 curvature samples, got 5$"),
        ({"protocol": "wigner_movie", "n_samples": 43},
         r"^snapshot time 0.375 is not on the sample grid k\*tau/42$"),
        ({"protocol": "bogus"}, "^protocol must be one of .*, got 'bogus'$"),
    ]

    @pytest.mark.parametrize("bad, message", OUT_OF_RULE,
                             ids=[f"bad{i}" for i in range(len(OUT_OF_RULE))])
    def test_out_of_rule_config_refused_at_construction(self, bad, message):
        # a config checks itself: replace() runs the rules, as resolve_config's build does
        cfg = cli.resolve_config("fig2-4")
        model = {k: v for k, v in bad.items() if k in cli._MODEL_KEYS}
        run = {k: v for k, v in bad.items() if k not in model}
        with pytest.raises(ConfigError, match=message):
            replace(cfg, params=replace(cfg.params, **model), **run)

    @pytest.mark.parametrize("build, call", [
        (lambda c: replace(c, jobs=0), lambda p: topology.sweep_workers(0, 1)),
        (lambda c: replace(c, initial="ket2"),
         lambda p: dynamics.evolve(model.drive_set(p), initial="ket2")),
        (lambda c: replace(c, n_points=11), lambda p: wigner.wigner(np.eye(2), n_points=11)),
        (lambda c: replace(c, protocol="sweep"), lambda p: topology.sweep_chi(p, [])),
        (lambda c: replace(c, n_steps=50), lambda p: dynamics.passes(50, 401)),
        (lambda c: replace(c, protocol="linear_response", sta=False, n_samples=5),
         lambda p: topology.check_readout(p, False, 5)),
        (lambda c: replace(c, protocol="linear_response", sta=False,
                           params=replace(c.params, phi=0.3)),
         lambda p: topology.check_readout(replace(p, phi=0.3), False, 401)),
    ], ids=["jobs", "initial", "n_points", "empty-sweep", "n_steps", "readout-samples",
            "readout-phi"])
    def test_one_message_per_rule(self, build, call):
        # the config raises the library's own check, so a rule reads the same from either
        cfg = cli.resolve_config("fig2-4")
        with pytest.raises(ConfigError) as built:
            build(cfg)
        with pytest.raises(ConfigError) as called:
            call(cfg.params)
        assert str(built.value) == str(called.value)

    def test_zero_steps_flag_rejected(self, capsys):
        assert cli.main(["validate", "fig2-4", "--steps", "0"]) == 2
        assert "n_steps" in capsys.readouterr().err

    def test_null_steps_start_at_sample_grid(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"preset": "fig1", "n_steps": None}))
        assert cli.resolve_config(str(path)).n_steps is None

    def test_bad_protocol(self, tmp_path):
        message = "^protocol must be one of .*, got 'adiabatic'$"
        with pytest.raises(ConfigError, match=message):
            cli.resolve_config(write_config(tmp_path, protocol="adiabatic"))
        # a file's own protocol is refused even where a command overrides it
        with pytest.raises(ConfigError, match=message):
            cli.resolve_config(write_config(tmp_path, protocol="adiabatic"),
                               {"protocol": "sweep", "chi_values": [0.5]})


class TestStaDefault:
    """sta defaults to on for a Wigner movie and for a config whose own
    protocol is sta or wigner_movie; a sweep file's own protocol is its preset's."""

    def resolved(self, argv):
        return cli.resolve_config(argv[1], cli._overrides(cli.build_parser().parse_args(argv)))

    def test_config_is_frozen(self):
        cfg = cli.resolve_config("fig2-4")
        with pytest.raises(FrozenInstanceError):
            cfg.protocol = "sweep"

    def test_command_line_resolved_in_one_step(self):
        cfg = self.resolved(["simulate", "fig2-4", "--chi", "0.5", "--initial", "ket1"])
        assert (cfg.protocol, cfg.sta, cfg.initial) == ("sta", True, "ket1")
        assert cfg.params.delta_0 == 0.5 * cfg.params.delta_z
        for argv, protocol, sta in (
            (["sweep", "fig2-4", "--chis=0.5"], "sweep", True),
            (["sweep", "fig1", "--chis=0.5"], "sweep", False),
            (["validate", "fig1", "--chis=0.5"], "sweep", False),
            (["sweep", "fig1", "--chis=0.5", "--sta", "on"], "sweep", True),
            (["wigner", "fig2-4"], "wigner_movie", True),
            (["wigner", "fig1"], "wigner_movie", True),
            (["wigner", "fig1", "--sta", "off"], "wigner_movie", False),
        ):
            cfg = self.resolved(argv)
            assert (cfg.protocol, cfg.sta) == (protocol, sta), argv

    @pytest.mark.parametrize("preset, protocol, sta", [
        ("fig2-4", "linear_response", False), ("fig1", "sta", True),
        ("fig1", "wigner_movie", True), ("fig2-4", "sweep", True), ("fig1", "sweep", False),
    ])
    def test_file_protocol_sets_sta(self, tmp_path, preset, protocol, sta):
        # chi_values: a sweep has a point
        cfg = cli.resolve_config(write_config(tmp_path, preset=preset, protocol=protocol,
                                              chi_values=[0.5]))
        assert (cfg.protocol, cfg.sta) == (protocol, sta)

    def test_sweep_file_without_preset_is_bare(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({k: v for k, v in cli.PRESETS["fig2-4"].items()
                                    if k not in ("protocol", "sta")}
                                | {"protocol": "sweep", "chi_values": [0.5]}))
        assert not cli.resolve_config(str(path)).sta

    @pytest.mark.parametrize("preset, protocol, method", [
        ("fig2-4", "linear_response", "linear_response"), ("fig1", "sta", "sta_polar"),
    ])
    def test_file_protocol_runs_its_readout(self, tmp_path, preset, protocol, method):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, preset=preset, protocol=protocol)
        assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 0
        man = json.loads((out / "run-manifest.json").read_text())
        assert (man["protocol"], man["sta"]) == (protocol, method == "sta_polar")
        assert json.loads((out / "chern.json").read_text())["method"] == method


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

    def test_manifest_counts_matrices_diagonalized(self, tmp_path):
        # every pass: 200 + 400 by default, 400 + 800 from --steps 400
        manifests = {}
        for name, flags in (("a", []), ("b", []), ("steps", ["--steps", "400"])):
            out = tmp_path / name
            assert cli.main(["simulate", "fig2-4", *flags, "--out", str(out)]) == 0
            manifests[name] = (out / "run-manifest.json").read_bytes()
        assert manifests["a"] == manifests["b"]
        man = json.loads(manifests["a"])
        assert (man["steps_computed"], man["n_steps_used"]) == (600, 400)
        assert json.loads(manifests["steps"])["steps_computed"] == 1200

    def test_manifest_records_the_package_version(self, tmp_path):
        # from a source checkout too, where no installed metadata exists
        out = tmp_path / "out"
        assert cli.main(["simulate", write_config(tmp_path), "--out", str(out)]) == 0
        man = json.loads((out / "run-manifest.json").read_text())
        assert man["knosim_version"] == knosim.__version__

    def test_package_version_is_pyprojects(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            assert tomllib.load(f)["project"]["version"] == knosim.__version__

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

    def test_empty_env_out_dir_is_unset(self, tmp_path, monkeypatch):
        # an empty KNOSIM_OUT is no directory: the default out/, not the working directory
        monkeypatch.setenv("KNOSIM_OUT", "")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", write_config(tmp_path)]) == 0
        assert (tmp_path / "out" / "chern.json").exists()
        assert not (tmp_path / "chern.json").exists()

    @pytest.mark.parametrize("setting", [{"sta": True}, {"phi": 0.3}])
    def test_linear_response_checked_before_running(self, tmp_path, monkeypatch, capsys, setting):
        def no_run(*args, **kwargs):
            raise AssertionError("propagation started for an unreadable linear response")

        monkeypatch.setattr(cli.dynamics, "run", no_run)
        cfg_path = write_config(tmp_path, protocol="linear_response", **setting)
        out = tmp_path / "lr"
        assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: linear response")
        assert not out.exists()
        assert validate_refused(capsys, cfg_path) == err

    def test_polar_readout_needs_sta(self, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("propagation started for an unreadable polar angle")

        monkeypatch.setattr(cli.dynamics, "run", no_run)
        cfg_path = write_config(tmp_path, sta=False)
        out = tmp_path / "sta_off"
        assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 2
        assert "polar-angle readout" in capsys.readouterr().err
        assert not out.exists()
        assert validate_refused(capsys, cfg_path) == (
            "error: the polar-angle readout needs the counterdiabatic ramp: set sta on\n")

    def test_non_finite_run_fails(self, tmp_path, capsys, steps_computed):
        # chi = 1e308 overflows the drive: refused where the drive is built,
        # before any propagation and with no numpy warning
        out = tmp_path / "big"
        assert cli.main(["simulate", write_config(tmp_path), "--chi=1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: largest drive at delta_0=")
        assert not out.exists()
        assert steps_computed == []

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"preset": "fig2-4", "bogus": 1}))
        assert cli.main(["simulate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_naming_a_file_fails_before_running(self, tmp_path, capsys, steps_computed):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert cli.main(["simulate", "fig2-4", "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: out must name a directory")
        assert steps_computed == []
        assert cli.main(["validate", "fig2-4", "--out", str(taken)]) == 2
        assert taken.read_text() == "not a directory"

    def test_unwritable_out_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # a file where out's parent should be: found only when the outputs are written
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "out"
        assert cli.main(["simulate", write_config(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_too_few_curvature_samples_fail_before_running(self, tmp_path, capsys,
                                                          steps_computed):
        path = tmp_path / "few.json"
        path.write_text(json.dumps({"preset": "fig1", "n_samples": 5, "n_steps": 400}))
        message = "need >= 10 curvature samples, got 5"
        for command in (["simulate"], ["sweep", "--chis=0.5,1.5"]):
            out = tmp_path / command[0]
            assert cli.main([command[0], str(path), *command[1:], "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()
        assert steps_computed == []
        assert validate_refused(capsys, str(path)) == f"error: {message}\n"


class TestDeterminism:
    def test_outputs_identical_across_blas_threads_and_jobs(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)

        def files(out):
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        def outputs(name, args, **env):
            out = tmp_path / name
            run_cli(*args, "--out", str(out), **env)
            return files(out)

        one = outputs("blas1", ["simulate", cfg_path], OPENBLAS_NUM_THREADS="1")
        two = outputs("blas2", ["simulate", cfg_path], OPENBLAS_NUM_THREADS="2")
        assert "trajectory.csv" in one and one == two
        # the snapshots are samples of the state stack, lifted off the basis
        movie = ["wigner", write_config(tmp_path, "movie.json", half_width=3.0, n_points=41)]
        one = outputs("movie1", movie, OPENBLAS_NUM_THREADS="1")
        two = outputs("movie2", movie, OPENBLAS_NUM_THREADS="2")
        assert "wigner_t4.csv" in one and one == two
        # three points: shares of 2 and 1 at --jobs 2, of one each at --jobs 3
        sweep = ["sweep", cfg_path, "--chis=0.3,1.5,-0.5", "--jobs"]
        serial = outputs("jobs1", [*sweep, "1"])
        assert "sweep.csv" in serial and outputs("jobs2", [*sweep, "2"]) == serial
        # three usable cores, whatever the host has, so --jobs 3 runs three workers
        monkeypatch.setattr(cli.topology.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert cli.main([*sweep, "3", "--out", str(tmp_path / "jobs3")]) == 0
        assert files(tmp_path / "jobs3") == serial


def old_row_table(path_base: Path, fmt: str, header: list[str], rows) -> None:
    """The row-at-a-time writer the column writer replaced, kept as its oracle."""
    def cell(x) -> str:
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (float, np.floating)):
            return "{:.17g}".format(float(x))
        text = str(x)  # quoted, quotes doubled, where a comma, quote or line break would split it
        return '"' + text.replace('"', '""') + '"' if set(text) & set(',"\r\n') else text

    if fmt == "csv":
        lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
        path_base.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    else:
        cols = list(zip(*rows)) if rows else [[] for _ in header]
        obj = {h: [v if not isinstance(v, (float, np.floating)) else float(v) for v in col]
               for h, col in zip(header, cols)}
        path_base.with_suffix(".json").write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308]
CELLS = {
    "float": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True)),
    "bool": st.booleans(),
    "int": st.integers(-(2**62), 2**62),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
}


@st.composite
def tables(draw):
    """(kind, Python values) columns of one kind each."""
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    return [(kind, draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows)))
            for kind in kinds]


class TestColumnWriter:
    @settings(max_examples=200, deadline=None)
    @given(tables(), st.sampled_from(["csv", "json"]))
    def test_bytes_equal_the_row_writer(self, columns, fmt):
        header = [f"c{k}" for k in range(len(columns))]
        # as the CLI builds them: strings as objects, which numpy keeps exact
        arrays = {h: np.array(col, dtype=object if kind == "str" else None)
                  for h, (kind, col) in zip(header, columns)}
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new", Path(tmp) / "old"
            cli._table(new, fmt, arrays)
            old_row_table(old, fmt, header, list(zip(*(col for _, col in columns))))
            suffix = "." + fmt
            assert new.with_suffix(suffix).read_bytes() == old.with_suffix(suffix).read_bytes()

    def test_zero_signs_and_nan_payloads(self, tmp_path):
        # distinct bit patterns are formatted apart, equal ones once
        payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
        col = np.array([0.0, -0.0, 0.0, np.nan, payload_nan, -np.inf, 1e-320, -0.0])
        cli._table(tmp_path / "t", "csv", {"x": col})
        assert (tmp_path / "t.csv").read_text().split() == [
            "x", "0", "-0", "0", "nan", "nan", "-inf", "9.9998886718268301e-321", "-0"]


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
            assert point["steps_computed"] == 1200

    def test_truncated_cat_refused_before_any_point(self, tmp_path, monkeypatch, capsys):
        # alpha0 = sqrt(2) needs 15 levels: the config is refused before any point runs
        def no_run(*args, **kwargs):
            raise AssertionError("a point ran on a truncation that cannot hold the cat")

        monkeypatch.setattr(cli.dynamics, "run", no_run)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "fig2-4", "--dim", "12", "--chis=0.5,1.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: coherent state |1.41421> leaks 1.365e-06 > 1.0e-08 at dim=12: raise dim\n")
        assert not out.exists()

    def test_status_cells_are_quoted(self, tmp_path):
        # the error holds a comma: the cell is quoted, so every row has the
        # header's fields and the text reads back whole
        cfg_path = write_config(tmp_path, delta_z=2.0, omega0=2.0)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", cfg_path, "--chis=0.5,1e308", "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert [len(r) for r in rows] == [8, 8, 8]
        assert rows[0] == list(cli.SWEEP_COLUMNS)
        assert rows[1][5] == "ok" and rows[2][5] == "delta_0 must be finite, got inf"
        assert '"delta_0 must be finite, got inf"' in text

    def test_non_finite_point_fails_alone(self, tmp_path):
        cfg_path = write_config(tmp_path)
        both, alone = tmp_path / "both", tmp_path / "alone"
        assert cli.main(["sweep", cfg_path, "--chis=0.5,1e308", "--out", str(both)]) == 0
        assert cli.main(["sweep", cfg_path, "--chis=0.5", "--out", str(alone)]) == 0
        ok, failed = (both / "sweep.csv").read_text().splitlines()[1:]
        assert ok == (alone / "sweep.csv").read_text().splitlines()[1]
        row = failed.split(",")
        assert row[1:5] == ["nan", "sta_polar", "ket0", "false"]
        assert row[5].startswith("largest drive at delta_0=") and row[6:] == ["0", "nan"]

    def test_out_of_range_delta_0_fails_alone(self, tmp_path):
        # chi * delta_z = 2e308 is not a float: that point's params fail, not the sweep
        cfg_path = write_config(tmp_path, delta_z=2.0, omega0=2.0)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", cfg_path, "--chis=0.5,1e308", "--out", str(out)]) == 0
        ok, failed = (out / "sweep.csv").read_text().splitlines()[1:]
        assert ok.split(",")[5] == "ok"
        assert failed.split(",")[:5] == ["1e+308", "nan", "sta_polar", "ket0", "false"]
        assert "delta_0 must be finite" in failed

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

    def test_points_carry_the_chi_as_typed(self, tmp_path):
        # on fig1, (1.5 * delta_z) / delta_z reads 1.5000000000000002: each row
        # and point is labelled with the chi it was given, not the one read back
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path, preset="fig1")
        assert cli.main(["sweep", cfg_path, "--chis=1.5,-1.5", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[5]) for row in rows] == [("1.5", "ok"), ("-1.5", "ok")]
        man = json.loads((out / "run-manifest.json").read_text())
        assert [p["chi"] for p in man["points"]] == [1.5, -1.5]

    def test_sweep_without_chis(self, tmp_path, capsys):
        assert cli.main(["sweep", write_config(tmp_path), "--out", str(tmp_path / "x")]) == 2
        assert "error: sweep requires a non-empty chi_values list" in capsys.readouterr().err
        # validate refuses the same fault
        assert validate_refused(capsys, write_config(tmp_path, protocol="sweep")) == (
            "error: sweep requires a non-empty chi_values list\n")

    @pytest.mark.parametrize("command, config", [
        ("sweep", {}),
        ("simulate", {"protocol": "sweep", "chi_values": [0.5]}),
    ])
    def test_chi_refused(self, tmp_path, capsys, command, config):
        # --chi sets one run's chi; a sweep's come from --chis or chi_values
        out = tmp_path / "sweep"
        argv = [command, write_config(tmp_path, **config), "--chis=0.5", "--chi", "3",
                "--out", str(out)]
        if command != "sweep":
            argv.remove("--chis=0.5")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--chis" in err
        assert not out.exists()


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

    def test_outputs_carry_the_run_record(self, tmp_path):
        # one run's facts as Trajectory.record gives them, in every output that reports the run
        cfg = cli.resolve_config("fig2-4")
        traj = dynamics.run(cli.topology.point_params(cfg.params, 0.97), sta=True)
        record = json.loads(json.dumps(traj.record()))
        assert set(record) == {"converged", "n_steps_used", "refine_history", "steps_computed",
                               "basis_dim", "leakage_bound"}
        assert len(record["refine_history"]) == 3  # 200 -> 1600 steps near the transition
        sim, sweep = tmp_path / "sim", tmp_path / "sweep"
        assert cli.main(["simulate", "fig2-4", "--chi", "0.97", "--out", str(sim)]) == 0
        assert cli.main(["sweep", "fig2-4", "--chis=0.97", "--out", str(sweep)]) == 0
        manifest = json.loads((sim / "run-manifest.json").read_text())
        assert {k: manifest[k] for k in record} == record
        chern = json.loads((sim / "chern.json").read_text())
        point, = json.loads((sweep / "run-manifest.json").read_text())["points"]
        for entry, keys in ((chern, ("converged", "n_steps_used", "refine_history")),
                            (point, ("refine_history", "steps_computed", "basis_dim",
                                     "leakage_bound"))):
            assert {k: entry[k] for k in keys} == {k: record[k] for k in keys}


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

    def test_json_format(self, tmp_path):
        cfg_path = write_config(tmp_path, half_width=3.0, n_points=41)
        csv, js = tmp_path / "csv", tmp_path / "json"
        assert cli.main(["wigner", cfg_path, "--out", str(csv)]) == 0
        assert cli.main(["wigner", cfg_path, "--format", "json", "--out", str(js)]) == 0
        for k in range(5):
            obj = json.loads((js / f"wigner_t{k}.json").read_text())
            assert list(obj) == ["im_alpha", "low_confidence", "re_alpha", "w"]
            assert all(len(col) == 41 * 41 for col in obj.values())
            assert obj["low_confidence"] == [False] * (41 * 41)
            # row by row the CSV's cells, im_alpha outer and re_alpha inner
            rows = [line.split(",") for line in
                    (csv / f"wigner_t{k}.csv").read_text().splitlines()[1:]]
            for h, col in enumerate(("re_alpha", "im_alpha", "w")):
                assert [float(r[h]) for r in rows] == obj[col]
        # the axis is exactly mirror-symmetric, with exact endpoints and 0 in the middle
        axis = obj["re_alpha"][:41]
        assert axis == [-v for v in reversed(axis)]
        assert (axis[0], axis[20], axis[-1]) == (-3.0, 0.0, 3.0)
        assert np.abs(np.array(axis) - np.linspace(-3.0, 3.0, 41)).max() <= 1e-15
        assert obj["re_alpha"] == axis * 41
        assert obj["im_alpha"] == [v for v in axis for _ in range(41)]

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


    @pytest.mark.parametrize("n_samples", [5, 41, 42, 43, 45, 401])
    def test_validate_and_the_movie_agree_on_the_sample_grid(self, tmp_path, capsys, n_samples):
        # the snapshots are the sample rows k = f (n_samples - 1), f = 0, 1/4, ..., 1
        cfg_path = write_config(tmp_path, protocol="wigner_movie", n_samples=n_samples,
                                half_width=3.0, n_points=41)
        on_grid = (n_samples - 1) % 4 == 0
        grid = rf"^error: snapshot time \S+ is not on the sample grid k\*tau/{n_samples - 1}$"
        if on_grid:
            assert cli.main(["validate", cfg_path]) == 0
            assert capsys.readouterr().err == ""
        else:
            assert re.fullmatch(grid + "\n", validate_refused(capsys, cfg_path))
        out = tmp_path / "movie"
        assert cli.main(["wigner", cfg_path, "--format", "json", "--out", str(out)]) == (
            0 if on_grid else 2)
        assert out.exists() is on_grid
        if not on_grid:
            return
        cfg = cli.resolve_config(cfg_path)
        traj = dynamics.run(cfg.params, initial=cfg.initial, sta=cfg.sta, n_steps=cfg.n_steps,
                            n_samples=n_samples)
        for i, k in enumerate(range(0, n_samples, (n_samples - 1) // 4)):
            state = traj.system.lift(traj.states[k])
            want = wigner.wigner([state], half_width=3.0, n_points=41)[0].values.ravel()
            got = np.array(json.loads((out / f"wigner_t{i}.json").read_text())["w"])
            assert got.tobytes() == want.tobytes()


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

    def test_smallest_truncation_that_holds_the_cat_validates(self, capsys):
        assert cli.main(["validate", "fig2-4", "--dim", "16"]) == 0
        assert capsys.readouterr().out.strip().endswith("OK")

    def test_truncation_that_loses_the_cat_is_one_error(self, capsys):
        assert cli.main(["validate", "fig2-4", "--dim", "12"]) == 2
        report = capsys.readouterr()
        assert report.out == ""
        assert report.err == (
            "error: coherent state |1.41421> leaks 1.365e-06 > 1.0e-08 at dim=12: raise dim\n")

    def test_stabilizer_warning(self, tmp_path):
        with pytest.warns(UserWarning, match="stabilizer ratio"):
            cli.resolve_config(write_config(tmp_path, preset="fig1", omega0=2 * np.pi * 1000 / 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.resolve_config("fig1")  # stabilizer ratio 0.1, below STABILIZER_RATIO_WARN

    def test_sweep_warns_once(self, tmp_path):
        # once per resolved config: not again for each sweep point, nor in a worker
        sweep = ["sweep", write_config(tmp_path, omega0=50.0, delta_z=50.0), "--chis=0.5,1.5,0.3"]
        with pytest.warns(UserWarning, match="stabilizer ratio") as record:
            assert cli.main([*sweep, "--out", str(tmp_path / "serial")]) == 0
        assert len(record) == 1
        two = run_cli(*sweep, "--jobs", "2", "--out", str(tmp_path / "two"))
        assert two.stderr.count("stabilizer ratio") == 1

    def test_stabilizer_warning_names_the_resolver(self, tmp_path):
        with pytest.warns(UserWarning, match="stabilizer ratio") as record:
            cli.resolve_config(write_config(tmp_path, omega0=50.0, delta_z=50.0))
        assert [w.filename for w in record] == [cli.__file__]

    def test_overflowing_drive_is_invalid(self, capsys):
        # the drive overflows where it is built: a FAIL line, no numpy warning
        assert cli.main(["validate", "fig2-4", "--chi", "1e308"]) == 1
        report = capsys.readouterr()
        assert re.search(r"^FAIL model: largest drive at delta_0=\S+: overflow", report.out, re.M)
        assert report.out.strip().endswith("INVALID")
        assert report.err == ""

    def test_chi_line_is_short(self, capsys):
        assert cli.main(["validate", "fig2-4", "--chi", "1e308"]) == 1
        report = capsys.readouterr().out.splitlines()
        assert "chi                 1e+308" in report
        assert max(len(line) for line in report) < 100

    def test_chis_check_the_sweep_as_typed(self, capsys, monkeypatch):
        # one run per chi, as the sweep of the same command line takes them
        monkeypatch.setattr(cli.dynamics, "step_seconds", lambda params, sta: 2e-5)

        def estimate(*flags):
            assert cli.main(["validate", "fig2-4", *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            return float(dict(line.split(maxsplit=1) for line in lines[:-1])["estimated_runtime_s"])

        assert estimate("--chis=-1.5,0.5,1.5") == pytest.approx(3 * estimate())
        # the sweep's largest share: 2 of its 3 points with two workers, 1 with three
        monkeypatch.setattr(cli.topology.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert estimate("--chis=-1.5,0.5,1.5", "--jobs", "2") == pytest.approx(2 * estimate())
        assert estimate("--chis=-1.5,0.5,1.5", "--jobs", "3") == pytest.approx(estimate())
        # on one usable core every point runs in this process
        monkeypatch.setattr(cli.topology.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert estimate("--chis=-1.5,0.5,1.5", "--jobs", "2") == pytest.approx(3 * estimate())
        assert cli.main(["validate", "fig2-4", "--chis=0.5,nan"]) == 2
        assert capsys.readouterr().err == "error: chi_values must be finite, got [0.5, nan]\n"

    def test_sweep_without_chi_values_has_no_run_to_time(self, tmp_path, capsys):
        # refused before any point is built: one error line, no report, no runtime
        err = validate_refused(capsys, write_config(tmp_path, protocol="sweep"))
        assert err == "error: sweep requires a non-empty chi_values list\n"
        assert "runtime_s" not in err

    def test_chis_build_every_point(self, capsys):
        # a point the sweep cannot build fails validation by its chi, as the sweep fails it
        assert cli.main(["validate", "fig2-4", "--chis=0.5,1e308"]) == 1
        report = capsys.readouterr()
        fails = [line for line in report.out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL chi=1e+308: largest drive at")
        assert report.out.strip().endswith("INVALID")
        assert report.err == ""
        # built, but its counterdiabatic term overflows at every sample
        assert cli.main(["validate", "fig2-4", "--chis=0.5,1e200"]) == 1
        assert "FAIL chi=1e+200: counterdiabatic coefficient at chi=1e+200: overflow" in (
            capsys.readouterr().out)
        assert cli.main(["validate", "fig2-4", "--chis=-1.5,0.5,1.5"]) == 0
        assert capsys.readouterr().out.strip().endswith("OK")

    def test_each_point_stepped_and_a_step_timed_once(self, monkeypatch, capsys, steps_computed):
        # each point takes one warm-up run, as its run would step; the step's cost,
        # set by the basis size (8 at every point) and sta alone, is timed once, in
        # five runs; the two estimates step the first point again
        monkeypatch.setattr(dynamics, "_STEP_SECONDS", {})
        assert cli.main(["validate", "fig2-4", "--chis=-1.5,0.5,1.5"]) == 0
        assert capsys.readouterr().out.strip().endswith("OK")
        assert steps_computed == [dynamics.MIN_STEPS] * (3 + 5 + 2)

    def test_sweep_timed_on_its_own_points(self, tmp_path, capsys):
        # the config's own delta_0 overflows the drive, but no sweep point
        # uses it: each point builds, so the sweep validates as it runs
        cfg_path = write_config(tmp_path, protocol="sweep", chi_values=[0.5, 1.5], delta_0=1e300)
        assert cli.main(["validate", cfg_path]) == 0
        report = capsys.readouterr().out
        assert "FAIL" not in report and "estimated_runtime_s" in report
        assert report.strip().endswith("OK")
        # headed by the values its points run, not by the config's own delta_0 and chi
        assert "chi_values          [0.5, 1.5]" in report.splitlines()
        assert "1e+300" not in report and "delta_0" not in report

    def test_single_run_built_at_its_samples(self, capsys):
        # the counterdiabatic term is singular on the one run's ramp: labelled model
        assert cli.main(["validate", "fig2-4", "--chi", "1"]) == 1
        report = capsys.readouterr().out.splitlines()
        assert [line for line in report if line.startswith("FAIL")] == [
            "FAIL model: counterdiabatic coefficient singular at chi=1.0"]
        assert report[-1] == "INVALID"

    def test_runtime_estimate_scales_with_steps(self, tmp_path, capsys):
        cfg = cli.resolve_config("fig1")
        est = cli.estimated_runtime_s(cfg)
        worst = cli.estimated_runtime_s(cfg, worst=True)
        assert np.isfinite(est) and est > 0
        # an explicit n_steps N runs 3N steps when it converges at once, 7N at most
        assert worst == pytest.approx(7 / 3 * est)
        # the per-step cost is now cached, so only the step count changes
        cfg = replace(cfg, n_steps=2 * cfg.n_steps)
        assert cli.estimated_runtime_s(cfg) == 2 * est
        assert cli.estimated_runtime_s(cfg, worst=True) == 2 * worst
        # from half the sample grid: 600 steps if the first doubling converges,
        # and at most every pass of its ladder, 200 to 12800 steps
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"preset": "fig1", "n_steps": None}))
        assert cli.main(["validate", str(path)]) == 0
        report = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()[:-1])
        step_s = cli.dynamics.step_seconds(cfg.params, cfg.sta)
        # printed to 3 significant digits, so a 0.0 printout fails
        assert float(report["estimated_runtime_s"]) == pytest.approx(600 * step_s, rel=6e-3)
        assert float(report["max_runtime_s"]) == pytest.approx(25400 * step_s, rel=6e-3)

    def test_movie_estimate_adds_its_grids(self, tmp_path, monkeypatch):
        # the step and movie timers patched: 600 steps of 2e-5 s plus the
        # five snapshots' grids and tables at the config's dim and grid, its
        # half-width included (the grid's distinct radii set the cost)
        calls = []

        def movie_seconds(dim, n_points, half_width):
            calls.append((dim, n_points, half_width))
            return 0.25

        monkeypatch.setattr(cli.dynamics, "step_seconds", lambda params, sta: 2e-5)
        monkeypatch.setattr(cli, "movie_seconds", movie_seconds)
        movie = cli.resolve_config(write_config(tmp_path, protocol="wigner_movie", n_steps=None,
                                                n_samples=401, n_points=61, half_width=3.0))
        assert cli.estimated_runtime_s(movie) == pytest.approx(600 * 2e-5 + 0.25)
        assert cli.estimated_runtime_s(movie, worst=True) == pytest.approx(25400 * 2e-5 + 0.25)
        assert calls == [(30, 61, 3.0)] * 2
        movie = replace(movie, protocol="sta")
        assert cli.estimated_runtime_s(movie) == pytest.approx(600 * 2e-5)
        assert len(calls) == 2

    def test_movie_estimate_counts_its_tables(self, monkeypatch):
        # each column formatted made SLEEP slower: the timed movie (a warm-up
        # call, then the median of three) grows by that much per column, 4
        # columns for each of the 5 grids
        SLEEP = 0.01
        column_text = cli._column_text
        formatted = []

        def slow_column_text(col):
            formatted.append(col.size)
            time.sleep(SLEEP)
            return column_text(col)

        cli.movie_seconds.cache_clear()
        fast = cli.movie_seconds(30, 41, 3.0)
        monkeypatch.setattr(cli, "_column_text", slow_column_text)
        cli.movie_seconds.cache_clear()
        try:
            slow = cli.movie_seconds(30, 41, 3.0)
        finally:
            cli.movie_seconds.cache_clear()
        assert formatted == [41 * 41] * (4 * 20)
        # 10 % slack for the host's noise in the unpatched part
        assert slow - fast >= 0.9 * 20 * SLEEP

    def test_linear_response_with_sta_fails(self, tmp_path, capsys):
        assert validate_refused(capsys, "fig1", "--sta", "on") == (
            "error: linear response needs the bare ramp: set sta off\n")
        out = tmp_path / "lr"
        assert cli.main(["simulate", "fig1", "--sta", "on", "--out", str(out)]) == 2
        assert "linear response needs the bare ramp" in capsys.readouterr().err
        assert not out.exists()

    def test_movie_snapshots_off_the_sample_grid_fail(self, tmp_path, capsys):
        # 0.375 tau is not a multiple of tau / 42: validate refuses it as simulate does
        cfg_path = write_config(tmp_path, protocol="wigner_movie", n_samples=43, n_steps=420)
        assert validate_refused(capsys, cfg_path) == (
            "error: snapshot time 0.375 is not on the sample grid k*tau/42\n")
        assert cli.main(["simulate", cfg_path, "--out", str(tmp_path / "movie")]) == 2
        assert "sample grid" in capsys.readouterr().err
        assert not (tmp_path / "movie").exists()
        assert cli.main(["validate", write_config(tmp_path, protocol="wigner_movie")]) == 0
