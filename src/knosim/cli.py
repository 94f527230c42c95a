"""Command-line experiment runner.

Subcommands: ``simulate`` (protocol from the config), ``sweep`` (Chern number
vs chi), ``wigner`` (tomography snapshots along the counterdiabatic ramp) and
``validate`` (resolve and sanity-check a configuration without running).

Configurations are JSON files with a strict key schema, or one of the
built-in preset names (``fig1``, ``fig2-4``). Everything is deterministic:
identical configs produce byte-identical outputs. The output directory can
also be set through the KNOSIM_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, dynamics, model, topology, wigner as wigner_mod
from .errors import ConfigError, KnosimError
from .model import ModelParams
from .presets import PRESETS

SNAPSHOT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
FLOAT_FMT = "{:.17g}"
_CSV_QUOTED = re.compile(r'[,"\r\n]')  # cells holding one are quoted, as by csv.writer()

_MODEL_KEYS = {  # key -> the number type it is read as (_read); None for as given
    "kerr": float, "pump": float, "omega0": float, "delta_z": float, "delta_0": float,
    "tau": float, "schedule": None, "phi": float, "hx_prefactor": None, "dim": int,
}
_RUN_KEYS = {  # the same, for ExperimentConfig's fields read from a config
    "initial": None, "n_steps": int, "n_samples": int, "format": None, "jobs": int,
    "half_width": float, "n_points": int,
}
_ALL_KEYS = set(_MODEL_KEYS) | set(_RUN_KEYS) | {"protocol", "sta", "chi_values", "out", "preset"}

_PROTOCOLS = ("linear_response", "sta", "sweep", "wigner_movie")


def _check_protocol(protocol) -> None:
    if protocol not in _PROTOCOLS:
        raise ConfigError(f"protocol must be one of {_PROTOCOLS}, got {protocol!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's protocol, model and settings, defaults included; building one,
    by dataclasses.replace too, raises ConfigError for a field out of rule or
    a run that cannot be taken. A rule the library owns is checked by the
    owner's own call, so the config and the library refuse it in one text."""

    protocol: str
    params: ModelParams
    sta: bool
    initial: str = "ket0"
    n_steps: int | None = None  # None: start at the sample grid (dynamics.passes)
    n_samples: int = dynamics.DEFAULT_N_SAMPLES
    chi_values: list[float] = field(default_factory=list)
    out: str = "out"
    format: str = "csv"
    jobs: int = 1
    half_width: float = 4.5
    n_points: int = 81

    def __post_init__(self):
        _check_protocol(self.protocol)
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        dynamics.check_initial(self.initial)
        if not isinstance(self.sta, bool):
            raise ConfigError(f"sta must be true or false, got {self.sta!r}")
        dynamics.passes(self.n_steps, self.n_samples)
        topology.sweep_workers(self.jobs, len(self.chi_values) if self.protocol == "sweep" else 1)
        if not np.isfinite(self.chi_values).all():
            raise ConfigError(f"chi_values must be finite, got {self.chi_values}")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ConfigError(f"half_width must be finite and > 0, got {self.half_width}")
        wigner_mod.check_grid(self.n_points)
        if self.protocol == "linear_response":
            topology.check_bare_ramp(self.sta)
        if self.protocol == "sta" and not self.sta:
            raise ConfigError("the polar-angle readout needs the counterdiabatic ramp: set sta on")
        if self.protocol != "wigner_movie":
            topology.check_readout(self.params, self.sta, self.n_samples)
        elif off_grid := [f for f in SNAPSHOT_FRACTIONS
                          if not (f * (self.n_samples - 1)).is_integer()]:
            raise ConfigError(f"snapshot time {off_grid[0] * self.params.tau} is not on the "
                              f"sample grid k*tau/{self.n_samples - 1}")


def _load_raw(spec: str) -> dict:
    """The config of a preset or a JSON file; a file's own keys override
    those of the preset it names, which stays under "preset"."""
    if spec in PRESETS:
        return dict(PRESETS[spec])
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"{spec!r} is neither a preset ({', '.join(PRESETS)}) nor a file")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    base = raw.get("preset")
    if "preset" in raw and not (isinstance(base, str) and base in PRESETS):
        raise ConfigError(f"{path}: unknown preset {base!r}")
    return {**PRESETS.get(base, {}), **raw}


def _read(kind, value, key: str):
    """value read as kind, int or float, or as given for None; anything else,
    a boolean or a fractional int included, is a ConfigError naming key."""
    if kind is None:
        return value
    try:
        number = kind(value)
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and number != value):
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    return number


def resolve_config(spec: str, overrides: dict | None = None) -> ExperimentConfig:
    """The config of spec, a preset name or a JSON file path, under overrides:
    config keys (a command line's flags and the protocol its command runs,
    see _overrides) over the config's own, and "chi", one run's delta_0 =
    chi * delta_z. sta defaults to on for a Wigner movie and for a config
    whose own protocol reads the counterdiabatic ramp, sta or wigner_movie;
    a sweep file's is the protocol of the preset it names. A stabilizer ratio
    above model.STABILIZER_RATIO_WARN warns once, for all of a sweep's points."""
    raw = _load_raw(spec)
    unknown = set(raw) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    own = raw.get("protocol")
    _check_protocol(own)  # the file's own, which a command's may override
    if own == "sweep":
        own = PRESETS.get(raw.get("preset"), {}).get("protocol")
    raw.update(overrides or {})
    protocol, chi = raw["protocol"], raw.pop("chi", None)
    missing = [k for k in ("kerr", "pump", "omega0", "delta_z", "tau") if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    params = ModelParams(**{k: _read(kind, raw[k], k)
                            for k, kind in _MODEL_KEYS.items() if k in raw})
    if params.stabilizer_ratio > model.STABILIZER_RATIO_WARN:
        warnings.warn(  # the message on lines of its own: the printed warning quotes this one
            f"stabilizer ratio exp(2 a0^2)*Omega0/P = {params.stabilizer_ratio:.3f} "
            f"> {model.STABILIZER_RATIO_WARN}: drives compete with the stabilizer")
    if chi is not None and protocol == "sweep":
        raise ConfigError("--chi sets one run's chi: give a sweep its chi values with --chis")
    params = params if chi is None else topology.point_params(params, chi)
    out = str(raw.get("out") or os.environ.get("KNOSIM_OUT") or ExperimentConfig.out)
    if Path(out).exists() and not Path(out).is_dir():
        raise ConfigError(f"out must name a directory, got the file {out!r}")
    chis = raw.get("chi_values", [])
    if not isinstance(chis, list):
        raise ConfigError(f"chi_values must be a list of numbers, got {chis!r}")
    if raw.get("n_steps", 0) is None:
        del raw["n_steps"]  # null: the default, start at the sample grid
    return ExperimentConfig(
        protocol=protocol,
        params=params,
        sta=raw.get("sta", own in ("sta", "wigner_movie") or protocol == "wigner_movie"),
        chi_values=[_read(float, c, "chi_values entry") for c in chis],
        out=out,
        **{k: _read(kind, raw[k], k) for k, kind in _RUN_KEYS.items() if k in raw},
    )


# ---------------------------------------------------------------- output ---

def _csv_cell(text: str) -> str:
    """text as a CSV cell: in double quotes, each quote doubled, when it holds
    a comma, a quote or a line break; as it is otherwise."""
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


def _column_text(col: np.ndarray) -> list[str]:
    """One column's CSV cells: FLOAT_FMT for floats, each distinct bit
    pattern formatted once (so -0.0 and 0.0 stay apart), true/false for
    bools and str, quoted where it must be (_csv_cell), otherwise."""
    if col.dtype.kind == "f":
        bits, where = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
        text = [FLOAT_FMT.format(v) for v in bits.view(np.float64).tolist()]
        return [text[i] for i in where.tolist()]
    if col.dtype.kind == "b":
        return ["true" if v else "false" for v in col.tolist()]
    return [_csv_cell(str(v)) for v in col.tolist()]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _table(path_base: Path, fmt: str, columns: dict[str, np.ndarray]) -> None:
    """Write columns, name -> 1-D array in column order, as a CSV table or
    as a JSON object of lists, where a non-finite float is null."""
    if fmt == "csv":
        cells = zip(*(_column_text(col) for col in columns.values()))
        lines = [",".join(columns), *map(",".join, cells)]
        path_base.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    else:  # JSON has no NaN or Infinity
        _write_json(path_base.with_suffix(".json"), {
            h: (np.where(np.isfinite(col), col, None) if col.dtype.kind == "f" else col).tolist()
            for h, col in columns.items()})


def _manifest(cfg: ExperimentConfig, extra: dict) -> dict:
    p = cfg.params
    man = {
        "knosim_version": __version__,
        "protocol": cfg.protocol,
        "params": asdict(p),
        "derived": {
            "alpha0": p.alpha0,
            "chi": p.chi,
            "stabilizer_ratio": p.stabilizer_ratio,
        },
        "initial": cfg.initial,
        "sta": cfg.sta,
        "n_steps": cfg.n_steps,
        "n_samples": cfg.n_samples,
        "format": cfg.format,
    }
    man.update(extra)
    return man


TRAJ_HEADER = ["t_us", "theta_rad", "sx", "sy", "sz", "pop", "norm"]
READOUT_TABLES = {  # a run's sta -> the file and header of the series chern reads
    False: ("curvature", ["theta_rad", "b_theta"]),
    True: ("theta_q", ["theta_rad", "theta_q_rad"]),
}
CHERN_FIELDS = (  # the ChernResult fields chern.json records
    "c1", "method", "chi", "initial", "converged", "refine_diff", "n_steps_used",
    "refine_history", "c1_quadrature", "warning",
)
SWEEP_COLUMNS = {  # sweep.csv's columns and their types; strings as objects, kept exact
    "chi": float, "c1": float, "method": object, "initial": object, "converged": bool,
    "status": object, "n_steps_used": int, "refine_diff": float,
}


# ------------------------------------------------------------- protocols ---

def _grid_columns(grid: wigner_mod.WignerGrid) -> dict[str, np.ndarray]:
    """A Wigner grid's table: row i, column j is W(axis[j] + 1i*axis[i]).
    low_confidence is constant false: nothing is truncated."""
    n = grid.axis.size
    return {
        "re_alpha": np.tile(grid.axis, n),
        "im_alpha": np.repeat(grid.axis, n),
        "w": grid.values.ravel(),
        "low_confidence": np.zeros(n * n, dtype=bool),
    }


def _movie_rows(cfg: ExperimentConfig) -> list[int]:
    """The sample rows k = f * (n_samples - 1) of the Wigner movie's
    snapshots, f in SNAPSHOT_FRACTIONS."""
    return [int(f * (cfg.n_samples - 1)) for f in SNAPSHOT_FRACTIONS]


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the configured protocol; returns the manifest. File writes happen
    in one serial phase after all computation."""
    outdir = Path(cfg.out)
    tables = {}  # basename -> columns (see _table)
    records = {}  # basename -> a JSON object

    if cfg.protocol == "sweep":
        results = topology.sweep_chi(
            cfg.params, cfg.chi_values, sta=cfg.sta, initial=cfg.initial,
            jobs=cfg.jobs, n_steps=cfg.n_steps, n_samples=cfg.n_samples,
        )
        tables["sweep"] = {
            h: np.array([(r.error or "ok") if h == "status" else getattr(r, h) for r in results],
                        dtype=kind)
            for h, kind in SWEEP_COLUMNS.items()
        }
        extra = {
            "sweep_protocol": "sta" if cfg.sta else "linear_response",
            "n_points": len(results),
            "points": [
                {"chi": r.chi, "refine_history": r.refine_history,
                 "basis_dim": r.basis_dim, "leakage_bound": r.leakage_bound,
                 # a failed point's run raised before it could count its passes
                 **({} if r.error else {"steps_computed": r.steps_computed})}
                for r in results
            ],
        }
    else:  # one trajectory, then its Wigner snapshots or topology.chern's readout
        traj = dynamics.run(
            cfg.params, initial=cfg.initial, sta=cfg.sta,
            n_steps=cfg.n_steps, n_samples=cfg.n_samples,
        )
        tables["trajectory"] = dict(zip(TRAJ_HEADER, (
            traj.t, traj.theta, traj.sx, traj.sy, traj.sz, traj.pop, traj.norm)))
        extra = {**traj.record(),
                 "final_edge_population": float(np.sum(np.abs(traj.final_state[-3:]) ** 2))}
        if cfg.protocol == "wigner_movie":
            extra["snapshot_times_us"] = [f * cfg.params.tau for f in SNAPSHOT_FRACTIONS]
            # one row at a time: a stacked lift is not bitwise the same
            states = [traj.system.lift(traj.states[k]) for k in _movie_rows(cfg)]
            grids = wigner_mod.wigner(states, cfg.half_width, cfg.n_points)
            for k, grid in enumerate(grids):
                tables[f"wigner_t{k}"] = _grid_columns(grid)
        else:
            chern = topology.chern(traj)
            name, header = READOUT_TABLES[cfg.sta]
            tables[name] = dict(zip(header, chern.series.T))
            records["chern"] = {k: getattr(chern, k) for k in CHERN_FIELDS}
            records["chern"]["stabilizer_ratio"] = cfg.params.stabilizer_ratio

    manifest = _manifest(cfg, extra)

    outdir.mkdir(parents=True, exist_ok=True)
    for name, columns in tables.items():
        _table(outdir / name, cfg.format, columns)
    for name, record in {**records, "run-manifest": manifest}.items():
        _write_json(outdir / f"{name}.json", record)
    return manifest


def movie_seconds(dim: int, n_points: int, half_width: float) -> float:
    """Cost of a Wigner movie's grids past its run, timed once: the stacked
    wigner call on its snapshots of dim levels over its own grid (whose count
    of distinct radii sets the recurrence's cost), and the CSV text of each
    grid's columns."""
    states = np.full((len(SNAPSHOT_FRACTIONS), dim), dim**-0.5, dtype=complex)
    start = time.perf_counter()
    for grid in wigner_mod.wigner(states, half_width, n_points):
        for col in _grid_columns(grid).values():
            _column_text(col)
    return time.perf_counter() - start


def estimated_runtime_s(cfg: ExperimentConfig, step_s: float, start_s: float) -> tuple[float, float]:
    """The config's runtime in seconds, as (estimate, most): the command's
    start-up start_s, plus the steps (matrices diagonalized) of the runs one
    process does times step_s, the measured cost of one. The estimate has
    each run converge at its first doubling, the most has each run every
    pass of its ladder (dynamics.passes). That is one run, or a sweep's
    largest share, ceil(points / workers) runs for its
    topology.sweep_workers. A Wigner movie adds its grids and their tables
    (movie_seconds). Nothing is stepped."""
    points = len(cfg.chi_values) if cfg.protocol == "sweep" else 1
    n_runs = -(-points // topology.sweep_workers(cfg.jobs, points))
    ladder = dynamics.passes(cfg.n_steps, cfg.n_samples)
    if cfg.protocol == "wigner_movie":
        start_s += movie_seconds(cfg.params.dim, cfg.n_points, cfg.half_width)
    return start_s + n_runs * sum(ladder[:2]) * step_s, start_s + n_runs * sum(ladder) * step_s


def validate_config(cfg: ExperimentConfig, start_s: float) -> tuple[bool, list[str]]:
    """Checks without running; returns (ok, report lines). Each of the config's
    runs, the one run or each sweep point, is built and stepped as it runs by
    dynamics.step_seconds, and the mean of their step costs, with start_s,
    the seconds the command took to start, gives the runtimes
    (estimated_runtime_s). A sweep's header lists its chi values, not the
    config's own delta_0 and chi."""
    p = cfg.params
    sweep = cfg.protocol == "sweep"
    lines = [f"protocol            {cfg.protocol}"]
    lines += [f"{k:<19} {v}" for k, v in asdict(p).items() if not (sweep and k == "delta_0")]
    lines.append(f"alpha0              {p.alpha0:.6f}")
    lines.append(f"{'chi_values':<19} {cfg.chi_values}" if sweep else f"{'chi':<19} {p.chi:.6g}")
    lines.append(f"stabilizer_ratio    {p.stabilizer_ratio:.6f}")
    if p.stabilizer_ratio > model.STABILIZER_RATIO_WARN:
        lines.append(f"FAIL stabilizer ratio exceeds {model.STABILIZER_RATIO_WARN}")
    step_costs = []  # seconds per step of each run that steps
    for chi in cfg.chi_values if sweep else [None]:
        try:  # built and stepped as the run steps, a sweep point from its chi
            step_costs.append(dynamics.step_seconds(
                p if chi is None else topology.point_params(p, chi), cfg.sta))
        except KnosimError as exc:
            lines.append(f"FAIL {'model' if chi is None else f'chi={chi:.6g}'}: {exc}")
    if step_costs:
        estimate, most = estimated_runtime_s(cfg, sum(step_costs) / len(step_costs), start_s)
        lines.append(f"estimated_runtime_s {estimate:.3g}")
        lines.append(f"max_runtime_s       {most:.3g}")
    ok = not any(line.startswith("FAIL ") for line in lines)
    lines.append("OK" if ok else "INVALID")
    return ok, lines


# ------------------------------------------------------------------ main ---

def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("config", help="preset name or JSON config path")
    sub.add_argument("--chi", type=float, help="override delta_0 = chi * delta_z")
    sub.add_argument("--initial", choices=["ket0", "ket1"])
    sub.add_argument("--sta", choices=["on", "off"])
    sub.add_argument("--steps", type=int, dest="n_steps")
    sub.add_argument("--dim", type=int)
    sub.add_argument("--out")
    sub.add_argument("--format", choices=["csv", "json"])
    sub.add_argument("--jobs", type=int)


def _overrides(args: argparse.Namespace) -> dict:
    """The command line as resolve_config's overrides: its flags, and the
    protocol of a sweep (the sweep command, or --chis) or a Wigner movie."""
    ov = {k: v for k in ("protocol", "chi", "initial", "n_steps", "dim", "out", "format", "jobs")
          if (v := getattr(args, k, None)) is not None}
    if args.sta is not None:
        ov["sta"] = args.sta == "on"
    if getattr(args, "chis", None):
        ov.update(chi_values=args.chis.split(","), protocol="sweep")
    return ov


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="knosim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the protocol named in the config")
    _add_common(sim)

    sw = sub.add_parser("sweep", help="Chern number vs chi")
    _add_common(sw)
    sw.add_argument("--chis", help="comma-separated chi values")
    sw.set_defaults(protocol="sweep")

    wg = sub.add_parser("wigner", help="Wigner snapshots along the ramp")
    _add_common(wg)
    wg.set_defaults(protocol="wigner_movie")

    va = sub.add_parser("validate", help="resolve and check a config")
    _add_common(va)
    va.add_argument("--chis", help="comma-separated chi values: check the sweep over them")
    return ap


def main(argv=None) -> int:
    start_s = time.process_time()  # the process's start-up: its interpreter and imports
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, _overrides(args))
        if args.command == "validate":
            ok, lines = validate_config(cfg, start_s)
            print("\n".join(lines))
            return 0 if ok else 1

        manifest = run_experiment(cfg)
        print(json.dumps({k: manifest[k] for k in ("protocol", "converged")
                          if k in manifest}))
        print(f"wrote outputs to {cfg.out}")
        return 0
    except (KnosimError, OSError) as exc:  # an OSError: the outputs could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
