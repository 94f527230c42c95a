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
import functools
import json
import os
import sys
import timeit
from dataclasses import asdict, dataclass, field, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from . import dynamics, fock, model, topology, wigner as wigner_mod
from .errors import ConfigError, KnosimError
from .model import ModelParams
from .presets import PRESETS

SNAPSHOT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
FLOAT_FMT = "{:.17g}"

_MODEL_KEYS = {  # key -> the number type it is read as; None for a string
    "kerr": float, "pump": float, "omega0": float, "delta_z": float, "delta_0": float,
    "tau": float, "schedule": None, "phi": float, "hx_prefactor": None, "dim": int,
}
_RUN_KEYS = ("protocol", "sta", "initial", "n_steps", "n_samples")
_IO_KEYS = ("out", "format", "jobs", "chi_values", "half_width", "n_points", "preset")
_ALL_KEYS = set(_MODEL_KEYS) | set(_RUN_KEYS) | set(_IO_KEYS)

_PROTOCOLS = ("linear_response", "sta", "sweep", "wigner_movie")


@dataclass
class ExperimentConfig:
    protocol: str
    params: ModelParams
    sta: bool
    initial: str
    n_steps: int | None  # None: start at the sample grid (dynamics.start_steps)
    n_samples: int
    chi_values: list[float] = field(default_factory=list)
    out: str = "out"
    format: str = "csv"
    jobs: int = 1
    half_width: float = 4.5
    n_points: int = 81


def _load_raw(spec: str, defaults: dict) -> dict:
    """The config of a preset or a JSON file; defaults override a preset's
    values, and a file's own keys override both."""
    if spec in PRESETS:
        return {**PRESETS[spec], **defaults}
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"{spec!r} is neither a preset ({', '.join(PRESETS)}) nor a file")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if "preset" in raw:
        base = raw.pop("preset")
        if not isinstance(base, str) or base not in PRESETS:
            raise ConfigError(f"{path}: unknown preset {base!r}")
        return {**PRESETS[base], **defaults, **raw}
    return {**defaults, **raw}


def _number(kind, value, key: str):
    """value as an int or a float; anything else, a boolean or a fractional
    int included, is a ConfigError naming key."""
    try:
        number = kind(value)
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and number != value):
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    return number


def resolve_config(spec: str, overrides: dict | None = None,
                   defaults: dict | None = None) -> ExperimentConfig:
    """The config of spec, a preset name or a JSON file path. defaults (a
    command's own, such as the Wigner movie's STA ramp) override a preset's
    values but not the file's own keys; overrides (the command-line flags)
    override everything."""
    raw = _load_raw(spec, defaults or {})
    unknown = set(raw) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    raw.update(overrides or {})

    protocol = raw.get("protocol")
    if protocol not in _PROTOCOLS:
        raise ConfigError(f"protocol must be one of {_PROTOCOLS}, got {protocol!r}")
    missing = [k for k in ("kerr", "pump", "omega0", "delta_z", "tau") if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    params = ModelParams(**{k: raw[k] if kind is None else _number(kind, raw[k], k)
                            for k, kind in _MODEL_KEYS.items() if k in raw})
    out = raw.get("out") or os.environ.get("KNOSIM_OUT", "out")
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    initial = raw.get("initial", "ket0")
    if initial not in ("ket0", "ket1"):
        raise ConfigError(f"initial must be ket0 or ket1, got {initial!r}")
    chis = raw.get("chi_values", [])
    if not isinstance(chis, list):
        raise ConfigError(f"chi_values must be a list of numbers, got {chis!r}")
    n_steps = raw.get("n_steps")
    sta = raw.get("sta", protocol in ("sta", "wigner_movie"))
    if not isinstance(sta, bool):
        raise ConfigError(f"sta must be true or false, got {sta!r}")

    cfg = ExperimentConfig(
        protocol=protocol,
        params=params,
        sta=sta,
        initial=initial,
        n_steps=None if n_steps is None else _number(int, n_steps, "n_steps"),
        n_samples=_number(int, raw.get("n_samples", dynamics.DEFAULT_N_SAMPLES), "n_samples"),
        chi_values=[_number(float, c, "chi_values entry") for c in chis],
        out=str(out),
        format=fmt,
        jobs=_number(int, raw.get("jobs", 1), "jobs"),
        half_width=_number(float, raw.get("half_width", 4.5), "half_width"),
        n_points=_number(int, raw.get("n_points", 81), "n_points"),
    )
    dynamics.start_steps(cfg.n_steps, cfg.n_samples)  # raises on a bad step or sample count
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {cfg.jobs}")
    if not np.isfinite(cfg.chi_values).all():
        raise ConfigError(f"chi_values must be finite, got {cfg.chi_values}")
    if not (np.isfinite(cfg.half_width) and cfg.half_width > 0):
        raise ConfigError(f"half_width must be finite and > 0, got {cfg.half_width}")
    if cfg.n_points < wigner_mod.MIN_GRID_POINTS:
        raise ConfigError(f"n_points must be >= {wigner_mod.MIN_GRID_POINTS}, got {cfg.n_points}")
    return cfg


# ---------------------------------------------------------------- output ---

def _column_text(col: np.ndarray) -> list[str]:
    """One column's CSV cells: FLOAT_FMT for floats, each distinct bit
    pattern formatted once (so -0.0 and 0.0 stay apart), true/false for
    bools and str otherwise."""
    if col.dtype.kind == "f":
        bits, where = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
        text = [FLOAT_FMT.format(v) for v in bits.view(np.float64).tolist()]
        return [text[i] for i in where.tolist()]
    if col.dtype.kind == "b":
        return ["true" if v else "false" for v in col.tolist()]
    return [str(v) for v in col.tolist()]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _table(path_base: Path, fmt: str, columns: dict[str, np.ndarray]) -> None:
    """Write columns, name -> 1-D array in column order, as a CSV table or
    as a JSON object of lists."""
    if fmt == "csv":
        cells = zip(*(_column_text(col) for col in columns.values()))
        lines = [",".join(columns), *map(",".join, cells)]
        path_base.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    else:
        _write_json(path_base.with_suffix(".json"), {h: col.tolist() for h, col in columns.items()})


def _manifest(cfg: ExperimentConfig, extra: dict) -> dict:
    p = cfg.params
    try:
        version = metadata.version("knosim")
    except metadata.PackageNotFoundError:  # pragma: no cover
        version = "unknown"
    man = {
        "knosim_version": version,
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
    """The sample rows k = f * (n_samples - 1) of the Wigner movie's snapshots,
    f in SNAPSHOT_FRACTIONS; none for another protocol. A snapshot off the
    sample grid is a ConfigError."""
    if cfg.protocol != "wigner_movie":
        return []
    rows = [f * (cfg.n_samples - 1) for f in SNAPSHOT_FRACTIONS]
    for f, k in zip(SNAPSHOT_FRACTIONS, rows):
        if not k.is_integer():
            raise ConfigError(f"snapshot time {f * cfg.params.tau} is not on the sample grid "
                              f"k*tau/{cfg.n_samples - 1}")
    return [int(k) for k in rows]


def _run_error(cfg: ExperimentConfig) -> str | None:
    """Why the configured run cannot be taken, or None: a sweep without chi
    values, a readout its ramp does not give (see topology.chern), or movie
    snapshots off its sample grid (_movie_rows)."""
    if cfg.protocol == "sweep" and not cfg.chi_values:
        return "sweep requires a non-empty chi_values list"
    if cfg.protocol == "linear_response" and cfg.sta:
        return "linear response needs the bare ramp: set sta off"
    if cfg.protocol == "sta" and not cfg.sta:
        return "the polar-angle readout needs the counterdiabatic ramp: set sta on"
    try:
        if cfg.protocol != "wigner_movie":
            topology.check_readout(cfg.params, cfg.sta)
        _movie_rows(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the configured protocol; returns the manifest. File writes happen
    in one serial phase after all computation."""
    error = _run_error(cfg)
    if error:
        raise ConfigError(error)
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
                 "basis_dim": r.basis_dim, "leakage_bound": r.leakage_bound}
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
        extra = {
            "converged": traj.converged,
            "n_steps_used": traj.n_steps,
            "refine_history": traj.refine_history,
            "basis_dim": traj.basis_dim,
            "leakage_bound": traj.leakage_bound,
            "final_edge_population": float(np.sum(np.abs(traj.final_state[-3:]) ** 2)),
        }
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


@functools.cache
def movie_seconds(dim: int, n_points: int) -> float:
    """Cost of a Wigner movie's grids past its run: the stacked wigner call on
    its snapshots of dim levels over an n_points grid, and the CSV text of
    each grid's columns. Measured once per process as dynamics.step_seconds
    measures a step: the median of a few calls after a warm-up call."""
    states = np.full((len(SNAPSHOT_FRACTIONS), dim), dim**-0.5, dtype=complex)

    def movie():
        for grid in wigner_mod.wigner(states, n_points=n_points):
            for col in _grid_columns(grid).values():
                _column_text(col)

    return float(np.median(timeit.repeat(movie, number=1, repeat=4)[1:]))


def estimated_runtime_s(cfg: ExperimentConfig, worst: bool = False) -> float:
    """Steps (matrices diagonalized) of the configured runs, one after
    another, times the step cost: as if each run converges at its first doubling, or with worst, as if
    each computes its whole step budget. A Wigner movie adds its grids and
    their tables (movie_seconds)."""
    n_runs = max(1, len(cfg.chi_values)) if cfg.protocol == "sweep" else 1
    per_run = dynamics.step_budget if worst else dynamics.expected_steps
    steps_s = n_runs * per_run(cfg.n_steps, cfg.n_samples) * dynamics.step_seconds(cfg.params, cfg.sta)
    if cfg.protocol != "wigner_movie":
        return steps_s
    return steps_s + movie_seconds(cfg.params.dim, cfg.n_points)


def validate_config(cfg: ExperimentConfig) -> tuple[bool, list[str]]:
    """Static checks; returns (ok, report lines)."""
    p = cfg.params
    lines = []
    ok = True
    lines.append(f"protocol            {cfg.protocol}")
    for k, v in asdict(p).items():
        lines.append(f"{k:<19} {v}")
    lines.append(f"alpha0              {p.alpha0:.6f}")
    lines.append(f"chi                 {p.chi:.6f}")
    ratio = p.stabilizer_ratio
    lines.append(f"stabilizer_ratio    {ratio:.6f}")
    if ratio > model.STABILIZER_RATIO_WARN:
        ok = False
        lines.append(f"FAIL stabilizer ratio exceeds {model.STABILIZER_RATIO_WARN}")
    if not fock.coherent_truncation_ok(p.alpha0, p.dim):
        ok = False
        lines.append(
            f"FAIL truncation: need dim >= {p.alpha0**2 + 6 * p.alpha0 + 9:.0f} "
            f"for alpha0={p.alpha0:.3f}, got {p.dim}"
        )
    error = _run_error(cfg)
    if error:
        ok = False
        lines.append(f"FAIL {error}")
    try:  # times steps of the configured model, so it must build
        lines.append(f"estimated_runtime_s {estimated_runtime_s(cfg):.3g}")
        lines.append(f"max_runtime_s       {estimated_runtime_s(cfg, worst=True):.3g}")
    except KnosimError as exc:
        ok = False
        lines.append(f"FAIL model: {exc}")
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
    ov = {}
    for k in ("initial", "n_steps", "dim", "out", "format", "jobs"):
        v = getattr(args, k, None)
        if v is not None:
            ov[k] = v
    if getattr(args, "sta", None) is not None:
        ov["sta"] = args.sta == "on"
    if getattr(args, "chis", None):
        ov["chi_values"] = args.chis.split(",")
    return ov


def _apply_chi(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "chi", None) is not None:
        if cfg.protocol == "sweep":
            raise ConfigError("--chi sets one run's chi: give a sweep its chi values with --chis")
        cfg.params = replace(cfg.params, delta_0=args.chi * cfg.params.delta_z)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="knosim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the protocol named in the config")
    _add_common(sim)

    sw = sub.add_parser("sweep", help="Chern number vs chi")
    _add_common(sw)
    sw.add_argument("--chis", help="comma-separated chi values")

    wg = sub.add_parser("wigner", help="Wigner snapshots along the ramp")
    _add_common(wg)

    va = sub.add_parser("validate", help="resolve and check a config")
    _add_common(va)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the movie runs the STA ramp unless --sta or the file itself says otherwise
        defaults = {"sta": True} if args.command == "wigner" else None
        cfg = resolve_config(args.config, _overrides(args), defaults)
        if args.command == "sweep":
            cfg.protocol = "sweep"
        elif args.command == "wigner":
            cfg.protocol = "wigner_movie"
        cfg = _apply_chi(cfg, args)

        if args.command == "validate":
            ok, lines = validate_config(cfg)
            print("\n".join(lines))
            return 0 if ok else 1

        manifest = run_experiment(cfg)
        print(json.dumps({k: manifest[k] for k in ("protocol", "converged")
                          if k in manifest}))
        print(f"wrote outputs to {cfg.out}")
        return 0
    except KnosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
