"""One benchmark process: set up knosim as a user's run would, then run one job.

Started by run.py with a JSON spec as its only argument. It prints `READY`
once set-up is done; a set-up-only process exits there. Otherwise it runs
the job, times it and prints `RESULT <json>` as its last line.

Set-up is interpreter start (timed by the parent), `import knosim`, config
resolution and `model.drive_set` construction for the workload's config. The
job is a call into a public entry point: `knosim.cli.main` with the
workload's command line, or the `knosim.twolevel` functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

spec = json.loads(sys.argv[1])
if spec["cpu"] is not None:
    # The core the parent times its reference on.
    os.sched_setaffinity(0, {spec["cpu"]})
sys.path.insert(0, str(Path(spec["root"]) / "src"))

import numpy as np  # noqa: E402
from knosim import cli, model, twolevel  # noqa: E402

tracer = None
if spec["trace"]:
    import spans

    tracer = spans.install(Path(spec["trace_dir"]))


def job_params(cfg, chi):
    if chi is None:
        return cfg.params
    return replace(cfg.params, delta_0=chi * cfg.params.delta_z)


cfg = cli.resolve_config(spec["preset"])
model.drive_set(job_params(cfg, spec["chi"]))
print("READY", flush=True)
if spec["mode"] == "setup":
    sys.exit(0)


def cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def own_peak_rss_kb() -> int:
    """VmHWM: unlike ru_maxrss, it does not carry the launcher's peak across exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def twolevel_job(out: Path) -> int:
    """Reference dynamics (counterdiabatic) and monopole flux over the chi set."""
    points = []
    for chi in spec["chis"]:
        ref = twolevel.reference_dynamics(
            job_params(cfg, chi), initial=spec["initial"], sta=True,
            n_steps=cfg.n_steps, n_samples=cfg.n_samples,
        )
        flux = twolevel.monopole_chern(chi)
        points.append({
            "chi": chi, "n_steps": ref.n_steps,
            "sx": ref.sx.tolist(), "sy": ref.sy.tolist(), "sz": ref.sz.tolist(),
            "monopole_c1": flux,
        })
    out.mkdir(parents=True, exist_ok=True)
    (out / "twolevel.json").write_text(json.dumps({"points": points}))
    return 0


out = Path(spec["out"])
sink = io.StringIO()
cpu0 = cpu_s()
t0 = time.perf_counter()
with contextlib.redirect_stdout(sink):
    if spec["job"] == "cli":
        code = cli.main(spec["argv"])
    else:
        code = twolevel_job(out)
t1 = time.perf_counter()
cpu1 = cpu_s()

rss_kb = own_peak_rss_kb() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
output_bytes = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0

try:
    openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "?")
except (AttributeError, KeyError, TypeError):
    openblas = "?"

result = {
    "exit_code": code,
    "job_s": t1 - t0,
    "job_cpu_s": cpu1 - cpu0,
    "peak_rss_mb": rss_kb / 1024.0,
    "output_bytes": output_bytes,
    "env": {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
    },
}
if tracer is not None:
    result["child_traces"] = tracer.merge_children()
    result["layers"] = spans.layer_metrics(tracer, output_bytes)
    result["missing_spans"] = tracer.missing
    Path(spec["trace_file"]).write_text(json.dumps(tracer.state()))
print("RESULT " + json.dumps(result), flush=True)
