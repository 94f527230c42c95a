#!/usr/bin/env python3
"""Benchmark of the four knosim jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; knosim is imported from `src/`. A run
runs whole rounds of the workload, each in a fresh process with one BLAS and
OpenMP thread, until the next round would end more than half a round past
`--seconds`. Before and after the rounds it starts set-up-only processes,
SETUP_SAMPLES in all; `setup_s` is their median. Before the first round and
after each one, this process times a fixed reference mix of numpy work
shaped like the workload (`reference_s`); `job_rel` and `job_cpu_rel` are the rounds' job times as
multiples of the mean of the reference times just before and after them.
Every round's outputs go through the gates in gates.py. With `--trace 1`,
odd rounds run with the spans of spans.py installed and the per-layer
metrics are their medians; even rounds stay untraced, so the tracing
overhead can be reported. The last line of stdout is the result JSON; run
records and traces go to `.bench_runs/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Before numpy loads, so the reference mix runs on one BLAS thread like knosim.
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import gates  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"

# One chi per window, with a seeded sign and position: half inside |chi| < 1,
# half outside, none near the singular |chi| = 1. The windows stay clear of
# the |chi| where twolevel.monopole_chern changes its number of grid
# doublings (near 0.49, 0.75, 1.24, 1.48 and 1.94), so every seed asks for
# the same work.
CHI_WINDOWS = ((0.05, 0.45), (0.53, 0.72), (1.27, 1.46), (1.52, 1.90))
SWEEP_JOBS = 2
SETUP_SAMPLES = 8
RUN_DEADLINE_S = 170.0
SETUP_TIMEOUT_S = 60.0


def draw_inputs(seed: int) -> dict:
    """The chi set, in window order, and the initial state.

    Window order keeps the sequence of monopole grid sizes the same for
    every seed.
    """
    rng = random.Random(seed)
    chis = [round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 3) for lo, hi in CHI_WINDOWS]
    return {"chis": chis, "initial": rng.choice(("ket0", "ket1"))}


# Calls in a reference mix: 30x30 eigh, steps of the 2x2 loop, ufunc passes
# over 1M points, 220x220 eigh. Host contention slows these kernels by
# different factors (a slow phase took 30x30 eigh 2.1x and 220x220 eigh
# 1.76x longer), so each workload is timed against a mix shaped like its own
# profile: wigner-movie spends about 80 % of its time in 220x220 eigh.
STEP_LOOP_MIX = (1200, 12000, 6, 0)
WIGNER_MIX = (400, 0, 2, 20)


def workload(name: str, inputs: dict, out: Path) -> dict:
    """Worker spec fields, the gate and the reference for one round of a workload."""
    chis, initial = inputs["chis"], inputs["initial"]
    if name == "fig1-linear":
        return {
            "preset": "fig1", "chi": None, "job": "cli",
            "argv": ["simulate", "fig1", "--initial", initial, "--out", str(out)],
            "ops": 1, "gate": lambda: gates.fig1_linear(out, initial),
            "ref_mix": STEP_LOOP_MIX, "ref_copies": 1,
        }
    if name == "sta-sweep":
        # The sweep keeps both cores busy, so its reference runs on both.
        return {
            "preset": "fig2-4", "chi": None, "job": "cli",
            "argv": ["sweep", "fig2-4", "--chis=" + ",".join(map(str, chis)),
                     "--initial", initial, "--jobs", str(SWEEP_JOBS), "--out", str(out)],
            "ops": len(chis), "gate": lambda: gates.sta_sweep(out, chis, initial),
            "ref_mix": STEP_LOOP_MIX, "ref_copies": SWEEP_JOBS,
        }
    if name == "wigner-movie":
        chi = chis[0]
        return {
            "preset": "fig2-4", "chi": chi, "job": "cli",
            "argv": ["wigner", "fig2-4", f"--chi={chi}", "--initial", initial, "--out", str(out)],
            "ops": len(gates.SNAPSHOT_FRACTIONS), "gate": lambda: gates.wigner_movie(out),
            "ref_mix": WIGNER_MIX, "ref_copies": 1,
        }
    if name == "twolevel-oracle":
        return {
            "preset": "fig2-4", "chi": None, "job": "twolevel", "argv": [],
            "ops": 2 * len(chis), "gate": lambda: gates.twolevel_oracle(out, chis, initial),
            "ref_mix": STEP_LOOP_MIX, "ref_copies": 1,
        }
    raise KeyError(name)


WORKLOADS = ("fig1-linear", "sta-sweep", "wigner-movie", "twolevel-oracle")

_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((220, 220)) + 1j * _REF_RNG.standard_normal((220, 220))
REF_H220 = _REF_A + _REF_A.conj().T
REF_H30 = REF_H220[:30, :30].copy()
REF_H2 = REF_H220[:2, :2].copy()
REF_GRID = np.linspace(0.0, np.pi, 1_000_000)
# Preallocated: fresh 8 MB temporaries would cost page faults whose number
# depends on what this process allocated before (glibc's mmap threshold).
REF_BUF = np.empty((2, REF_GRID.size))


def reference_work(mix: tuple[int, int, int, int]):
    """The kinds of work knosim does, made without knosim, in the counts of `mix`.

    30x30 Hermitian `eigh` stands for the step loop, a Python loop over 2x2
    `eigh` and matrix products for the two-level loop, ufunc passes for the
    monopole quadrature and 220x220 `eigh` for `fock.displacement`.
    """
    n30, n2, n_ufunc, n220 = mix
    a, b = REF_BUF
    for _ in range(n30):
        np.linalg.eigh(REF_H30)
    psi = np.array([1.0, 0.0], dtype=complex)
    for _ in range(n2):
        w, v = np.linalg.eigh(REF_H2)
        psi = v @ (np.exp(-0.1j * w) * (v.conj().T @ psi))
    for _ in range(n_ufunc):
        np.sin(REF_GRID, out=a)
        np.cos(REF_GRID, out=b)
        np.multiply(a, b, out=a)
        np.power(np.add(b, 1.5, out=b), 1.5, out=b)
        float(np.divide(a, b, out=a).sum())
    for _ in range(n220):
        np.linalg.eigh(REF_H220)


def reference_s(mix: tuple[int, int, int, int], copies: int, cpu: int | None) -> float:
    """Seconds this process takes for `reference_work(mix)`, on core `cpu` if
    given, while `copies - 1` forked copies run the same work on the other cores.

    The host's speed drifts by up to 2x over minutes, and a reference timed
    next to each round takes that drift out of `job_rel`. The two cores drift
    apart (their slowdowns in 2 s windows correlated by 0.19), so a
    single-process round and its reference run on the same core.
    """
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    helpers = []
    for _ in range(copies - 1):
        pid = os.fork()
        if pid == 0:
            try:
                reference_work(mix)
            finally:
                os._exit(0)
        helpers.append(pid)
    t0 = time.perf_counter()
    reference_work(mix)
    elapsed = time.perf_counter() - t0
    for pid in helpers:
        os.waitpid(pid, 0)
    os.sched_setaffinity(0, allowed)
    return elapsed


def _kill_group(proc: subprocess.Popen):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(spec: dict, timeout: float) -> tuple[float | None, dict | None]:
    """Start worker.py; returns (seconds until READY, RESULT object)."""
    env = dict(os.environ, **BLAS_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    killer = threading.Timer(max(timeout, 1.0), _kill_group, (proc,))
    killer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        killer.cancel()
        _kill_group(proc)  # the process group holds sweep workers, if any are left
        proc.stdout.close()
    return ready, result


def check_round(wl: dict, result: dict | None) -> list[tuple]:
    if result is None or result["exit_code"] != 0:
        why = "worker died" if result is None else f"exit code {result['exit_code']}"
        return [("job", False, {"error": why})] * wl["ops"]
    try:
        return wl["gate"]()
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [("outputs", False, {"error": f"{type(exc).__name__}: {exc}"})] * wl["ops"]


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an error, so run_worker still kills the job's processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "knosim" / "__init__.py").is_file():
        print(f"error: no knosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_begin = time.perf_counter()
    inputs = draw_inputs(args.seed)
    base = RUNS / args.workload
    out = base / "out"
    trace_dir = base / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    wl = workload(args.workload, inputs, out)
    spec = {
        "root": str(ROOT), "preset": wl["preset"], "chi": wl["chi"], "job": wl["job"],
        "argv": wl["argv"], "chis": inputs["chis"], "initial": inputs["initial"],
        "out": str(out), "trace_dir": str(trace_dir / "children"), "cpu": None,
    }
    ref_cpu = max(os.sched_getaffinity(0)) if wl["ref_copies"] == 1 else None
    print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(inputs)}", flush=True)

    setup = []

    def sample_setup(n: int) -> bool:
        for _ in range(n):
            ready, _ = run_worker({**spec, "mode": "setup", "trace": False}, SETUP_TIMEOUT_S)
            if ready is None:
                print("error: knosim failed to set up", file=sys.stderr)
                return False
            setup.append(ready)
        return True

    if not sample_setup(SETUP_SAMPLES // 2):
        return 1
    rounds = []
    t_rounds = time.perf_counter()
    ref_before = reference_s(wl["ref_mix"], wl["ref_copies"], ref_cpu)
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        trace_file = trace_dir / f"round{len(rounds)}.json"
        left = RUN_DEADLINE_S - (time.perf_counter() - t_begin)
        ready, result = run_worker(
            {**spec, "mode": "round", "trace": traced, "trace_file": str(trace_file),
             "cpu": ref_cpu}, left)
        if ready is None:
            print("error: knosim failed to set up", file=sys.stderr)
            return 1
        ref_after = reference_s(wl["ref_mix"], wl["ref_copies"], ref_cpu)
        ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        ops = check_round(wl, result)
        rounds.append({"traced": traced, "result": result, "ops": ops, "ref_s": ref_s})
        failed = sum(not ok for _, ok, _ in ops)
        job_s = result["job_s"] if result else float("nan")
        print(f"round {len(rounds)} traced={int(traced)} job_s={job_s:.3f} ref_s={ref_s:.4f} "
              f"failed={failed}/{len(ops)}", flush=True)

        elapsed = time.perf_counter() - t_rounds
        per_round = elapsed / len(rounds)
        # A traced run needs one untraced and one traced round.
        if len(rounds) >= 1 + args.trace and elapsed + per_round / 2 > args.seconds:
            break
        if time.perf_counter() - t_begin + 1.5 * per_round > RUN_DEADLINE_S:
            break
    if not sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        return 1

    all_ops = [op for r in rounds for op in r["ops"]]
    attempted = len(all_ops)
    failed = sum(not ok for _, ok, _ in all_ops)
    correct = not any(not ok and "error" not in detail for _, ok, detail in all_ops)
    done = [r["result"] for r in rounds if r["result"] is not None]
    plain_rounds = [r for r in rounds if r["result"] is not None and not r["traced"]]
    plain = [r["result"] for r in plain_rounds]
    traced = [r["result"] for r in rounds if r["result"] is not None and r["traced"]]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        if not traced:
            print("error: no traced round completed", file=sys.stderr)
            return 1
        values = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            median([r["job_s"] for r in traced]) - median([r["job_s"] for r in plain]))
        listed = declared["per_layer"]
    else:
        values = {
            "job_rel": median([r["result"]["job_s"] / r["ref_s"] for r in plain_rounds]),
            "job_cpu_rel": median([r["result"]["job_cpu_s"] / r["ref_s"] for r in plain_rounds]),
            "setup_s": median(setup),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        listed = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    env = done[0]["env"] if done else {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "env": env, "setup_s": setup,
        "rounds": [
            {"traced": r["traced"], "ops": r["ops"], "ref_s": r["ref_s"],
             **({k: v for k, v in r["result"].items() if k != "env"} if r["result"] else {})}
            for r in rounds
        ],
        "metrics": metrics,
    }
    (base / f"run-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env " + json.dumps({**env, "seed": args.seed}), flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
