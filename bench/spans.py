"""Spans and counts around calls into knosim's modules, recorded from outside.

`install` replaces public functions of the knosim modules (and
`numpy.linalg.eigh`) by timing wrappers; the program's source is untouched.
Each span records its name, start, end and the span open around it, so a
layer's self time is its duration minus the spans it caused. The hot leaves
(`H(t)` assembly and `eigh`, tens of thousands per job) are only aggregated
per enclosing span; every other span is kept in memory and written out when
the worker process ends.

Sweep workers are forked children. After the fork each child clears the
records it inherited and writes its own at exit, through a multiprocessing
finalizer, to `child-<pid>.json` in the trace directory; the parent merges
those files after the job.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HOT = frozenset({"model.total_matrix", "twolevel.total_matrix", "numpy.eigh"})
ENGINE = "dynamics.propagate"


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self, child_dir: Path):
        self.child_dir = Path(child_dir)
        self.stack: list[list] = []  # open spans: [name, start, child_s, id]
        self._ids = 0
        self.missing: list[str] = []
        self.reset()
        multiprocessing.util.register_after_fork(self, Tracer._in_child)

    def reset(self):
        self.spans: list[tuple] = []  # (id, name, parent_id, start, end)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.by_parent = defaultdict(lambda: [0, 0.0])  # "name<parent" -> [calls, s]
        self.counts = defaultdict(float)

    def _in_child(self):
        # Keep the open stack so the child's spans name the parent's sweep
        # span as their cause; drop the records the parent already holds.
        self.reset()
        multiprocessing.util.Finalize(None, self._dump_child, exitpriority=10)

    def _dump_child(self):
        self.child_dir.mkdir(parents=True, exist_ok=True)
        (self.child_dir / f"child-{os.getpid()}.json").write_text(json.dumps(self.state()))

    def state(self) -> dict:
        return {
            "calls": self.calls, "total": self.total, "self_s": self.self_s,
            "by_parent": self.by_parent, "counts": self.counts, "spans": self.spans,
        }

    def merge_children(self) -> int:
        files = sorted(self.child_dir.glob("child-*.json"))
        for f in files:
            st = json.loads(f.read_text())
            for key in ("calls", "total", "self_s", "counts"):
                mine = getattr(self, key)
                for k, v in st[key].items():
                    mine[k] += v
            for k, (n, s) in st["by_parent"].items():
                self.by_parent[k][0] += n
                self.by_parent[k][1] += s
            pid = f.stem.split("-", 1)[1]
            self.spans += [(f"{pid}:{i}", name, parent, a, b) for i, name, parent, a, b in st["spans"]]
            f.unlink()
        return len(files)

    def wrap(self, name, fn, before=None, after=None):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before() if before else None
            self._ids += 1
            frame = [name, time.perf_counter(), 0.0, self._ids]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(frame, end)
            if after:
                after(self, token, frame, end, kwargs, result)
            return result

        return traced

    def _close(self, frame, end):
        name, start, child_s, sid = frame
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
            agg = self.by_parent[f"{name}<{parent[0]}"]
            agg[0] += 1
            agg[1] += dur
        if name not in HOT:
            self.spans.append((sid, name, parent[3] if parent else None, start, end))

    def patch(self, owner, attr: str, name: str, **hooks):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(name, fn, **hooks))


def _add(key, value_of):
    def after(tracer, token, frame, end, kwargs, result):
        tracer.counts[key] += value_of(result)
    return after


def _max_working_dim(tracer, token, frame, end, kwargs, result):
    key = "wigner.working_dim"
    tracer.counts[key] = max(tracer.counts[key], int(result))


def _sweep_done(tracer, token, frame, end, kwargs, result):
    wall = end - frame[1]
    cpu = children_cpu_s() - token
    jobs = max(1, int(kwargs.get("jobs", 1)))
    tracer.counts["topology.sweep_chi.points"] += len(result)
    tracer.counts["topology.sweep_chi.worker_cpu_s"] += cpu
    tracer.counts["topology.sweep_chi.slots_s"] += jobs * wall


def install(child_dir: Path) -> Tracer:
    """Wrap the layer boundaries of an imported knosim; returns the tracer."""
    from knosim import cli, dynamics, fock, logical, model, topology, twolevel, wigner

    t = Tracer(child_dir)
    t.patch(cli, "resolve_config", "cli.resolve_config")
    t.patch(cli, "run_experiment", "cli.run_experiment")
    t.patch(model, "drive_set", "model.drive_set")
    t.patch(model.DriveSet, "total_matrix", "model.total_matrix")
    t.patch(logical, "build_frame", "logical.build_frame")
    t.patch(dynamics, "run", "dynamics.run", after=_add("dynamics.steps_returned", lambda r: r.n_steps))
    # The fixed-step loop shared by dynamics.run and twolevel.reference_dynamics.
    t.patch(dynamics, "_propagate", ENGINE, after=_add("dynamics.steps_computed", lambda r: r["n_steps"]))
    t.patch(topology, "sweep_chi", "topology.sweep_chi", before=children_cpu_s, after=_sweep_done)
    for fn in ("berry_curvature", "chern_linear_response", "theta_q_series", "chern_sta"):
        t.patch(topology, fn, "topology.chern")
    t.patch(twolevel, "reference_dynamics", "twolevel.reference_dynamics",
            after=_add("twolevel.reference_dynamics.steps", lambda r: r.n_steps))
    t.patch(twolevel, "monopole_chern", "twolevel.monopole_chern")
    two_level_set = getattr(twolevel, "_TwoLevelDriveSet", None)
    if two_level_set is not None:
        t.patch(two_level_set, "total_matrix", "twolevel.total_matrix")
    t.patch(wigner, "wigner", "wigner.wigner")
    t.patch(wigner, "working_dimension", "wigner.working_dim_call", after=_max_working_dim)
    t.patch(fock, "displacement", "fock.displacement")
    t.patch(np.linalg, "eigh", "numpy.eigh")
    return t


def layer_metrics(t: Tracer, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced job (0 where a layer did no work)."""
    calls, total, self_s, counts = t.calls, t.total, t.self_s, t.counts

    def under(name, parent):
        return t.by_parent.get(f"{name}<{parent}", (0, 0.0))

    eigh_n, eigh_s = under("numpy.eigh", ENGINE)
    computed = counts["dynamics.steps_computed"]
    returned = counts["dynamics.steps_returned"] + counts["twolevel.reference_dynamics.steps"]
    slots = counts["topology.sweep_chi.slots_s"]
    return {
        "cli.resolve_config.s": total["cli.resolve_config"],
        "cli.run_experiment.self_s": self_s["cli.run_experiment"],
        "cli.output_bytes": output_bytes,
        "model.drive_set.s": total["model.drive_set"],
        "model.total_matrix.calls": calls["model.total_matrix"],
        "model.total_matrix.s": total["model.total_matrix"],
        "logical.build_frame.s": total["logical.build_frame"],
        "dynamics.run.calls": calls["dynamics.run"],
        "dynamics.run.s": total["dynamics.run"],
        # run minus H(t) assembly and eigh, over both entry points of the loop
        "dynamics.run.self_s": self_s["dynamics.run"] + self_s[ENGINE],
        "dynamics.eigh.calls": eigh_n,
        "dynamics.eigh.s": eigh_s,
        "dynamics.steps_returned": counts["dynamics.steps_returned"],
        "dynamics.useful_step_ratio": returned / computed if computed else 0.0,
        "topology.sweep_chi.s": total["topology.sweep_chi"],
        "topology.sweep_chi.points": counts["topology.sweep_chi.points"],
        "topology.sweep_chi.worker_cpu_s": counts["topology.sweep_chi.worker_cpu_s"],
        "topology.sweep_chi.parallel_efficiency": (
            counts["topology.sweep_chi.worker_cpu_s"] / slots if slots else 0.0
        ),
        "topology.chern.s": total["topology.chern"],
        "twolevel.reference_dynamics.calls": calls["twolevel.reference_dynamics"],
        "twolevel.reference_dynamics.s": total["twolevel.reference_dynamics"],
        "twolevel.reference_dynamics.steps": counts["twolevel.reference_dynamics.steps"],
        "twolevel.monopole_chern.calls": calls["twolevel.monopole_chern"],
        "twolevel.monopole_chern.s": total["twolevel.monopole_chern"],
        "wigner.wigner.calls": calls["wigner.wigner"],
        "wigner.wigner.s": total["wigner.wigner"],
        "wigner.wigner.self_s": self_s["wigner.wigner"],
        "wigner.working_dim": counts["wigner.working_dim"],
        "fock.displacement.calls": calls["fock.displacement"],
        "fock.displacement.s": total["fock.displacement"],
        "numpy.eigh.calls": calls["numpy.eigh"],
    }
