"""Berry curvature, polar-angle readout and first Chern numbers.

Two routes to the same invariant, and chern picks one from the run's sta:

* linear response: the lag of <sy_bar> behind the ramp gives the Berry
  curvature B_theta = -Omega0 sin(th) <sy_bar> / (2 v_theta) at azimuth
  phi = 0; its integral over th in [0, pi] is C1. That takes the azimuthal
  integral as 2 pi times the phi = 0 value, which holds for the 2x2
  reduction, whose response is the same at every phi. On the oscillator the
  stabilizer dresses Hx and Hy differently at O(r), r = e^{2 alpha0^2}
  Omega0 / P, so the phi = 0 readout falls short by about 0.48 r: 0.952 on
  fig1 (r = 0.1), where the 2x2 reads 0.99998.
* accelerated (counterdiabatic) ramps: the measured polar angle
  theta_q = arccos(sz / |s|) gives C1 = (1/2) int sin(theta_q) d theta_q.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics
from .dynamics import Trajectory
from .errors import ConfigError, DegenerateReadoutError, KnosimError
from .model import ModelParams

MIN_CURVATURE_POINTS = 10
MIN_BLOCH_LENGTH = 1e-6
CLOSED_FORM_QUADRATURE_ATOL = 0.01
METHOD = {True: "sta_polar", False: "linear_response"}  # a run's sta -> its readout


@dataclass(frozen=True)
class ChernResult:
    c1: float
    method: str  # METHOD[sta]
    chi: float
    initial: str
    converged: bool
    n_steps_used: int = 0  # 0 for a failed point
    refine_history: tuple[tuple[int, float], ...] = ()
    steps_computed: int = 0  # matrices diagonalized, all passes; 0 for a failed point
    basis_dim: int | None = None  # None for a failed point
    leakage_bound: float | None = None
    c1_quadrature: float | None = None  # sta only: discretized integral
    warning: str | None = None
    error: str | None = None
    # (theta, B_theta) or (theta, theta_q) rows read; None for a failed point
    series: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def refine_diff(self) -> float:
        """Bloch change at the last step doubling (nan if none ran)."""
        return self.refine_history[-1][1] if self.refine_history else float("nan")


def check_readout(params: ModelParams, sta: bool, n_samples: int) -> None:
    """Raise ConfigError when chern cannot read a run of params with this sta
    and n_samples: the Berry-curvature integral of a bare ramp is read at
    phi = 0 only, over at least MIN_CURVATURE_POINTS samples."""
    if not sta and params.phi != 0.0:
        raise ConfigError(f"linear response assumes phi = 0, got {params.phi}")
    if not sta and n_samples < MIN_CURVATURE_POINTS:
        raise ConfigError(f"need >= {MIN_CURVATURE_POINTS} curvature samples, got {n_samples}")


def check_bare_ramp(sta: bool) -> None:
    """Raise ConfigError when the linear-response readout is asked of a
    counterdiabatic (sta) run."""
    if sta:
        raise ConfigError("linear response needs the bare ramp: set sta off")


def berry_curvature(traj: Trajectory) -> np.ndarray:
    """(theta, B_theta) pairs from a bare (non-STA, phi = 0) trajectory; 0
    where the ramp stands still (the cosine ramp's t = 0)."""
    p = traj.params
    check_bare_ramp(traj.sta)
    check_readout(p, False, traj.t.size)
    v_theta = p.theta_dot(traj.t)
    b = np.divide(-p.omega0 * np.sin(traj.theta) * traj.sy, 2 * v_theta,
                  out=np.zeros(traj.t.shape), where=v_theta != 0)
    return np.stack([traj.theta, b], axis=1)


def theta_q_series(traj: Trajectory) -> np.ndarray:
    """(theta, theta_q) pairs with theta_q = arccos(sz / |s|), range [0, pi]."""
    s = traj.bloch()
    length = np.linalg.norm(s, axis=1)
    short = np.nonzero(length < MIN_BLOCH_LENGTH)[0]
    if short.size:
        raise DegenerateReadoutError(
            f"Bloch length < {MIN_BLOCH_LENGTH} at sample index {int(short[0])}"
        )
    theta_q = np.arccos(np.clip(traj.sz / length, -1.0, 1.0))
    return np.stack([traj.theta, theta_q], axis=1)


def chern(traj: Trajectory) -> ChernResult:
    """C1 of a run: the polar-angle step of a counterdiabatic (sta) ramp, the
    Berry-curvature integral of a bare one.

    With sta, C1q = (1/2)[cos theta_q(0) - cos theta_q(pi)], the exact
    antiderivative of (1/2) sin(theta_q) d theta_q; the discretized
    quadrature is reported alongside, with a warning when the two differ by
    more than 0.01. Without, C1 = int_0^pi B_theta d theta by trapezoidal
    quadrature over the Berry-curvature series, read as check_readout allows.
    """
    extra = {}
    if traj.sta:
        series = theta_q_series(traj)
        theta_q = series[:, 1]
        c1 = 0.5 * (np.cos(theta_q[0]) - np.cos(theta_q[-1]))
        quad = float(np.trapezoid(0.5 * np.sin(theta_q), theta_q))
        extra["c1_quadrature"] = quad
        if abs(c1 - quad) > CLOSED_FORM_QUADRATURE_ATOL:
            extra["warning"] = (
                f"closed-form C1q={c1:.4f} and quadrature {quad:.4f} disagree by "
                f"{abs(c1 - quad):.4f}: non-monotone sampling of theta_q"
            )
    else:
        series = berry_curvature(traj)
        c1 = np.trapezoid(series[:, 1], series[:, 0])
    return ChernResult(c1=float(c1), method=METHOD[traj.sta], chi=traj.params.chi,
                       initial=traj.initial, series=series, **extra, **traj.record())


def point_params(params: ModelParams, chi: float) -> ModelParams:
    """A sweep's point at chi: params with delta_0 = chi * delta_z."""
    return replace(params, delta_0=chi * params.delta_z)


def _sweep_point(params: ModelParams, chi: float, sta: bool, initial: str,
                 run_kwargs: dict) -> ChernResult:
    try:  # labelled with chi as given: the point's (chi * delta_z) / delta_z may not round-trip
        traj = dynamics.run(point_params(params, chi), initial=initial, sta=sta, **run_kwargs)
        return replace(chern(traj), chi=chi)
    except KnosimError as exc:
        return ChernResult(c1=float("nan"), method=METHOD[sta], chi=chi, initial=initial,
                           converged=False, error=str(exc))


def sweep_workers(jobs: int, n_points: int) -> int:
    """How many processes a sweep of n_points runs on with jobs: at most one
    per usable core and one per point, the calling process included, and
    only that one where the platform has no os.fork. jobs below 1, or no
    points, is a ConfigError."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if n_points < 1:
        raise ConfigError("sweep requires a non-empty chi_values list")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(jobs, cores or 1, n_points) if hasattr(os, "fork") else 1


def _send_share(pipe, reads, share, i):
    """A forked worker's life: close the pipes' read ends, write the pickle
    of share(i), worker i's points, or of what it raised, to pipe, and leave
    through os._exit, running none of the parent's exit handlers."""
    try:
        for fd in reads:
            os.close(fd)
        try:
            sent = share(i)
        except BaseException as exc:  # the parent raises it
            sent = exc
        pipe.write(pickle.dumps(sent))
        pipe.flush()
    finally:
        os._exit(0)


def sweep_chi(
    params: ModelParams,
    chi_values,
    sta: bool = True,
    initial: str = "ket0",
    jobs: int = 1,
    **run_kwargs,
) -> list[ChernResult]:
    """Independent simulation per chi (delta_0 = chi * delta_z), in chi order,
    each run with sta or without, read by chern and labelled with its chi as
    given. A fault of the whole sweep (see sweep_workers, dynamics.passes,
    dynamics.check_initial, check_readout) is a ConfigError before any point
    runs; a point that fails with a KnosimError (a delta_0 out of range, a
    singular counterdiabatic term, a truncation leak, ...) is a failed entry
    and the sweep goes on. The points run on sweep_workers(jobs, points)
    workers, worker i taking every workers-th point from the i-th: worker 0
    is this process, each other one an os.fork child that sends its points
    back through a pipe, so jobs = 2 forks one. Another exception in any
    share is raised here, and a child that exits without sending its points
    is a RuntimeError; either way every child is waited for first.
    """
    chis = [float(chi) for chi in chi_values]
    workers = sweep_workers(jobs, len(chis))
    n_samples = run_kwargs.get("n_samples", dynamics.DEFAULT_N_SAMPLES)
    dynamics.passes(run_kwargs.get("n_steps"), n_samples)
    dynamics.check_initial(initial)
    check_readout(params, sta, n_samples)
    results = [None] * len(chis)

    def share(i: int) -> list[ChernResult]:  # worker i's points
        return [_sweep_point(params, chi, sta, initial, run_kwargs) for chi in chis[i::workers]]

    pids, reads = [], []  # workers 1, 2, ...: forked children, and their pipes' read ends
    try:
        for i in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            with open(write, "wb") as pipe:  # the parent's write end closes once forked
                pids.append(os.fork())
                if pids[-1] == 0:
                    _send_share(pipe, reads, share, i)
        results[::workers] = share(0)
        for i, read in enumerate(reads, start=1):
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            if not sent:
                raise RuntimeError(f"sweep worker {i} exited without sending its points")
            share = pickle.loads(sent)
            if isinstance(share, BaseException):
                raise share
            results[i::workers] = share
    finally:  # read ends first: a child blocked on a full pipe then fails and exits
        for read in reads:
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)
    return results
