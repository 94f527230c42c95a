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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics
from .dynamics import Trajectory
from .errors import ConfigError, DegenerateReadoutError, InsufficientSamplingError, KnosimError
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


def _run_fields(traj: Trajectory) -> dict:
    """The ChernResult fields that describe the run behind it."""
    return {
        "chi": traj.params.chi,
        "initial": traj.initial,
        "converged": traj.converged,
        "n_steps_used": traj.n_steps,
        "refine_history": tuple(traj.refine_history),
        "basis_dim": traj.basis_dim,
        "leakage_bound": traj.leakage_bound,
    }


def check_readout(params: ModelParams, sta: bool) -> None:
    """Raise ConfigError when chern cannot read a run of params with this sta:
    the Berry-curvature integral of a bare ramp is read at phi = 0 only."""
    if not sta and params.phi != 0.0:
        raise ConfigError(f"linear response assumes phi = 0, got {params.phi}")


def berry_curvature(traj: Trajectory) -> np.ndarray:
    """(theta, B_theta) pairs from a bare (non-STA, phi = 0) trajectory; 0
    where the ramp stands still (the cosine ramp's t = 0)."""
    p = traj.params
    if traj.sta:
        raise ConfigError("linear response needs the bare ramp: run with sta=False")
    check_readout(p, False)
    v_theta = np.broadcast_to(np.asarray(p.ramp().theta_dot(traj.t), dtype=float), traj.t.shape)
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
    quadrature over the Berry-curvature series.
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
        if len(series) < MIN_CURVATURE_POINTS:
            raise InsufficientSamplingError(
                f"need >= {MIN_CURVATURE_POINTS} curvature samples, got {len(series)}"
            )
        c1 = np.trapezoid(series[:, 1], series[:, 0])
    return ChernResult(c1=float(c1), method=METHOD[traj.sta], series=series, **extra,
                       **_run_fields(traj))


def _sweep_point(args):
    params, chi, sta, initial, run_kwargs = args
    try:
        point = replace(params, delta_0=chi * params.delta_z)
        check_readout(point, sta)
        return chern(dynamics.run(point, initial=initial, sta=sta, **run_kwargs))
    except KnosimError as exc:
        return ChernResult(c1=float("nan"), method=METHOD[sta], chi=chi, initial=initial,
                           converged=False, error=str(exc))


def sweep_chi(
    params: ModelParams,
    chi_values,
    sta: bool = True,
    initial: str = "ket0",
    jobs: int = 1,
    **run_kwargs,
) -> list[ChernResult]:
    """Independent simulation per chi (delta_0 = chi * delta_z), in chi order,
    each run with sta or without and read by chern.

    A point that fails with a KnosimError (a delta_0 out of range, a
    singular counterdiabatic term, a truncation leak, ...) is recorded as a
    failed entry at its chi and the sweep continues. jobs > 1 starts at most
    one worker per core and per point.
    """
    tasks = [(params, float(chi), sta, initial, run_kwargs) for chi in chi_values]
    if not tasks:
        raise ValueError("empty chi sweep")
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]
