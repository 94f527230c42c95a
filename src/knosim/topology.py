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


@dataclass(frozen=True)
class ChernResult:
    c1: float
    method: str  # "linear_response" or "sta_polar"
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
    """(theta, B_theta) pairs from a bare (non-STA, phi = 0) trajectory."""
    p = traj.params
    if traj.sta:
        raise ConfigError("linear response needs the bare ramp: run with sta=False")
    check_readout(p, False)
    sched = p.ramp()
    v_theta = np.broadcast_to(np.asarray(sched.theta_dot(traj.t), dtype=float), traj.t.shape)
    sin_th = np.sin(traj.theta)
    b = np.zeros_like(sin_th)
    still = np.abs(v_theta) < 1e-300
    if np.any(still & (np.abs(sin_th) > 1e-12)):
        raise ZeroDivisionError("ramp velocity vanishes at an interior sample")
    ok = ~still
    b[ok] = -p.omega0 * sin_th[ok] * traj.sy[ok] / (2 * v_theta[ok])
    return np.stack([traj.theta, b], axis=1)


def chern_linear_response(series: np.ndarray, traj: Trajectory) -> ChernResult:
    """C1 = int_0^pi B_theta d theta by trapezoidal quadrature over the
    (theta, B_theta) series, whose theta must ascend."""
    if np.any(np.diff(series[:, 0]) < 0):
        raise ValueError("theta samples must be ascending")
    if len(series) < MIN_CURVATURE_POINTS:
        raise InsufficientSamplingError(
            f"need >= {MIN_CURVATURE_POINTS} curvature samples, got {len(series)}"
        )
    c1 = float(np.trapezoid(series[:, 1], series[:, 0]))
    return ChernResult(c1=c1, method="linear_response", series=series, **_run_fields(traj))


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


def chern_sta(series: np.ndarray, traj: Trajectory) -> ChernResult:
    """C1q from the polar-angle series.

    Closed form (1/2)[cos theta_q(0) - cos theta_q(pi)] is the exact
    antiderivative of (1/2) sin(theta_q) d theta_q; the discretized quadrature
    is reported alongside and must agree within 0.01.
    """
    series = np.asarray(series)
    if series.ndim != 2 or series.shape[1] != 2 or series.shape[0] < 2:
        raise InsufficientSamplingError("theta_q series must be an (n, 2) array with n >= 2")
    theta_q = series[:, 1]
    closed = 0.5 * (np.cos(theta_q[0]) - np.cos(theta_q[-1]))
    quad = float(np.trapezoid(0.5 * np.sin(theta_q), theta_q))
    warning = None
    if abs(closed - quad) > CLOSED_FORM_QUADRATURE_ATOL:
        warning = (
            f"closed-form C1q={closed:.4f} and quadrature {quad:.4f} disagree by "
            f"{abs(closed - quad):.4f}: non-monotone sampling of theta_q"
        )
    return ChernResult(
        c1=float(closed), method="sta_polar", c1_quadrature=quad, warning=warning,
        series=series, **_run_fields(traj),
    )


def chern(traj: Trajectory) -> ChernResult:
    """C1 of a run: the polar-angle step of a counterdiabatic (sta) ramp, the
    Berry-curvature integral of a bare one."""
    if traj.sta:
        return chern_sta(theta_q_series(traj), traj)
    return chern_linear_response(berry_curvature(traj), traj)


def _sweep_point(args):
    params, sta, initial, run_kwargs = args
    try:
        check_readout(params, sta)
        return chern(dynamics.run(params, initial=initial, sta=sta, **run_kwargs))
    except KnosimError as exc:
        return ChernResult(
            c1=float("nan"),
            method="sta_polar" if sta else "linear_response",
            chi=params.chi,
            initial=initial,
            converged=False,
            error=str(exc),
        )


def sweep_chi(
    params: ModelParams,
    chi_values,
    protocol: str = "sta",
    initial: str = "ket0",
    jobs: int = 1,
    **run_kwargs,
) -> list[ChernResult]:
    """Independent simulation per chi (delta_0 = chi * delta_z), in chi order,
    each read by chern: protocol "sta" or "linear_response" picks the ramp.

    A point that fails with a KnosimError (a singular counterdiabatic term, a
    truncation leak, ...) is recorded as a failed entry and the sweep
    continues. jobs > 1 starts at most one worker per core and per point.
    """
    if protocol not in ("sta", "linear_response"):
        raise ValueError(f"unknown protocol {protocol!r}")
    tasks = []
    for chi in chi_values:
        p = replace(params, delta_0=float(chi) * params.delta_z)
        tasks.append((p, protocol == "sta", initial, run_kwargs))
    if not tasks:
        raise ValueError("empty chi sweep")
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]
