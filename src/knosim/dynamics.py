"""Time-dependent propagation over a ramp schedule.

Midpoint-exponential stepping: each step applies exp(-i H(t + dt/2) dt)
through the Hermitian eigendecomposition kernel. This is unconditionally
norm-preserving, which matters because the stabilizer Hamiltonian is stiff
(large eigenvalues at high Fock indices). A pass diagonalizes its midpoint
H(t) in stacks of up to CHUNK_STEPS, one np.linalg.eigh call per stack, so
the work is counted in matrices diagonalized, one per step computed. With
no n_steps a run starts at one step per sample interval (400 steps for 401
samples) and doubles until the samples settle.
"""

from __future__ import annotations

import functools
import timeit
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import logical, model
from .errors import ConfigError, DimensionMismatchError, NonFiniteStateError, SingularDriveError
from .model import ModelParams

REFINE_TOL = 1e-4
MIN_STEPS = 100
STEP_BUDGET = 7  # steps a run may compute, in coarse passes: the pass and two doublings
BUDGET_STEPS = 4000  # with no n_steps, the coarse pass the budget is counted in
DEFAULT_N_SAMPLES = 401
CHUNK_STEPS = 256  # midpoint steps diagonalized as one stack


def _rounded_steps(n_steps: int, n_samples: int) -> int:
    """n_steps rounded up to whole sample intervals."""
    return max(1, int(np.ceil(n_steps / (n_samples - 1)))) * (n_samples - 1)


def start_steps(n_steps: int | None, n_samples: int) -> int:
    """Steps of the coarse pass: n_steps, or with None the coarsest grid
    accepted, max(MIN_STEPS, n_samples - 1), one step per sample interval at
    401 samples; rounded up to whole sample intervals."""
    if n_steps is None:
        n_steps = max(MIN_STEPS, n_samples - 1)
    if n_steps < MIN_STEPS:
        raise ConfigError(f"n_steps must be >= {MIN_STEPS}, got {n_steps}")
    if n_samples < 2 or n_samples - 1 > n_steps:
        raise ConfigError("need 2 <= n_samples <= n_steps + 1")
    return _rounded_steps(n_steps, n_samples)


def step_budget(n_steps: int | None, n_samples: int) -> int:
    """Most steps one evolve computes, all passes together: STEP_BUDGET coarse
    passes of n_steps, or of BUDGET_STEPS with n_steps None."""
    return STEP_BUDGET * _rounded_steps(BUDGET_STEPS if n_steps is None else n_steps, n_samples)


def expected_steps(n_steps: int | None, n_samples: int) -> int:
    """Matrices diagonalized (steps computed) by one evolve that converges at
    its first step doubling, as the fig2-4 runs do: the coarse pass plus one
    pass at twice the steps."""
    return 3 * start_steps(n_steps, n_samples)


@functools.cache
def step_seconds(params: ModelParams, sta: bool) -> float:
    """Cost of one propagation step of model.drive_set(params), measured once
    per process: the median of a few MIN_STEPS-step runs after a warm-up run,
    per step. The median, not the fastest run, since a long run sees the
    host's slow spells too."""
    system = model.drive_set(params)
    psi0 = system.frame.ket0
    runs = timeit.repeat(lambda: _propagate(system, psi0, sta, MIN_STEPS, 2), number=1, repeat=6)
    return float(np.median(runs[1:])) / MIN_STEPS


@dataclass
class Trajectory:
    """One propagation: the system, the sample times t and ramp angles theta,
    and the states (n_samples, M) on the system's basis, with the run that
    made them. The observables are read off the states: sx, sy, sz and pop
    by logical.bloch, norm as their length."""

    system: model.DriveSet
    t: np.ndarray
    theta: np.ndarray
    states: np.ndarray
    n_steps: int
    sta: bool
    initial: str
    converged: bool = False
    refine_history: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        self.sx, self.sy, self.sz, self.pop = logical.bloch(self.system.frame, self.states)
        self.norm = np.linalg.norm(self.states, axis=1)

    @property
    def params(self) -> ModelParams:
        return self.system.params

    @property
    def basis_dim(self) -> int:
        return self.system.basis_dim

    @property
    def leakage_bound(self) -> float:
        return self.system.leakage_bound

    @property
    def final_state(self) -> np.ndarray:
        return self.system.lift(self.states[-1])

    def bloch(self) -> np.ndarray:
        """(n_samples, 3) array of (sx, sy, sz)."""
        return np.stack([self.sx, self.sy, self.sz], axis=1)


def _initial_state(system: model.DriveSet, initial) -> tuple[np.ndarray, str]:
    if isinstance(initial, str):
        if initial not in ("ket0", "ket1"):
            raise ConfigError(f"initial must be 'ket0', 'ket1' or an array, got {initial!r}")
        return getattr(system.frame, initial), initial
    psi = np.asarray(initial, dtype=complex)
    if psi.shape != (system.basis_dim,):
        raise DimensionMismatchError(
            f"initial state of shape {psi.shape}, not ({system.basis_dim},): give it on the basis")
    norm = np.linalg.norm(psi)
    if not 0 < norm < np.inf:
        raise ConfigError(f"initial state must have a finite nonzero norm, got {norm}")
    return psi / norm, "custom"


def _interval_propagators(system: model.DriveSet, sta: bool, first: int, stop: int,
                          spc: int, dt: float) -> np.ndarray:
    """Propagators of sample intervals first..stop-1, (stop - first, M, M): each
    the product, in step order, of its spc midpoint steps V e^{-i w dt} V^dag.
    An interval of more than CHUNK_STEPS steps is built a chunk at a time."""
    total = None
    piece = min(spc, CHUNK_STEPS)
    for s0 in range(0, spc, piece):
        steps = np.arange(first, stop)[:, None] * spc + np.arange(s0, min(s0 + piece, spc))
        w, v = np.linalg.eigh(system.total_matrix((steps + 0.5) * dt, sta=sta))
        u = (v * np.exp(-1j * w * dt)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        while u.shape[1] > 1:  # multiply neighbouring steps, later on the left
            even = u.shape[1] // 2 * 2
            u = np.concatenate([u[:, 1:even:2] @ u[:, 0:even:2], u[:, even:]], axis=1)
        total = u[:, 0] if total is None else u[:, 0] @ total
    return total


def _propagate(system: model.DriveSet, psi0: np.ndarray, sta: bool, n_steps: int,
               n_samples: int) -> dict:
    """Single fixed-step propagation over n_steps, a whole number of steps per
    sample interval; returns n_steps and psi, the state at every sample.

    The pass runs in chunks of whole sample intervals, of at most CHUNK_STEPS
    steps (an interval longer than that is built CHUNK_STEPS steps at a time):
    every midpoint H(t) of a chunk is built and diagonalized as one stack,
    each interval's steps are multiplied into one propagator, and the state
    advances interval by interval."""
    spc = n_steps // (n_samples - 1)
    dt = system.params.tau / n_steps
    per_chunk = max(1, CHUNK_STEPS // spc)  # sample intervals per chunk

    psi = np.empty((n_samples, system.basis_dim), dtype=complex)
    psi[0] = psi0
    for first in range(0, n_samples - 1, per_chunk):
        stop = min(first + per_chunk, n_samples - 1)
        for k, u in enumerate(_interval_propagators(system, sta, first, stop, spc, dt), first):
            psi[k + 1] = u @ psi[k]
    return {"n_steps": n_steps, "psi": psi}


def evolve(
    system: model.DriveSet,
    initial="ket0",
    sta: bool = False,
    n_steps: int | None = None,
    n_samples: int = DEFAULT_N_SAMPLES,
    refine_tol: float = REFINE_TOL,
) -> Trajectory:
    """Propagate a system, a model.DriveSet, over its ramp: a trajectory is
    its states at the n_samples sample times; observables are read off them.

    The run steps on the system's basis: initial is "ket0" or "ket1" of its
    frame, or an array of basis_dim amplitudes on the basis, which is
    normalized (any other shape is a DimensionMismatchError, a zero or
    non-finite norm a ConfigError). final_state is
    the last sample lifted back through the basis (DriveSet.lift) when read;
    a sample row k of states lifts the same way. run passes
    model.drive_set(params), twolevel.reference_dynamics twolevel.system(params).

    The step count comes from the tolerance. The coarse pass has
    start_steps(n_steps, n_samples) steps; with n_steps None that is the
    coarsest grid accepted, one step per sample interval for 401 samples.
    Each pass is a Trajectory, each further pass doubles the steps, and the
    run has converged once a doubling changes bloch() by at most refine_tol
    everywhere. The cost is capped, not the number of doublings: all passes
    together compute at most step_budget(n_steps, n_samples) steps, and
    doubling stops before a pass that would exceed that. An explicit n_steps
    N thus runs its coarse pass and at most two doublings (7N steps); the
    default start at 401 samples may double five times (400 to 12800 steps,
    25200 in all). The finest trajectory computed is returned, and
    refine_history lists (n_steps, diff) per doubling; non-convergence is
    flagged, never silent. A pass whose states are not all finite (a drive
    that overflows) raises NonFiniteStateError at once.
    """
    tau = system.params.tau
    start = start_steps(n_steps, n_samples)
    budget = step_budget(n_steps, n_samples)
    psi0, label = _initial_state(system, initial)

    def trajectory(n: int) -> Trajectory:
        t = np.arange(n_samples) * (n // (n_samples - 1)) * (tau / n)
        traj = Trajectory(system, t, np.asarray(system.schedule.theta(t), dtype=float),
                          _propagate(system, psi0, sta, n, n_samples)["psi"], n, sta, label)
        bad = np.flatnonzero(~np.isfinite(traj.norm))
        if bad.size:
            raise NonFiniteStateError(f"non-finite state at t = {t[bad[0]]:.6g} ({n} steps)")
        return traj

    coarse = trajectory(start)
    spent = start
    while not coarse.converged and spent + 2 * coarse.n_steps <= budget:
        fine = trajectory(2 * coarse.n_steps)
        spent += fine.n_steps
        diff = float(np.abs(fine.bloch() - coarse.bloch()).max())
        fine.refine_history = [*coarse.refine_history, (fine.n_steps, diff)]
        fine.converged = diff <= refine_tol
        coarse = fine
    return coarse


def run(params: ModelParams, initial="ket0", sta: bool = False, **kw) -> Trajectory:
    """Propagate the oscillator, model.drive_set(params), on its reduced H0
    eigenbasis; initial and kw as in evolve."""
    return evolve(model.drive_set(params), initial, sta, **kw)


class FidelityResult(NamedTuple):
    theta: np.ndarray
    fidelity: np.ndarray
    min_fidelity: float
    branch: str  # "upper" or "lower" instantaneous eigenstate


def instantaneous_eigenstate_fidelity(traj: Trajectory) -> FidelityResult:
    """Fidelity of the projected qubit state with the analytic eigenstate.

    The eigenstate's polar angle is the drive's mixing angle Theta
    (model.mixing_angle), the one the counterdiabatic term follows; the
    branch is the one the trajectory starts in. Uses only the sampled Bloch
    data: the projected pure state has fidelity (1 + s_hat . n_hat)/2 with
    the eigenstate whose Bloch axis is n_hat = (sin Theta cos phi,
    sin Theta sin phi, cos Theta), phi the drive's azimuth. With delta_z = 0
    the drive vanishes at theta = 0, so there is no eigenstate to follow.
    """
    p = traj.params
    if p.delta_z == 0.0:
        raise SingularDriveError("no eigenstate at theta=0 with delta_z=0: the drive vanishes")
    big_theta = model.mixing_angle(traj.theta, p.chi, p.rho)
    nhat = np.stack([np.sin(big_theta) * np.cos(p.phi), np.sin(big_theta) * np.sin(p.phi),
                     np.cos(big_theta)], axis=1)
    shat = traj.bloch() / traj.pop[:, None]
    proj = np.einsum("ij,ij->i", shat, nhat)
    f_upper = (1 + proj) / 2
    f_lower = (1 - proj) / 2
    if f_upper[0] >= f_lower[0]:
        fid, branch = f_upper, "upper"
    else:
        fid, branch = f_lower, "lower"
    return FidelityResult(traj.theta.copy(), fid, float(fid.min()), branch)
