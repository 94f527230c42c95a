"""Time-dependent propagation over a ramp schedule.

Midpoint-exponential stepping: each step applies exp(-i H(t + dt/2) dt)
through the Hermitian eigendecomposition kernel. This is unconditionally
norm-preserving, which matters because the stabilizer Hamiltonian is stiff
(large eigenvalues at high Fock indices). A pass diagonalizes its midpoint
H(t) in stacks of up to CHUNK_STEPS, one np.linalg.eigh call per stack, and
steps the state through them one at a time; the work is counted in matrices
diagonalized, one per step. With no n_steps a run starts at half a step per
sample interval, on every other sample (200 steps on 201 of 401 samples),
and doubles along the ladder passes() lists until the samples it shares with
the pass before settle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import logical, model
from .errors import ConfigError, NonFiniteStateError, SingularDriveError
from .model import ModelParams

REFINE_TOL = 1e-4
MIN_STEPS = 100
STEP_BUDGET = 7  # steps a run may compute, in coarse passes: the pass and two doublings
BUDGET_STEPS = 4000  # with no n_steps, the coarse pass the budget is counted in
DEFAULT_N_SAMPLES = 401
CHUNK_STEPS = 256  # midpoint steps diagonalized as one stack


def _pass_intervals(n_steps: int, n_samples: int) -> int:
    """Sample intervals a pass of n_steps runs on: all n_samples - 1, or every
    other one when it has fewer steps than that and their count is even."""
    intervals = n_samples - 1
    return intervals // 2 if n_steps < intervals and intervals % 2 == 0 else intervals


def _rounded_steps(n_steps: int, n_samples: int) -> int:
    """n_steps rounded up to whole intervals of its pass (_pass_intervals)."""
    intervals = _pass_intervals(n_steps, n_samples)
    return max(1, int(np.ceil(n_steps / intervals))) * intervals


def passes(n_steps: int | None, n_samples: int) -> list[int]:
    """Steps of each pass one evolve may run: the coarse pass, then doublings
    while all passes together stay within STEP_BUDGET coarse passes of
    n_steps, or of BUDGET_STEPS with n_steps None.

    The coarse pass has n_steps, or with None the coarsest grid accepted:
    max(MIN_STEPS, (n_samples - 1) / 2) on every other sample when
    n_samples - 1 is even, else max(MIN_STEPS, n_samples - 1); rounded up to
    whole intervals of its pass (_pass_intervals). Fewer steps than sample
    intervals need an even count of intervals, at most two per step. So an
    explicit N gives [N, 2N, 4N], and None at 401 samples [200, 400, ...,
    12800], 25400 steps in all."""
    start = max(MIN_STEPS, _pass_intervals(0, n_samples)) if n_steps is None else n_steps
    if start < MIN_STEPS:
        raise ConfigError(f"n_steps must be >= {MIN_STEPS}, got {start}")
    if n_samples < 2 or start < _pass_intervals(start, n_samples):
        raise ConfigError("need 2 <= n_samples <= n_steps + 1, or n_samples - 1 even "
                          "and <= 2 * n_steps")
    budget = STEP_BUDGET * _rounded_steps(BUDGET_STEPS if n_steps is None else n_steps, n_samples)
    ladder = [_rounded_steps(start, n_samples)]
    while sum(ladder) + 2 * ladder[-1] <= budget:
        ladder.append(2 * ladder[-1])
    return ladder


def check_initial(initial) -> None:
    """Raise ConfigError unless initial names the frame ket a run starts from."""
    if not isinstance(initial, str) or initial not in ("ket0", "ket1"):
        raise ConfigError(f"initial must be 'ket0' or 'ket1', got {initial!r}")


def step_seconds(params: ModelParams, sta: bool) -> float:
    """Cost of one propagation step of model.drive_set(params), from one
    MIN_STEPS-step run timed once. It builds and steps the model as a run of
    params does, so a model that cannot step raises."""
    system = model.drive_set(params)
    start = time.perf_counter()
    _propagate(system, system.frame.ket0, sta, MIN_STEPS, 2)
    return (time.perf_counter() - start) / MIN_STEPS


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
    steps_computed: int = 0  # matrices diagonalized by the run, all passes together

    def __post_init__(self):
        self.sx, self.sy, self.sz, self.pop = logical.bloch(self.system.frame, self.states)
        self.norm = np.linalg.norm(self.states, axis=1)

    @property
    def params(self) -> ModelParams:
        return self.system.params

    @property
    def final_state(self) -> np.ndarray:
        return self.system.lift(self.states[-1])

    def bloch(self) -> np.ndarray:
        """(n_samples, 3) array of (sx, sy, sz)."""
        return np.stack([self.sx, self.sy, self.sz], axis=1)

    def record(self) -> dict:
        """The run's facts, as run-manifest.json records them: whether it
        converged, its steps and refinement history, the matrices it
        diagonalized and its propagation basis."""
        return {
            "converged": self.converged,
            "n_steps_used": self.n_steps,
            "refine_history": tuple(self.refine_history),
            "steps_computed": self.steps_computed,
            "basis_dim": self.system.basis_dim,
            "leakage_bound": self.system.leakage_bound,
        }


def _propagate(system: model.DriveSet, psi0: np.ndarray, sta: bool, n_steps: int,
               n_samples: int) -> dict:
    """Single fixed-step propagation over n_steps, a whole number of steps per
    sample interval; returns n_steps and psi, the state at every sample.

    Each chunk of CHUNK_STEPS consecutive steps builds and diagonalizes its
    midpoint H(t) as one stack; the state then takes the steps V e^{-i w dt}
    V^dag one at a time and is kept at every sample, so a coarser sample grid
    keeps a subset of the same states, bit for bit."""
    spc = n_steps // (n_samples - 1)
    dt = system.params.tau / n_steps
    psi = np.empty((n_samples, system.basis_dim), dtype=complex)
    psi[0] = state = psi0
    for first in range(0, n_steps, CHUNK_STEPS):
        t = (np.arange(first, min(first + CHUNK_STEPS, n_steps)) + 0.5) * dt
        w, v = np.linalg.eigh(system.total_matrix(t, sta=sta))
        u = (v * np.exp(-1j * w * dt)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        for done, u_step in enumerate(u, first + 1):  # done: steps taken so far
            state = u_step @ state
            if done % spc == 0:
                psi[done // spc] = state
    return {"n_steps": n_steps, "psi": psi}


def evolve(
    system: model.DriveSet,
    initial: str = "ket0",
    sta: bool = False,
    n_steps: int | None = None,
    n_samples: int = DEFAULT_N_SAMPLES,
    refine_tol: float = REFINE_TOL,
) -> Trajectory:
    """Propagate a system, a model.DriveSet, over its ramp: a trajectory is
    its states at the n_samples sample times; observables are read off them.

    The run steps on the system's basis from initial, "ket0" or "ket1" of its
    frame, checked before any pass runs (check_initial). final_state is the
    last sample lifted back through the basis (DriveSet.lift) when read; a
    sample row k of states lifts the same way. run passes
    model.drive_set(params), twolevel.reference_dynamics twolevel.system(params).

    The step count comes from the tolerance. The passes are
    passes(n_steps, n_samples): the coarse pass, then doublings within a
    budget of steps. A pass with fewer steps than sample intervals runs on
    every other sample; it is only a check, since the first doubling always
    runs. Each pass is a Trajectory, and the run has converged once a
    doubling changes bloch() by at most refine_tol on every sample the two
    passes share, or stops unconverged at the ladder's end. The finest
    trajectory computed is returned; refine_history lists (n_steps, diff) per
    doubling and steps_computed counts the steps of all passes run.
    Non-convergence is flagged, never silent. A pass whose states are not all
    finite (a drive that overflows) raises NonFiniteStateError at once.
    """
    ladder = passes(n_steps, n_samples)
    check_initial(initial)
    psi0 = getattr(system.frame, initial)

    def trajectory(n: int) -> Trajectory:
        intervals = _pass_intervals(n, n_samples)
        t = np.arange(intervals + 1) * (n // intervals) * (system.params.tau / n)
        traj = Trajectory(system, t, system.params.theta(t),
                          _propagate(system, psi0, sta, n, intervals + 1)["psi"], n, sta, initial)
        bad = np.flatnonzero(~np.isfinite(traj.norm))
        if bad.size:
            raise NonFiniteStateError(f"non-finite state at t = {t[bad[0]]:.6g} ({n} steps)")
        return traj

    coarse = trajectory(ladder[0])
    for n in ladder[1:]:
        fine = trajectory(n)
        shared = fine.bloch()[::(fine.t.size - 1) // (coarse.t.size - 1)]
        diff = float(np.abs(shared - coarse.bloch()).max())
        fine.refine_history = [*coarse.refine_history, (n, diff)]
        fine.converged = diff <= refine_tol
        coarse = fine
        if coarse.converged:
            break
    coarse.steps_computed = sum(ladder[:len(coarse.refine_history) + 1])
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
