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

from . import model
from .errors import ConfigError, DimensionMismatchError
from .fock import StateVector
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
    """Sampled logical observables along one propagation."""

    t: np.ndarray
    theta: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    pop: np.ndarray
    norm: np.ndarray
    n_steps: int
    converged: bool
    params: ModelParams
    sta: bool
    initial: str
    refine_history: list[tuple[int, float]] = field(default_factory=list)
    final_state: StateVector | None = None
    snapshots: dict[float, StateVector] = field(default_factory=dict)
    basis_dim: int | None = None  # the system's basis size M
    leakage_bound: float | None = None  # the leakage amplitude the basis leaves out

    @property
    def refine_diff(self) -> float:
        """Bloch change at the last step doubling (nan if none ran)."""
        return self.refine_history[-1][1] if self.refine_history else float("nan")

    def bloch(self) -> np.ndarray:
        """(n_samples, 3) array of (sx, sy, sz)."""
        return np.stack([self.sx, self.sy, self.sz], axis=1)


def _initial_state(system: model.DriveSet, initial) -> tuple[StateVector, str]:
    if isinstance(initial, StateVector):
        if initial.dim != system.basis_dim:
            raise DimensionMismatchError(
                f"initial state has {initial.dim} amplitudes, the system's basis {system.basis_dim}"
            )
        return initial.normalized(), "custom"
    if initial == "ket0":
        return system.frame.ket0, "ket0"
    if initial == "ket1":
        return system.frame.ket1, "ket1"
    raise ConfigError(f"initial must be 'ket0', 'ket1' or a StateVector, got {initial!r}")


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


def _propagate(
    system: model.DriveSet,
    psi0: StateVector,
    sta: bool,
    n_steps: int,
    n_samples: int,
    snapshot_times=(),
) -> dict:
    """Single fixed-step propagation over n_steps, a whole number of steps per
    sample interval; returns sampled arrays and snapshots.

    The pass runs in chunks of whole sample intervals, of at most CHUNK_STEPS
    steps (an interval longer than that is built CHUNK_STEPS steps at a time),
    so its memory does not grow with n_steps: every midpoint H(t) of a chunk
    is built and diagonalized as one stack, each interval's steps are
    multiplied into one propagator, and the state advances interval by
    interval. The observables of all samples are read at the end."""
    p = system.params
    snap_k = {}  # snapshot time -> sample index; off-grid times are rejected
    for ts in snapshot_times:
        if not np.isfinite(ts):
            raise ConfigError(f"snapshot time must be finite, got {ts}")
        k = int(round(ts / p.tau * (n_samples - 1)))
        if not 0 <= k < n_samples or abs(k * p.tau / (n_samples - 1) - ts) > 1e-9 * p.tau:
            raise ConfigError(f"snapshot time {ts} is not on the sample grid k*tau/{n_samples - 1}")
        snap_k[float(ts)] = k
    spc = n_steps // (n_samples - 1)
    dt = p.tau / n_steps
    per_chunk = max(1, CHUNK_STEPS // spc)  # sample intervals per chunk

    psi = np.empty((n_samples, system.basis_dim), dtype=complex)
    psi[0] = psi0.amplitudes
    for first in range(0, n_samples - 1, per_chunk):
        stop = min(first + per_chunk, n_samples - 1)
        for k, u in enumerate(_interval_propagators(system, sta, first, stop, spc, dt), first):
            psi[k + 1] = u @ psi[k]

    frame = system.frame
    obs = np.stack([op.matrix for op in (frame.pauli_x, frame.pauli_y, frame.pauli_z, frame.projector)])
    sx, sy, sz, pop = np.einsum("ki,oij,kj->ok", psi.conj(), obs, psi).real
    return {
        "t": np.arange(n_samples) * spc * dt,
        "sx": sx,
        "sy": sy,
        "sz": sz,
        "pop": pop,
        "norm": np.linalg.norm(psi, axis=1),
        "n_steps": n_steps,
        "final_state": StateVector(psi[-1].copy()),
        "snapshots": {ts: StateVector(psi[k].copy()) for ts, k in snap_k.items()},
    }


def evolve(
    system: model.DriveSet,
    initial="ket0",
    sta: bool = False,
    n_steps: int | None = None,
    n_samples: int = DEFAULT_N_SAMPLES,
    refine_tol: float = REFINE_TOL,
    snapshot_times=(),
) -> Trajectory:
    """Propagate a system, a model.DriveSet, over its ramp and sample the
    logical Bloch vector.

    The run steps on the system's basis: initial is "ket0" or "ket1" of its
    frame, or a StateVector of basis_dim amplitudes on the basis, which is
    normalized (any other size is a DimensionMismatchError). final_state and
    the snapshots are lifted back through the basis (DriveSet.lift), and the
    trajectory records basis_dim and leakage_bound. run passes
    model.drive_set(params), twolevel.reference_dynamics twolevel.system(params).

    The step count comes from the tolerance. The coarse pass has
    start_steps(n_steps, n_samples) steps; with n_steps None that is the
    coarsest grid accepted, one step per sample interval for 401 samples.
    Each further pass doubles the steps, and the run has converged once a
    doubling changes every sampled s_j by at most refine_tol. The cost is
    capped, not the number of doublings: all passes together compute at most
    step_budget(n_steps, n_samples) steps, and doubling stops before a pass
    that would exceed that. An explicit n_steps N thus runs its coarse pass
    and at most two doublings (7N steps); the default start at 401 samples
    may double five times (400 to 12800 steps, 25200 in all). The returned
    trajectory is always the finest one computed, and refine_history lists
    (n_steps, diff) per doubling; non-convergence is flagged, never silent.
    Snapshot times must lie on the sample grid k * tau / (n_samples - 1).
    """
    params = system.params
    start = start_steps(n_steps, n_samples)
    budget = step_budget(n_steps, n_samples)
    psi0, label = _initial_state(system, initial)

    coarse = _propagate(system, psi0, sta, start, n_samples, snapshot_times)
    spent = start
    history = []
    converged = False
    while not converged and spent + 2 * coarse["n_steps"] <= budget:
        fine = _propagate(system, psi0, sta, 2 * coarse["n_steps"], n_samples, snapshot_times)
        spent += fine["n_steps"]
        diff = max(
            float(np.abs(fine[k] - coarse[k]).max()) for k in ("sx", "sy", "sz")
        )
        history.append((fine["n_steps"], diff))
        converged = diff <= refine_tol
        coarse = fine

    return Trajectory(
        t=coarse["t"],
        theta=np.asarray(params.ramp().theta(coarse["t"]), dtype=float),
        sx=coarse["sx"],
        sy=coarse["sy"],
        sz=coarse["sz"],
        pop=coarse["pop"],
        norm=coarse["norm"],
        n_steps=coarse["n_steps"],
        converged=converged,
        params=params,
        sta=sta,
        initial=label,
        refine_history=history,
        final_state=system.lift(coarse["final_state"]),
        snapshots={t: system.lift(s) for t, s in coarse["snapshots"].items()},
        basis_dim=system.basis_dim,
        leakage_bound=system.leakage_bound,
    )


def run(params: ModelParams, initial="ket0", sta: bool = False, **kw) -> Trajectory:
    """Propagate the oscillator, model.drive_set(params), on its reduced H0
    eigenbasis; initial and kw as in evolve."""
    return evolve(model.drive_set(params), initial, sta, **kw)


class FidelityResult(NamedTuple):
    theta: np.ndarray
    fidelity: np.ndarray
    min_fidelity: float
    branch: str  # "upper" or "lower" instantaneous eigenstate


def instantaneous_eigenstate_fidelity(traj: Trajectory, rtol: float = 1e-9) -> FidelityResult:
    """Fidelity of the projected qubit state with the analytic eigenstate.

    Valid in the counterdiabatic setting delta_z = omega0, where the mixing
    angle is Theta = atan2(sin th, cos th + chi). The eigenstate branch is the
    one the trajectory starts in. Uses only the sampled Bloch data: the
    projected pure state has fidelity (1 + s_hat . n_hat)/2 with the
    eigenstate whose Bloch axis is n_hat.
    """
    p = traj.params
    if abs(p.delta_z - p.omega0) > rtol * max(abs(p.omega0), 1e-300):
        raise ConfigError(
            "eigenstate fidelity defined for the STA setting delta_z = omega0"
        )
    chi = p.chi
    big_theta = np.array([model.mixing_angle(th, chi) for th in traj.theta])
    nhat = np.stack([np.sin(big_theta), np.zeros_like(big_theta), np.cos(big_theta)], axis=1)
    shat = traj.bloch() / traj.pop[:, None]
    proj = np.einsum("ij,ij->i", shat, nhat)
    f_upper = (1 + proj) / 2
    f_lower = (1 - proj) / 2
    if f_upper[0] >= f_lower[0]:
        fid, branch = f_upper, "upper"
    else:
        fid, branch = f_lower, "lower"
    return FidelityResult(traj.theta.copy(), fid, float(fid.min()), branch)
