"""Time-dependent propagation over a ramp schedule.

Midpoint-exponential stepping: each step applies exp(-i H(t + dt/2) dt)
through the Hermitian eigendecomposition kernel. This is unconditionally
norm-preserving, which matters because the stabilizer Hamiltonian is stiff
(large eigenvalues at high Fock indices).
"""

from __future__ import annotations

import functools
import timeit
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import model
from .errors import ConfigError
from .fock import StateVector
from .model import ModelParams

REFINE_TOL = 1e-4
MAX_REFINEMENTS = 2
DEFAULT_N_SAMPLES = 401
EIGH_SHARE_OF_STEP = 0.8  # of a fig2-4 step at dim 30; the rest is H(t), update, record


def default_n_steps(params: ModelParams) -> int:
    """Step-count heuristic: 500 steps/us, at least 4000 (validated by the
    built-in step-doubling check)."""
    return max(4000, int(round(500 * params.tau)))


def _rounded_steps(n_steps: int, n_samples: int) -> int:
    """The steps a propagation runs: n_steps rounded up to whole sample intervals."""
    return max(1, int(np.ceil(n_steps / (n_samples - 1)))) * (n_samples - 1)


def expected_eigh_calls(n_steps: int, n_samples: int) -> int:
    """eigh calls of one evolve that converges at its first step doubling,
    as the presets do: the coarse pass plus one pass at twice the steps."""
    return 3 * _rounded_steps(n_steps, n_samples)


@functools.cache
def step_seconds(dim: int) -> float:
    """Cost of one propagation step at dim levels, measured once per process:
    the fastest of a few dim x dim Hermitian eigh calls, over eigh's share."""
    rng = np.random.default_rng(0)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = m + m.conj().T
    return min(timeit.repeat(lambda: np.linalg.eigh(h), number=1, repeat=20)) / EIGH_SHARE_OF_STEP


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
    refine_diff: float = float("nan")
    final_state: StateVector | None = None
    snapshots: dict[float, StateVector] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.t.size

    def bloch(self) -> np.ndarray:
        """(n_samples, 3) array of (sx, sy, sz)."""
        return np.stack([self.sx, self.sy, self.sz], axis=1)


def _initial_state(system, initial) -> tuple[StateVector, str]:
    if isinstance(initial, StateVector):
        return initial.normalized(), "custom"
    if initial == "ket0":
        return system.frame.ket0, "ket0"
    if initial == "ket1":
        return system.frame.ket1, "ket1"
    raise ConfigError(f"initial must be 'ket0', 'ket1' or a StateVector, got {initial!r}")


def _propagate(
    system,
    psi0: StateVector,
    sta: bool,
    n_steps: int,
    n_samples: int,
    snapshot_times=(),
) -> dict:
    """Single fixed-step propagation; returns sampled arrays and snapshots."""
    p = system.params
    snap_k = {}  # snapshot time -> sample index; off-grid times are rejected
    for ts in snapshot_times:
        if not np.isfinite(ts):
            raise ConfigError(f"snapshot time must be finite, got {ts}")
        k = int(round(ts / p.tau * (n_samples - 1)))
        if not 0 <= k < n_samples or abs(k * p.tau / (n_samples - 1) - ts) > 1e-9 * p.tau:
            raise ConfigError(f"snapshot time {ts} is not on the sample grid k*tau/{n_samples - 1}")
        snap_k[float(ts)] = k
    n_steps = _rounded_steps(n_steps, n_samples)
    spc = n_steps // (n_samples - 1)
    dt = p.tau / n_steps

    frame = system.frame
    obs = (frame.pauli_x.matrix, frame.pauli_y.matrix, frame.pauli_z.matrix, frame.projector.matrix)

    psi = psi0.amplitudes.copy()
    out = np.empty((n_samples, 6))
    states: dict[int, StateVector] = {}

    def record(k_sample: int, step: int):
        vals = [np.vdot(psi, m @ psi).real for m in obs]
        out[k_sample] = [step * dt, *vals, np.linalg.norm(psi)]
        if k_sample in snap_k.values():
            states[k_sample] = StateVector(psi.copy())

    record(0, 0)
    k = 1
    for i in range(n_steps):
        h = system.total_matrix((i + 0.5) * dt, sta=sta)
        w, v = np.linalg.eigh(h)
        psi = v @ (np.exp(-1j * w * dt) * (v.conj().T @ psi))
        if (i + 1) % spc == 0:
            record(k, i + 1)
            k += 1
    assert k == n_samples

    return {
        "t": out[:, 0],
        "sx": out[:, 1],
        "sy": out[:, 2],
        "sz": out[:, 3],
        "pop": out[:, 4],
        "norm": out[:, 5],
        "n_steps": n_steps,
        "final_state": StateVector(psi),
        "snapshots": {ts: states[k] for ts, k in snap_k.items()},
    }


def evolve(
    system,
    initial="ket0",
    sta: bool = False,
    n_steps: int | None = None,
    n_samples: int = DEFAULT_N_SAMPLES,
    refine_tol: float = REFINE_TOL,
    max_refinements: int = MAX_REFINEMENTS,
    snapshot_times=(),
) -> Trajectory:
    """Propagate a system over its ramp and sample the logical Bloch vector.

    A system has ``params`` (ModelParams: tau and the ramp), ``frame`` (a
    LogicalFrame on its basis: initial states and observables) and
    ``total_matrix(t, sta)``, the Hermitian H(t). run passes a model.DriveSet,
    twolevel.reference_dynamics a twolevel.TwoLevelSystem.

    The step count is validated by step doubling: the run converged when one
    doubling changes every sampled s_j by at most refine_tol. The returned
    trajectory is always the finest one computed; non-convergence after
    max_refinements doublings is flagged, never silent. Snapshot times must
    lie on the sample grid k * tau / (n_samples - 1).
    """
    params = system.params
    if n_steps is None:
        n_steps = default_n_steps(params)
    if n_steps < 100:
        raise ConfigError(f"n_steps must be >= 100, got {n_steps}")
    if n_samples < 2 or n_samples > n_steps:
        raise ConfigError("need 2 <= n_samples <= n_steps")
    psi0, label = _initial_state(system, initial)

    coarse = _propagate(system, psi0, sta, n_steps, n_samples, snapshot_times)
    converged = False
    diff = float("nan")
    for _ in range(max_refinements):
        fine = _propagate(system, psi0, sta, 2 * coarse["n_steps"], n_samples, snapshot_times)
        diff = max(
            float(np.abs(fine[k] - coarse[k]).max()) for k in ("sx", "sy", "sz")
        )
        coarse = fine
        if diff <= refine_tol:
            converged = True
            break

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
        refine_diff=diff,
        final_state=coarse["final_state"],
        snapshots=coarse["snapshots"],
    )


def run(
    params: ModelParams, initial="ket0", sta: bool = False, orthogonalization: str = "lowdin", **kw
) -> Trajectory:
    """Propagate the full oscillator, model.drive_set(params); kw as in evolve."""
    return evolve(model.drive_set(params, orthogonalization), initial, sta, **kw)


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
