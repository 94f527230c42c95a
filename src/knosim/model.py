"""Hamiltonians of the driven Kerr oscillator and ramp schedules.

Units: angular frequencies in rad/us, time in us, hbar = 1. Quoted lab values
in "MHz" are cycle frequencies, so 1000 MHz -> 2*pi*1000 rad/us.

The stabilizer Hamiltonian

    H0 = -(K/2) adag^2 a^2 + (P/2)(adag^2 + a^2)

pins the dynamics to the cat subspace at +-alpha0, alpha0 = sqrt(P/K). The
drives Hz, Hx, Hy act as logical Pauli operators there. A note on Hx: it is
proportional to the number operator, and because the cat basis states are not
exactly orthogonal, the orthonormalized-frame projection of a^dag a picks up
twice the naive coherent-state matrix element. The default "exact" prefactor

    -exp(2 alpha0^2) / (2 alpha0^2)

is the unique choice for which Ibar Hx Ibar = sigma_x_bar + const * Ibar in
the Loewdin frame, i.e. for which the driven subspace dynamics realizes the
intended two-level model (and with it the quantized Chern numbers). The
"paper" mode keeps the published prefactor exp(2 alpha0^2)/(2 alpha0) for
comparison; it yields a doubled-and-flipped x coupling and non-quantized
linear-response integrals.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock, logical
from .errors import ConfigError, SingularDriveError
from .logical import LogicalFrame

STABILIZER_RATIO_WARN = 0.2
LEAKAGE_TOL = 1e-6  # dynamics.REFINE_TOL / 100: first-order amplitude a dropped eigenstate may take
DEGENERACY_ATOL = 1e-12  # |chi| this close to 1 puts the degeneracy on the ramp manifold

SCHEDULE_SHAPES = ("linear", "cosine")
HX_PREFACTOR_MODES = ("exact", "paper")


@dataclass(frozen=True)
class RampSchedule:
    """Polar-angle ramp theta(t) over [0, tau], theta(0)=0, theta(tau)=pi."""

    shape: str
    tau: float

    def __post_init__(self):
        if self.shape not in SCHEDULE_SHAPES:
            raise ConfigError(f"unknown schedule shape {self.shape!r}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")

    def theta(self, t):
        if self.shape == "linear":
            return np.pi * np.asarray(t) / self.tau
        return np.pi / 2 * (1 - np.cos(np.pi * np.asarray(t) / self.tau))

    def theta_dot(self, t):
        if self.shape == "linear":
            return np.full_like(np.asarray(t, dtype=float), np.pi / self.tau)[()]
        return np.pi**2 / (2 * self.tau) * np.sin(np.pi * np.asarray(t) / self.tau)


@dataclass(frozen=True)
class ModelParams:
    """All physical parameters of one protocol run.

    kerr (K) and pump (P) fix alpha0 = sqrt(P/K); delta_z / delta_0 / omega0
    shape the ramped parameter manifold; chi = delta_0/delta_z locates it.
    """

    kerr: float
    pump: float
    omega0: float
    delta_z: float
    delta_0: float = 0.0
    tau: float = 1.0
    schedule: str = "linear"
    phi: float = 0.0
    hx_prefactor: str = "exact"
    dim: int = 30

    def __post_init__(self):
        for name in ("kerr", "pump", "omega0", "delta_z", "delta_0", "tau", "phi"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kerr <= 0 or self.pump <= 0:
            raise ConfigError("kerr and pump must be positive")
        self.ramp()  # checks schedule and tau
        if self.hx_prefactor not in HX_PREFACTOR_MODES:
            raise ConfigError(f"unknown hx_prefactor mode {self.hx_prefactor!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ConfigError(f"dim must be an integer >= 2, got {self.dim!r}")
        if self.delta_0 != 0.0 and self.delta_z == 0.0:
            raise ConfigError("delta_0 set with delta_z = 0: chi undefined")
        if self.stabilizer_ratio > STABILIZER_RATIO_WARN:
            warnings.warn(
                f"stabilizer ratio exp(2 a0^2)*Omega0/P = {self.stabilizer_ratio:.3f} "
                f"> {STABILIZER_RATIO_WARN}: drives compete with the stabilizer",
                stacklevel=2,
            )

    @property
    def alpha0(self) -> float:
        return float(np.sqrt(self.pump / self.kerr))

    @property
    def chi(self) -> float:
        """delta_0 / delta_z; 0 with no drive (construction rejects delta_0 alone)."""
        return self.delta_0 / self.delta_z if self.delta_z != 0.0 else 0.0

    @property
    def rho(self) -> float:
        """omega0 / delta_z, the ramp manifold's aspect ratio; inf with delta_z = 0."""
        return self.omega0 / self.delta_z if self.delta_z != 0.0 else np.inf

    @property
    def stabilizer_ratio(self) -> float:
        """exp(2 alpha0^2) * Omega0 / P; the drives must keep this small."""
        return float(np.exp(2 * self.alpha0**2) * abs(self.omega0) / self.pump)

    def ramp(self) -> RampSchedule:
        return RampSchedule(shape=self.schedule, tau=self.tau)

    def delta_z_of(self, theta):
        return self.delta_z * np.cos(theta) + self.delta_0

    def omega_of(self, theta):
        return self.omega0 * np.sin(theta)


def h0(params: ModelParams) -> np.ndarray:
    """Stabilizer -(K/2) adag^2 a^2 + (P/2)(adag^2 + a^2)."""
    a = fock.annihilation(params.dim)
    ad = a.conj().T
    return -params.kerr / 2 * (ad @ ad @ a @ a) + params.pump / 2 * (ad @ ad + a @ a)


def hz(params: ModelParams) -> np.ndarray:
    """(adag + a) / (2 alpha0); projects to sigma_z_bar."""
    a = fock.annihilation(params.dim)
    return (a.conj().T + a) / (2 * params.alpha0)


def hx(params: ModelParams) -> np.ndarray:
    """Detuning drive c * adag a; see the module docstring for the prefactor."""
    a0 = params.alpha0
    if params.hx_prefactor == "exact":
        c = -np.exp(2 * a0**2) / (2 * a0**2)
    else:
        c = np.exp(2 * a0**2) / (2 * a0)
    return c * np.diag(np.arange(params.dim, dtype=complex))  # c * adag a


def hy(params: ModelParams) -> np.ndarray:
    """(-i / 2 alpha0) exp(2 alpha0^2) (adag - a); projects to sigma_y_bar."""
    a = fock.annihilation(params.dim)
    a0 = params.alpha0
    return -1j / (2 * a0) * np.exp(2 * a0**2) * (a.conj().T - a)


@contextmanager
def _refuse_overflow(what: str):
    """A ConfigError naming what, in place of numpy's warning, when what
    overflows or turns nan: the drive is too large for floating point."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def cd_coefficient(theta, theta_dot, chi: float, rho: float = 1.0):
    """Closed-form Theta_dot for the mixing angle Theta (see mixing_angle),

        Theta_dot = theta_dot rho (1 + chi cos th) / (rho^2 sin^2 th + (cos th + chi)^2),

    elementwise over theta and theta_dot, rho = omega0 / delta_z. |chi|
    within DEGENERACY_ATOL of 1 puts the degeneracy on the ramp, and
    delta_z = 0 (rho infinite) starts it at zero drive: a SingularDriveError
    whatever the theta grid. At any other chi and nonzero rho the denominator
    is positive; a chi so large that it overflows is a ConfigError.
    """
    if abs(abs(chi) - 1.0) < DEGENERACY_ATOL:
        raise SingularDriveError(f"counterdiabatic coefficient singular at chi={chi}")
    if not np.isfinite(rho):
        raise SingularDriveError("counterdiabatic coefficient singular at delta_z=0")
    cos = np.cos(theta)
    with _refuse_overflow(f"counterdiabatic coefficient at chi={chi}"):
        return theta_dot * rho * (1 + chi * cos) / (rho**2 * np.sin(theta) ** 2 + (cos + chi) ** 2)


def mixing_angle(theta, chi: float, rho: float = 1.0):
    """Theta = atan2(rho sin theta, cos theta + chi) mod 2 pi, elementwise,
    rho = omega0 / delta_z: the polar angle of the drive (Om, Dz), that is
    atan2(omega0 sin th, delta_z cos th + delta_0), for delta_z > 0 (and pi
    off it, the other eigenstate, for delta_z < 0)."""
    return np.arctan2(rho * np.sin(theta), np.cos(theta) + chi) % (2 * np.pi)


class DriveSet:
    """One system for dynamics.evolve: the model's H(t) on a basis,

        H(t) = H0 + (Dz/2) Hz + (Om/2)(cos phi Hx + sin phi Hy) [+ (Theta_dot/2) sy_phi],

    with Dz, Om ramped as params says and sy_phi = logical.sigma_y(frame, phi),
    sy_bar turned to the drive's azimuth. H0 and the drives are matrices on
    the basis (0 for none), and the frame's kets (the initial states and the
    readout) are vectors on it. basis holds the basis vectors as columns, and
    lift maps a state on it back to the columns' space. leakage_bound is the
    first-order amplitude the basis leaves out. drive_set builds the
    oscillator, twolevel.system the 2x2 reduction.
    """

    def __init__(self, params: ModelParams, h0, hz, hx, hy, frame: LogicalFrame,
                 basis: np.ndarray, leakage_bound: float = 0.0):
        self.params = params
        self.schedule = params.ramp()
        self.h0 = h0
        self.frame = frame
        self.basis = basis
        self.leakage_bound = leakage_bound
        # halved and mixed at phi once, as total_matrix runs every step
        self.hz_half = hz / 2
        self.hphi_half = (np.cos(params.phi) * hx + np.sin(params.phi) * hy) / 2
        self.sy_half = logical.sigma_y(frame, params.phi) / 2

    @property
    def basis_dim(self) -> int:
        return self.basis.shape[1]

    def lift(self, state: np.ndarray) -> np.ndarray:
        """B psi: a state on the basis, back in the space of its columns."""
        return self.basis @ state

    def total_matrix(self, t, sta: bool = False) -> np.ndarray:
        """H(t) as an M x M matrix for a scalar t; for an array of times, the
        stack of H at each, of shape t.shape + (M, M)."""
        p = self.params
        t = np.asarray(t, dtype=float)
        if np.any((t < 0) | (t > p.tau + 1e-12)):
            raise ValueError(f"t={t} outside [0, {p.tau}]")
        t = t[..., None, None]  # each time's coefficients scale its own matrix
        th = self.schedule.theta(t)
        m = self.h0 + p.delta_z_of(th) * self.hz_half
        m += p.omega_of(th) * self.hphi_half
        if sta:
            m += cd_coefficient(th, self.schedule.theta_dot(t), p.chi, p.rho) * self.sy_half
        return m


def _largest_drive(p: ModelParams, z, x, y) -> np.ndarray:
    """(|Dz| + |D0|)/2 Hz + |Om0|/2 (|cos phi| Hx + |sin phi| Hy) for z, x, y =
    Hz, Hx, Hy: the drive at its largest along the ramp. The counterdiabatic
    term lies in the frame, so it couples nothing out of the basis."""
    return (abs(p.delta_z) + abs(p.delta_0)) / 2 * z + abs(p.omega0) / 2 * (
        abs(np.cos(p.phi)) * x + abs(np.sin(p.phi)) * y
    )


def _leakage_amplitudes(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per eigenvector k (columns of u, energies w, the cat doublet first):
    max over the doublet c of |<k|v|c>| / |E_k - E_c|; 0 for the doublet."""
    coupling = np.abs(u.conj().T @ v @ u[:, :2])
    gap = np.abs(w[:, None] - w[None, :2])
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.where(coupling == 0.0, 0.0, coupling / gap).max(axis=1)
    amp[:2] = 0.0
    return amp


@lru_cache(maxsize=16, typed=True)
def drive_set(params: ModelParams, basis_dim: int | None = None) -> DriveSet:
    """The oscillator as a DriveSet on a reduced H0 eigenbasis.

    H0 is diagonalized once, and its eigenvectors are ordered by how far their
    energies lie from the cat energy <ket0|H0|ket0>. The first basis_dim of
    them, the columns of basis (dim x M), carry the dynamics: H0 is stored as
    diag(w), Hz, Hx and Hy as B^dag (...) B and the frame's kets as B^dag k,
    so total_matrix only combines M x M matrices. With basis_dim None, M is
    the smallest even size whose dropped eigenstates k each take a first-order
    amplitude |<k|V|c>| / |E_k - E_c| of at most LEAKAGE_TOL from the cat
    doublet c, under the largest drive V (_largest_drive); leakage_bound is
    the largest such amplitude left out, and M = dim, the whole space, when
    no smaller size meets the bound. A drive so large that the bound
    overflows is a ConfigError.
    """
    full = logical.build_frame(params.alpha0, params.dim)
    h = h0(params)
    drives = (hz(params), hx(params), hy(params))
    w, u = np.linalg.eigh(h)
    cat = full.ket0
    order = np.argsort(np.abs(w - np.vdot(cat, h @ cat).real), kind="stable")
    w, u = w[order], u[:, order]
    # tail[m]: the largest amplitude beyond the first m eigenvectors, m = 0..dim
    with _refuse_overflow(f"largest drive at delta_0={params.delta_0}"):
        amp = _leakage_amplitudes(w, u, _largest_drive(params, *drives))
    tail = np.append(np.maximum.accumulate(amp[::-1])[::-1], 0.0)
    m = basis_dim
    if m is None:
        m = next((k for k in range(2, params.dim, 2) if tail[k] <= LEAKAGE_TOL), params.dim)
    if not isinstance(m, (int, np.integer)) or not 2 <= m <= params.dim:
        raise ConfigError(f"basis_dim must be an integer in [2, {params.dim}], got {m!r}")
    b = u[:, :m]

    def project(op: np.ndarray) -> np.ndarray:
        """B^dag op B, symmetrized."""
        x = b.conj().T @ op @ b
        return (x + x.conj().T) / 2

    # exact: B^dag |k><k'| B = (B^dag k)(B^dag k')^dag
    frame = LogicalFrame(b.conj().T @ full.ket0, b.conj().T @ full.ket1)
    z, x, y = (project(op) for op in drives)
    return DriveSet(params, np.diag(w[:m]), z, x, y, frame, b, float(tail[m]))
