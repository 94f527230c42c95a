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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock, logical
from .errors import ConfigError, SingularDriveError
from .fock import Operator
from .logical import LogicalFrame

STABILIZER_RATIO_WARN = 0.2

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
        if self.delta_z == 0.0:
            if self.delta_0 == 0.0:
                return 0.0
            raise ConfigError("chi undefined: delta_z = 0")
        return self.delta_0 / self.delta_z

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


def h0(params: ModelParams) -> Operator:
    """Stabilizer -(K/2) adag^2 a^2 + (P/2)(adag^2 + a^2)."""
    a = fock.annihilation(params.dim).matrix
    ad = a.conj().T
    m = -params.kerr / 2 * (ad @ ad @ a @ a) + params.pump / 2 * (ad @ ad + a @ a)
    return Operator(m, hermitian=True)


def hz(params: ModelParams) -> Operator:
    """(adag + a) / (2 alpha0); projects to sigma_z_bar."""
    a = fock.annihilation(params.dim).matrix
    return Operator((a.conj().T + a) / (2 * params.alpha0), hermitian=True)


def hx(params: ModelParams) -> Operator:
    """Detuning drive c * adag a; see the module docstring for the prefactor."""
    a0 = params.alpha0
    if params.hx_prefactor == "exact":
        c = -np.exp(2 * a0**2) / (2 * a0**2)
    else:
        c = np.exp(2 * a0**2) / (2 * a0)
    return Operator(c * fock.number(params.dim).matrix, hermitian=True)


def hy(params: ModelParams) -> Operator:
    """(-i / 2 alpha0) exp(2 alpha0^2) (adag - a); projects to sigma_y_bar."""
    a = fock.annihilation(params.dim).matrix
    a0 = params.alpha0
    m = -1j / (2 * a0) * np.exp(2 * a0**2) * (a.conj().T - a)
    return Operator(m, hermitian=True)


def cd_coefficient(theta: float, theta_dot: float, chi: float) -> float:
    """Closed-form Theta_dot for Theta = arctan(sin th / (cos th + chi)).

    Valid in the counterdiabatic setting delta_z = omega0 (caller asserts).
    """
    denom = 1 + 2 * chi * np.cos(theta) + chi**2
    if abs(denom) < 1e-12:
        raise SingularDriveError(
            f"counterdiabatic coefficient singular at theta={theta}, chi={chi}"
        )
    return theta_dot * (1 + chi * np.cos(theta)) / denom


def mixing_angle(theta: float, chi: float) -> float:
    """Theta = atan2(sin theta, cos theta + chi), continuous on [0, pi]."""
    return float(np.arctan2(np.sin(theta), np.cos(theta) + chi)) % (2 * np.pi)


class DriveSet:
    """Pre-built operators for a parameter set, with the frame for the CD term.

    drive_set caches one per params, so each H(t) from total_matrix only
    combines the stored matrices. This is the system dynamics.evolve runs for
    the full oscillator.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.frame: LogicalFrame = logical.build_frame(params.alpha0, params.dim)
        self.h0 = h0(params)
        self.hz = hz(params)
        self.hx = hx(params)
        self.hy = hy(params)
        self.schedule = params.ramp()

    def total_matrix(self, t: float, sta: bool = False) -> np.ndarray:
        """H(t) = H0 + (Dz/2)Hz + (Om/2)(Hx cos phi + Hy sin phi) [+ (Theta_dot/2) sy_bar]."""
        p = self.params
        if t < 0 or t > p.tau + 1e-12:
            raise ValueError(f"t={t} outside [0, {p.tau}]")
        th = float(self.schedule.theta(t))
        dz = p.delta_z_of(th)
        om = p.omega_of(th)
        m = (
            self.h0.matrix
            + dz / 2 * self.hz.matrix
            + om / 2 * np.cos(p.phi) * self.hx.matrix
            + om / 2 * np.sin(p.phi) * self.hy.matrix
        )
        if sta:
            thd = float(self.schedule.theta_dot(t))
            cd = cd_coefficient(th, thd, p.chi)
            m = m + cd / 2 * self.frame.pauli_y.matrix
        return m


@lru_cache(maxsize=16)
def drive_set(params: ModelParams) -> DriveSet:
    return DriveSet(params)

