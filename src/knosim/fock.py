"""Truncated-Fock-space linear algebra.

Dense complex matrices on the first ``dim`` Fock states. Hamiltonians are in
angular-frequency units (rad/us, hbar = 1); everything else is dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError, TruncationError

COHERENT_LEAKAGE_TOL = 1e-8  # the truncated weight a coherent state may lose


@dataclass(frozen=True)
class StateVector:
    """A complex amplitude vector in the truncated Fock basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size < 2:
            raise InvalidDimensionError(f"state vector must be 1-d with dim >= 2, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n)

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return float(abs(self.overlap(other)) ** 2)


def _check_dim(dim: int):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidDimensionError(f"dim must be an integer >= 2, got {dim!r}")


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator a with <n-1|a|n> = sqrt(n)."""
    _check_dim(dim)
    m = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    m[ns - 1, ns] = np.sqrt(ns)
    return m


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Un-renormalized coherent amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    Computed by the stable recurrence c_n = c_{n-1} * alpha / sqrt(n).
    """
    _check_dim(dim)
    c = np.zeros(dim, dtype=complex)
    c[0] = np.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return c


def coherent_truncation_ok(alpha: complex, dim: int) -> bool:
    """Rule of thumb for an adequate truncation: |a|^2 + 6|a| + 9 <= dim."""
    r = abs(alpha)
    return r * r + 6 * r + 9 <= dim


def coherent_state(alpha: complex, dim: int) -> tuple[StateVector, float]:
    """Truncated coherent state |alpha>, renormalized after truncation.

    Returns (state, leakage) where leakage = 1 - sum |c_n|^2 before
    renormalization. Raises TruncationError when the leakage exceeds
    COHERENT_LEAKAGE_TOL.
    """
    c = coherent_amplitudes(alpha, dim)
    leakage = float(1.0 - np.sum(np.abs(c) ** 2))
    if leakage > COHERENT_LEAKAGE_TOL:
        raise TruncationError(
            f"coherent state |{alpha}> leaks {leakage:.3e} > {COHERENT_LEAKAGE_TOL:.1e} "
            f"at dim={dim}; increase the truncation"
        )
    return StateVector(c).normalized(), leakage

