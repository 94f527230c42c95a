"""Truncated-Fock-space linear algebra.

Dense complex matrices and vectors on the first ``dim`` Fock states. Hamiltonians
are in angular-frequency units (rad/us, hbar = 1); the rest is dimensionless.
"""

from __future__ import annotations

import numpy as np

from .errors import TruncationError

COHERENT_LEAKAGE_TOL = 1e-8  # the truncated weight a coherent state may lose


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator a with <n-1|a|n> = sqrt(n)."""
    m = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    m[ns - 1, ns] = np.sqrt(ns)
    return m


def coherent_truncation_ok(alpha: complex, dim: int) -> bool:
    """Rule of thumb for an adequate truncation: |a|^2 + 6|a| + 9 <= dim."""
    r = abs(alpha)
    return r * r + 6 * r + 9 <= dim


def coherent_state(alpha: complex, dim: int) -> tuple[np.ndarray, float]:
    """Truncated coherent state |alpha>, renormalized after truncation.

    The amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!) come from the stable
    recurrence c_n = c_{n-1} * alpha / sqrt(n). Returns (amplitudes, leakage)
    where leakage = 1 - sum |c_n|^2 before renormalization. Raises
    TruncationError when the leakage exceeds COHERENT_LEAKAGE_TOL.
    """
    c = np.zeros(dim, dtype=complex)
    c[0] = np.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    leakage = float(1.0 - np.sum(np.abs(c) ** 2))
    if leakage > COHERENT_LEAKAGE_TOL:
        raise TruncationError(
            f"coherent state |{alpha}> leaks {leakage:.3e} > {COHERENT_LEAKAGE_TOL:.1e} "
            f"at dim={dim}; increase the truncation"
        )
    return c / np.linalg.norm(c), leakage

