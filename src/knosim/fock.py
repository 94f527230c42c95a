"""Truncated-Fock-space linear algebra.

Dense complex matrices and vectors on the first ``dim`` Fock states. Hamiltonians
are in angular-frequency units (rad/us, hbar = 1); the rest is dimensionless.
"""

from __future__ import annotations

import math

import numpy as np


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator a with <n-1|a|n> = sqrt(n)."""
    m = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    m[ns - 1, ns] = np.sqrt(ns)
    return m


def coherent_leakage(alpha: complex, dim: int) -> float:
    """The weight |alpha> has beyond the first dim Fock states, the Poisson
    tail 1 - e^{-|a|^2} sum_{n<dim} |a|^{2n} / n!, in floats."""
    lam = float(abs(alpha)) ** 2
    term = total = math.exp(-lam)
    for n in range(1, dim):
        term *= lam / n
        total += term
    return 1.0 - total


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent state |alpha>, renormalized after truncation.

    The amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!) come from the stable
    recurrence c_n = c_{n-1} * alpha / sqrt(n). model.ModelParams refuses a
    cat whose states lose too much weight (coherent_leakage) to truncation.
    """
    c = np.zeros(dim, dtype=complex)
    c[0] = np.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return c / np.linalg.norm(c)
