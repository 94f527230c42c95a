"""Wigner tomography: W(a) = (2/pi) <psi| D_a P D_a^dag |psi>, in closed form.

With x = 4|a|^2 and rho = |psi><psi| (Cahill & Glauber, Phys. Rev. 177, 1857
(1969); QuTiP's Laguerre Wigner, Comput. Phys. Commun. 184, 1234 (2013)):

    W(a) = (2/pi) Re sum_{k>=0} (2 - delta_k0) sum_n (-1)^n rho_{n+k,n} M_n^(k),
    M_n^(k) = (2a*)^k e^{-x/2} sqrt(n!/(n+k)!) L_n^(k)(x) = <n+k|D_2a*|n>.

|M| <= 1, so its three-term recurrence in n cannot overflow. It runs over the
whole grid at once, per diagonal k and index n (memory O(grid)), in the state's
own truncation: W is exact to rounding while e^{-2|a|^2} is a normal float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import StateVector

MIN_GRID_POINTS = 41


@dataclass(frozen=True)
class WignerGrid:
    """W over re_axis x im_axis; values[i, j] = W(re_axis[j] + 1i*im_axis[i]).
    low_confidence is all false (nothing is truncated); the CLI still writes it."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray
    low_confidence: np.ndarray  # bool mask, same shape as values

    def at_origin(self) -> float:
        i = int(np.argmin(np.abs(self.im_axis)))
        j = int(np.argmin(np.abs(self.re_axis)))
        return float(self.values[i, j])


def wigner(psi: StateVector, half_width: float = 4.5, n_points: int = 81) -> WignerGrid:
    """Evaluate W on the square grid |Re a|, |Im a| <= half_width."""
    if n_points < MIN_GRID_POINTS:
        raise ValueError(f"n_points must be >= {MIN_GRID_POINTS}, got {n_points}")
    axis = np.linspace(-half_width, half_width, n_points)
    alpha = axis[None, :] + 1j * axis[:, None]
    x = 4 * np.abs(alpha) ** 2
    amp, dim = psi.amplitudes, psi.dim
    signed_rho = np.outer(amp, amp.conj()) * (-1.0) ** np.arange(dim)  # (-1)^n rho_{m,n}
    total = np.zeros(alpha.shape, dtype=complex)
    m_first = np.exp(-x / 2).astype(complex)  # M_0^(k), advanced in k
    for k in range(dim):
        m_prev, m = 0, m_first
        diag = signed_rho[k, 0] * m
        for n in range(1, dim - k):
            m_prev, m = m, ((2 * n - 1 + k - x) * m
                            - math.sqrt((n - 1) * (n - 1 + k)) * m_prev) / math.sqrt(n * (n + k))
            diag += signed_rho[n + k, n] * m
        total += diag if k == 0 else 2 * diag
        m_first = m_first * (2 * np.conj(alpha) / math.sqrt(k + 1))
    values = 2 / np.pi * total.real
    return WignerGrid(axis, axis.copy(), values, np.zeros(values.shape, dtype=bool))
