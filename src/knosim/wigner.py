"""Wigner tomography: W(a) = (2/pi) <psi| D_a P D_a^dag |psi>, in closed form.

With x = 4|a|^2 and rho = |psi><psi| (Cahill & Glauber, Phys. Rev. 177, 1857
(1969); QuTiP's Laguerre Wigner, Comput. Phys. Commun. 184, 1234 (2013)):

    W(a) = (2/pi) Re sum_{k>=0} (2 - delta_k0) sum_n (-1)^n rho_{n+k,n} M_n^(k),
    M_n^(k) = (2a*)^k e^{-x/2} sqrt(n!/(n+k)!) L_n^(k)(x) = <n+k|D_2a*|n>.

|M| <= 1, so its three-term recurrence in n cannot overflow. It runs over the
whole grid at once, per diagonal k and index n (memory O(grid)), in the state's
own truncation: W is exact to rounding while e^{-2|a|^2} is a normal float.
M depends on the grid alone, so a sequence of states (a Wigner movie's
snapshots) shares one recurrence, each state adding its own rho_{n+k,n} M_n^(k)
in the order a single state's call would.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
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


def wigner(psi: StateVector | Sequence[StateVector], half_width: float = 4.5,
           n_points: int = 81) -> WignerGrid | list[WignerGrid]:
    """Evaluate W on the square grid |Re a|, |Im a| <= half_width: one grid for
    one state, or a list of them for a sequence of states of one dimension.
    The recurrence runs once for the whole sequence, and each state's grid is
    bitwise the grid of its own call."""
    if n_points < MIN_GRID_POINTS:
        raise ValueError(f"n_points must be >= {MIN_GRID_POINTS}, got {n_points}")
    states = [psi] if isinstance(psi, StateVector) else list(psi)
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise DimensionMismatchError(f"states of one dimension needed, got {sorted(dims)}")
    dim = dims.pop()
    axis = np.linspace(-half_width, half_width, n_points)
    alpha = axis[None, :] + 1j * axis[:, None]
    x = 4 * np.abs(alpha) ** 2
    amp = np.stack([s.amplitudes for s in states])
    # (-1)^n rho_{m,n}, indexed [m, n, state]: each entry scales a stack of grids
    signed_rho = np.moveaxis(amp[:, :, None] * amp.conj()[:, None, :] * (-1.0) ** np.arange(dim),
                             0, -1)[..., None, None]
    total = np.zeros((len(states),) + alpha.shape, dtype=complex)
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
    grids = [WignerGrid(axis, axis.copy(), v, np.zeros(v.shape, dtype=bool)) for v in values]
    return grids[0] if isinstance(psi, StateVector) else grids

