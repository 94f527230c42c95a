"""Wigner tomography: W(a) = (2/pi) <psi| D_a P D_a^dag |psi>, in closed form.

With x = 4|a|^2, phi = arg a and rho = |psi><psi| (Cahill & Glauber, Phys.
Rev. 177, 1857 (1969); QuTiP's Laguerre Wigner, Comput. Phys. Commun. 184,
1234 (2013)):

    W(a) = (2/pi) Re sum_{k>=0} (2 - delta_k0) e^{-ik phi} sum_n (-1)^n rho_{n+k,n} R_n^(k)(x),
    R_n^(k)(x) = |2a|^k e^{-x/2} sqrt(n!/(n+k)!) L_n^(k)(x),

so that e^{-ik phi} R_n^(k) = <n+k|D_2a*|n>. R is real and |R| <= 1, so its
three-term recurrence in n cannot overflow; R_0^(k+1) = R_0^(k) sqrt(x/(k+1))
starts each diagonal k. R depends on the radius alone, so the recurrence runs
in real arithmetic once per distinct x of the grid, in the state's own
truncation: W is exact to rounding while e^{-2|a|^2} is a normal float. Each
diagonal's radial sum is then gathered onto the grid and turned by
e^{-ik phi}, advanced one multiply per k. A sequence of states (a Wigner
movie's snapshots) shares one recurrence, each state adding its own
rho_{n+k,n} R_n^(k) in the order a single state's call would.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError

MIN_GRID_POINTS = 41


@dataclass(frozen=True)
class WignerGrid:
    """W on the square grid axis x axis; values[i, j] = W(axis[j] + 1i*axis[i])."""

    axis: np.ndarray
    values: np.ndarray

    def at_origin(self) -> float:
        """W(0), on an odd axis, whose middle point is exactly 0; an even
        axis holds no 0, and ValueError is raised."""
        i = int(np.argmin(np.abs(self.axis)))
        if self.axis[i] != 0:
            raise ValueError(f"no axis point is 0; the nearest is {self.axis[i]:.6g}")
        return float(self.values[i, i])


def check_grid(n_points: int) -> None:
    """Raise ConfigError for a grid of fewer than MIN_GRID_POINTS points a side."""
    if n_points < MIN_GRID_POINTS:
        raise ConfigError(f"n_points must be >= {MIN_GRID_POINTS}, got {n_points}")


def wigner(states: np.ndarray | Sequence[np.ndarray], half_width: float = 4.5,
           n_points: int = 81) -> list[WignerGrid]:
    """Evaluate W on the square grid |Re a|, |Im a| <= half_width, one grid for
    each state: the rows of a (k, dim) array, or 1-d amplitude arrays of one
    length. The recurrence runs once for all of them, and each state's grid
    is bitwise the grid of a call on that state alone."""
    check_grid(n_points)
    shapes = {np.shape(s) for s in states}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise DimensionMismatchError(f"1-d states of one length needed, got shapes {sorted(shapes)}")
    amp = np.asarray(states, dtype=complex)
    dim = amp.shape[1]
    line = np.linspace(-half_width, half_width, n_points)
    axis = (line - line[::-1]) / 2  # exactly mirror-symmetric, 0 in the middle of an odd axis
    alpha = axis[None, :] + 1j * axis[:, None]
    x, inverse = np.unique(4 * np.abs(alpha) ** 2, return_inverse=True)  # R's distinct radii
    inverse = inverse.reshape(alpha.shape)
    step = np.exp(-1j * np.angle(alpha))  # e^{-i phi}, 1 at the origin
    # (-1)^n rho_{m,n}, indexed [m, n, state]: each entry scales a stack of radial rows
    signed_rho = np.moveaxis(amp[:, :, None] * amp.conj()[:, None, :] * (-1.0) ** np.arange(dim),
                             0, -1)[..., None]
    total = np.zeros((len(states),) + alpha.shape, dtype=complex)
    # one diagonal on the grid, in one buffer for every k: a fresh array this
    # size per k is above malloc's mmap threshold, so each would map new pages
    grids = np.empty_like(total)
    phase = np.ones(alpha.shape, dtype=complex)  # e^{-ik phi}
    r_first = np.exp(-x / 2)  # R_0^(k), advanced in k
    for k in range(dim):
        r_prev, r = 0, r_first
        diag = signed_rho[k, 0] * r
        for n in range(1, dim - k):
            r_prev, r = r, ((2 * n - 1 + k - x) * r
                            - math.sqrt((n - 1) * (n - 1 + k)) * r_prev) / math.sqrt(n * (n + k))
            diag += signed_rho[n + k, n] * r
        if k:
            diag *= 2
        np.take(diag, inverse, axis=1, out=grids, mode="clip")  # in range: unbuffered
        grids *= phase
        total += grids
        phase *= step
        r_first = r_first * (np.sqrt(x) / math.sqrt(k + 1))
    values = 2 / np.pi * total.real
    return [WignerGrid(axis, v) for v in values]

