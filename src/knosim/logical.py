"""The coherent-state qubit frame.

The qubit basis is built from the quasi-orthogonal coherent states
|+alpha0> and |-alpha0> by Loewdin (symmetric) orthonormalization, which
perturbs each state only at order of their overlap exp(-2 alpha0^2) and makes
the Pauli algebra exact. The frame is its two kets, and this module alone
writes the logical operators, their dyads sx_bar = |0><1| + |1><0|,
sy_bar = -i|0><1| + i|1><0|, sz_bar = |0><0| - |1><1| and Ibar = |0><0| + |1><1|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import IllConditionedBasisError

MAX_BASIS_OVERLAP = 0.5


@dataclass(frozen=True)
class LogicalFrame:
    """Qubit basis kets |0_bar>, |1_bar> in Fock space or on a reduced basis,
    kept as read-only copies: model.drive_set caches its frames."""

    ket0: np.ndarray
    ket1: np.ndarray

    def __post_init__(self):
        for name in ("ket0", "ket1"):
            ket = np.array(getattr(self, name), dtype=complex)
            ket.setflags(write=False)
            object.__setattr__(self, name, ket)


def bloch(frame: LogicalFrame, states: np.ndarray) -> np.ndarray:
    """<psi|O|psi> for O = sx_bar, sy_bar, sz_bar, Ibar over a stack of states
    (..., M), from c_j = <j|psi> and z = conj(c0) c1: 2 Re z, 2 Im z,
    |c0|^2 - |c1|^2 and |c0|^2 + |c1|^2, stacked as (4, ...)."""
    c0 = states @ frame.ket0.conj()
    c1 = states @ frame.ket1.conj()
    z = c0.conj() * c1
    p0, p1 = np.abs(c0) ** 2, np.abs(c1) ** 2
    return np.stack([2 * z.real, 2 * z.imag, p0 - p1, p0 + p1])


def sigma_y(frame: LogicalFrame, phi: float) -> np.ndarray:
    """sy_bar turned to azimuth phi, -sin phi sx_bar + cos phi sy_bar =
    -i e^{-i phi}|0><1| + i e^{i phi}|1><0|, as a matrix on the kets' space."""
    m = 1j * np.exp(1j * phi) * np.outer(frame.ket1, frame.ket0.conj())
    return m + m.conj().T


def build_frame(alpha0: float, dim: int = 30) -> LogicalFrame:
    """Construct the logical frame for the cat qubit at +-alpha0."""
    plus, _ = fock.coherent_state(alpha0, dim)
    minus, _ = fock.coherent_state(-alpha0, dim)
    overlap = np.vdot(plus, minus)
    if abs(overlap) >= MAX_BASIS_OVERLAP:
        raise IllConditionedBasisError(
            f"|<-a0|a0>| = {abs(overlap):.3f} >= {MAX_BASIS_OVERLAP}; "
            "coherent states too close to encode a qubit"
        )

    even, odd = (x / np.linalg.norm(x) for x in (plus + minus, plus - minus))
    return LogicalFrame(ket0=(even + odd) / np.sqrt(2), ket1=(even - odd) / np.sqrt(2))
