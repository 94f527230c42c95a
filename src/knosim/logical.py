"""The coherent-state qubit frame.

The qubit basis is built from the quasi-orthogonal coherent states
|+alpha0> and |-alpha0> by Loewdin (symmetric) orthonormalization, which
perturbs each state only at order of their overlap exp(-2 alpha0^2) and makes
the Pauli algebra exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import IllConditionedBasisError
from .fock import Operator, StateVector

MAX_BASIS_OVERLAP = 0.5


@dataclass(frozen=True)
class LogicalFrame:
    """Qubit basis, projector and Pauli operators embedded in Fock space."""

    ket0: StateVector
    ket1: StateVector
    projector: Operator
    pauli_x: Operator
    pauli_y: Operator
    pauli_z: Operator


def _dyad(bra_side: StateVector, ket_side: StateVector) -> np.ndarray:
    return np.outer(ket_side.amplitudes, bra_side.amplitudes.conj())


def build_frame(alpha0: float, dim: int = 30) -> LogicalFrame:
    """Construct the logical frame for the cat qubit at +-alpha0."""
    plus, _ = fock.coherent_state(alpha0, dim)
    minus, _ = fock.coherent_state(-alpha0, dim)
    overlap = plus.overlap(minus)
    if abs(overlap) >= MAX_BASIS_OVERLAP:
        raise IllConditionedBasisError(
            f"|<-a0|a0>| = {abs(overlap):.3f} >= {MAX_BASIS_OVERLAP}; "
            "coherent states too close to encode a qubit"
        )

    even = StateVector(plus.amplitudes + minus.amplitudes).normalized()
    odd = StateVector(plus.amplitudes - minus.amplitudes).normalized()
    ket0 = StateVector((even.amplitudes + odd.amplitudes) / np.sqrt(2))
    ket1 = StateVector((even.amplitudes - odd.amplitudes) / np.sqrt(2))

    return LogicalFrame(
        ket0=ket0,
        ket1=ket1,
        projector=Operator(_dyad(ket0, ket0) + _dyad(ket1, ket1), hermitian=True),
        pauli_x=Operator(_dyad(ket1, ket0) + _dyad(ket0, ket1), hermitian=True),
        pauli_y=Operator(-1j * _dyad(ket1, ket0) + 1j * _dyad(ket0, ket1), hermitian=True),
        pauli_z=Operator(_dyad(ket0, ket0) - _dyad(ket1, ket1), hermitian=True),
    )
