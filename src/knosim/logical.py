"""The coherent-state qubit frame.

The qubit basis is built from the quasi-orthogonal coherent states
|+alpha0> and |-alpha0>. The default Loewdin (symmetric) orthonormalization
perturbs each state only at order of their overlap exp(-2 alpha0^2) and makes
the Pauli algebra exact; the raw mode keeps the bare (normalized) coherent
states so the difference can be quantified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock
from .errors import IllConditionedBasisError
from .fock import Operator, StateVector

MAX_BASIS_OVERLAP = 0.5


class BlochReadout(NamedTuple):
    sx: float
    sy: float
    sz: float
    pop: float


@dataclass(frozen=True)
class LogicalFrame:
    """Qubit basis, projector and Pauli operators embedded in Fock space."""

    alpha0: float
    dim: int
    ket0: StateVector
    ket1: StateVector
    projector: Operator
    pauli_x: Operator
    pauli_y: Operator
    pauli_z: Operator
    orthogonalization: str
    raw_overlap: float  # <-alpha0|+alpha0> before orthogonalization


def _dyad(bra_side: StateVector, ket_side: StateVector) -> np.ndarray:
    return np.outer(ket_side.amplitudes, bra_side.amplitudes.conj())


def build_frame(alpha0: float, dim: int = 30, orthogonalization: str = "lowdin") -> LogicalFrame:
    """Construct the logical frame for the cat qubit at +-alpha0."""
    if orthogonalization not in ("lowdin", "raw"):
        raise ValueError(f"unknown orthogonalization {orthogonalization!r}")
    plus, _ = fock.coherent_state(alpha0, dim)
    minus, _ = fock.coherent_state(-alpha0, dim)
    overlap = plus.overlap(minus)
    if abs(overlap) >= MAX_BASIS_OVERLAP:
        raise IllConditionedBasisError(
            f"|<-a0|a0>| = {abs(overlap):.3f} >= {MAX_BASIS_OVERLAP}; "
            "coherent states too close to encode a qubit"
        )

    if orthogonalization == "lowdin":
        even = StateVector(plus.amplitudes + minus.amplitudes).normalized()
        odd = StateVector(plus.amplitudes - minus.amplitudes).normalized()
        ket0 = StateVector((even.amplitudes + odd.amplitudes) / np.sqrt(2))
        ket1 = StateVector((even.amplitudes - odd.amplitudes) / np.sqrt(2))
    else:
        ket0, ket1 = plus, minus

    projector = Operator(_dyad(ket0, ket0) + _dyad(ket1, ket1), hermitian=True)
    pauli_z = Operator(_dyad(ket0, ket0) - _dyad(ket1, ket1), hermitian=True)
    pauli_x = Operator(_dyad(ket1, ket0) + _dyad(ket0, ket1), hermitian=True)
    pauli_y = Operator(-1j * _dyad(ket1, ket0) + 1j * _dyad(ket0, ket1), hermitian=True)
    return LogicalFrame(
        alpha0=float(alpha0),
        dim=dim,
        ket0=ket0,
        ket1=ket1,
        projector=projector,
        pauli_x=pauli_x,
        pauli_y=pauli_y,
        pauli_z=pauli_z,
        orthogonalization=orthogonalization,
        raw_overlap=float(overlap.real),
    )


def bloch_vector(psi: StateVector, frame: LogicalFrame) -> BlochReadout:
    """Logical Bloch vector (sx, sy, sz) and subspace population.

    The expectations are taken on the full state, so the Bloch length equals
    the subspace weight (s^2 = pop^2 for pure states in a Loewdin frame).
    """
    sx = fock.expectation(psi, frame.pauli_x)
    sy = fock.expectation(psi, frame.pauli_y)
    sz = fock.expectation(psi, frame.pauli_z)
    pop = fock.expectation(psi, frame.projector)
    return BlochReadout(sx, sy, sz, pop)


def leakage(psi: StateVector, frame: LogicalFrame) -> float:
    """Probability outside the cat subspace, 1 - <psi|Ibar|psi>."""
    return 1.0 - fock.expectation(psi, frame.projector)
