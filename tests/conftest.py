import numpy as np
import pytest
from dataclasses import replace

from knosim.fock import Operator, StateVector
from knosim.logical import LogicalFrame
from knosim.model import DriveSet, ModelParams

TWO_PI = 2 * np.pi
PUMP = TWO_PI * 1000.0
KERR = TWO_PI * 500.0


def linear_response_params(chi: float = 0.0, **kw) -> ModelParams:
    """Slow-ramp parameter set: Omega0 = P/(10 e^4), delta_z = 2 Omega0, tau = 40 us."""
    omega0 = PUMP / (10 * np.exp(4.0))
    p = ModelParams(
        kerr=KERR,
        pump=PUMP,
        omega0=omega0,
        delta_z=2 * omega0,
        delta_0=chi * 2 * omega0,
        tau=40.0,
        schedule="linear",
    )
    return replace(p, **kw) if kw else p


def sta_params(chi: float = 0.0, **kw) -> ModelParams:
    """Fast-ramp parameter set: Omega0 = delta_z = 2*pi*0.02 rad/us, tau = 1.5 us."""
    omega0 = TWO_PI * 0.02
    p = ModelParams(
        kerr=KERR,
        pump=PUMP,
        omega0=omega0,
        delta_z=omega0,
        delta_0=chi * omega0,
        tau=1.5,
        schedule="cosine",
    )
    return replace(p, **kw) if kw else p


def constant_system(h: np.ndarray, tau: float = 1.0) -> DriveSet:
    """A DriveSet with H(t) = h and no drives over a ramp of length tau, on
    the Fock levels themselves, read out with the Pauli matrices on levels 0
    and 1."""
    h = np.asarray(h, dtype=complex)
    params = ModelParams(kerr=1.0, pump=4.0, omega0=0.0, delta_z=0.0, tau=tau)
    e = np.eye(h.shape[0], dtype=complex)

    def op(m2):
        return Operator(e[:, :2] @ np.asarray(m2) @ e[:2], hermitian=True)

    frame = LogicalFrame(
        ket0=StateVector(e[0]), ket1=StateVector(e[1]), projector=op(np.eye(2)),
        pauli_x=op([[0, 1], [1, 0]]), pauli_y=op([[0, -1j], [1j, 0]]),
        pauli_z=op([[1, 0], [0, -1]]),
    )
    return DriveSet(params, h, 0, 0, 0, frame, e)


@pytest.fixture(scope="session")
def fig1_params():
    return linear_response_params()
