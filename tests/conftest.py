import numpy as np
import pytest
from dataclasses import replace

from knosim import dynamics
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
    the Fock levels themselves, with levels 0 and 1 as the frame's kets."""
    h = np.asarray(h, dtype=complex)
    params = ModelParams(kerr=1.0, pump=4.0, omega0=0.0, delta_z=0.0, tau=tau)
    e = np.eye(h.shape[0], dtype=complex)
    return DriveSet(params, h, 0, 0, 0, LogicalFrame(e[0], e[1]), e)


@pytest.fixture(scope="session")
def fig1_params():
    return linear_response_params()


@pytest.fixture
def steps_computed(monkeypatch):
    """The step count of each propagation pass run while the test runs."""
    passes = []
    propagate = dynamics._propagate

    def counting(system, psi0, sta, n_steps, *args):
        passes.append(n_steps)
        return propagate(system, psi0, sta, n_steps, *args)

    monkeypatch.setattr(dynamics, "_propagate", counting)
    return passes
