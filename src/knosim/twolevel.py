"""Analytic two-level reference for the driven cat qubit.

Everything here ignores the oscillator: the qubit Hamiltonian is

    H2 = (1/2) [[Dz, Om e^{-i phi}], [Om e^{i phi}, -Dz]]

with Dz, Om ramped exactly like the full model. Used as an independent oracle
for the full-oscillator dynamics and for the Gauss-law (monopole) Chern
number.
"""

from __future__ import annotations

import numpy as np

from . import dynamics
from .dynamics import Trajectory
from .errors import OnManifoldDegeneracyError
from .fock import Operator, StateVector
from .logical import LogicalFrame
from .model import ModelParams, RampSchedule, cd_coefficient

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def hamiltonian(delta_z: float, omega: float, phi: float = 0.0) -> np.ndarray:
    off = omega / 2 * np.exp(-1j * phi)
    return np.array([[delta_z / 2, off], [np.conj(off), -delta_z / 2]])


class TwoLevelSystem:
    """The 2x2 reduction as a system for dynamics.evolve.

    H(t) is hamiltonian(Dz(theta), Om(theta), phi), plus (Theta_dot/2) sigma_y
    with sta, on the bare qubit basis. Its frame is exact: ket0 = (1, 0),
    ket1 = (0, 1), the Pauli matrices and the identity projector.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.schedule: RampSchedule = params.ramp()
        e = np.eye(2, dtype=complex)
        self.frame = LogicalFrame(
            ket0=StateVector(e[0]), ket1=StateVector(e[1]), projector=Operator(e, hermitian=True),
            pauli_x=Operator(_SX, hermitian=True), pauli_y=Operator(_SY, hermitian=True),
            pauli_z=Operator(_SZ, hermitian=True),
        )

    def total_matrix(self, t: float, sta: bool = False) -> np.ndarray:
        p = self.params
        th = float(self.schedule.theta(t))
        m = hamiltonian(p.delta_z_of(th), p.omega_of(th), p.phi)
        if sta:
            cd = cd_coefficient(th, float(self.schedule.theta_dot(t)), p.chi)
            m = m + cd / 2 * _SY
        return m


def reference_dynamics(params: ModelParams, initial="ket0", sta: bool = False, **kw) -> Trajectory:
    """Propagate the 2x2 reduction, TwoLevelSystem(params); kw as in dynamics.evolve.

    The engine and stepper are those of the full-oscillator run, so the Bloch
    samples compare directly (pop is identically 1 here).
    """
    return dynamics.evolve(TwoLevelSystem(params), initial, sta, **kw)


def monopole_chern(
    chi: float,
    n_theta: int = 200,
    tol: float = 1e-6,
    max_doublings: int = 6,
) -> float:
    """Gauss-law Chern number: flux of R/(2 R^3) through the ramp manifold.

    The manifold is R(th, ph) = (sin th cos ph, sin th sin ph, cos th + chi)
    (omega0 = delta_z scaled to 1). The azimuthal integral is exactly 2 pi,
    leaving the flux int_0^pi sin th (1 + chi cos th) / (2 |R|^3) d th with
    |R|^2 = 1 + 2 chi cos th + chi^2, by midpoint quadrature doubled until
    the value is stable; 1 when the degeneracy R = 0 is enclosed
    (|chi| < 1), 0 when it is not.
    """
    if abs(abs(chi) - 1.0) < 1e-12:
        raise OnManifoldDegeneracyError(f"degeneracy lies on the manifold at chi={chi}")

    def flux(nt: int) -> float:
        th = (np.arange(nt) + 0.5) * (np.pi / nt)
        ct = np.cos(th)
        f = np.sin(th) * (1 + chi * ct) / (2 * (1 + 2 * chi * ct + chi**2) ** 1.5)
        return float(np.sum(f)) * np.pi / nt

    val = flux(n_theta)
    for _ in range(max_doublings):
        n_theta *= 2
        new = flux(n_theta)
        done = abs(new - val) < tol
        val = new
        if done:
            break
    return val
