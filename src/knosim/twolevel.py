"""Analytic two-level reference for the driven cat qubit.

Everything here ignores the oscillator: in the cat subspace the drives Hz, Hx
and Hy act as the Pauli matrices and H0 as a constant, so the qubit
Hamiltonian is the model's own H(t) with H0 = 0 and the drives replaced by
sigma_z, sigma_x and sigma_y,

    H2 = (1/2) [[Dz, Om e^{-i phi}], [Om e^{i phi}, -Dz]]

with Dz, Om ramped exactly like the full model. Used as an independent oracle
for the full-oscillator dynamics and for the Gauss-law (monopole) Chern
number.
"""

from __future__ import annotations

import numpy as np

from . import dynamics, logical
from .dynamics import Trajectory
from .errors import OnManifoldDegeneracyError
from .fock import StateVector
from .logical import LogicalFrame
from .model import DEGENERACY_ATOL, DriveSet, ModelParams

_ID = np.eye(2, dtype=complex)
_FRAME = LogicalFrame(StateVector(_ID[0]), StateVector(_ID[1]))  # ket0 = (1, 0), ket1 = (0, 1)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = logical.sigma_y(_FRAME)
_SZ = np.diag([1, -1]).astype(complex)


def system(params: ModelParams) -> DriveSet:
    """The 2x2 reduction as a DriveSet: H0 = 0 and the drives on the Pauli
    matrices, so H(t) is H2 above, plus (Theta_dot/2) sigma_y with sta."""
    return DriveSet(params, 0, _SZ, _SX, _SY, _FRAME, _ID)


def reference_dynamics(params: ModelParams, initial="ket0", sta: bool = False, **kw) -> Trajectory:
    """Propagate the 2x2 reduction, system(params); kw as in dynamics.evolve.

    The engine and stepper are those of the full-oscillator run, so the Bloch
    samples compare directly (pop is identically 1 here).
    """
    return dynamics.evolve(system(params), initial, sta, **kw)


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
    if abs(abs(chi) - 1.0) < DEGENERACY_ATOL:
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
