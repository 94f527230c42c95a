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

import math

import numpy as np

from . import dynamics, logical
from .dynamics import Trajectory
from .errors import OnManifoldDegeneracyError
from .logical import LogicalFrame
from .model import DEGENERACY_ATOL, DriveSet, ModelParams

_ID = np.eye(2, dtype=complex)
_FRAME = LogicalFrame(_ID[0], _ID[1])  # ket0 = (1, 0), ket1 = (0, 1)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = logical.sigma_y(_FRAME, 0.0)
_SZ = np.diag([1, -1]).astype(complex)


def system(params: ModelParams) -> DriveSet:
    """The 2x2 reduction as a DriveSet: H0 = 0 and the drives on the Pauli
    matrices, so H(t) is H2 above, plus the counterdiabatic term with sta."""
    return DriveSet(params, 0, _SZ, _SX, _SY, _FRAME, _ID)


def reference_dynamics(params: ModelParams, initial="ket0", sta: bool = False, **kw) -> Trajectory:
    """Propagate the 2x2 reduction, system(params); kw as in dynamics.evolve.

    The engine and stepper are those of the full-oscillator run, so the Bloch
    samples compare directly (pop is identically 1 here).
    """
    return dynamics.evolve(system(params), initial, sta, **kw)


def monopole_chern(chi: float) -> float:
    """Gauss-law Chern number: flux of R/(2 R^3) through the ramp manifold.

    The manifold is R(th, ph) = (sin th cos ph, sin th sin ph, cos th + chi)
    (omega0 = delta_z scaled to 1). The azimuthal integral is exactly 2 pi,
    leaving the flux int_0^pi sin th (1 + chi cos th) / (2 |R|^3) d th. In
    u = cos th, |R|^2 = (1 - u^2) + (u + chi)^2 and the integrand has the
    antiderivative g(u) = (u + chi) / (2 |R|), so the flux is g(1) - g(-1):
    1 when the degeneracy R = 0 is enclosed (|chi| < 1), 0 when it is not.
    At u = +-1, |R| = |u + chi| exactly, so the flux is exact in floating point.
    """
    if abs(abs(chi) - 1.0) < DEGENERACY_ATOL:
        raise OnManifoldDegeneracyError(f"degeneracy lies on the manifold at chi={chi}")

    def g(u: float) -> float:
        return (u + chi) / (2 * math.hypot(u + chi, math.sqrt(1 - u * u)))

    return float(g(1.0) - g(-1.0))
