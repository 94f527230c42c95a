"""knosim: driven Kerr-nonlinear-oscillator simulator.

Cat-qubit topology measurement in a truncated Fock space: Berry-curvature
extraction by linear response, and the accelerated (counterdiabatic)
polar-angle protocol, with the first Chern number from either route.
"""

from . import dynamics, fock, logical, model, topology, twolevel, wigner  # noqa: F401
from .logical import LogicalFrame, build_frame  # noqa: F401
from .model import ModelParams, RampSchedule  # noqa: F401

__all__ = [
    "LogicalFrame",
    "ModelParams",
    "RampSchedule",
    "build_frame",
    "dynamics",
    "fock",
    "logical",
    "model",
    "topology",
    "twolevel",
    "wigner",
]

__version__ = "0.1.0"
