"""Exception types shared across the simulator."""


class KnosimError(Exception):
    """Base class for all knosim errors."""


class InvalidDimensionError(KnosimError):
    """Fock truncation dimension is too small or not a positive integer."""


class DimensionMismatchError(KnosimError):
    """States that are not 1-d arrays of one common length."""


class TruncationError(KnosimError):
    """Truncated representation leaks more probability than allowed."""


class IllConditionedBasisError(KnosimError):
    """Coherent basis states overlap too strongly to define a qubit."""


class SingularDriveError(KnosimError):
    """Counterdiabatic coefficient diverges (degeneracy on the manifold)."""


class NonFiniteStateError(KnosimError):
    """Propagation produced a non-finite state (an overflowing drive)."""


class DegenerateReadoutError(KnosimError):
    """Bloch vector too short to define a polar angle."""


class InsufficientSamplingError(KnosimError):
    """Too few samples for a meaningful quadrature."""


class OnManifoldDegeneracyError(KnosimError):
    """Degeneracy point lies exactly on the parameter manifold."""


class ConfigError(KnosimError):
    """Bad experiment configuration."""
