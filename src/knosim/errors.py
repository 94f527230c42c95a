"""Exception types shared across the simulator."""


class KnosimError(Exception):
    """Base class for all knosim errors."""


class DimensionMismatchError(KnosimError):
    """States that are not 1-d arrays of one common length."""


class SingularDriveError(KnosimError):
    """A drive diverges: the counterdiabatic coefficient, or the monopole flux at |chi| = 1."""


class NonFiniteStateError(KnosimError):
    """Propagation produced a non-finite state (an overflowing drive)."""


class DegenerateReadoutError(KnosimError):
    """Bloch vector too short to define a polar angle."""


class ConfigError(KnosimError):
    """Bad experiment configuration, a cat qubit that its Fock space cannot
    hold or whose two coherent states overlap too much included."""
