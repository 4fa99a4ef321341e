"""Exception types shared across the package."""


class InvalidConfigError(ValueError):
    """Raised for antenna/CSIT counts that do not describe a valid system."""


class RegimeError(ValueError):
    """Raised when a scheme builder is called outside its CSIT regime."""


class CapabilityExceededError(ValueError):
    """Raised when a precoder is asked to cancel at more antennas than it can."""


class ResampleRequiredError(RuntimeError):
    """A measure-zero degeneracy (singular submatrix) was hit; draw a new channel."""


class EmptyRegionError(ValueError):
    """Raised when vertex enumeration is attempted on an empty region."""


class CertificationError(RuntimeError):
    """Raised when a transmission plan fails its decodability certification."""
