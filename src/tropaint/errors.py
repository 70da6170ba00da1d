"""Exception types shared across the library."""


class TropaintError(Exception):
    """Base class for all library errors."""


class InputError(TropaintError):
    """Malformed or out-of-contract input data."""


class DegenerateInputError(InputError):
    """Input that is geometrically degenerate (dependent points, zero simplex, ...)."""


class NoCertificateError(TropaintError):
    """A required exact feasibility certificate does not exist."""


class InconsistencyError(TropaintError):
    """Data that should agree (colors, markings, cells) does not."""


class ResourceCapError(TropaintError):
    """An enumeration exceeded its configured cap."""


class VerificationError(TropaintError):
    """An end-to-end verification run found a mismatch."""
