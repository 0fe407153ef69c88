"""Exception types shared across the package.

The CLI maps these onto its documented exit codes; library callers can catch
them individually.
"""


class DomainError(ValueError):
    """Bad input: composite modulus, point off the surface, malformed literal."""


class ConstructionError(RuntimeError):
    """A constructive step failed (no bridge, dead orbit scan, stalled climb,
    spectral iteration did not converge) and no fallback was available."""


class CapExceeded(RuntimeError):
    """A resource cap (enumeration size, int32 vertex ids, spectral size) says
    no.  The lift digit cap never refuses: past it a replay tracks logs."""
