"""Exception types shared across the package."""


class LayerscatError(Exception):
    """Base class for all package errors."""


class ConfigurationError(LayerscatError):
    """Invalid configuration: unknown preset, bad key, out-of-range value."""


class GeometryError(LayerscatError):
    """Invalid boundary geometry: radius floor, cusp, self-intersection,
    containment violation."""


class DomainError(LayerscatError):
    """Argument outside a function's mathematical domain."""


class SolverError(LayerscatError):
    """Linear or mode system singular to working precision, or the solved
    residual fails its tolerance."""


class DataFormatError(LayerscatError):
    """Malformed dataset, config, or trace file."""


class StageAbortError(LayerscatError):
    """A frequency stage of the reconstruction could not continue (step
    safeguard exhausted)."""
