"""Exception types shared across the package."""


class HaarweightError(Exception):
    """Base class for all package errors."""


class ShapeError(HaarweightError):
    """Grid or value-shape mismatch between operands."""


class IntegrabilityError(HaarweightError):
    """A requested weight power is not integrable on the cell."""


class SparsenessError(HaarweightError):
    """A cube family fails the sparseness certificate."""


class ThresholdError(HaarweightError):
    """Stopping-time thresholds must exceed 1."""


class ConfigError(HaarweightError):
    """An experiment configuration failed validation."""
