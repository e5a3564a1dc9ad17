"""Exception types shared across the package."""


class HaarweightError(Exception):
    """Base class for all package errors."""


class ConfigError(HaarweightError):
    """An experiment configuration failed validation."""


class ShapeError(HaarweightError):
    """Grid or value-shape mismatch between operands."""


class IntegrabilityError(ConfigError):
    """A requested weight power is not integrable on the cell (a config error)."""


class SparsenessError(HaarweightError):
    """A cube family fails the sparseness certificate."""


class ThresholdError(HaarweightError):
    """Stopping-time thresholds must exceed 1."""
