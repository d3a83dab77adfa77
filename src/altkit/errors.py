"""Exception types shared across the package."""


class AltkitError(Exception):
    """Base class for all altkit errors."""


class InvalidTemperatureError(AltkitError, ValueError):
    """Temperature is not physically valid (kelvin value <= 0)."""


class UnitMismatchError(AltkitError, ValueError):
    """Quantities carry units that cannot be combined."""


class DomainError(AltkitError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NoCrossingError(AltkitError, ValueError):
    """A degradation path never reaches the requested threshold."""


class IllPosedFitError(AltkitError, ValueError):
    """A least-squares or likelihood problem is degenerate."""


class MissingVariableError(AltkitError, KeyError):
    """A model formula references a variable the condition does not supply."""


class InestimableError(AltkitError, ValueError):
    """The data carry no information about the requested parameters."""


class ConfigError(AltkitError, ValueError):
    """Invalid configuration (formula, grid, censoring rule, ...)."""


class FormulaError(ConfigError):
    """A model formula string could not be parsed."""


class DataError(AltkitError, ValueError):
    """Input data violate a schema or sanity constraint."""


class NonConvergenceError(AltkitError, RuntimeError):
    """The fit stopped short of its convergence test; carries the best
    result so far."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
