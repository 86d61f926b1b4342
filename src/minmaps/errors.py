"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError exits 2,
ChartDomainError 3 and NumericalError 4. Scenario code should raise the
most specific class that applies.
"""

__all__ = ["ConfigError", "ChartDomainError", "NumericalError"]


class ConfigError(ValueError):
    """Malformed scenario configuration (bad key, bad value, bad expression,
    a grid too small for the stencils)."""


class ChartDomainError(ValueError):
    """A point left the chart domain of a conformal factor (e.g. |z| >= 1 on a disc)."""


class NumericalError(RuntimeError):
    """Numerical failure: non-SPD metric, step-length underflow, diverging flow."""
