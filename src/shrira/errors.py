"""Exception types shared across the package."""


class ShriraError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(ShriraError, ValueError):
    """Array sizes or grids do not match the operation's requirements."""


class SymbolDomainError(ShriraError, ArithmeticError):
    """A Fourier multiplier evaluated to a non-finite value on a used mode."""


class KernelSingularityError(ShriraError, ValueError):
    """Kernel evaluation requested at the singular point (0, 0)."""


class QuadratureAccuracyError(ShriraError):
    """Adaptive quadrature could not meet the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message, value, est_error):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


class NoScalingError(ShriraError, ValueError):
    """No positive Nehari rescaling exists (int u f(u) <= 0)."""


class DegenerateFieldError(ShriraError, ValueError):
    """A norm in a denominator vanished (zero or otherwise degenerate field)."""


class UndefinedResidualError(ShriraError, ValueError):
    """Spectral residual requested for a (numerically) zero field."""


class ConvergenceError(ShriraError):
    """Iteration stopped short of convergence; a solver's carries its last iterate (`field`) and
    report (`report`), set as it leaves the solver, a sweep's the rows finished before it."""

    report = field = None
    rows = ()


class CollapseError(ConvergenceError):
    """The iterate collapsed: M <= 0 or a zero Petviashvili iterate, int u f(u) <= 0 for Nehari."""


class BlowUpError(ShriraError):
    """Time integration produced non-finite values; carries the last good state and the partial report."""

    def __init__(self, message, last_good=None, t=None, report=None):
        super().__init__(message)
        self.last_good = last_good
        self.t = t
        self.report = report


class UnderflowWindowError(ShriraError, ValueError):
    """Tail-fit window holds fewer than 3 samples above the roundoff floor."""


class CorruptFieldFileError(ShriraError):
    """Field file header and payload are inconsistent."""


class ConfigError(ShriraError, ValueError):
    """Configuration failed validation; message pinpoints the key or line."""
