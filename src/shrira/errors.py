"""Exception types shared across the package.

One type says the input was rejected (`InputError`); the others carry a
partial result a caller can use.  The CLI exits 2 on `InputError`,
`BlowUpError` and `QuadratureAccuracyError`, and 3 on `ConvergenceError`.
"""


class ShriraError(Exception):
    """Base class for all package-specific errors."""


class InputError(ShriraError, ValueError):
    """The input was rejected; the message names the key or the value."""


class QuadratureAccuracyError(ShriraError):
    """Adaptive quadrature could not meet the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message, value, est_error):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


class ConvergenceError(ShriraError):
    """Iteration stopped short of convergence: max_iter, a Nehari stall, or a collapse, which the message names
    (a start whose spectrum overflows, M <= 0 or non-finite, M^gamma or the update past the double range, a zero
    Petviashvili iterate; int u f(u) <= 0 or t_u giving a zero or non-finite Nehari field).  A solver's carries
    its last iterate (`field`) and report (`report`), set as it leaves the solver, a sweep's the rows before it."""

    report = field = None
    rows = ()


class BlowUpError(ShriraError):
    """Time integration produced non-finite values; carries the last good state and the partial report."""

    def __init__(self, message, last_good=None, t=None, report=None):
        super().__init__(message)
        self.last_good = last_good
        self.t = t
        self.report = report
