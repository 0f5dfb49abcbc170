"""Exception taxonomy shared by all evenrev modules."""


class EvenRevError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(EvenRevError, ValueError):
    """An argument is outside its documented domain."""


class LengthError(EvenRevError, ValueError):
    """A signal has an incompatible length (e.g. odd length fed to ``downsample``)."""


class LevelError(EvenRevError, ValueError):
    """Requested pyramid depth does not divide the signal length."""


class ShapeError(EvenRevError, ValueError):
    """Pyramid components have inconsistent lengths."""


class EvenReversibilityError(EvenRevError, ArithmeticError):
    """The even part of a mask vanishes (or nearly vanishes) on the unit circle."""


class DecimationSingularError(EvenRevError, ArithmeticError):
    """The even symbol vanishes at a root of unity used by exact decimation."""


class SlowDecayError(EvenRevError, ArithmeticError):
    """An even-inverse needs more than 2**20 coefficients on one side, or cannot reach its tol."""


class CertificateUnavailableError(EvenRevError, ArithmeticError):
    """No decay certificate can be issued for this mask."""
