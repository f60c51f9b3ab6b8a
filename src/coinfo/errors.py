"""Exception hierarchy shared by all coinfo modules.

ValidationError subclasses map to CLI exit code 2, SizeError (budget
guards) to exit code 3, OSError to exit code 4, and InternalCheckError
(a failed internal consistency check) to exit code 1.
"""


class ValidationError(ValueError):
    """Bad input: domain, axis, normalization, constraint or support."""


class DomainError(ValidationError):
    """Scalar argument outside its mathematical domain."""


class AxisError(ValidationError):
    """Axis labels missing, duplicated, overlapping or mismatched."""


class NormalizationError(ValidationError):
    """Probability mass deviates from 1 beyond the input tolerance."""


class ConstraintError(ValidationError):
    """A structural constraint (Markov chain, binning nesting) is violated."""


class SupportError(ValidationError):
    """Zero mass where positive mass is required (log-loss, types)."""


class SizeError(ValueError):
    """Enumeration or tensor budget exceeded; not a validation failure."""


class InternalCheckError(RuntimeError):
    """An invariant that holds for every valid input failed: a defect, not bad input.

    Raised explicitly rather than by assert, so that python -O keeps it.
    """
