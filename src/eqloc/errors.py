"""Exception hierarchy.

Three classes matter to callers: input problems (ValidationError and the
series errors, which the CLI reports with exit code 1), numeric failures of
the floating-point oracle (QuadratureError, also user-facing), and internal
invariant violations (InternalError, exit code 2, always a bug).
"""

from __future__ import annotations


class EqlocError(Exception):
    """Base class for all package errors."""

    slug = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_json_dict(self) -> dict:
        out = {"error": self.slug, "message": self.message}
        if self.context:
            out["context"] = {k: repr(v) for k, v in self.context.items()}
        return out


class ValidationError(EqlocError):
    """User input violates the documented data contract."""

    slug = "validation"


class SeriesError(EqlocError):
    """Misuse of the exact series algebra (bad exponents, mismatched variables)."""

    slug = "series"


class VariableMismatchError(SeriesError):
    slug = "variable-mismatch"


class NegativeExponentError(SeriesError):
    slug = "negative-exponent"


class ConstantTermError(SeriesError):
    """exp only accepts arguments with zero constant term; exp(c) for a nonzero
    rational c is not representable in the exact coefficient field."""

    slug = "nonzero-constant-term"


class OddExponentError(SeriesError):
    """substitute_sqrt needs purely even exponents in the substituted variable."""

    slug = "odd-exponent"


class NonInvertibleError(SeriesError):
    """Series is not a unit times a monomial, so no Laurent inverse exists in
    the finite-principal-part model."""

    slug = "non-invertible"


class InsufficientTruncationError(SeriesError):
    """A coefficient beyond the trusted truncation order was requested."""

    slug = "insufficient-truncation"

    def __init__(
        self, message: str, *, variable: str, requested: int, required: int, **context
    ):
        super().__init__(
            message, variable=variable, requested=requested, required=required, **context
        )
        self.variable = variable
        self.requested = requested
        self.required = required


class QuadratureError(EqlocError):
    """The oracle could not produce a trustworthy value (budget exhausted or
    the integrand has a genuine pole on the contour)."""

    slug = "quadrature"


class InternalError(EqlocError):
    """An internal invariant failed.  Never caused by user input."""

    slug = "internal"
