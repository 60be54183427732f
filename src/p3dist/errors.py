"""Exception hierarchy for the analysis pipeline.

Validation errors (bad user input) are distinguished from internal
inconsistencies (which indicate an engine bug and map to exit code 2
in the CLI).
"""


class P3DistError(Exception):
    """Base class for all package errors."""


class ValidationError(P3DistError):
    """Input fails a documented precondition."""


class InternalInconsistency(P3DistError):
    """A cross-check that cannot fail mathematically failed anyway."""


# -- exterior algebra ------------------------------------------------------

class GradeOverflow(ValidationError):
    """Wedge of forms whose grades sum past the ambient dimension."""


# -- one-form / vector-field validation ------------------------------------

class InvalidForm(ValidationError):
    """A form or field that defines no distribution or foliation by curves."""


class EulerViolation(InvalidForm):
    """Contraction with the radial field does not vanish."""


class DivisorialSingularity(ValidationError):
    """Singular scheme contains a surface: the coefficients of a 1-form, or
    the 2x2 minors of a vector field against the radial field, share a
    nonconstant common factor."""


class RadialField(ValidationError):
    """Vector field is a multiple of the radial field."""


# -- logarithmic forms ------------------------------------------------------

class WeightRelationViolated(ValidationError):
    """Weights do not satisfy the degree-weight relation."""


class DegreeMismatch(ValidationError):
    """Polynomial degree disagrees with the declared type."""


class DomainError(ValidationError):
    """Arguments outside the stated domain of a closed formula."""


# -- engine guards ----------------------------------------------------------

class NonTermination(InternalInconsistency):
    """Iteration cap hit in a loop that must terminate."""


class BoundViolated(InternalInconsistency):
    """A proven bound failed on a concrete input."""


class InconsistentInvariants(InternalInconsistency):
    """Numerical invariants fail integrality or positivity."""


class NumericContradiction(InternalInconsistency):
    """Two independent numeric routes disagree."""


class UnclassifiedDegree1(InternalInconsistency):
    """A degree-1 foliation by curves matches none of the known cases."""


# -- parsing -----------------------------------------------------------------

class ParseError(ValidationError):
    """Positioned syntax error in polynomial or input-document text."""

    def __init__(self, message, line=1, col=1, expected=None):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = expected

    def __str__(self):
        base = super().__str__()
        return f"{base} (line {self.line}, col {self.col})"
