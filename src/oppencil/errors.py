"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI: SchemaError family -> 2 (also an
unreadable input file and an unwritable report), numerical guards -> 3,
not-applicable -> 4 (also an operator with no formal adjoint).
"""


class OppencilError(Exception):
    """Base class for all toolkit errors."""


# -- schema / validation (exit code 2) --------------------------------------

class SchemaError(OppencilError):
    """Malformed operator or expression document."""


class OrderMismatch(SchemaError):
    """A coefficient term violates radial_exponent + poly degree = |alpha| - order."""


class BadDNOrders(SchemaError):
    """Douglis-Nirenberg order vectors are inconsistent with the entry grid."""


# -- numerical guards (exit code 3) ------------------------------------------

class NumericalGuard(OppencilError):
    """Base class for checks that abort a computation."""


class HomogeneityError(NumericalGuard):
    """A function expected to be homogeneous of degree zero is not."""


class CouplingOverflow(NumericalGuard):
    """A coefficient couples an analysis-range basis element above l_max."""


class SingularLeadingCoeff(NumericalGuard):
    """Leading pencil coefficient numerically singular on a decoupled block."""


class NotAnEigenvalue(NumericalGuard):
    """A cluster's owner has full rank where jordan_chains reads it: the
    point is not in that owner's spectrum."""


class MultiplicityMismatch(NumericalGuard):
    """Chain count disagrees with the det root order (refused when it may read
    aliased) or with a strip's clustered eigenvalues, or a chain fails its equations."""


class DegenerateNormalization(NumericalGuard):
    """Biorthogonal normalization system singular beyond tolerance."""


class RefuseBoundary(NumericalGuard):
    """Requested strip boundary sits on a detected critical line."""


class UnstableSpectrum(NumericalGuard):
    """A candidate eigenvalue in a strip fails certification, or a strip
    eigenvalue belongs to a mode above the analysis degree (its eigenvector
    carries most of its mass there), so the degree does not resolve the
    strip."""


class DivergentNorm(NumericalGuard):
    """Weighted integral diverges according to the exponent audit."""


class UnboundedNorm(NumericalGuard):
    """Weighted sup-norm is infinite (positive dominant homogeneity)."""


class LineTooClose(NumericalGuard):
    """Inversion line too close to a mode eigenvalue."""


class GridTooShort(NumericalGuard):
    """Weighted data does not decay below tolerance at the grid ends."""


class NoAnchor(NumericalGuard):
    """Index anchor could not be resolved."""


class AnchorOnBreakpoint(NumericalGuard):
    """Index anchor sits on a critical line."""


# -- not applicable (exit code 4) --------------------------------------------

class NotApplicable(OppencilError):
    """Requested formula does not apply to this operator."""


class AdjointOrderViolation(NotApplicable):
    """max(nu) > m: the adjoint order vector would have a negative entry, so
    the operator has no formal adjoint."""


class OnBreakpoint(NotApplicable):
    """Evaluation point is (numerically) on a breakpoint of the step function."""
