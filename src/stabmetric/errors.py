"""Exception types shared across the toolkit."""


class StabmetricError(Exception):
    """Base class for every error raised by this package."""


class OutsideRegion(StabmetricError):
    """Point violates the admissible strip 0 < x3 - x1 < 1."""


class NotHyperbolic(StabmetricError):
    """Matrix has |trace| <= 2 and no expanding/contracting eigenbasis."""


class NotPseudoAnosov(StabmetricError):
    """Autoequivalence fails the |trace| > 2 criterion."""


class NotUnimodular(StabmetricError):
    """Integer matrix does not have determinant exactly 1."""


class NonPositiveDeterminant(StabmetricError):
    """Matrix is not orientation preserving."""


class SolverDiverged(StabmetricError):
    """Descent failed to reach the coarse-grid minimum within tolerance."""


class BadSideLengths(StabmetricError):
    """Side lengths violate a triangle inequality."""


class DegenerateBase(StabmetricError):
    """Comparison triangle with a zero base but unequal legs."""


class RejectOnGeodesic(StabmetricError):
    """Candidate midpoint lies on the reference geodesic."""


class RejectNotAdditive(StabmetricError):
    """Distances through the candidate midpoint do not add up."""


class MissingMatrix(StabmetricError):
    """Genus-one classification requires the induced integer matrix."""
