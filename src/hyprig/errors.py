"""Exception hierarchy for the hyprig toolkit.

Every domain error raised by the package derives from :class:`HyprigError`,
so callers (and the CLI) can distinguish domain failures from bugs.
"""


class HyprigError(Exception):
    """Base class for all hyprig domain errors."""


# -- linear-algebra / model errors -----------------------------------------

class NotLorentz(HyprigError):
    """Matrix does not preserve the Minkowski form within tolerance."""


class TimeReversing(HyprigError):
    """Matrix flips the time orientation of the hyperboloid."""


class DimensionMismatch(HyprigError):
    """Operands live in hyperbolic spaces of different dimensions."""


class OutOfModel(HyprigError):
    """Coordinates are invalid for the requested model chart."""


class TooManyPoints(HyprigError):
    """More points than a single hyperplane can be required to contain."""


class DegenerateConfiguration(HyprigError):
    """Point configuration does not determine the requested object."""


class BarycentricOutOfRange(HyprigError):
    """Barycentric coordinate is not in the standard simplex."""


class IdealFullWeight(HyprigError):
    """Barycentric coordinate puts full weight on an ideal vertex."""


# -- volume / quadrature ---------------------------------------------------

class DegenerateSimplex(HyprigError):
    """Two vertices of a simplex coincide within tolerance."""


class QuadratureBudgetExceeded(HyprigError):
    """Adaptive quadrature could not reach the error target in budget."""


class UnsupportedDimension(HyprigError):
    """Operation not implemented for this dimension."""


# -- reflection orbits -----------------------------------------------------

class DegenerateFace(HyprigError):
    """A simplex face does not span a hyperplane."""


class BudgetExceeded(HyprigError):
    """Orbit enumeration exceeded the configured size budget."""


# -- boundary measures and maps --------------------------------------------

class DominantAtom(HyprigError):
    """Measure has an atom of mass >= 1/2 where none is allowed."""


class NoConvergence(HyprigError):
    """Iteration failed to converge within the allowed steps."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class OutOfTable(HyprigError):
    """Tabulated boundary map queried outside its neighbor radius."""


# -- lattice presets -------------------------------------------------------

class UnknownPreset(HyprigError):
    """No preset with the requested name."""


class PresetCorrupt(HyprigError):
    """Preset data failed a load-time verification check."""


# -- smearing --------------------------------------------------------------

class IllConditioned(HyprigError):
    """No test simplex met the volume floor for a well-conditioned ratio."""


# -- rigidity --------------------------------------------------------------

class NotRegular(HyprigError):
    """Simplex failed the regularity test."""


class NoExactSolve(HyprigError):
    """Simplex pair is not congruent: residual after projection too large."""


class ImageNotRegular(HyprigError):
    """Boundary-map image of the seed simplex is not regular."""


class OrbitMismatch(HyprigError):
    """Candidate isometry disagrees with the map on a reflection orbit."""

    def __init__(self, message, mismatch=None):
        super().__init__(message)
        self.mismatch = mismatch


class NoConsensus(HyprigError):
    """Independent reconstructions disagree."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates or []


class GeneratorCountMismatch(HyprigError):
    """Number of representation images differs from preset generators."""
