"""Exception hierarchy: certification failures are errors, never silent wrong answers."""


class VfblockError(Exception):
    """Base class for all library errors."""


class PointNotZero(VfblockError):
    """A point claimed to be a zero of a field evaluates to something nonzero."""


class DegenerateField(VfblockError):
    """An operation requires a field that is not identically zero."""


class InexactTrigEvaluation(VfblockError):
    """Exact evaluation of a trig polynomial requested outside quarter-period points."""


class DepthLimitExceeded(VfblockError):
    """Subdivision hit the configured depth limit before reaching the target."""


class BoundaryZero(VfblockError):
    """A boundary nonvanishing margin could not be certified."""


class CertificationFailed(VfblockError):
    """A numeric certificate (winding step bound, rounding residual, collar) failed."""


class UnsupportedRegion(VfblockError):
    """The operation is not defined for this region kind."""


class InsufficientPower(VfblockError):
    """Some monomial has a smaller y-exponent than the requested factor power."""


class FactorVanishes(VfblockError):
    """The factored field g has a zero of g(x, 0) inside the declared interval."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ZeroAtBasePoint(VfblockError):
    """A flowbox cannot be centered at a zero of the rectified field."""


class FoldDetected(VfblockError):
    """The flowbox chart failed its injectivity margin even after shrinking."""


class EscapeError(VfblockError):
    """A trajectory left the configured bounding box."""


class StepUnderflow(VfblockError):
    """The adaptive integrator's step size collapsed below the floor."""


class NotClosedError(VfblockError):
    """The span of the given fields is not closed under Lie brackets."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DependentBasisError(VfblockError):
    """The given basis fields are linearly dependent."""


class NumericalAmbiguity(VfblockError):
    """Eigenvector candidates could not be verified exactly within tolerance."""


class PreconditionFailed(VfblockError):
    """A check was refused because its documented precondition does not hold."""


class ContradictionError(VfblockError):
    """A certified computation contradicts a proved identity; maximal diagnostics attached."""


class ScenarioSchemaError(VfblockError):
    """A scenario file does not conform to the published schema."""
