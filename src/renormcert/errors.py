"""Exception types raised across the package."""


class RenormcertError(Exception):
    """Base class for all package errors."""


class ConfigError(RenormcertError, ValueError):
    """Invalid run configuration or constructor argument."""


class DivisionByZeroInterval(RenormcertError, ZeroDivisionError):
    """Interval division where the denominator contains zero."""


class DomainMismatch(RenormcertError):
    """Binary function-ball operation on balls of different degree."""


class CompositionContractFailure(RenormcertError):
    """Inner function of a composition is not verifiably a contraction.

    Carries ``subexpression`` naming the offending composition argument
    when raised while building shared operator evaluations.
    """

    def __init__(self, message, subexpression=None):
        super().__init__(message)
        self.subexpression = subexpression


class TailContractFailure(CompositionContractFailure):
    """A theta bound needed for the high-order tail estimate is >= 1."""


class PointOutsideDomain(RenormcertError):
    """Evaluation point not contained in the closed domain disc."""


class IndexBeyondTruncation(RenormcertError, IndexError):
    """Coefficient index above the polynomial truncation degree."""


class NormalizationSingular(RenormcertError):
    """The normalisation value a = G(1) has an enclosure containing zero."""


class ContainmentFailure(RenormcertError):
    """A boundary box mapped outside the open domain disc.

    ``index`` is the offending boundary box, ``equation`` is 1 for the
    linear image check and 2 for the composed image check; the message
    names the offending image box.
    """

    def __init__(self, message, index=None, equation=None):
        super().__init__(message)
        self.index = index
        self.equation = equation


class DepthExceeded(RenormcertError):
    """Recursive extension did not reach the certified domain in depth steps."""


class DimensionMismatch(RenormcertError):
    """Linear map applied to a ball of incompatible truncation degree."""


class InversionUncertified(RenormcertError):
    """Could not certify invertibility of the fixed linear map."""


class CertificationFailed(RenormcertError):
    """Contraction certificate inequality failed.

    Carries the diagnostic ``certificate`` (with ``passed == False``).
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NewtonDivergence(RenormcertError):
    """Newton iteration failed to meet its residual target."""


class EigenSelectionAmbiguous(RenormcertError):
    """Two eigenvalue candidates within selection tolerance."""


class SingularJacobian(RenormcertError):
    """Jacobian numerically singular during approximate inversion."""


class MissingCertificate(RenormcertError):
    """Requested output needs a certified ball that is not available."""


class PipelineOrderError(RenormcertError):
    """Eigen certification requested without a fixed-point certificate."""


class StageFailure(RenormcertError):
    """A pipeline stage aborted; ``stage`` names it, ``__cause__`` has detail."""

    def __init__(self, stage, cause):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
