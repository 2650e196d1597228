"""Exception hierarchy for the synthesis toolkit."""


class PhotonPrepError(Exception):
    """Base class for all toolkit errors."""


class ConvergenceFailure(PhotonPrepError):
    """An iterative numerical kernel failed to converge."""


class NotSymmetric(PhotonPrepError):
    """A matrix expected to be complex symmetric is not."""


class ZeroState(PhotonPrepError):
    """A state matrix with no weight cannot be normalized."""


class TooLarge(PhotonPrepError):
    """Permanent requested beyond the supported photon number."""


class PhotonNumberMismatch(PhotonPrepError):
    """Input and output Fock states carry different photon totals."""


class DimensionMismatch(PhotonPrepError):
    """Matrix or vector dimensions are inconsistent."""


class SignalMismatch(PhotonPrepError):
    """A heralding signal is inconsistent with the photon budget."""


class InfeasibleRank(PhotonPrepError):
    """The rank rule forbids the requested preparation."""


class VerificationFailure(PhotonPrepError):
    """A constructed circuit failed its independent oracle check. This is a bug."""


class DocumentError(PhotonPrepError):
    """Malformed JSON document."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
