"""Exception hierarchy shared by all csfdyn modules.

Two families matter for callers: :class:`InputError` (malformed files,
incompatible geometry, bad parameters; CLI exit code 2) and
:class:`ProcessingRefusal` (valid input the pipeline declines to process,
e.g. too few cardiac cycles; CLI exit code 3).
"""

import sys
import warnings


class CsfdynError(Exception):
    """Base class for all csfdyn errors.

    The optional `stage` attribute records which pipeline stage raised;
    the CLI prints it with the message.
    """

    stage: str | None = None

    def with_stage(self, stage: str) -> "CsfdynError":
        self.stage = stage
        return self


class InputError(CsfdynError):
    """Malformed or incompatible input."""


class MalformedHeader(InputError):
    """Container magic, version, or header JSON is invalid."""


class DimensionMismatch(InputError):
    """Payload size or grid dimensions disagree with the header/partner."""


class ValueOutOfRange(InputError):
    """A stored value violates its documented range (e.g. phase outside [-pi, pi))."""


class IoFailure(InputError):
    """Underlying file could not be written or read."""


class MalformedRow(InputError):
    """A CSV row could not be parsed; message carries the line number."""


class NonUniformSampling(InputError):
    """Physio timestamps deviate more than 1% from the median interval."""


class EmptyMask(InputError):
    """ROI mask contains no pixels."""


class WrongEncoding(InputError):
    """Series encoding does not match the operation's precondition."""


class WrongKind(InputError):
    """Physio trace kind does not match the operation's precondition."""


class InvalidThreshold(InputError):
    """Correlation threshold outside [0, 1]."""


class InvalidSpec(InputError):
    """Phantom or pipeline parameters are inconsistent or out of range."""


class ClockMismatch(InputError):
    """Physiological trace does not cover the flow time range."""


class UnpairedSubject(InputError):
    """Cohort pairing manifest references a subject with a missing half."""


class NonFinite(InputError):
    """A value that must be finite is NaN or infinite."""


class ProcessingRefusal(CsfdynError):
    """Input is well-formed but cannot be processed reliably."""


class TooFewCycles(ProcessingRefusal):
    """Fewer than five cardiac cycles detected."""


class ArrhythmicSignal(ProcessingRefusal):
    """Cycle-length variability too high for self-gating (rr_cv > 0.35)."""


class FlatSignal(ProcessingRefusal):
    """Respiratory trace has no usable excursion above its noise floor."""


class TooFewSamples(ProcessingRefusal):
    """Cycle holds too few flow samples to resample."""


class NoCorrelatedRegion(ProcessingRefusal):
    """ROI refinement has nothing to grow: the seed does not vary in time,
    or no seed pixel meets the correlation threshold."""


class EmptyEnsemble(ProcessingRefusal):
    """No cycles available to average."""


class TooFewPairs(ProcessingRefusal):
    """Not enough paired observations for the requested test."""


class ZeroVariance(ProcessingRefusal):
    """A statistic is undefined because one variable is constant."""


class AllZeroDifferences(ProcessingRefusal):
    """Every paired difference is zero; the signed-rank test is undefined."""


class DivisionByZeroSv(ProcessingRefusal):
    """Modulation is undefined because the reference stroke volume is zero."""


def warn(message: str, category: type[Warning] = UserWarning) -> None:
    """warnings.warn, attributed to the innermost caller outside csfdyn,
    however many csfdyn frames (pipeline stages, the CLI) lie between."""
    package = __name__.partition(".")[0]
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == package:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
