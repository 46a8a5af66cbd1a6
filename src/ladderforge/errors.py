"""Exception types shared across the package.

Every error raised on a contract violation derives from LadderforgeError so
the CLI can map library failures to a single exit code. Names are grouped by
the stage that raises them.
"""


class LadderforgeError(Exception):
    """Base class for all library errors."""


# --- video ingest ---

class MalformedHeader(LadderforgeError):
    """Stream does not start with a valid YUV4MPEG2 header or FRAME record."""


class UnsupportedFormat(LadderforgeError):
    """Well-formed input in a pixel format or geometry we do not handle."""


class TruncatedFrame(LadderforgeError):
    """Stream ended before a complete frame was read."""


class ShapeMismatch(LadderforgeError):
    """Operands that must share dimensions do not."""


# --- pyramid / information features ---

class FrameTooSmall(LadderforgeError):
    """Plane too small for the requested decomposition."""


class DegenerateInput(LadderforgeError):
    """Empty or ill-shaped numeric input."""


class InvalidNoiseVariance(LadderforgeError):
    """Noise variance must be strictly positive."""


class EmptyVideo(LadderforgeError):
    """No frames to pool."""


# --- feature assembly ---

class MissingDiffFeatures(LadderforgeError):
    """Approach requires frame-difference features but the video has one frame."""


class UnknownApproach(LadderforgeError):
    """Approach index outside 1..9."""


# --- dataset ---

class SchemaError(LadderforgeError):
    """CSV header or field types do not match the documented schema."""


class RangeError(LadderforgeError):
    """Field value outside its documented range."""


class NonpositiveBitrate(RangeError):
    """Bitrate must be > 0 to take its log."""


class DuplicateKey(LadderforgeError):
    """Repeated (video_id, width, height, crf) row."""


class TooFewVideos(LadderforgeError):
    """Not enough videos to split."""


class MissingTensor(LadderforgeError):
    """Encode record references a video with no extracted features."""


# --- regressor ---

class EmptyTrainingSet(LadderforgeError):
    """No training rows."""


class InconsistentLayout(LadderforgeError):
    """Training rows disagree on approach or feature length."""


class LayoutMismatch(LadderforgeError):
    """Query vector does not match the model's feature layout."""


class VersionMismatch(LadderforgeError):
    """Model file written by an incompatible format version."""


class CorruptModel(LadderforgeError):
    """Model file failed checksum or structural validation."""


# --- ladder ---

class NoPointsForResolution(LadderforgeError):
    """Encode log has no points at a resolution the ladder needs."""


class InvalidRungs(LadderforgeError, ValueError):
    """Rung bitrates empty, not finite and positive, or not strictly increasing.

    Also a ValueError: a bad --rungs flag is a usage error, caught as one.
    """


class ConfigMissing(LadderforgeError):
    """Required configuration (e.g. fixed-ladder table) absent."""


# --- Bjontegaard metrics ---

class OutOfRange(LadderforgeError):
    """Interpolation query outside the knot span."""


class NonMonotonicAbscissa(LadderforgeError):
    """Interpolation abscissae must be strictly increasing."""


class NoOverlap(LadderforgeError):
    """Curves share no quality/rate interval."""


class DegenerateCurve(LadderforgeError):
    """Fewer than two points survive dominance pruning."""


class EmptyInput(LadderforgeError):
    """Aggregate of zero results."""


# --- external tools ---

class ExternalToolFailure(LadderforgeError):
    """Encoder or measurement command failed; carries captured stderr."""

    def __init__(self, message: str, stderr: str = ""):
        super().__init__(message)
        self.stderr = stderr
