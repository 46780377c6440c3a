"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError (and its
format and undefined-metric subclasses) -> 3, NumericError -> 4.  An input
file that cannot be read or decoded (missing, a directory, not UTF-8, not
JSON) is a DataError, or a ConfigError when it is the experiment config
itself.  An output file or directory that cannot be written is a
ConfigError.
"""


class MilError(Exception):
    """Base class for all miltransfer errors."""


class ConfigError(MilError):
    """Invalid configuration: bad architecture fields, malformed experiment
    config, an output path that cannot be written."""


class DataError(MilError):
    """Invalid or missing data: manifests, feature files, sampling preconditions."""


class FeatureFormatError(DataError):
    """Malformed feature file."""


class BadMagicError(FeatureFormatError):
    """Feature file does not start with the expected magic bytes."""


class TruncatedPayloadError(FeatureFormatError):
    """Feature file payload is shorter than its declared dimensions require."""


class DimensionOverflowError(FeatureFormatError):
    """Declared dimensions are zero or too large to describe a real payload."""


class CheckpointFormatError(DataError):
    """Malformed checkpoint container."""


class VersionMismatchError(CheckpointFormatError):
    """Checkpoint or feature file written with an unsupported format version."""


class ShapeMismatchError(DataError):
    """In-memory parameters that lack a layer of a model config's schema or
    hold one in another shape (``models.check_params``).  A checkpoint file
    that does not fit its own header is a ``CheckpointFormatError``."""


class NumericError(MilError):
    """Non-finite loss or gradients encountered during optimization."""


class UndefinedMetricError(DataError):
    """Metric is undefined for the given data (e.g. single-class AUROC)."""
