"""Exception hierarchy shared across the package."""


class PearlError(Exception):
    """Base class for all package-specific errors."""

    code = "error"


class DataFormatError(PearlError):
    """Malformed input file (bad header, wrong field count, bad value)."""

    code = "data_format"

    def __init__(self, message, line=None, path=None):
        where = ("" if path is None else f"{path}: ") + ("" if line is None else f"line {line}: ")
        super().__init__(where + message)
        self.detail, self.line, self.path = message, line, path


class CheckpointManifestError(PearlError):
    """Manifest is not valid JSON, or a field is missing or of the wrong type."""

    code = "checkpoint_manifest"


class CheckpointVersionError(PearlError):
    code = "checkpoint_version"


class CheckpointShapeError(PearlError):
    code = "checkpoint_shape"


class CheckpointTruncatedError(PearlError):
    code = "checkpoint_truncated"


class DegeneratePathway(PearlError):
    """Gene set covers every measured gene; the miss denominator is zero."""

    code = "degenerate_pathway"

    def __init__(self, pathway):
        super().__init__(f"pathway {pathway!r} covers all measured genes")
        self.pathway = pathway


class ConfigError(PearlError):
    code = "config"


class UsageError(PearlError):
    """Bad command line: unknown flag, missing or malformed argument."""

    code = "usage"


class TrainingDiverged(PearlError):
    code = "training_diverged"

    def __init__(self, epoch, batch):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
