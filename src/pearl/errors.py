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


class CheckpointVersionError(PearlError):
    code = "checkpoint_version"


class CheckpointShapeError(PearlError):
    code = "checkpoint_shape"


class CheckpointTruncatedError(PearlError):
    code = "checkpoint_truncated"


class MissingPathwayGenes(PearlError):
    """Gene set has no overlap with the measured genes."""

    code = "missing_pathway_genes"

    def __init__(self, pathway):
        super().__init__(f"pathway {pathway!r} has no genes among the measured genes")
        self.pathway = pathway


class DegeneratePathway(PearlError):
    """Gene set covers every measured gene; the miss denominator is zero."""

    code = "degenerate_pathway"

    def __init__(self, pathway):
        super().__init__(f"pathway {pathway!r} covers all measured genes")
        self.pathway = pathway


class ConfigError(PearlError):
    code = "config"


class TrainingDiverged(PearlError):
    code = "training_diverged"

    def __init__(self, epoch, batch):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
