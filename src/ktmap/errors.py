"""Exception hierarchy. Everything raised on bad *data* derives from
KTMapError so the CLI can map it to exit code 2; bad parameters raise
plain ValueError (exit code 1); anything else is an internal error (3).
"""


class KTMapError(Exception):
    """Base class for data and analysis errors."""

    exit_code = 2


class MalformedRecordError(KTMapError):
    """An input line could not be parsed; message carries the line number."""


class DuplicateIdError(KTMapError):
    """A document id occurred more than once in a corpus."""


class SelfLoopError(KTMapError):
    """A citation edge points from a document to itself."""


class UnknownEndpointError(KTMapError):
    """An edge references a document id that is not in the corpus."""


class LexiconOverlapError(KTMapError):
    """A term appears in both the basic and the clinical lexicon."""


class DegenerateDataError(KTMapError):
    """The data has no variation to fit (e.g. all values identical)."""


class InsufficientDataError(KTMapError):
    """Too few observations for the requested computation."""


class StageError(KTMapError):
    """A pipeline stage failed; wraps the underlying error with its stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
        if isinstance(cause, KTMapError):
            self.exit_code = cause.exit_code
        elif isinstance(cause, ValueError):
            self.exit_code = 1


class StageFileError(KTMapError):
    """A stage file read back is missing or malformed; `stage` names the
    stage that writes it."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


class ReportSchemaError(Exception):
    """A report violates the shipped report schema, or the schema uses a
    keyword the checker does not know. This is a bug in ktmap, not bad
    input, so it derives from neither KTMapError nor ValueError and the CLI
    exits 3 (internal error)."""
