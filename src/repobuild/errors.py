"""Exception hierarchy shared across the package, and the one reader of
input files, which turns a file it cannot read into a usage error."""


class RepobuildError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(RepobuildError):
    """CLI or configuration misuse; maps to exit code 2."""


def read_input(path, what: str, error: type = UsageError) -> str:
    """The text of the UTF-8 ``what`` file at ``path``, or ``error`` naming
    the file when it is missing, not a readable file, or not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise error(f"{what} file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc


class ManifestParseError(UsageError):
    """Manifest file is malformed (bad encoding, bad record syntax)."""


class ManifestValidationError(UsageError):
    """A record violates an invariant; message names the record and field."""


class DomainError(UsageError):
    """An argument is outside its mathematical domain."""


class SampleSizeError(UsageError):
    """Requested sample exceeds the available records."""


class CloneError(RepobuildError):
    """Repository could not be materialized.

    ``kind`` distinguishes failure classes: "unreachable", "missing-revision",
    "auth", "other".
    """

    def __init__(self, message: str, kind: str = "other"):
        super().__init__(message)
        self.kind = kind


class TransportError(RepobuildError):
    """LLM backend unreachable after retries."""


class ScenarioExhaustedError(RepobuildError):
    """Scripted backend has no matching step and no default reply."""


class OversizeReplyError(RepobuildError):
    """LLM reply exceeded the configured character cap."""


class ProtocolError(RepobuildError):
    """LLM reply stayed malformed after the single re-ask."""


class SandboxUnavailableError(RepobuildError):
    """Requested sandbox backend cannot run on this host."""


class SandboxDeadError(RepobuildError):
    """Operation attempted on a destroyed sandbox handle."""
