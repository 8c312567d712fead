"""Exception hierarchy shared across the package, the one reader of input
files, which turns a file it cannot read into a usage error, and the one
checker of the values those files and the config classes hold."""

import json
import math
import os


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


def read_json(path, what: str):
    """The JSON value of the ``what`` file at ``path``, or a usage error
    naming the file (Python's ``json`` also takes NaN and Infinity)."""
    try:
        return json.loads(read_input(path, what))
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{what} file {path} is not valid: {exc}") from exc


# the longest timeout the harness takes, one week: `poll` and `epoll` take
# theirs in milliseconds as a C int, so a wait past about 24.8 days fails
MAX_SECONDS = 7 * 24 * 3600


def _os_takes(s: str) -> bool:
    """Whether the OS can take ``s`` as a path or an argument: it encodes to
    bytes (a byte of a non-UTF-8 file name reads as U+DC80..U+DCFF), and the
    bytes hold no NUL."""
    try:
        return b"\0" not in os.fsencode(s)
    except UnicodeEncodeError:
        return False


def _is_env(v) -> bool:
    """Whether ``v`` maps strings to strings that an environment can hold."""
    return type(v) is dict and all(type(k) is str and type(x) is str and "=" not in k
                                   and _os_takes(k + x) for k, x in v.items())


# each kind as (predicate, name); a table maps field -> kind. A one-type kind
# is that type's instance check, a C call, as decode_record runs per record
STR = (str.__instancecheck__, "a string")
STR_OR_NULL = (lambda v: v is None or type(v) is str, "a string or null")
OS_STR = (lambda v: type(v) is str and _os_takes(v), "a string the OS can take")
OS_STR_OR_NULL = (lambda v: v is None or OS_STR[0](v), "a string the OS can take, or null")
STR_LIST = (lambda v: type(v) is list and {str}.issuperset(map(type, v)), "a list of strings")
BOOL = (bool.__instancecheck__, "true or false")
INT = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
POSITIVE_INT = (lambda v: type(v) is int and v > 0, "an integer > 0")
NUMBER = (lambda v: type(v) in (int, float) and 0 <= v < math.inf, "a finite number >= 0")
SECONDS = (lambda v: type(v) in (int, float) and 0 < v <= MAX_SECONDS,
           f"seconds in (0, {MAX_SECONDS}]")
OBJECT = (dict.__instancecheck__, "an object")
OBJECT_OR_NULL = (lambda v: v is None or type(v) is dict, "an object or null")
OBJECT_LIST = (lambda v: type(v) is list and {dict}.issuperset(map(type, v)), "a list of objects")
ENV = (_is_env, "a map of strings to strings the OS can take")


def check(where: str, values, table: dict, error: type = UsageError, required=()) -> dict:
    """``values``, or ``error`` unless it is an object whose fields are of
    the kinds that ``table`` maps them to, as ``WHERE: FIELD must be KIND,
    got VALUE``. A field that ``values`` lacks is not checked, unless it is
    ``required``; then it reads as null."""
    if type(values) is not dict:
        raise error(f"{where} must be an object, got {shown(values)}")
    for field, (ok, kind) in table.items():
        if not ok(values.get(field)) and (field in values or field in required):
            raise error(f"{where}: {field} must be {kind}, got {shown(values.get(field))}")
    return values


def shown(value) -> str:
    """A value as a failure message shows it: its JSON, cut to 80 characters."""
    return json.dumps(value, default=repr)[:80]


class ManifestParseError(UsageError):
    """Manifest file is malformed (bad encoding, bad record syntax)."""


class ManifestValidationError(UsageError):
    """A record violates an invariant; message names the record and field."""


class DomainError(UsageError):
    """An argument is outside its mathematical domain."""


class SampleSizeError(UsageError):
    """Requested sample exceeds the available records."""


class CloneError(RepobuildError):
    """Repository could not be materialized."""


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
