"""Repository manifests: loading, saving, seeded sampling, and sample planning.

A manifest is a UTF-8 file with one self-describing JSON object per line,
using exactly the :class:`RepoRecord` field names. Unknown keys are ignored
with a warning so manifests can carry extra annotations; a known key whose
value has the wrong JSON type fails the load.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError, ManifestParseError, ManifestValidationError, SampleSizeError

logger = logging.getLogger(__name__)


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_str_or_null(v) -> bool:
    return v is None or isinstance(v, str)


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# each manifest field with the check its JSON value must pass and what it names
_RECORD_FIELDS = {
    "id": (_is_str, "a string"),
    "clone_url": (_is_str, "a string"),
    "commit": (_is_str_or_null, "a string or null"),
    "description": (_is_str, "a string"),
    "stargazers": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "is_fork": (lambda v: isinstance(v, bool), "true or false"),
    "expected_binaries": (_is_str_list, "a list of strings"),
    "instruction_url": (_is_str_or_null, "a string or null"),
    "languages": (_is_str_list, "a list of strings"),
}


@dataclass(frozen=True)
class RepoRecord:
    """One repository under test plus its ground-truth labels."""

    id: str
    clone_url: str
    description: str = ""
    commit: str | None = None
    stargazers: int = 0
    is_fork: bool = False
    expected_binaries: tuple[str, ...] = ()
    instruction_url: str | None = None
    languages: tuple[str, ...] = ()

    def __post_init__(self):
        owner, _, name = self.id.partition("/")
        # each part names a directory: the session dir is owner__name and
        # the workspace is named after the name part
        if "/" in name or {owner, name} & {"", ".", ".."}:
            raise ManifestValidationError(
                f"record {self.id!r}: id must be 'owner/name', and neither part "
                "may be empty, '.' or '..'"
            )
        if self.stargazers < 0:
            raise ManifestValidationError(f"record {self.id!r}: stargazers must be >= 0")
        seen = set()
        for name in self.expected_binaries:
            if "/" in name or "\\" in name:
                raise ManifestValidationError(
                    f"record {self.id!r}: expected_binaries entry {name!r} contains a path separator"
                )
            if name in seen:
                raise ManifestValidationError(
                    f"record {self.id!r}: duplicate expected binary {name!r}"
                )
            seen.add(name)

    @property
    def name(self) -> str:
        return self.id.split("/", 1)[1]


@dataclass
class CorpusManifest:
    """Ordered collection of records with unique ids."""

    records: list[RepoRecord]
    name: str = ""

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise ManifestValidationError(f"duplicate record id {rec.id!r} in manifest")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SamplePlan:
    """Sample-size computation for estimating a population proportion.

    ``n0`` is the infinite-population size for confidence ``confidence_z``,
    margin ``margin`` and proportion ``proportion``; ``n_fpc`` applies the
    finite population correction for ``population``; ``required_n`` rounds up.
    """

    confidence_z: float
    margin: float
    proportion: float
    population: int
    n0: float
    n_fpc: float
    required_n: int


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse a one-record-per-line manifest file and validate every record."""
    path = Path(path)
    if not path.exists():
        raise ManifestParseError(f"manifest file not found: {path}")
    records: list[RepoRecord] = []
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestParseError(f"{path}:{lineno}: not a valid record object: {exc}") from exc
        if not isinstance(raw, dict):
            raise ManifestParseError(f"{path}:{lineno}: record must be a key/value object")
        unknown = raw.keys() - _RECORD_FIELDS
        if unknown:
            logger.warning("%s:%d: ignoring unknown keys %s", path, lineno, sorted(unknown))
        known = {k: v for k, v in raw.items() if k in _RECORD_FIELDS}
        for key, value in known.items():
            check, kind = _RECORD_FIELDS[key]
            if not check(value):
                raise ManifestParseError(
                    f"{path}:{lineno}: {key} must be {kind}, got {json.dumps(value)[:80]}"
                )
        for tuple_key in ("expected_binaries", "languages"):
            if tuple_key in known:
                known[tuple_key] = tuple(known[tuple_key])
        try:
            records.append(RepoRecord(**known))
        except TypeError as exc:
            raise ManifestParseError(f"{path}:{lineno}: {exc}") from exc
    return CorpusManifest(records=records, name=path.stem)


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write a manifest in the one-record-per-line format."""
    lines = []
    for rec in manifest.records:
        lines.append(
            json.dumps(
                {
                    "id": rec.id,
                    "clone_url": rec.clone_url,
                    "commit": rec.commit,
                    "description": rec.description,
                    "stargazers": rec.stargazers,
                    "is_fork": rec.is_fork,
                    "expected_binaries": list(rec.expected_binaries),
                    "instruction_url": rec.instruction_url,
                    "languages": list(rec.languages),
                },
                ensure_ascii=False,
            )
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")


def required_sample_size(z: float, e: float, p: float, n_population: int) -> SamplePlan:
    """Minimum sample size for a proportion estimate, with finite-population correction.

    n0 = z^2 * p * (1 - p) / e^2, shrunk to n0 / (1 + (n0 - 1) / N) for a
    population of N, rounded up to an integer count.
    """
    if not (0 < e < 1):
        raise DomainError(f"margin e must be in (0, 1), got {e}")
    if not (0 < p < 1):
        raise DomainError(f"proportion p must be in (0, 1), got {p}")
    if z <= 0:
        raise DomainError(f"confidence z must be positive, got {z}")
    if n_population < 1:
        raise DomainError(f"population must be >= 1, got {n_population}")
    n0 = (z * z) * p * (1.0 - p) / (e * e)
    n_fpc = n0 / (1.0 + (n0 - 1.0) / n_population)
    required_n = max(1, math.ceil(n_fpc))
    return SamplePlan(
        confidence_z=z,
        margin=e,
        proportion=p,
        population=n_population,
        n0=n0,
        n_fpc=n_fpc,
        required_n=required_n,
    )


def sample_repos(manifest: CorpusManifest, n: int, seed: int) -> CorpusManifest:
    """Uniform sample without replacement; deterministic for a fixed seed."""
    if not 1 <= n <= len(manifest.records):
        raise SampleSizeError(
            f"cannot sample {n} records from a manifest of {len(manifest.records)}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(manifest.records, n)
    return CorpusManifest(records=chosen, name=manifest.name)
