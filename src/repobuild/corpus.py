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
from pathlib import Path
from typing import NamedTuple

from .errors import (
    BOOL, INT, OS_STR, OS_STR_OR_NULL, STR, STR_LIST, STR_OR_NULL, UsageError, check,
    read_input,
)

logger = logging.getLogger(__name__)


# each manifest field and the kind its JSON value must be; the id names the
# session dir, and the clone URL and commit are git's arguments
_RECORD_FIELDS = {
    "id": OS_STR, "clone_url": OS_STR, "commit": OS_STR_OR_NULL, "description": STR,
    "stargazers": INT, "is_fork": BOOL, "expected_binaries": STR_LIST,
    "instruction_url": STR_OR_NULL, "languages": STR_LIST,
}


class _RepoRecord(NamedTuple):
    id: str
    clone_url: str
    description: str = ""
    commit: str | None = None
    stargazers: int = 0
    is_fork: bool = False
    expected_binaries: tuple[str, ...] = ()
    instruction_url: str | None = None
    languages: tuple[str, ...] = ()


class RepoRecord(_RepoRecord):
    """One repository under test plus its ground-truth labels."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        owner, _, name = self.id.partition("/")
        # each part names a directory: the session dir is owner/name and
        # the workspace is named after the name part
        if "/" in name or {owner, name} & {"", ".", ".."}:
            raise UsageError(
                f"record {self.id!r}: id must be 'owner/name', and neither part "
                "may be empty, '.' or '..'"
            )
        seen = set()
        for name in self.expected_binaries:
            if "/" in name or "\\" in name:
                raise UsageError(
                    f"record {self.id!r}: expected_binaries entry {name!r} contains a path separator"
                )
            if name in seen:
                raise UsageError(f"record {self.id!r}: duplicate expected binary {name!r}")
            seen.add(name)
        return self

    @property
    def name(self) -> str:
        return self.id.split("/", 1)[1]


class _CorpusManifest(NamedTuple):
    records: list[RepoRecord]
    name: str = ""


class CorpusManifest(_CorpusManifest):
    """Ordered collection of records with unique ids."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise UsageError(f"duplicate record id {rec.id!r} in manifest")
            seen.add(rec.id)
        return self


class SamplePlan(NamedTuple):
    """Sample-size computation for estimating a population proportion.

    ``n0`` is the infinite-population size; ``n_fpc`` applies the finite
    population correction; ``required_n`` rounds up.
    """

    n0: float
    n_fpc: float
    required_n: int


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse a one-record-per-line manifest file and validate every record."""
    path = Path(path)
    text = read_input(path, "manifest")
    records: list[RepoRecord] = []
    # records end at "\n" alone: a string may hold U+2028 or U+0085 unescaped
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"{where}: not a valid record object: {exc}") from exc
        check(where, raw, _RECORD_FIELDS, required=("id", "clone_url"))
        unknown = raw.keys() - _RECORD_FIELDS
        if unknown:
            logger.warning("%s: ignoring unknown keys %s", where, sorted(unknown))
        known = {k: tuple(v) if _RECORD_FIELDS[k] is STR_LIST else v
                 for k, v in raw.items() if k in _RECORD_FIELDS}
        try:
            records.append(RepoRecord(**known))
        except UsageError as exc:
            raise UsageError(f"{where}: {exc}") from None
    return CorpusManifest(records=records, name=path.stem)


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write a manifest in the one-record-per-line format, a lone surrogate
    as its JSON escape, as ``ResultStore.append`` writes it."""
    lines = [json.dumps(rec._asdict(), ensure_ascii=False) + "\n" for rec in manifest.records]
    Path(path).write_bytes("".join(lines).encode("utf-8", "backslashreplace"))


def required_sample_size(z: float, e: float, p: float, n_population: int) -> SamplePlan:
    """Minimum sample size for a proportion estimate, with finite-population correction.

    n0 = z^2 * p * (1 - p) / e^2, shrunk to n0 * N / (N - 1 + n0) for a
    population of N, rounded up to an integer count. The shrink is exact
    rational arithmetic, so it holds for a population of any size.
    """
    if not (0 < e < 1):
        raise UsageError(f"margin e must be in (0, 1), got {e}")
    if not (0 < p < 1):
        raise UsageError(f"proportion p must be in (0, 1), got {p}")
    if not (0 < z < math.inf):
        raise UsageError(f"confidence z must be positive and finite, got {z}")
    if n_population < 1:
        raise UsageError(f"population must be >= 1, got {n_population}")
    n0 = (z * z) * p * (1.0 - p) / (e * e) if e * e else math.inf
    if not (0 < n0 < math.inf):
        raise UsageError(f"confidence z {z}, margin e {e} and proportion p {p} "
                         f"give a sample size n0 of {n0}, beyond a float's range")
    a, b = n0.as_integer_ratio()
    n_fpc = a * n_population / (b * (n_population - 1) + a)
    return SamplePlan(n0=n0, n_fpc=n_fpc, required_n=math.ceil(n_fpc))


def sample_repos(manifest: CorpusManifest, n: int, seed: int) -> CorpusManifest:
    """Uniform sample without replacement; deterministic for a fixed seed."""
    if not 1 <= n <= len(manifest.records):
        raise UsageError(
            f"cannot sample {n} records from a manifest of {len(manifest.records)}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(manifest.records, n)
    return CorpusManifest(records=chosen, name=manifest.name)
