"""Files shipped with the package: prompts, build routines, failure
signatures, Makefile cleaning rules and the sandbox image."""

from functools import cache
from importlib import resources


@cache
def text(name: str) -> str:
    """The shipped asset at ``name`` (e.g. ``prompts/retrieval.txt``), read
    from disk once per process."""
    return resources.files(__name__).joinpath(name).read_text("utf-8")
