"""Files shipped with the package: prompts, build routines, failure
signatures, Makefile cleaning rules and the sandbox image."""

from functools import cache
from pathlib import Path


@cache
def text(name: str) -> str:
    """The shipped asset at ``name`` (e.g. ``prompts/retrieval.txt``), read
    from disk once per process."""
    # the installed package is a directory, so the assets sit beside this
    # file; importlib.resources would load inspect on Python 3.12 and later
    return Path(__file__).parent.joinpath(name).read_text("utf-8")
