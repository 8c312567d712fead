"""Automated compilation harness for C/C++ repositories.

Combines instruction retrieval, an iterative generate/execute/repair agent
loop running in disposable sandboxes, rule-based baseline builders, binary
validation, and a benchmark harness with pass@k reporting.
"""

# every error class, as repobuild.<Name>, and the input reader beside them
from .errors import *  # noqa: F401,F403

__version__ = "0.1.0"
