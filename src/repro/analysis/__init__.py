"""Runtime correctness tooling for the reproduction.

:mod:`repro.analysis.sanitizer` holds :class:`SimSanitizer`, composable
runtime invariant checkers over the scheduler, bandwidth pipes, YARN
and HDFS, switched on with ``REPRO_SANITIZE=1`` or
``Session(sanitize=True)`` and reported through :mod:`repro.telemetry`.
"""

from repro.analysis.sanitizer import (
    InvariantViolation,
    SimSanitizer,
    sanitize_enabled,
)

__all__ = ["InvariantViolation", "SimSanitizer", "sanitize_enabled"]
