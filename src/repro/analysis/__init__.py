"""Static and runtime correctness tooling for the reproduction.

Three complementary layers make reproducibility a *checked* property
instead of a reviewed one:

* :mod:`repro.analysis.simlint` — an AST-based determinism linter with
  a rule registry (:data:`repro.analysis.rules.RULES`, codes
  ``SIM001``-``SIM006``), inline suppressions and a committed
  baseline.  Run it with ``python -m repro lint [--check]``.
* :mod:`repro.analysis.simflow` — a project-wide, import-graph-aware
  pass over the :class:`~repro.analysis.project.Project` model:
  cross-module determinism *taint* tracking (``SIM10x``, ``python -m
  repro lint --flow``), sharing simlint's suppression and baseline
  machinery.
* :mod:`repro.analysis.sanitizer` — :class:`SimSanitizer`, composable
  runtime invariant checkers over the scheduler, bandwidth pipes,
  YARN and HDFS, switched on with ``REPRO_SANITIZE=1`` or
  ``Session(sanitize=True)`` and reported through
  :mod:`repro.telemetry`.
"""

# Only the sanitizer is re-exported: the simulation stack imports it at
# run time, and must not drag the AST linter in with it.
from repro.analysis.sanitizer import (
    InvariantViolation,
    SimSanitizer,
    sanitize_enabled,
)

__all__ = ["InvariantViolation", "SimSanitizer", "sanitize_enabled"]
