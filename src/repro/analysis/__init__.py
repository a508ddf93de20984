"""``repro.analysis`` — correctness tooling for the reproduction.

Two halves (DESIGN.md "Correctness tooling"):

* a **static analyzer** (``python -m repro.analysis src tests
  benchmarks --refs examples perfbench``) with repo-specific AST rules
  — determinism (DET001/2, SIM001), credit pairing (RES001 lexically,
  RES002 across helper boundaries), whole-program event flow (EVT001
  lost wakeups, EVT002 succeed-after-defuse, DLK001 static wait-for
  cycles), QP protocol conformance (STM001 against the declared
  ``QP_PROTOCOL`` table), string-registry hygiene (FLT001/TEL001),
  dead public defs (DED001, with ``--refs`` naming the trees that only
  use the package) and generated-doc drift (DOC001) — each waivable with ``# repro: allow[RULE] justification``
  (optionally ``until=YYYY-MM-DD``; WAI003 flags expiry);
* a **runtime SimSanitizer** (``REPRO_SANITIZE=1``) asserting event-time
  monotonicity, credit conservation, telemetry type stability and — at
  drain — a *stuck-at-drain ledger* of processes parked on events no
  producer can ever trigger (the dynamic face of EVT001).

The interprocedural rules run on a :class:`~repro.analysis.flow.
ProjectIndex` folding every module into one call graph with def-site
resolution for events and queue pairs.  ``--format
sarif`` renders findings as SARIF 2.1.0 for CI annotations.

Stdlib-``ast`` only; the analyzer never imports the tree it checks.
"""

from .analyzer import AnalysisResult, run_paths
from .findings import Finding, RULE_CATALOG
from .flow import ProjectIndex
from .sanitizer import (
    SanitizerError,
    SimSanitizer,
    StuckWaiter,
    Violation,
    activate,
    current,
    deactivate,
    enabled,
)
from .sarif import render_sarif

__all__ = [
    "AnalysisResult",
    "run_paths",
    "Finding",
    "RULE_CATALOG",
    "ProjectIndex",
    "render_sarif",
    "SimSanitizer",
    "SanitizerError",
    "StuckWaiter",
    "Violation",
    "activate",
    "current",
    "deactivate",
    "enabled",
]
