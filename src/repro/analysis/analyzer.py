"""Analyzer orchestration: load modules, run rules, apply waivers.

``run_paths(roots)`` is the single entry point the CLI and the test
suite share.  It runs in two phases:

1. **per-module** — every file gets the PR 4 lexical rules (DET*,
   SIM001, RES001, FLT001, TEL001);
2. **whole-program** — all parsed modules are folded into one
   :class:`~repro.analysis.flow.ProjectIndex` and the interprocedural
   ``flow`` rule families run on it: EVT001/EVT002 (event producer
   reachability), DLK001 (static wait-for cycles), STM001 (QP protocol
   conformance against the declared ``QP_PROTOCOL`` table), RES002
   (credit pairing across helper boundaries) and — when the caller names
   the trees that consume the package (``references``) — DED001
   (public defs in ``src/`` with no reference).

Waivers are applied *after* both phases so a project-level finding can
be waived at its anchor line like any lexical one, and waiver hygiene
(WAI001/WAI002 and — when the caller supplies ``today`` — WAI003
expiry) still sees every suppression.  Findings come back sorted
``(path, line, code)`` so the report — and therefore CI output — is
deterministic, which is only fitting for a determinism linter.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

from .fault_table import check_fault_table
from .findings import Finding
from .flow import ProjectIndex
from .modules import SourceModule, iter_python_files, load_module
from .rules_dead import check_dead001, referenced_names
from .rules_determinism import check_det001, check_det002, check_sim001
from .rules_events import check_dlk001, check_evt001, check_evt002
from .rules_protocol import (
    check_res002,
    check_stm001,
    find_qp_protocol_path,
    load_qp_protocol,
)
from .rules_registry import (
    check_flt001,
    check_tel001,
    find_fault_registry_path,
    load_fault_registry,
)
from .rules_resources import check_res001

__all__ = ["AnalysisResult", "run_paths"]


class AnalysisResult:
    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.files_checked = 0
        self.waivers_honoured = 0
        self.errors: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.extend(f"error: {err}" for err in self.errors)
        tally = (
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
            f" ({self.waivers_honoured} waiver(s) honoured)"
        )
        lines.append(tally)
        return "\n".join(lines)


def _module_findings(module: SourceModule, sites: FrozenSet[str]) -> List[Finding]:
    raw: List[Finding] = []
    raw += check_det001(module)
    raw += check_det002(module)
    raw += check_sim001(module)
    raw += check_res001(module)
    raw += check_flt001(module, sites)
    raw += check_tel001(module)
    return raw


def _project_findings(
    modules: List[SourceModule],
    roots: List[Path],
    qp_protocol: Optional[Path],
    references: Optional[List[SourceModule]],
) -> List[Finding]:
    index = ProjectIndex(modules)
    raw: List[Finding] = []
    raw += check_evt001(index)
    raw += check_evt002(index)
    raw += check_dlk001(index)
    raw += check_res002(index)
    protocol_path = qp_protocol or find_qp_protocol_path(roots)
    if protocol_path is not None and protocol_path.exists():
        raw += check_stm001(index, load_qp_protocol(protocol_path))
    if references is not None:
        raw += check_dead001(index, referenced_names(modules + references))
    return raw


def run_paths(
    roots: List[Path],
    design_doc: Optional[Path] = None,
    fault_registry: Optional[Path] = None,
    qp_protocol: Optional[Path] = None,
    today: str = "",
    reference_roots: Optional[List[Path]] = None,
) -> AnalysisResult:
    """Analyze ``roots``.  ``reference_roots`` (files or directories) are
    parsed only as users of the analyzed code; giving them, even as an
    empty list, turns DED001 on."""
    result = AnalysisResult()
    registry_path = fault_registry or find_fault_registry_path(roots)
    docs: Dict[str, Tuple[str, str]] = {}
    if registry_path is not None:
        try:
            docs = load_fault_registry(registry_path)
        except (OSError, SyntaxError) as exc:
            result.errors.append(f"cannot read fault registry {registry_path}: {exc}")
    sites = frozenset(docs)
    modules: List[SourceModule] = []
    by_path: Dict[str, SourceModule] = {}
    raw: List[Finding] = []
    for path in iter_python_files(roots):
        try:
            module = load_module(path)
        except SyntaxError as exc:
            result.errors.append(f"cannot parse {path}: {exc}")
            continue
        result.files_checked += 1
        modules.append(module)
        by_path[module.display_path] = module
        raw.extend(_module_findings(module, sites))
    references = None
    if reference_roots is not None:
        references = []
        for path in iter_python_files(reference_roots):
            try:
                references.append(load_module(path))
            except SyntaxError as exc:
                result.errors.append(f"cannot parse {path}: {exc}")
    raw.extend(_project_findings(modules, roots, qp_protocol, references))
    # Waivers last: project-level findings are waivable at their anchor
    # line exactly like lexical ones, and use-tracking stays accurate.
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.waivers.suppresses(finding):
            result.waivers_honoured += 1
            continue
        result.findings.append(finding)
    idle = frozenset({"DED001"}) if references is None else frozenset()
    for module in modules:
        result.findings.extend(module.waivers.hygiene_findings(today, idle))
    doc_path = design_doc if design_doc is not None else Path("DESIGN.md")
    if docs and doc_path.exists():
        result.findings.extend(check_fault_table(doc_path, docs))
    result.findings.sort(key=lambda f: (f.path, f.line, f.code))
    return result
