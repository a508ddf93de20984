"""DED001: a public ``def`` in ``src/`` that nothing references.

Runs on the :class:`~repro.analysis.flow.ProjectIndex` once the caller
names the trees that consume the package (``--refs``; the repo passes
``examples`` and ``perfbench`` next to the analyzed ``src tests
benchmarks``).  Without them "unreferenced" would be a guess, so the
rule stays off.

The check is by name, so it errs towards silence: a def counts as used
when its name appears anywhere in the analyzed or reference modules as a
variable, an attribute, or an identifier-shaped string (``getattr`` and
patch-by-name tables).  Strings in ``__all__`` do not count: exporting a
name is not using it.  Private (``_``-prefixed) and nested defs are out
of scope.  A def kept on purpose (a paper-API mirror with no caller in
the repo) is waived with ``# repro: allow[DED001] why``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from .findings import Finding, make_finding
from .flow import ProjectIndex
from .modules import SourceModule

__all__ = ["check_dead001", "referenced_names"]


def _all_strings(tree: ast.Module) -> Set[int]:
    """ids of the string constants listed in ``__all__``."""
    ids: Set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            ids.update(id(sub) for sub in ast.walk(node.value))
    return ids


def referenced_names(modules: Iterable[SourceModule]) -> Set[str]:
    """Every name the modules use: variables, attributes, identifier
    strings outside ``__all__``."""
    names: Set[str] = set()
    for module in modules:
        exported = _all_strings(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in exported
            ):
                names.add(node.value)
    return names


def check_dead001(index: ProjectIndex, references: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for fn in index.functions:
        if not fn.module.is_sim_scope or fn.name.startswith("_"):
            continue
        if not isinstance(index.parent(fn.node), (ast.Module, ast.ClassDef)):
            continue  # nested def: reached through its enclosing function
        if fn.name in references:
            continue
        findings.append(
            make_finding(
                fn.module.display_path,
                fn.node.lineno,
                "DED001",
                f"public def {fn.qualname} has no reference in the analyzed "
                f"or reference trees",
            )
        )
    return findings
