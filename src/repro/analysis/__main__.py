"""CLI: ``python -m repro.analysis src tests benchmarks --refs examples perfbench``.

Exit status is the CI contract: 0 when the tree is clean, 1 when any
finding or parse error survives waivers.  ``--explain CODE`` prints one
rule's catalogue entry; ``--write-fault-table DESIGN.md`` regenerates
the fault-site table from the registry (see ``fault_table.py``);
``--format sarif`` emits SARIF 2.1.0 for CI annotation upload.

This module is the only place the wall clock is consulted: waiver
expiry (WAI003) compares ``until=`` dates against ``--today``, which
defaults to the real date *here* and nowhere else — simulation and
analysis library code stay clock-free so results are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date
from pathlib import Path

from .analyzer import run_paths
from .fault_table import write_fault_table
from .findings import RULE_CATALOG
from .rules_registry import find_fault_registry_path, load_fault_registry
from .sarif import render_sarif


def _explain(code: str) -> int:
    info = RULE_CATALOG.get(code.upper())
    if info is None:
        print(f"unknown rule {code!r}; known: {', '.join(sorted(RULE_CATALOG))}")
        return 1
    print(f"{info.code}: {info.summary}")
    print(f"  fix: {info.fixit}")
    print(f"  waive: # repro: allow[{info.code}] <one-line justification>")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific static analyzer: determinism, credit "
        "pairing, event flow and registry hygiene (see DESIGN.md "
        "'Correctness tooling').",
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories")
    parser.add_argument("--explain", metavar="CODE", help="describe one rule and exit")
    parser.add_argument(
        "--write-fault-table",
        metavar="DOC",
        type=Path,
        help="regenerate the FAULT_SITES table between markers in DOC",
    )
    parser.add_argument(
        "--design-doc",
        type=Path,
        default=None,
        help="DESIGN.md to drift-check (default: ./DESIGN.md when present)",
    )
    parser.add_argument(
        "--fault-registry",
        type=Path,
        default=None,
        help="plan.py to read FAULT_SITE_DOCS from (default: auto-locate)",
    )
    parser.add_argument(
        "--qp-protocol",
        type=Path,
        default=None,
        help="qp.py to read QP_PROTOCOL from for STM001 (default: auto-locate)",
    )
    parser.add_argument(
        "--refs",
        nargs="+",
        type=Path,
        default=None,
        metavar="PATH",
        help="trees that only use the analyzed code (parsed for references, "
        "not checked); turns on DED001",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--today",
        default=date.today().isoformat(),
        metavar="YYYY-MM-DD",
        help="clock for waiver expiry (WAI003); defaults to the real date",
    )
    args = parser.parse_args(argv)

    if args.explain:
        return _explain(args.explain)

    if args.write_fault_table is not None:
        registry = args.fault_registry or find_fault_registry_path(
            args.paths or [Path("src")]
        )
        if registry is None:
            print("error: cannot locate faults/plan.py registry", file=sys.stderr)
            return 1
        docs = load_fault_registry(registry)
        if not write_fault_table(args.write_fault_table, docs):
            print(
                f"error: {args.write_fault_table} lacks the FAULT_SITES "
                "marker comments",
                file=sys.stderr,
            )
            return 1
        print(f"fault-site table refreshed in {args.write_fault_table}")
        if not args.paths:
            return 0

    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis src tests benchmarks)")

    result = run_paths(
        args.paths,
        design_doc=args.design_doc,
        fault_registry=args.fault_registry,
        qp_protocol=args.qp_protocol,
        today=args.today,
        reference_roots=args.refs,
    )
    report = render_sarif(result) if args.format == "sarif" else result.render()
    if args.output is not None:
        args.output.write_text(report + "\n", encoding="utf-8")
        if args.format == "text":
            print(f"report written to {args.output}")
    else:
        print(report)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
