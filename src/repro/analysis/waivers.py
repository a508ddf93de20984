"""Waiver comments: ``# repro: allow[RULE] justification``.

A waiver suppresses matching findings on its own line; a waiver on a
comment-only line covers the next source line (so it can sit above the
offending statement).  Several codes may share one waiver:
``# repro: allow[DET001,DET002] reason``.  A file-scope waiver —
``# repro: allow-file[RULE] reason`` anywhere in the file — covers every
line, for files whose whole purpose is exempt (e.g. a wall-clock CLI).

Waiver hygiene is itself checked: a waiver without a justification is a
WAI001 finding and a waiver that suppressed nothing is WAI002, so stale
escapes cannot silently accumulate as the tree evolves.

A waiver may carry an expiry in its justification —
``# repro: allow[RULE] until=2026-12-31 reason`` — and once that date
has passed the waiver *still suppresses* (so one stale date never
avalanches into every underlying finding at once) but becomes a WAI003
finding of its own.  Expiry is only evaluated when the caller supplies
``today``: the CLI passes the wall clock, library callers (and the sim)
pass nothing and stay clock-free.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .findings import Finding, is_known_rule, make_finding

__all__ = ["Waiver", "WaiverSet", "parse_waivers"]

_WAIVER_RE = re.compile(
    r"#\s*repro:\s*allow(?P<scope>-file)?\s*"
    r"\[(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]"
    r"[ \t]*(?P<why>.*)$"
)

#: ``until=YYYY-MM-DD`` anywhere in the justification text.
_UNTIL_RE = re.compile(r"\buntil=(?P<date>\S+)")

#: The only accepted expiry-date shape (lexicographic compare works).
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}$")


@dataclass
class Waiver:
    """One parsed waiver comment."""

    path: str
    line: int               # line the waiver comment sits on (1-based)
    codes: Tuple[str, ...]
    justification: str
    file_scope: bool = False
    covers_line: int = 0    # line whose findings it suppresses (0 = whole file)
    expires: str = ""       # ISO date from ``until=``, "" when undated
    used: bool = field(default=False, compare=False)


def parse_waivers(path: str, lines: Sequence[str]) -> List[Waiver]:
    """Extract waivers from *comment tokens only* — a waiver example in a
    docstring (like the ones in this module) must not register."""
    waivers: List[Waiver] = []
    source = "\n".join(lines) + "\n"
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return waivers
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _WAIVER_RE.search(tok.string)
        if match is None:
            continue
        lineno = tok.start[0]
        codes = tuple(c.strip() for c in match.group("codes").split(","))
        file_scope = match.group("scope") is not None
        before = lines[lineno - 1][: tok.start[1]].strip()
        covers = 0 if file_scope else (lineno if before else lineno + 1)
        why = match.group("why").strip()
        until = _UNTIL_RE.search(why)
        waivers.append(
            Waiver(
                path=path,
                line=lineno,
                codes=codes,
                justification=why,
                file_scope=file_scope,
                covers_line=covers,
                expires=until.group("date") if until else "",
            )
        )
    return waivers


class WaiverSet:
    """Waivers of one file, with use tracking for WAI002."""

    def __init__(self, path: str, lines: Sequence[str]):
        self.path = path
        self.waivers = parse_waivers(path, lines)
        self._by_line: Dict[int, List[Waiver]] = {}
        self._file_scope: List[Waiver] = []
        for waiver in self.waivers:
            if waiver.file_scope:
                self._file_scope.append(waiver)
            else:
                self._by_line.setdefault(waiver.covers_line, []).append(waiver)

    def suppresses(self, finding: Finding) -> bool:
        for waiver in self._by_line.get(finding.line, []):
            if finding.code in waiver.codes:
                waiver.used = True
                return True
        for waiver in self._file_scope:
            if finding.code in waiver.codes:
                waiver.used = True
                return True
        return False

    def covers(self, line: int, codes) -> bool:
        """Non-marking query: is any of ``codes`` waived on ``line``?

        Used by interprocedural summaries (RES002) that must consult
        waivers without claiming them as *used* — a summary probe is not
        a suppressed finding, and must not mask WAI002.
        """
        for waiver in self._by_line.get(line, []) + self._file_scope:
            if any(code in waiver.codes for code in codes):
                return True
        return False

    def hygiene_findings(
        self, today: str = "", idle_rules: FrozenSet[str] = frozenset()
    ) -> List[Finding]:
        """WAI001 (no justification), WAI002 (unused), unknown codes and —
        only when the caller supplies ``today`` (ISO date) — WAI003 for
        expired or unparseable ``until=`` dates.  A waiver naming only
        ``idle_rules`` (rules this run did not check) is never unused."""
        out: List[Finding] = []
        for waiver in self.waivers:
            unknown = [c for c in waiver.codes if not is_known_rule(c)]
            if unknown:
                out.append(
                    make_finding(
                        self.path,
                        waiver.line,
                        "WAI002",
                        f"waiver names unknown rule(s) {', '.join(unknown)}",
                    )
                )
                continue
            if not _UNTIL_RE.sub("", waiver.justification).strip():
                out.append(
                    make_finding(
                        self.path,
                        waiver.line,
                        "WAI001",
                        f"waiver for {', '.join(waiver.codes)} has no justification",
                    )
                )
            if not waiver.used and not set(waiver.codes) <= idle_rules:
                out.append(
                    make_finding(
                        self.path,
                        waiver.line,
                        "WAI002",
                        f"waiver for {', '.join(waiver.codes)} suppressed no finding",
                    )
                )
            if today and waiver.expires:
                if not _DATE_RE.fullmatch(waiver.expires):
                    out.append(
                        make_finding(
                            self.path,
                            waiver.line,
                            "WAI003",
                            f"waiver until={waiver.expires!r} is not a "
                            "YYYY-MM-DD date",
                        )
                    )
                elif waiver.expires < today:
                    out.append(
                        make_finding(
                            self.path,
                            waiver.line,
                            "WAI003",
                            f"waiver for {', '.join(waiver.codes)} expired on "
                            f"{waiver.expires}",
                        )
                    )
        return out
