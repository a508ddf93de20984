"""Finding records and the rule catalogue for ``repro.analysis``.

Every rule has a stable code (grep-able, waivable), a one-line summary
and a *fix-it* hint that tells the author what the repo-idiomatic repair
looks like.  The catalogue is the single source of truth: the CLI help,
DESIGN.md's rule table and the waiver validator all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["Finding", "RuleInfo", "RULE_CATALOG", "is_known_rule"]


@dataclass(frozen=True)
class RuleInfo:
    """Static description of one analyzer rule."""

    code: str
    summary: str
    fixit: str


#: code -> rule description.  Codes are grouped by invariant family:
#: DET* determinism, RES* resource pairing, FLT*/TEL* registry hygiene,
#: SIM* simulation purity, DOC* generated-doc drift, WAI* waiver hygiene,
#: EVT*/DLK*/STM* whole-program concurrency (the ``flow`` pass), DED*
#: code with no caller.
RULE_CATALOG: Dict[str, RuleInfo] = {
    info.code: info
    for info in (
        RuleInfo(
            "DET001",
            "wall-clock or ambient entropy in sim-reachable code",
            "route time through Environment.now / repro.sim.clock and "
            "randomness through a seeded random.Random substream",
        ),
        RuleInfo(
            "DET002",
            "iteration over a set/frozenset in a module that schedules events",
            "iterate sorted(...) or an ordered container so event order "
            "cannot depend on hash seeding",
        ),
        RuleInfo(
            "SIM001",
            "blocking host call inside a simulation generator",
            "model latency with env.timeout(...) instead of blocking the "
            "host process",
        ),
        RuleInfo(
            "RES001",
            "credit acquire() without a release() guaranteed on all paths",
            "pair acquire with try/finally release (or waive split-phase "
            "destination-queue crediting with a justification)",
        ),
        RuleInfo(
            "FLT001",
            "fault-site string not present in the FAULT_SITES registry",
            "use a site constant from repro.faults.plan, or register the "
            "new site in FAULT_SITE_DOCS",
        ),
        RuleInfo(
            "TEL001",
            "telemetry metric name violates the component.metric convention",
            "use a lowercase dot-separated 'domain.metric' path (see "
            "DESIGN.md 'Metric naming')",
        ),
        RuleInfo(
            "DOC001",
            "generated FAULT_SITES table in DESIGN.md drifted from the registry",
            "run `python -m repro.analysis --write-fault-table DESIGN.md`",
        ),
        RuleInfo(
            "RES002",
            "helper call acquires credit(s) with no release guaranteed in "
            "the caller (interprocedural RES001)",
            "wrap the helper call in try/finally releasing the credit, or "
            "waive the call site naming the releasing counterpart",
        ),
        RuleInfo(
            "EVT001",
            "event awaited but no reachable succeed()/fail() producer "
            "anywhere in the project (lost wakeup)",
            "add the producer, or let the event escape to the code that "
            "triggers it (pass/store/return it)",
        ),
        RuleInfo(
            "EVT002",
            "succeed() reachable after defuse() marked the event's failure "
            "handled out-of-band",
            "pick one outcome: defuse()+fail(exc) is the sanctioned "
            "chain; succeeding a defused event contradicts the handoff",
        ),
        RuleInfo(
            "DLK001",
            "static wait-for cycle between generator processes (each awaits "
            "an event only the other can set)",
            "break the cycle: add an independent producer/timeout for one "
            "of the events, or merge the processes",
        ),
        RuleInfo(
            "STM001",
            "QP method-call sequence violates the declared modify_qp "
            "transition ladder (QP_PROTOCOL in repro/net/qp.py)",
            "follow RESET→INIT→RTR→RTS (connect() walks it); reset()/"
            "to_error() are legal from any state",
        ),
        RuleInfo(
            "DED001",
            "public def in src/ that nothing in the analyzed or reference "
            "trees references",
            "delete it, or waive a deliberate API surface: "
            "`# repro: allow[DED001] why it stays`",
        ),
        RuleInfo(
            "WAI001",
            "waiver without a one-line justification",
            "append the reason after the bracket: "
            "`# repro: allow[RULE] why this is safe`",
        ),
        RuleInfo(
            "WAI002",
            "waiver that suppressed nothing (stale or misplaced)",
            "delete the waiver, or move it onto the offending line",
        ),
        RuleInfo(
            "WAI003",
            "waiver expired (its until=YYYY-MM-DD date has passed) or "
            "carries an unparseable until= date",
            "fix the underlying finding, or renew the date with a fresh "
            "justification: `# repro: allow[RULE] until=YYYY-MM-DD why`",
        ),
    )
}


def is_known_rule(code: str) -> bool:
    return code in RULE_CATALOG


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, printable as ``file:line CODE message``."""

    path: str
    line: int
    code: str
    message: str
    fixit: str = field(default="", compare=False)

    def render(self) -> str:
        text = f"{self.path}:{self.line} {self.code} {self.message}"
        if self.fixit:
            text += f"\n    fix: {self.fixit}"
        return text


def make_finding(path: str, line: int, code: str, message: str) -> Finding:
    info = RULE_CATALOG[code]
    return Finding(path=path, line=line, code=code, message=message, fixit=info.fixit)
