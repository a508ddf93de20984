"""Tests for the whole-program flow rules (repro.analysis.flow et al).

Same fixture discipline as ``test_analysis.py``: every rule family gets
a fires / must-not-fire pair written into a ``tmp_path`` tree.  Event
rules key off sim scope (the fixture imports ``repro.sim``), STM001 off
the real ``QP_PROTOCOL`` declaration in ``src/repro/net/qp.py`` so the
tests pin the analyzer to the table the transition methods implement.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis import run_paths
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.rules_protocol import load_qp_protocol
from repro.analysis.sarif import render_sarif

REPO = Path(__file__).resolve().parents[1]
PLAN = REPO / "src" / "repro" / "faults" / "plan.py"
QP = REPO / "src" / "repro" / "net" / "qp.py"

SIM_IMPORT = "from repro.sim import Environment\n"


def analyze(tmp_path, source, filename="src/mod.py", sim=False, today=""):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    text = textwrap.dedent(source)
    if sim:
        text = SIM_IMPORT + text
    path.write_text(text)
    return run_paths(
        [tmp_path],
        design_doc=tmp_path / "NO_DESIGN.md",
        fault_registry=PLAN,
        qp_protocol=QP,
        today=today,
    )


def codes(result):
    return [f.code for f in result.findings]


# ------------------------------------------------------------------- EVT001


def test_evt001_fires_on_awaited_event_with_no_producer(tmp_path):
    result = analyze(
        tmp_path,
        """
        class Engine:
            def __init__(self, env):
                self.env = env
                self.done = env.event()

            def waiter(self):
                value = yield self.done
                return value
        """,
        sim=True,
    )
    assert codes(result) == ["EVT001"]
    assert ".done" in result.findings[0].message


def test_evt001_silent_when_any_producer_exists(tmp_path):
    result = analyze(
        tmp_path,
        """
        class Engine:
            def __init__(self, env):
                self.env = env
                self.done = env.event()

            def waiter(self):
                yield self.done

            def finish(self):
                self.done.succeed(1)
        """,
        sim=True,
    )
    assert result.ok


def test_evt001_producer_found_across_modules(tmp_path):
    """The whole-program join: the producer lives in a different file."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "waiter.py").write_text(
        SIM_IMPORT
        + textwrap.dedent(
            """
            class Engine:
                def __init__(self, env):
                    self.env = env
                    self.done = env.event()

                def waiter(self):
                    yield self.done
            """
        )
    )
    (src / "producer.py").write_text(
        SIM_IMPORT
        + textwrap.dedent(
            """
            class Completer:
                def finish(self, engine):
                    engine.done.succeed()
            """
        )
    )
    result = run_paths(
        [tmp_path],
        design_doc=tmp_path / "NO_DESIGN.md",
        fault_registry=PLAN,
        qp_protocol=QP,
    )
    assert result.ok


def test_evt001_escape_assumes_a_producer(tmp_path):
    result = analyze(
        tmp_path,
        """
        class Engine:
            def __init__(self, env, fabric):
                self.env = env
                self.done = env.event()
                fabric.register(self.done)

            def waiter(self):
                yield self.done
        """,
        sim=True,
    )
    assert result.ok


def test_evt001_fires_on_orphaned_local_event(tmp_path):
    result = analyze(
        tmp_path,
        """
        def waiter(env):
            ev = env.event()
            yield ev
        """,
        sim=True,
    )
    assert codes(result) == ["EVT001"]
    assert "`ev`" in result.findings[0].message


def test_evt001_local_event_passed_out_is_fine(tmp_path):
    result = analyze(
        tmp_path,
        """
        def waiter(env, queue):
            ev = env.event()
            queue.append(ev)
            yield ev
        """,
        sim=True,
    )
    assert result.ok


# ------------------------------------------------------------------- EVT002


def test_evt002_fires_on_succeed_after_defuse(tmp_path):
    result = analyze(
        tmp_path,
        """
        class Recovery:
            def abort(self):
                self.done.defuse()
                self.done.succeed(0)
        """,
        sim=True,
    )
    assert codes(result) == ["EVT002"]
    assert "defuse" in result.findings[0].message


def test_evt002_sanctioned_defuse_fail_chain_is_fine(tmp_path):
    result = analyze(
        tmp_path,
        """
        class Recovery:
            def abort(self):
                self.done.defuse().fail(RuntimeError("aborted"))
        """,
        sim=True,
    )
    assert result.ok


def test_evt002_sees_one_hop_through_helper(tmp_path):
    result = analyze(
        tmp_path,
        """
        class Recovery:
            def abort(self):
                self.done.defuse()
                self._complete()

            def _complete(self):
                self.done.succeed(0)
        """,
        sim=True,
    )
    assert codes(result) == ["EVT002"]
    assert "_complete" in result.findings[0].message


# ------------------------------------------------------------------- DLK001


def test_dlk001_fires_on_mutual_wait(tmp_path):
    result = analyze(
        tmp_path,
        """
        class Pair:
            def __init__(self, env):
                self.env = env
                self.a_done = env.event()
                self.b_done = env.event()

            def proc_a(self):
                yield self.b_done
                self.a_done.succeed()

            def proc_b(self):
                yield self.a_done
                self.b_done.succeed()
        """,
        sim=True,
    )
    assert codes(result) == ["DLK001"]
    message = result.findings[0].message
    assert "proc_a" in message and "proc_b" in message


def test_dlk001_second_producer_breaks_the_cycle(tmp_path):
    result = analyze(
        tmp_path,
        """
        class Pair:
            def __init__(self, env):
                self.env = env
                self.a_done = env.event()
                self.b_done = env.event()

            def proc_a(self):
                yield self.b_done
                self.a_done.succeed()

            def proc_b(self):
                yield self.a_done
                self.b_done.succeed()

            def watchdog(self):
                yield self.env.timeout(100)
                self.b_done.succeed()
        """,
        sim=True,
    )
    assert result.ok


# ------------------------------------------------------------------- STM001


def test_stm001_fires_on_skipped_ladder_step(tmp_path):
    result = analyze(
        tmp_path,
        """
        from repro.net.qp import QueuePair

        def bring_up(endpoint):
            qp = QueuePair(local=endpoint)
            qp.to_rts()
            return qp
        """,
    )
    assert codes(result) == ["STM001"]
    assert "'init'" in result.findings[0].message


def test_stm001_fires_on_double_connect(tmp_path):
    result = analyze(
        tmp_path,
        """
        from repro.net.qp import QueuePair

        def bring_up(endpoint, remote):
            qp = QueuePair(local=endpoint)
            qp.connect(remote)
            qp.connect(remote)
            return qp
        """,
    )
    assert codes(result) == ["STM001"]


def test_stm001_accepts_the_declared_ladder(tmp_path):
    result = analyze(
        tmp_path,
        """
        from repro.net.qp import QueuePair, QpState

        def bring_up(endpoint, remote):
            qp = QueuePair(local=endpoint, state=QpState.RESET)
            qp.to_init()
            qp.to_rtr(remote)
            qp.to_rts()
            qp.to_error("fault")
            qp.reset()
            return qp
        """,
    )
    assert result.ok


def test_stm001_skips_pytest_raises_probes(tmp_path):
    result = analyze(
        tmp_path,
        """
        import pytest
        from repro.net.qp import QueuePair, QpTransitionError

        def test_illegal_transition(endpoint):
            qp = QueuePair(local=endpoint)
            with pytest.raises(QpTransitionError):
                qp.to_rts()
        """,
        filename="src/test_probe.py",
    )
    assert result.ok


def test_stm001_branches_merge_to_unknown(tmp_path):
    result = analyze(
        tmp_path,
        """
        from repro.net.qp import QueuePair

        def maybe_connect(endpoint, remote, eager):
            qp = QueuePair(local=endpoint)
            if eager:
                qp.connect(remote)
            qp.to_rtr(remote)
            return qp
        """,
    )
    # init on one arm, rts on the other -> unknown: no report either way.
    assert result.ok


def test_qp_protocol_loader_matches_declaration():
    protocol = load_qp_protocol(QP)
    assert protocol["to_rtr"] == (("init",), "rtr")
    assert protocol["reset"] == (("*",), "reset")


# ------------------------------------------------------------------- RES002


def test_res002_fires_through_helper_boundary(tmp_path):
    result = analyze(
        tmp_path,
        """
        def borrow(crediter):
            yield from crediter.acquire()

        def mover(crediter, packet):
            yield from borrow(crediter)
            packet.send()
        """,
        filename="benchmarks/mover.py",
    )
    # RES001 names the helper's bare acquire; RES002 points at the call
    # site actually holding the unreleased credit.
    assert sorted(codes(result)) == ["RES001", "RES002"]
    res002 = next(f for f in result.findings if f.code == "RES002")
    assert "borrow" in res002.message and "mover" in res002.message


def test_res002_silent_when_caller_releases(tmp_path):
    result = analyze(
        tmp_path,
        """
        def borrow(crediter):
            yield from crediter.acquire()  # repro: allow[RES001] pair below: mover's finally releases

        def mover(crediter, packet):
            yield from borrow(crediter)
            try:
                packet.send()
            finally:
                crediter.release()
        """,
        filename="benchmarks/mover.py",
    )
    assert result.ok


def test_res002_waived_split_phase_does_not_propagate(tmp_path):
    result = analyze(
        tmp_path,
        """
        def deposit(crediter):
            yield from crediter.acquire()  # repro: allow[RES001] split-phase: consumer releases on drain

        def feeder(crediter, flits):
            yield from deposit(crediter)
            flits.append(1)
        """,
        filename="benchmarks/feeder.py",
    )
    assert result.ok


# ------------------------------------------------------------------- DED001


def dead_code(tmp_path, source, refs=None):
    """Analyze ``src/mod.py`` with DED001 on; ``refs`` maps file names
    under ``tmp_path/refs`` to reference-only sources."""
    (tmp_path / "src").mkdir(parents=True, exist_ok=True)
    (tmp_path / "src" / "mod.py").write_text(textwrap.dedent(source))
    ref_dir = tmp_path / "refs"
    ref_dir.mkdir(exist_ok=True)
    for name, text in (refs or {}).items():
        (ref_dir / name).write_text(textwrap.dedent(text))
    return run_paths(
        [tmp_path / "src"],
        design_doc=tmp_path / "NO_DESIGN.md",
        fault_registry=PLAN,
        qp_protocol=QP,
        reference_roots=[ref_dir],
    )


def test_ded001_fires_on_unreferenced_public_defs(tmp_path):
    result = dead_code(
        tmp_path,
        """
        __all__ = ["exported", "Box"]

        def exported():
            return 1

        class Box:
            def used(self):
                return self.helper()

            def helper(self):
                return 2

            def orphan(self):
                return 3
        """,
        refs={"user.py": "from mod import Box\nBox().used()\n"},
    )
    # Listing a name in __all__ is not a use; a call through self is.
    assert codes(result) == ["DED001", "DED001"]
    messages = sorted(f.message for f in result.findings)
    assert "Box.orphan" in messages[0] and "exported" in messages[1]


def test_ded001_silent_on_references_privates_nested_and_waivers(tmp_path):
    result = dead_code(
        tmp_path,
        """
        def by_string():
            return 1

        def by_reference_tree():
            return 2

        def _private():
            def nested():
                return 3
            return nested

        # repro: allow[DED001] kept as public API on purpose
        def waived():
            return 4

        TABLE = [("by_string", 1)]
        """,
        refs={"bench.py": "import mod\nmod.by_reference_tree()\n"},
    )
    assert codes(result) == []
    assert result.waivers_honoured == 1


def test_ded001_is_off_without_reference_roots(tmp_path):
    """Without the consuming trees "unreferenced" is a guess: the rule
    stays off, and a DED001 waiver is not reported as unused."""
    result = analyze(
        tmp_path,
        """
        # repro: allow[DED001] kept as public API on purpose
        def waived():
            return 1

        def orphan():
            return 2
        """,
    )
    assert codes(result) == []


# ------------------------------------------------------------------- WAI003


def test_wai003_fires_on_expired_waiver(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # repro: allow[DET001] until=2020-01-01 legacy probe
        """,
        today="2026-08-07",
    )
    # The expired waiver still suppresses DET001 (no avalanche) but is
    # itself reported.
    assert codes(result) == ["WAI003"]
    assert "expired" in result.findings[0].message


def test_wai003_future_dates_and_clock_free_runs_are_fine(tmp_path):
    source = """
        import time

        def stamp():
            return time.time()  # repro: allow[DET001] until=2999-12-31 host tooling
        """
    assert analyze(tmp_path, source, today="2026-08-07").ok
    # No today supplied (library / sim callers): expiry never evaluated.
    assert analyze(tmp_path, source).ok


def test_wai003_flags_unparseable_until_date(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # repro: allow[DET001] until=someday legacy probe
        """,
        today="2026-08-07",
    )
    assert codes(result) == ["WAI003"]
    assert "YYYY-MM-DD" in result.findings[0].message


def test_cli_passes_the_clock_for_wai003(tmp_path, capsys):
    bad = tmp_path / "src"
    bad.mkdir()
    (bad / "old.py").write_text(
        "import time\n"
        "t = time.time()  # repro: allow[DET001] until=2020-01-01 legacy\n"
    )
    assert analysis_main([str(tmp_path)]) == 1
    assert "WAI003" in capsys.readouterr().out


# ----------------------------------------------------------------- SARIF


def test_sarif_rendering_carries_findings(tmp_path):
    result = analyze(
        tmp_path,
        """
        def waiter(env):
            ev = env.event()
            yield ev
        """,
        sim=True,
    )
    document = json.loads(render_sarif(result))
    run = document["runs"][0]
    assert any(r["id"] == "EVT001" for r in run["tool"]["driver"]["rules"])
    [finding] = run["results"]
    assert finding["ruleId"] == "EVT001"
    location = finding["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("mod.py")
    assert location["region"]["startLine"] > 0


def test_cli_sarif_output_is_deterministic(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.py").write_text("import time\nt = time.time()\n")
    out_a, out_b = tmp_path / "a.sarif", tmp_path / "b.sarif"
    assert analysis_main([str(tmp_path), "--format", "sarif", "--output", str(out_a)]) == 1
    assert analysis_main([str(tmp_path), "--format", "sarif", "--output", str(out_b)]) == 1
    capsys.readouterr()
    assert out_a.read_text() == out_b.read_text()
    assert json.loads(out_a.read_text())["runs"][0]["results"]
