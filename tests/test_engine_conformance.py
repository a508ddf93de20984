"""Engine conformance & property suite: the contract for DES-core rewrites.

The event engine is the hottest loop in the repository, and every speedup
to it (tuple heap entries, relay free-lists, one dispatch body) is
only safe if the *exact* semantics are pinned down first.  This suite is
that pin:

* A deterministic scenario generator builds random process trees —
  timeouts, interrupts, AllOf/AnyOf compositions, succeed/fail races on
  shared events — from a single seeded ``random.Random``.  Because the
  RNG is drawn *inside* the processes as they resume, the full dispatch
  interleaving (not just final results) feeds back into the scenario:
  any reordering of simultaneous events produces a visibly different
  trace.
* Every dispatch is recorded as a ``(time, priority, seq, kind)`` tuple
  taken from the ``(time, prio, seq, event)`` heap entry as the engine
  pops it, so the same recording works under every dispatch driver
  (a ``step()`` loop, ``run_batch`` drains and slices, ``run(until=t)``
  increments) and each must reproduce the golden trace.
* ``tests/fixtures/engine_golden_traces.json`` stores, per seed, the
  sha256 digest of ``repr((trace, log))`` plus summary fields.  The
  fixtures were recorded against the pre-refactor engine; a digest
  mismatch means the rewrite changed observable semantics, not just
  speed.  Regenerate (only when a semantic change is *intended* and
  reviewed) with::

      PYTHONPATH=src python tests/test_engine_conformance.py --regenerate

* Hypothesis property tests check double-run determinism, time
  monotonicity and seq uniqueness over fresh random seeds, and one test
  repeats the double-run digest check with the SimSanitizer active.
"""

import contextlib
import hashlib
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

#: Example budgets scale with the profile: the CI ``engine-conformance``
#: job runs ``HYPOTHESIS_PROFILE=long`` for a much deeper derandomized
#: sweep of the property tests (explicit ``@settings`` would otherwise
#: override the profile's ``max_examples``).
_LONG = os.environ.get("HYPOTHESIS_PROFILE") == "long"
MAX_EXAMPLES = 500 if _LONG else 60
MAX_EXAMPLES_SANITIZED = 150 if _LONG else 25

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis import sanitizer as sanitizer_mod
from repro.sim import engine as engine_mod
from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "engine_golden_traces.json"
)

#: Seeds recorded in the golden fixture file.  Chosen arbitrarily; the
#: spread matters more than the values (each seed exercises a different
#: mix of interrupts, races and condition shapes).
GOLDEN_SEEDS = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 1009, 4242, 90210]


# ------------------------------------------------------------- scenario


def _build_scenario(env, rng, log):
    """Spawn a random process tree over pure engine primitives.

    Guaranteed to terminate: every wait is on a timeout, a process, or a
    shared gate event that exactly two racers are certain to trigger.
    """

    gates = [Event(env) for _ in range(3)]

    def racer(idx, delay, fail_roll):
        yield env.timeout(delay)
        gate = gates[idx]
        if not gate.triggered:
            if fail_roll < 0.3:
                gate.fail(RuntimeError(f"race-{idx}"))
            else:
                gate.succeed(("win", idx))

    def gate_waiter(idx):
        try:
            value = yield gates[idx]
            log.append(("gate", env.now, idx, list(value)))
        except RuntimeError as exc:
            log.append(("gate_fail", env.now, idx, str(exc)))

    def sleeper(wid):
        try:
            yield env.timeout(rng.randint(5, 40))
            return ("slept", wid)
        except Interrupt as intr:
            log.append(("intr", env.now, wid, str(intr.cause)))
            yield env.timeout(rng.randint(0, 5))
            return ("resumed", wid)

    def attacker(target, delay, cause):
        yield env.timeout(delay)
        target.interrupt(cause)

    def worker(depth, wid):
        for step_no in range(rng.randint(1, 3)):
            choice = rng.randint(0, 4)
            if choice == 0:
                value = yield env.timeout(rng.randint(0, 30), value=(wid, step_no))
                log.append(("t", env.now, list(value)))
            elif choice == 1 and depth < 2:
                child = env.process(
                    worker(depth + 1, wid * 7 + step_no + 1), name=f"w{depth + 1}"
                )
                result = yield child
                log.append(("join", env.now, list(result)))
            elif choice == 2:
                waits = [
                    env.timeout(rng.randint(0, 20), value=k)
                    for k in range(rng.randint(1, 3))
                ]
                cond = (
                    AllOf(env, waits) if rng.random() < 0.5 else AnyOf(env, waits)
                )
                results = yield cond
                log.append(("cond", env.now, sorted(results.items())))
            elif choice == 3:
                victim = env.process(sleeper(wid), name="victim")
                if rng.random() < 0.7:
                    env.process(
                        attacker(victim, rng.randint(0, 25), f"a{wid}"),
                        name="attacker",
                    )
                result = yield victim
                log.append(("victim", env.now, list(result)))
            else:
                yield env.timeout(rng.randint(0, 10))
        return ("done", wid, env.now)

    for idx in range(len(gates)):
        env.process(gate_waiter(idx), name=f"gw{idx}")
        for _ in range(2):
            env.process(
                racer(idx, rng.randint(0, 40), rng.random()), name=f"racer{idx}"
            )
    for root in range(rng.randint(2, 4)):
        env.process(worker(0, root), name=f"root{root}")


# ------------------------------------------------------------- recorder


def _heap_key(entry):
    """(time, prio, seq, kind) of one ``(time, prio, seq, event)`` entry."""
    when, prio, seq, event = entry
    return float(when), int(prio), int(seq), type(event).__name__


@contextlib.contextmanager
def _recording_pops(trace):
    """Append the key of every heap entry the engine pops to ``trace``.

    The dispatch body pops through the module-level ``heappop``, so
    wrapping it sees each dispatch whichever driver runs the loop."""
    original = engine_mod.heappop

    def heappop(queue):
        entry = original(queue)
        trace.append(_heap_key(entry))
        return entry

    engine_mod.heappop = heappop
    try:
        yield
    finally:
        engine_mod.heappop = original


#: Time increment of the ``run(until=t)`` driver, in ns: below the
#: spacing of most scenario events, so many slices are empty or hold one.
RUN_UNTIL_INCREMENT_NS = 3.0


def _drive_step(env):
    while env._queue:
        env.step()


def _drive_run_until(env):
    while env._queue:
        env.run(until=env.now + RUN_UNTIL_INCREMENT_NS)


def _batch_driver(k):
    def drive(env):
        while env.run_batch(k):
            pass

    return drive


DRIVERS = {
    "step": _drive_step,
    "run_batch": lambda env: env.run_batch(),
    "run_batch_1": _batch_driver(1),
    "run_batch_7": _batch_driver(7),
    "run_batch_1000": _batch_driver(1000),
    "run_until": _drive_run_until,
}


def record_trace(seed, drive=_drive_step):
    """Run the seeded scenario to exhaustion under ``drive``, recording
    every dispatch."""
    env = Environment()
    rng = random.Random(seed)
    log = []
    _build_scenario(env, rng, log)
    trace = []
    with _recording_pops(trace):
        drive(env)
    return trace, log, env


def trace_digest(trace, log):
    return hashlib.sha256(repr((trace, log)).encode()).hexdigest()


def _load_fixtures():
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------- golden fixtures


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_golden_trace_matches_pre_refactor_recording(seed, driver):
    fixtures = _load_fixtures()
    golden = fixtures["seeds"][str(seed)]
    trace, log, env = record_trace(seed, DRIVERS[driver])
    assert len(trace) == golden["events"], (
        f"seed {seed}: engine dispatched {len(trace)} events, golden recorded "
        f"{golden['events']}"
    )
    assert env.events_processed == golden["events"]
    # The last dispatch sets the final time; run(until=t) then advances
    # the clock on to its horizon, which must not have been reached early.
    assert trace[-1][0] == golden["final_time"]
    if driver == "run_until":
        assert golden["final_time"] <= env.now
        assert env.now < golden["final_time"] + RUN_UNTIL_INCREMENT_NS
    else:
        assert env.now == golden["final_time"]
    head = [list(row) for row in trace[: len(golden["head"])]]
    assert head == golden["head"], f"seed {seed}: first dispatches diverged"
    assert trace_digest(trace, log) == golden["digest"], (
        f"seed {seed}: (time, seq, kind) trace or process-visible results "
        "diverged from the pre-refactor engine"
    )


def test_fixture_file_covers_all_golden_seeds():
    fixtures = _load_fixtures()
    assert sorted(fixtures["seeds"]) == sorted(str(s) for s in GOLDEN_SEEDS)
    for record in fixtures["seeds"].values():
        assert record["events"] > 0
        assert len(record["digest"]) == 64


# ------------------------------------------------------ property checks


@settings(max_examples=MAX_EXAMPLES)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_double_run_is_trace_identical(seed):
    trace_a, log_a, _ = record_trace(seed)
    trace_b, log_b, _ = record_trace(seed)
    assert trace_a == trace_b
    assert log_a == log_b
    assert trace_digest(trace_a, log_a) == trace_digest(trace_b, log_b)


@settings(max_examples=MAX_EXAMPLES)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_dispatch_times_monotone_and_seqs_unique(seed):
    trace, _log, env = record_trace(seed)
    times = [row[0] for row in trace]
    assert times == sorted(times), "dispatch times must be non-decreasing"
    seqs = [row[2] for row in trace]
    assert len(seqs) == len(set(seqs)), "every heap entry owns a unique seq"
    # Note: among *simultaneous* events there is no global (priority,
    # seq) dispatch order — a callback at time T may schedule fresh
    # URGENT work at T that rightly overtakes older NORMAL entries.
    # The golden traces pin the exact interleaving instead.
    assert env.events_processed == len(trace)


@settings(max_examples=MAX_EXAMPLES_SANITIZED)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_double_run_digest_equal_under_sanitizer(seed):
    """The rewritten fast paths must stay observable-identical *and*
    violation-free with the SimSanitizer attached (REPRO_SANITIZE=1
    equivalent: ``activate()`` installs the process-wide instance every
    new Environment picks up)."""
    previous = sanitizer_mod._active
    previous_var = os.environ.get("REPRO_SANITIZE")
    sanitizer = sanitizer_mod.activate()
    try:
        os.environ["REPRO_SANITIZE"] = previous_var or "1"
        trace_a, log_a, _ = record_trace(seed)
        trace_b, log_b, _ = record_trace(seed)
        assert trace_digest(trace_a, log_a) == trace_digest(trace_b, log_b)
        assert not sanitizer.violations, sanitizer.report()
    finally:
        # Restore the env var too: leaking it silently turned the rest
        # of a plain suite run into a sanitized one.
        if previous_var is None:
            os.environ.pop("REPRO_SANITIZE", None)
        sanitizer_mod.activate(previous) if previous is not None else (
            sanitizer_mod.deactivate()
        )


def test_sanitized_run_observes_every_step():
    """The sanitizer hooks must sit on the fast path too (a rewrite that
    skips them under ``run()`` would silently disable REPRO_SANITIZE)."""
    previous = sanitizer_mod._active
    previous_var = os.environ.get("REPRO_SANITIZE")
    sanitizer = sanitizer_mod.activate()
    try:
        # The env-var is the switch Environment construction reads; the
        # activate() above pins which instance it picks up.
        os.environ["REPRO_SANITIZE"] = previous_var or "1"
        env = Environment()
        assert env.sanitizer is sanitizer

        def proc():
            yield env.timeout(5)
            yield env.timeout(7)

        env.process(proc())
        env.run()
        assert not sanitizer.violations
    finally:
        if previous_var is None:
            os.environ.pop("REPRO_SANITIZE", None)
        sanitizer_mod.activate(previous) if previous is not None else (
            sanitizer_mod.deactivate()
        )


# ------------------------------------------------------- regeneration


def regenerate(path=FIXTURE_PATH):  # pragma: no cover - maintenance entry
    records = {}
    for seed in GOLDEN_SEEDS:
        trace, log, env = record_trace(seed)
        records[str(seed)] = {
            "digest": trace_digest(trace, log),
            "events": len(trace),
            "final_time": env.now,
            "head": [list(row) for row in trace[:4]],
        }
    payload = {
        "comment": (
            "Golden (time, priority, seq, kind) dispatch traces recorded "
            "against the pre-refactor engine; see tests/test_engine_conformance.py"
        ),
        "seeds": records,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} golden traces to {path}")


if __name__ == "__main__":  # pragma: no cover - maintenance entry
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
