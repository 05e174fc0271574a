"""Resilient checking sessions: containment, chaos, watched work, governor.

Watched work (watchdog, exit classification, retry backoff) runs on
the fleet's process workers; the scheduler's own tests are in
``tests/test_fleet.py``.

The containment tests drive *real* checked runs (the fuzz op
interpreters with chaos injectors installed through the ``setup``
hook), so the degradation ladder is exercised exactly where production
wrappers call it — not against mocks.
"""

import json
import os
import signal

import pytest

from repro.core.runtime import (
    LEVEL_FULL,
    LEVEL_OFF,
    LEVEL_QUARANTINE,
    LEVEL_SAMPLING,
    CheckerHealth,
    ContainmentPolicy,
)
from repro.core.clock import FakeClock
from repro.fleet import FleetScheduler, Job, fuzz_jobs, replay_jobs
from repro.fleet.scheduler import CLEAN, CRASH, HANG, backoff_delay
from repro.fsm.events import Direction
from repro.fsm.machine import (
    EntitySelector,
    FunctionSelector,
    LanguageTransition,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.fsm.registry import SpecRegistry
from repro.fuzz.engine import task_rng
from repro.fuzz.faults import fault_by_name
from repro.fuzz.gen import generate_sequence
from repro.fuzz.ops import run_jni_ops, run_pyc_ops
from repro.jinn.synthesizer import Synthesizer
from repro.jni.functions import FunctionMeta
from repro.resilience import (
    GovernorPolicy,
    InternalFaultInjector,
    OverheadGovernor,
    chaos_gate,
    chaos_run,
    governed_run,
    injector_plan,
)


def _pyc_sequence(seed=5):
    return generate_sequence(task_rng(seed, "test-resilience", "pyc"), "pyc")


def _faulty_pyc_sequence(seed=5, fault="over_decref"):
    sequence = _pyc_sequence(seed)
    return fault_by_name(fault).inject(
        task_rng(seed, "test-resilience-fault"), sequence
    )


# ----------------------------------------------------------------------
# The degradation ladder
# ----------------------------------------------------------------------


class TestDegradationLadder:
    def test_health_walks_full_ladder(self):
        policy = ContainmentPolicy(
            quarantine_after=2, sampling_after=3, off_after=5
        )
        health = CheckerHealth(policy)
        err = RuntimeError("boom")
        assert health.record("m1", err, "f", "pre") == []
        assert health.level == LEVEL_FULL
        assert health.record("m1", err, "f", "pre") == ["quarantine"]
        assert health.level == LEVEL_QUARANTINE
        assert health.quarantined == ["m1"]
        assert health.record("m2", err, "g", "post") == ["sampling"]
        assert health.level == LEVEL_SAMPLING
        health.record("m2", err, "g", "post")
        assert health.record("m3", err, "h", "pre") == ["off"]
        assert health.level == LEVEL_OFF

    def test_quarantined_machine_stops_firing(self):
        injector = InternalFaultInjector("owned_ref", RuntimeError, start=1)
        sequence = _pyc_sequence()
        outcome = run_pyc_ops(
            list(sequence.ops),
            setup=injector.install_on_agent,
            containment=ContainmentPolicy(quarantine_after=1),
        )
        assert outcome.outcome in ("completed", "violation")
        assert injector.fired >= 1
        health = outcome.health
        assert "owned_ref" in health["quarantine_order"]
        # After quarantine the runtime dispatches to the inert stand-in,
        # so the injector sees no further calls: the single recorded
        # fault is the one that triggered quarantine.
        assert health["machines"]["owned_ref"]["faults"] == 1
        assert injector.fired == 1

    def test_surviving_machines_still_detect_faults(self):
        # Quarantine borrowed_ref by chaos while the workload carries a
        # real over_decref fault: owned_ref must still catch it.
        injector = InternalFaultInjector("borrowed_ref", KeyError, start=1)
        sequence = _faulty_pyc_sequence(fault="over_decref")
        outcome = run_pyc_ops(
            list(sequence.ops),
            setup=injector.install_on_agent,
            containment=ContainmentPolicy(quarantine_after=1),
        )
        assert outcome.outcome in ("completed", "violation")
        machines = {v.machine for v in outcome.violations}
        assert "owned_ref" in machines
        if injector.fired:
            assert "borrowed_ref" in outcome.health["quarantine_order"]

    def test_containment_disabled_propagates(self):
        injector = InternalFaultInjector("owned_ref", ZeroDivisionError, start=1)
        sequence = _pyc_sequence()
        outcome = run_pyc_ops(
            list(sequence.ops),
            setup=injector.install_on_agent,
            containment=ContainmentPolicy(enabled=False),
        )
        # The internal error escapes the checker and aborts the host
        # run: exactly what containment exists to prevent.
        assert outcome.outcome not in ("completed", "violation")

    def test_termination_diagnostics_deterministic(self):
        def one_run():
            injector = InternalFaultInjector(
                "owned_ref", RuntimeError, start=1
            )
            sequence = _pyc_sequence()
            return run_pyc_ops(
                list(sequence.ops),
                setup=injector.install_on_agent,
                containment=ContainmentPolicy(quarantine_after=1),
            )

        first, second = one_run(), one_run()
        assert first.health == second.health
        assert json.dumps(first.health, sort_keys=True) == json.dumps(
            second.health, sort_keys=True
        )

    def test_jni_containment_too(self):
        injector = InternalFaultInjector("local_ref", TypeError, start=1)
        sequence = generate_sequence(
            task_rng(5, "test-resilience", "jni"), "jni"
        )
        outcome = run_jni_ops(
            list(sequence.ops),
            setup=injector.install_on_agent,
            containment=ContainmentPolicy(quarantine_after=1),
        )
        assert outcome.outcome in ("completed", "violation")
        if injector.fired:
            assert "local_ref" in outcome.health["quarantine_order"]

    def test_violation_is_never_contained(self):
        # A detected violation raised inside a check arm must propagate
        # as a violation, not be swallowed as an internal fault.
        sequence = _faulty_pyc_sequence(fault="over_decref")
        outcome = run_pyc_ops(
            list(sequence.ops),
            containment=ContainmentPolicy(quarantine_after=1),
        )
        assert outcome.reports
        assert outcome.health["total_faults"] == 0


# ----------------------------------------------------------------------
# Chaos
# ----------------------------------------------------------------------


class TestChaos:
    def test_chaos_run_contains_every_fault(self):
        report = chaos_run(3, substrate="pyc", rounds=1)
        gate = chaos_gate(report)
        assert gate == {
            "no_host_crashes": True,
            "all_faults_answered": True,
            "faults_landed": True,
        }
        assert report["machines_quarantined"] >= 1

    def test_chaos_run_deterministic(self):
        first = chaos_run(7, substrate="pyc", rounds=1)
        second = chaos_run(7, substrate="pyc", rounds=1)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_injector_plan_is_seeded(self):
        a = [
            (i.machine, i.error_type, i.start)
            for i in (injector_plan(9, m) for m in ("owned_ref", "gil_state"))
        ]
        b = [
            (i.machine, i.error_type, i.start)
            for i in (injector_plan(9, m) for m in ("owned_ref", "gil_state"))
        ]
        assert a == b


# ----------------------------------------------------------------------
# Watched work: fleet jobs under the process-mode watchdog
# ----------------------------------------------------------------------

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus")


def _die_job(tmp_path):
    """A job whose worker SIGKILLs itself on the first attempt."""
    return Job(
        kind="bench-trial",
        params={"substrate": "pyc", "trial": 0,
                "die_once": str(tmp_path / "die.marker")},
    )


def _hang_job(tmp_path):
    """A replay job that blocks until the watchdog kills its worker:
    opening a FIFO for reading waits for a writer that never comes."""
    fifo = str(tmp_path / "hang.trace")
    os.mkfifo(fifo)
    return replay_jobs([fifo])[0]


class TestSupervisor:
    """One job on one worker process under the watchdog, the way
    ``fuzz run --timeout`` and ``trace replay --timeout`` run theirs."""

    def test_clean_shard(self):
        job = fuzz_jobs(3, rounds=1, substrate="pyc")[0]
        assert job.params["campaign"] == "valid"
        report = FleetScheduler(
            [job], workers=1, timeout=120.0, retries=0
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == CLEAN
        assert outcome.attempts == 1
        assert outcome.payload["part"]["runs"] > 0

    def test_crash_shard_classified_by_signal(self, tmp_path):
        report = FleetScheduler(
            [_die_job(tmp_path)], workers=1, timeout=30.0, retries=0
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == CRASH
        assert outcome.detail == "worker 0 died (exitcode {})".format(
            -signal.SIGKILL
        )

    def test_hang_shard_killed_by_watchdog(self, tmp_path):
        # A retried hang is killed again: the classification is the
        # last attempt's.
        report = FleetScheduler(
            [_hang_job(tmp_path)], workers=1, timeout=0.5, retries=1,
            backoff_base=0.01, backoff_cap=0.05,
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == HANG
        assert "watchdog" in outcome.detail
        assert outcome.attempts == 2

    def test_retries_with_deterministic_backoff(self, tmp_path):
        # Replaying a missing file raises on every attempt.
        job = replay_jobs([str(tmp_path / "missing.trace")])[0]
        report = FleetScheduler(
            [job], workers=1, timeout=30.0, retries=2, backoff_base=0.01,
            backoff_cap=0.05, seed=42,
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == CRASH
        assert outcome.detail.startswith("FileNotFoundError:")
        assert outcome.attempts == 3
        expected = [
            backoff_delay(42, job.job_id, attempt, base=0.01, cap=0.05)
            for attempt in range(2)
        ]
        assert outcome.backoffs == expected

    def test_incident_report_merges_and_redacts_timing(self, tmp_path):
        report = FleetScheduler(
            [_die_job(tmp_path), _hang_job(tmp_path)], workers=1,
            timeout=0.5, retries=0,
        ).run()
        assert report.counts[CRASH] == 1
        assert report.counts[HANG] == 1
        assert not report.ok
        body = json.dumps(report.to_json())
        assert "seconds" not in body

    def test_backoff_sleeps_on_injected_clock(self):
        # Only inline mode sleeps between retries; process mode waits
        # for results and schedules retries without blocking.
        def always_crash(job):
            raise RuntimeError("injected")

        clock = FakeClock()
        report = FleetScheduler(
            [Job(kind="bench-trial", params={"trial": 0})], workers=1,
            retries=2, backoff_base=0.01, backoff_cap=0.05, seed=7,
            clock=clock, inline=True, executor=always_crash,
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == CRASH
        # Retry delays went through the injectable clock, not time.sleep.
        assert clock.slept == pytest.approx(sum(outcome.backoffs))
        assert clock.slept > 0


class TestSupervisorParallel:
    """Watched jobs on several worker processes report one outcome per
    job ID, in submission order, whichever finishes first."""

    def test_report_lists_shards_in_submission_order(self):
        paths = [
            os.path.join(CORPUS_DIR, name)
            for name in sorted(os.listdir(CORPUS_DIR))
            if name.endswith(".trace")
        ][:4]
        jobs = replay_jobs(paths)
        report = FleetScheduler(
            jobs, workers=2, timeout=60.0, retries=0
        ).run()
        assert [outcome.payload["path"] for outcome in report.outcomes] == (
            paths
        )
        assert report.ok

    def test_duplicate_shard_names_rejected(self):
        # Equal content means an equal job ID, even for separate objects.
        same = [
            Job(kind="bench-trial", params={"trial": 0}) for _ in range(2)
        ]
        with pytest.raises(ValueError):
            FleetScheduler(same, workers=2, timeout=60.0, retries=0)


# ----------------------------------------------------------------------
# The governor
# ----------------------------------------------------------------------


class _CostRuntime:
    """The runtime a synthetic governed entry binds to.

    ``now`` is the fake clock: the one machine check advances it by
    ``check_ns`` and the raw function by ``raw_ns``.
    """

    def __init__(self):
        self.now = 0
        self.check_ns = 1000
        self.raw_ns = 1
        self.checks = 0

    def clock(self):
        return self.now

    def check(self):
        self.checks += 1
        self.now += self.check_ns


class _CostSpec(StateMachineSpec):
    """One machine with one check before every FFI function."""

    name = "cost"
    _idle = State("Idle")

    def states(self):
        return [self._idle]

    def state_transitions(self):
        return [StateTransition(self._idle, self._idle)]

    def language_transitions_for(self, transition):
        return [
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED,
                FunctionSelector("any function", lambda m: m is not None),
                EntitySelector.NONE,
            )
        ]

    def emit(self, meta, direction):
        return ["rt.check()"]


def governed_entries(gov, names):
    """Real fused entries, metered by ``gov``, over a synthetic table.

    Returns ``(entries, rt)``; ``rt.now`` is the governor's clock.
    """
    rt = _CostRuntime()
    gov._clock = rt.clock  # before the build: entries pre-bind it

    def raw(env):
        rt.now += rt.raw_ns
        return "raw"

    table = {name: FunctionMeta(name, "test", (), "void") for name in names}
    build = Synthesizer(
        SpecRegistry([_CostSpec()]), function_table=table
    ).build_pipeline(govern=True)
    entries, _ = build(rt, {name: raw for name in names}, None, gov)
    return entries, rt


class TestGovernor:
    def _governed(self, names=("fn",), policy=None):
        gov = OverheadGovernor(policy or GovernorPolicy(
            budget=0.3, window=16, sample_period=4, max_period=16, hot_min=8
        ))
        entries, rt = governed_entries(gov, names)
        return gov, entries, rt

    def test_hot_expensive_pair_degrades(self):
        gov, entries, _ = self._governed()
        for _ in range(200):
            entries["fn"](None)
        state = gov.pairs["fn"]
        assert state.period > 1
        assert state.total_sampled_out > 0
        assert "fn" in gov.degraded_pairs()

    def test_cold_pair_never_degrades(self):
        gov, entries, _ = self._governed(("cold", "hot"))
        for i in range(400):
            entries["hot"](None)
            if i % 100 == 0:  # 4 calls total: far below hot_min
                entries["cold"](None)
        assert gov.pairs["hot"].period > 1
        assert gov.pairs["cold"].period == 1
        assert gov.pairs["cold"].total_sampled_out == 0

    def test_sampled_in_calls_run_the_real_wrapper(self):
        gov, entries, rt = self._governed()
        results = [entries["fn"](None) for _ in range(300)]
        state = gov.pairs["fn"]
        assert state.period > 1
        # Both paths return the raw result — the governor swaps
        # nothing, it only skips checks — and the accounting is exact:
        # every non-sampled-out call ran the generated check.
        assert results == ["raw"] * 300
        assert rt.checks == state.total_calls - state.total_sampled_out
        assert state.total_calls == 300

    def test_restore_when_load_drops(self):
        gov, entries, rt = self._governed()
        for _ in range(200):
            entries["fn"](None)
        degraded_period = gov.pairs["fn"].period
        assert degraded_period > 1
        rt.check_ns = 1  # checking is now as cheap as raw
        for _ in range(400):
            entries["fn"](None)
        assert gov.pairs["fn"].period < degraded_period

    def test_rebalance_keeps_the_triggering_calls_tail(self):
        """The entry that triggers a rebalance meters its own call after
        the window reset, so that time belongs to the next window even
        though the pair's ``window_calls`` there is 0."""
        gov = OverheadGovernor(
            GovernorPolicy(budget=0.3, window=16, hot_min=4)
        )
        entries, rt = governed_entries(gov, ("A", "B"))
        rt.raw_ns = 100  # a sampled-out call: 100 ns raw
        for _ in range(6):
            rt.check_ns = 20  # B: 120 ns checked
            for _ in range(15):
                entries["B"](None)
            rt.check_ns = 99900  # A: 100000 ns checked, the 16th call
            entries["A"](None)
        report = gov.report()
        assert report["rebalances"] == 6
        # Only A's tail is left in the open window.
        assert report["share"] == 1.0
        assert report["degraded"] == ["B"]
        assert report["pairs"]["B"]["period"] == 128
        assert report["pairs"]["B"]["degraded_windows"] == 6
        assert report["pairs"]["A"]["period"] == 1

    def test_budget_one_never_degrades(self):
        """At budget 1.0 the governor only meters: the share of a pair
        at full checking is its whole checked time over itself, even
        when ``(checked_ns / calls) * calls`` rounds past ``checked_ns``
        (100000 ns over 38 calls does)."""
        gov = OverheadGovernor(GovernorPolicy(budget=1.0, hot_min=32))
        state = gov.fused_binding("fn")
        state.window_calls = state.checked_calls = 38
        state.checked_ns = 100000
        assert state.overhead_ns() <= state.checked_ns
        gov._rebalance()
        assert gov.degraded_pairs() == []

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            GovernorPolicy(budget=1.5)
        with pytest.raises(ValueError):
            GovernorPolicy(window=2)
        with pytest.raises(ValueError):
            GovernorPolicy(sample_period=1)

    def test_report_shape(self):
        gov, entries, _ = self._governed()
        entries["fn"](None)
        report = gov.report()
        assert set(report) == {
            "budget", "window", "rebalances", "share", "degraded", "pairs",
        }
        assert report["pairs"]["fn"]["calls"] == 1

    def test_governed_run_integration(self):
        report = governed_run(
            5,
            substrate="pyc",
            policy=GovernorPolicy(budget=0.3, window=32, hot_min=8),
            repeats=4,
        )
        assert report["outcome"] in ("completed", "violation")
        assert report["governor"]["pairs"]
        # Every call the governor saw ran under either the checked
        # wrapper or the timed raw path; nothing is dropped.
        for stats in report["governor"]["pairs"].values():
            assert stats["calls"] >= stats["sampled_out"]
