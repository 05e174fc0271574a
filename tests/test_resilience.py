"""Resilient checking sessions: containment, chaos, watched work, the meter.

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
    CheckerHealth,
    ContainmentPolicy,
)
from repro.core.clock import FakeClock
from repro.fleet import FleetScheduler, Job, fuzz_jobs, replay_jobs
from repro.fleet.scheduler import (
    CLEAN,
    CRASH,
    HANG,
    VIOLATION,
    backoff_delay,
)
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
from repro.resilience.governor import PairState
from tests.test_fleet import die_or_raise_once


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
        policy = ContainmentPolicy(quarantine_after=2, off_after=5)
        health = CheckerHealth(policy)
        err = RuntimeError("boom")
        assert health.record("m1", err, "f", "pre") == []
        assert health.level == LEVEL_FULL
        assert health.record("m1", err, "f", "pre") == ["quarantine"]
        assert health.level == LEVEL_QUARANTINE
        assert health.quarantined == ["m1"]
        assert health.record("m2", err, "g", "post") == []
        assert health.record("m2", err, "g", "post") == ["quarantine"]
        assert health.level == LEVEL_QUARANTINE
        assert health.record("m3", err, "h", "pre") == ["off"]  # fault 5
        assert health.level == LEVEL_OFF
        assert health.record("m4", err, "h", "pre") == []

    def test_default_ladder_never_samples(self):
        # No fault count yields a sampling rung: a machine that missed
        # an acquire would report the matching release.
        policy = ContainmentPolicy()
        health = CheckerHealth(policy)
        err = RuntimeError("boom")
        actions = []
        for fault in range(1, policy.off_after + 10):
            machine = "m{}".format(fault % 7)
            for action in health.record(machine, err, "f", "pre"):
                actions.append((fault, action))
        assert {action for _, action in actions} == {"quarantine", "off"}
        assert [f for f, action in actions if action == "off"] == [
            policy.off_after
        ]
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
    """A corpus replay job whose worker SIGKILLs itself on the first
    attempt, when run by :func:`tests.test_fleet.die_or_raise_once`."""
    return Job(
        kind="replay-shard",
        params={"path": os.path.join(CORPUS_DIR, "leak_monitor.trace"),
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
            [_die_job(tmp_path)], workers=1, timeout=30.0, retries=0,
            executor=die_or_raise_once,
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
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == HANG
        assert "watchdog" in outcome.detail
        assert outcome.attempts == 2

    def test_retries_with_deterministic_backoff(self, tmp_path):
        # The worker dies on the first attempt; the retry, after one
        # deterministic backoff, replays the trace and its violation.
        job = _die_job(tmp_path)
        report = FleetScheduler(
            [job], workers=1, timeout=30.0, retries=2, seed=42,
            executor=die_or_raise_once,
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == VIOLATION
        assert outcome.attempts == 2
        assert outcome.backoffs == [backoff_delay(42, job.job_id, 0)]

    def test_incident_report_merges_and_redacts_timing(self, tmp_path):
        report = FleetScheduler(
            [_die_job(tmp_path), _hang_job(tmp_path)], workers=1,
            timeout=0.5, retries=0, executor=die_or_raise_once,
        ).run()
        assert report.counts[CRASH] == 1
        assert report.counts[HANG] == 1
        assert not report.ok
        body = json.dumps(report.to_json())
        assert "seconds" not in body

    def test_backoff_sleeps_on_injected_clock(self, tmp_path):
        # With nothing else in flight, the run waits for the dead job's
        # retry on its clock.
        clock = FakeClock()
        report = FleetScheduler(
            [_die_job(tmp_path)], workers=1, retries=2, seed=7, clock=clock,
            executor=die_or_raise_once,
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == VIOLATION
        assert len(outcome.backoffs) == 1
        # The retry delay went through the injectable clock, not
        # time.sleep.
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
            Job(kind="replay-shard", params={"path": "a.trace"})
            for _ in range(2)
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
    gov.clock_ns = rt.clock  # before the build: entries pre-bind it

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
    """The governor is a meter: every call checked, its time counted."""

    def _cheap_and_dear(self, policy=None):
        """100 calls of a 2 ns pair, 10 of a 1001 ns pair."""
        gov = OverheadGovernor(policy)
        entries, rt = governed_entries(gov, ("cheap", "dear"))
        rt.check_ns = 1
        for _ in range(100):
            entries["cheap"](None)
        rt.check_ns = 1000
        for _ in range(10):
            entries["dear"](None)
        return gov, rt

    def test_every_call_runs_the_checks(self):
        gov = OverheadGovernor()
        entries, rt = governed_entries(gov, ("fn",))
        results = [entries["fn"](None) for _ in range(300)]
        assert results == ["raw"] * 300
        assert rt.checks == gov.pairs["fn"].calls == 300

    def test_checked_ns_is_exact(self):
        # The meter's two clock reads bracket the check and the raw call.
        gov, rt = self._cheap_and_dear()
        assert gov.pairs["cheap"].checked_ns == 100 * (1 + 1)
        assert gov.pairs["dear"].checked_ns == 10 * (1000 + 1)
        assert rt.now == 100 * 2 + 10 * 1001

    def test_over_budget_names_the_expensive_pair(self):
        gov, _ = self._cheap_and_dear(GovernorPolicy(budget=0.3))
        report = gov.report()
        # dear: 10010 of 10210 ns; cheap: 200, under 0.3 of the total.
        assert report["over_budget"] == ["dear"]
        assert report["pairs"] == {
            "cheap": {"calls": 100, "checked_ns": 200},
            "dear": {"calls": 10, "checked_ns": 10010},
        }

    def test_budget_one_lists_no_pair(self):
        # No pair's checked time exceeds the run's total, not even one
        # pair that took all of it.
        gov, _ = self._cheap_and_dear(GovernorPolicy(budget=1.0))
        assert gov.report()["over_budget"] == []
        alone = OverheadGovernor(GovernorPolicy(budget=1.0))
        entries, _ = governed_entries(alone, ("fn",))
        entries["fn"](None)
        assert alone.report()["over_budget"] == []

    def test_native_pair_never_ranks(self):
        # One native makes every crossing, and its pair times its whole
        # body.  On a FakeClock each crossing meters 1 ns and the native
        # 2 ns per crossing plus 1: in a total with the native's time,
        # the native held 15 of 22 ns, the one pair over budget.
        from repro.jinn.agent import JinnAgent
        from repro.jvm import HOTSPOT, JavaVM

        def run(env, clazz):
            for _ in range(3):
                env.DeleteLocalRef(env.NewStringUTF("s"))
            env.GetVersion()

        gov = OverheadGovernor(
            GovernorPolicy(budget=0.3), clock=FakeClock()
        )
        vm = JavaVM(vendor=HOTSPOT, agents=[JinnAgent(governor=gov)])
        vm.define_class("T")
        vm.add_method("T", "run", "()V", is_static=True, is_native=True)
        vm.register_native("T", "run", "()V", run)
        vm.call_static("T", "run", "()V")
        vm.shutdown()
        report = gov.report()
        assert report["pairs"]["native:Java_T_run"] == {
            "calls": 1, "checked_ns": 15,
        }
        functions = {
            name: pair["checked_ns"]
            for name, pair in report["pairs"].items()
            if pair["calls"] and not name.startswith("native:")
        }
        assert functions == {
            "NewStringUTF": 3, "DeleteLocalRef": 3, "GetVersion": 1,
        }
        # Ranked against the function pairs' 7 ns, whose shares sum to 1.
        total = sum(functions.values())
        assert sum(ns / total for ns in functions.values()) == (
            pytest.approx(1.0)
        )
        assert report["over_budget"] == ["DeleteLocalRef", "NewStringUTF"]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            GovernorPolicy(budget=1.5)
        with pytest.raises(ValueError):
            GovernorPolicy(budget=-0.1)

    def test_meter_holds_only_what_it_reports(self):
        assert GovernorPolicy.__slots__ == ("budget",)
        assert PairState.__slots__ == ("name", "calls", "checked_ns")
        assert len(ContainmentPolicy.__slots__) == 3

    def test_report_shape(self):
        gov = OverheadGovernor()
        entries, _ = governed_entries(gov, ("fn",))
        entries["fn"](None)
        report = gov.report()
        assert set(report) == {"budget", "over_budget", "pairs"}
        assert report["pairs"]["fn"] == {"calls": 1, "checked_ns": 1001}

    def test_governed_run_integration(self):
        report = governed_run(5, substrate="pyc", repeats=4)
        assert report["outcome"] == "completed"
        assert report["violations"] == 0
        pairs = report["governor"]["pairs"]
        assert sum(stats["calls"] for stats in pairs.values()) > 0
        assert sum(stats["checked_ns"] for stats in pairs.values()) > 0
