"""Record/replay round-trip parity, fleet replay, and the fingerprint guard.

The tentpole contract: replaying a trace through the interpretive
dispatch path re-detects *byte-identical* violation reports, in the
same order, as the live checker whose run produced the trace — on both
substrates, for every workload family.
"""

import json
import os

import pytest

from repro.cli import main
from repro.fuzz.corpus import corpus_baseline
from repro.jinn.agent import JinnAgent
from repro.jinn.machines import build_registry
from repro.trace import TraceRecorder
from repro.trace.diff import diff_reports, render_diff
from repro.trace.format import TraceFingerprintError
from repro.trace.replay import replay_path
from repro.workloads.dacapo import run_workload
from repro.workloads.microbench import MICROBENCHMARKS, scenario_by_name
from repro.workloads.outcomes import run_scenario
from repro.workloads.pyc_micro import PYC_MICROBENCHMARKS, run_pyc_scenario


DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS = os.path.join(DATA, "fuzz_corpus")
LEAK_GLOBAL = os.path.join(CORPUS, "leak_global.trace")
LEAK_MONITOR = os.path.join(CORPUS, "leak_monitor.trace")
MIDFILE_CORRUPT = os.path.join(DATA, "resilience", "midfile_corrupt.trace")
TORN_TAIL = os.path.join(DATA, "resilience", "torn_tail.trace")


def record_micro(name, path):
    """Record one JNI micro live; returns the live violation reports."""
    recorder = TraceRecorder(str(path))
    result = run_scenario(
        scenario_by_name(name).run, checker="jinn", observer=recorder
    )
    recorder.close()
    return result.violations


def record_pyc(name, path):
    recorder = TraceRecorder(str(path))
    scenario = next(s for s in PYC_MICROBENCHMARKS if s.name == name)
    record = run_pyc_scenario(scenario, observer=recorder)
    recorder.close()
    return record["violations"]


def record_dacapo(name, path, iterations=20):
    recorder = TraceRecorder(str(path), workload="dacapo/" + name)
    agent = JinnAgent(mode="generated", observer=recorder)
    run_workload(name, config="jinn", agents=[agent], iterations=iterations)
    recorder.close()
    return [v.report() for v in agent.rt.violations]


class TestRoundTripParity:
    @pytest.mark.parametrize(
        "scenario", MICROBENCHMARKS, ids=lambda s: s.name
    )
    def test_jni_micro_replay_matches_live(self, scenario, tmp_path):
        path = tmp_path / "t.trace"
        live = record_micro(scenario.name, path)
        replayed = replay_path(str(path))
        assert replayed.violations == live, scenario.name
        # The live stream is also embedded in the trace as "v" records.
        assert replayed.violations == replayed.recorded_reports
        assert live, scenario.name  # every micro demonstrates a bug

    @pytest.mark.parametrize(
        "scenario", PYC_MICROBENCHMARKS, ids=lambda s: s.name
    )
    def test_pyc_micro_replay_matches_live(self, scenario, tmp_path):
        path = tmp_path / "t.trace"
        live = record_pyc(scenario.name, path)
        replayed = replay_path(str(path))
        assert replayed.violations == live, scenario.name
        assert replayed.violations == replayed.recorded_reports

    @pytest.mark.parametrize("name", ["luindex", "jess", "compress"])
    def test_dacapo_replay_matches_live(self, name, tmp_path):
        path = tmp_path / "t.trace"
        live = record_dacapo(name, path)
        replayed = replay_path(str(path))
        assert replayed.violations == live
        assert live == []  # the kernels are deliberately bug-free
        assert replayed.event_count > 0

    def test_two_replays_of_one_trace_report_zero_drift(self, tmp_path):
        path = tmp_path / "t.trace"
        record_micro("ExceptionState", path)
        first = replay_path(str(path))
        second = replay_path(str(path))
        diff = diff_reports(first.violations, second.violations)
        assert not diff["drift"]
        assert "zero drift" in render_diff(diff)


def replay_with_fault(path, machine):
    """Replay one trace with every call into ``machine`` raising."""
    from repro.resilience.chaos import InternalFaultInjector
    from repro.trace.format import read_trace
    from repro.trace.replay import _ReplayEngine

    header, records = read_trace(path)
    engine = _ReplayEngine(header)
    injector = InternalFaultInjector(machine)
    injector.install(engine.rt)
    engine.run(records)
    return engine, injector, engine.finish()


class TestReplayContainment:
    """Replay pre-binds each machine's encoding instance, so quarantine
    must patch the instance's ``on_event`` in place to reach it."""

    def test_quarantined_machine_takes_no_more_faults(self):
        engine, injector, result = replay_with_fault(LEAK_GLOBAL, "global_ref")
        policy = engine.rt.health.policy
        assert engine.rt.health.quarantined == ["global_ref"]
        # Quarantined at its third fault; the rest of the trace never
        # reaches the faulting handler again.
        assert injector.fired == policy.quarantine_after == 3
        assert any(
            line.startswith("replay: containment:")
            for line in result.log_lines
        )

    def test_other_machines_keep_checking(self):
        engine, injector, result = replay_with_fault(LEAK_GLOBAL, "local_ref")
        assert engine.rt.health.quarantined == ["local_ref"]
        assert injector.fired == 3
        assert any("machine=global_ref" in r for r in result.violations)


class TestFingerprintGuard:
    def test_mismatched_registry_fails_loudly(self, tmp_path):
        path = tmp_path / "t.trace"
        record_micro("ExceptionState", path)
        perturbed = build_registry().without("nullness")
        with pytest.raises(TraceFingerprintError):
            replay_path(str(path), registry=perturbed)

    def test_force_replays_against_perturbed_registry(self, tmp_path):
        """--force is the checker-diffing workflow: replaying against a
        registry minus one machine loses exactly that machine's
        reports, which diff_reports then surfaces as drift."""
        path = tmp_path / "t.trace"
        live = record_micro("Nullness", path)
        perturbed = build_registry().without("nullness")
        replayed = replay_path(str(path), registry=perturbed, force=True)
        assert replayed.violations != live
        diff = diff_reports(live, replayed.violations)
        assert diff["drift"]
        assert "DRIFT" in render_diff(diff)


class TestRecorderLifecycle:
    def test_recorder_is_single_use(self, tmp_path):
        recorder = TraceRecorder(str(tmp_path / "t.trace"))
        run_scenario(
            scenario_by_name("ExceptionState").run,
            checker="jinn",
            observer=recorder,
        )
        with pytest.raises(RuntimeError):
            run_scenario(
                scenario_by_name("ExceptionState").run,
                checker="jinn",
                observer=recorder,
            )

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.trace"
        recorder = TraceRecorder(str(path))
        run_scenario(
            scenario_by_name("ExceptionState").run,
            checker="jinn",
            observer=recorder,
        )
        first = recorder.close()
        assert recorder.close() == first

    def test_unobserved_agent_has_no_observer(self):
        """Guard, don't wrap: with no recorder the runtime hook stays
        None and the run is the plain checking run."""
        agent = JinnAgent(mode="generated")
        run_workload("compress", config="jinn", agents=[agent], iterations=5)
        assert agent.rt.observer is None


class TestShardedReplay:
    """Multi-file replay runs on the fleet, one replay-shard job per file."""

    def _corpus(self, tmp_path):
        paths = []
        expected = []
        for name in ("ExceptionState", "Nullness", "GlobalLeak"):
            path = tmp_path / (name + ".trace")
            live = record_micro(name, path)
            paths.append(str(path))
            expected.extend(live)
        return paths, expected

    def test_multi_file_shards_merge_in_input_order(self, tmp_path):
        from repro.fleet import fleet_replay

        paths, expected = self._corpus(tmp_path)
        merged, _ = fleet_replay(paths, workers=3)
        assert merged.violations == expected
        serial = [replay_path(path) for path in paths]
        assert [path for path, _ in merged.files] == paths
        for (_, result), one in zip(merged.files, serial):
            assert result.reports == one.reports
            assert result.recorded_reports == one.recorded_reports
        assert merged.event_count == sum(one.event_count for one in serial)

    def test_workers_report_cpu_seconds(self, tmp_path):
        from repro.fleet import fleet_replay

        paths, _ = self._corpus(tmp_path)
        _, report = fleet_replay(paths, workers=3)
        assert len(report.worker_busy_seconds) == 3
        assert report.critical_path_seconds == max(report.worker_busy_seconds)


#: How ``trace replay`` runs its files: in this process, on two fleet
#: workers, or as watched fleet jobs under ``--timeout``.
RUN_MODES = pytest.mark.parametrize(
    "run",
    [["--workers", "0"], ["--workers", "2"], ["--timeout", "60"]],
    ids=["0", "2", "timeout"],
)


class TestReplayCommand:
    """``trace replay`` checks every file the same way, whether it runs
    one file in this process, several on fleet workers, or each as a
    watched job under ``--timeout``."""

    @pytest.mark.parametrize("workers", ["0", "1", "2"])
    def test_corpus_replays_to_manifest(self, workers, capsys):
        paths, stream, events = corpus_baseline(CORPUS)
        assert main(["trace", "replay", "--workers", workers] + paths) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "replayed {} events from 22 trace(s)".format(events) in printed
        start = printed.index("violations: {}".format(len(stream))) + 1
        assert [line[2:] for line in printed[start:start + len(stream)]] == (
            stream
        )
        assert printed[start + len(stream)] == (
            "recorded stream: match ({} violations)".format(len(stream))
        )

    @pytest.fixture
    def tampered(self, tmp_path):
        """leak_global.trace with its recorded violation rewritten."""
        path = tmp_path / "leak_global.trace"
        with open(os.path.join(CORPUS, "leak_global.trace")) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            record = json.loads(line)
            if record[0] == "v":
                record[1] = "tampered report"
                lines[i] = json.dumps(record)
                break
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @RUN_MODES
    @pytest.mark.parametrize("neighbours", [[], [LEAK_MONITOR]],
                             ids=["one-file", "two-files"])
    def test_drift_exits_nonzero(self, tampered, neighbours, run, capsys):
        argv = ["trace", "replay"] + run + [tampered]
        assert main(argv + neighbours) == 1
        printed = capsys.readouterr().out
        assert "recorded stream: DRIFT" in printed
        assert "drift: " + tampered in printed

    @RUN_MODES
    @pytest.mark.parametrize("neighbours", [[], [LEAK_MONITOR]],
                             ids=["one-file", "two-files"])
    def test_bad_trace_exits_nonzero(self, neighbours, run, capsys):
        argv = ["trace", "replay", "--force"] + run
        assert main(argv + neighbours + [MIDFILE_CORRUPT]) == 1
        printed = capsys.readouterr().out
        assert printed == (
            "REPLAY FAIL: {}: TraceFormatError: corrupt trace record at "
            "line 9\n".format(MIDFILE_CORRUPT)
        )

    @RUN_MODES
    def test_torn_tail_warning_survives_the_merge(self, run, capsys):
        argv = ["trace", "replay", "--force"] + run
        assert main(argv + [TORN_TAIL, LEAK_MONITOR]) == 0
        assert capsys.readouterr().out.startswith(
            "warning: torn final record at line 17"
        )

    def test_watchdog_kill_exits_124(self, tmp_path, capsys):
        # Opening a FIFO for reading blocks until a writer comes: the
        # replay job hangs until the watchdog kills it.
        fifo = str(tmp_path / "hang.trace")
        os.mkfifo(fifo)
        argv = ["trace", "replay", "--timeout", "1", fifo, LEAK_MONITOR]
        assert main(argv) == 124
        assert capsys.readouterr().out == (
            "REPLAY FAIL: {}: watchdog killed after 1.0s\n".format(fifo)
        )
