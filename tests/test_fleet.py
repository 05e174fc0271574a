"""The fleet fabric: job envelopes, the one-deque dispatcher,
order-independent merging.

The determinism class is the acceptance surface: the same seed and job
set run on 1, 2, and 4 real worker processes must produce identical
merged violation streams, identical deterministic report bodies,
identical triage cluster IDs, and identical ObsHub triage snapshots.
The exactly-once class SIGKILLs a worker mid-job and proves the report
still holds every job exactly once.  A run keeps its state in memory:
no runner takes a queue.

Faults are injected through the scheduler's one injection point,
``FleetScheduler(executor=...)``: :func:`die_or_raise_once` is the
executor the worker-death and raise tests run in their worker
processes.
"""

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import suppress

import pytest

from repro.core.clock import FakeClock
from repro.fleet import (
    JOB_KINDS,
    FleetReport,
    FleetScheduler,
    Job,
    execute_job,
    fleet_fuzz,
    fleet_replay,
    fuzz_jobs,
    merge_replay,
    replay_jobs,
)
from repro.fleet.scheduler import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    CLEAN,
    CRASH,
    HANG,
    VIOLATION,
    JobOutcome,
    backoff_delay,
)
from repro.fuzz.corpus import corpus_baseline, load_manifest
from repro.obs import ObsHub
from repro.obs.triage import ViolationTriage

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus")
#: One shipped corpus trace; its replay re-fires one violation.
LEAK_MONITOR = os.path.join(CORPUS_DIR, "leak_monitor.trace")


def placeholder_jobs(count):
    """Replay jobs over paths no one opens: for fake executors."""
    return replay_jobs(["{}.trace".format(n) for n in range(count)])


def die_or_raise_once(job):
    """An executor that fails a job once, keyed by a marker file.

    A ``die_once`` or ``raise_once`` param names a path: the first run
    to create it SIGKILLs its worker or raises.  A death is retried, and
    the retry finds the marker and runs the job through
    :func:`repro.fleet.execute_job`; a raise is never retried.
    Module-level, so worker processes run it.
    """
    for key in ("die_once", "raise_once"):
        marker = job.params.get(key)
        if not marker:
            continue
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        if key == "die_once":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("injected one-shot failure")
    return execute_job(job)


# ----------------------------------------------------------------------
# Job envelopes
# ----------------------------------------------------------------------


class TestJobEnvelope:
    def test_id_is_content_derived(self):
        a = Job(kind="replay-shard", params={"path": "a.trace"}, seed=1)
        b = Job(kind="replay-shard", params={"path": "a.trace"}, seed=1)
        c = Job(kind="replay-shard", params={"path": "b.trace"}, seed=1)
        assert a.job_id == b.job_id
        assert a.job_id != c.job_id
        assert len(a.job_id) == 16

    def test_json_roundtrip_preserves_id(self):
        job = Job(
            kind="replay-shard",
            params={"path": "t.trace", "force": True},
            seed=3,
        )
        back = Job.from_json(json.loads(json.dumps(job.to_json())))
        assert back == job
        assert back.job_id == job.job_id

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Job(kind="mine-bitcoin")

    def test_two_kinds_three_fields(self):
        # The fleet runs what `trace replay` and `fuzz run` hand it.
        assert JOB_KINDS == ("replay-shard", "fuzz-campaign")
        assert [f.name for f in dataclasses.fields(Job)] == [
            "kind", "params", "seed",
        ]

    def test_describe_names_kind_and_id(self):
        job = Job(kind="fuzz-campaign", seed=3)
        assert job.kind in job.describe()
        assert job.job_id in job.describe()

    def test_replay_builder_preserves_path_order(self):
        paths = ["c.trace", "a.trace", "b.trace"]
        jobs = replay_jobs(paths, force=True)
        assert [job.params["path"] for job in jobs] == paths
        assert all(job.params["force"] for job in jobs)

    def test_replay_builder_dedupes_repeated_paths(self):
        # Same path twice would mint the same content-derived job ID
        # and crash scheduler submission; first occurrence wins.
        jobs = replay_jobs(["a.trace", "b.trace", "a.trace"], force=True)
        assert [job.params["path"] for job in jobs] == [
            "a.trace", "b.trace"
        ]

    def test_fuzz_builder_emits_valid_campaign_first(self):
        jobs = fuzz_jobs(7, rounds=1, substrate="pyc")
        assert jobs[0].params["campaign"] == "valid"
        assert all(
            job.params["campaign"] == "fault" for job in jobs[1:]
        )
        assert all(job.seed == 7 for job in jobs)


# ----------------------------------------------------------------------
# The scheduler, inline on a FakeClock (no processes, no stalls)
# ----------------------------------------------------------------------


def _flaky_executor(fail_first=(), violations=None):
    """An injectable executor: fails listed job IDs on first sight."""
    calls = {}
    violations = violations or {}

    def run(job):
        calls[job.job_id] = calls.get(job.job_id, 0) + 1
        if job.job_id in fail_first and calls[job.job_id] == 1:
            raise RuntimeError("injected")
        return {"violations": violations.get(job.job_id, []), "events": 1}

    return run, calls


class TestInlineScheduler:
    def test_raising_job_is_not_retried(self):
        # The executor would succeed the second time, but a raise is a
        # crash on the first attempt: retries are for deaths and hangs.
        (job,) = placeholder_jobs(1)
        executor, calls = _flaky_executor(fail_first={job.job_id})
        clock = FakeClock()
        scheduler = FleetScheduler(
            [job], workers=1, seed=3, retries=2, clock=clock, inline=True,
            executor=executor,
        )
        report = scheduler.run()
        outcome = report.outcomes[0]
        assert outcome.classification == CRASH
        assert "RuntimeError: injected" in outcome.detail
        assert outcome.attempts == 1
        assert outcome.backoffs == []
        assert clock.slept == 0
        assert calls[job.job_id] == 1
        assert not report.ok

    def test_backoff_delay_deterministic_and_capped(self):
        # 0.05 s doubled six times is 3.2 s, over the 2 s cap.
        a = backoff_delay(1, "s", 6)
        b = backoff_delay(1, "s", 6)
        assert a == b
        assert BACKOFF_CAP <= a <= BACKOFF_CAP * 1.25
        first = backoff_delay(1, "s", 0)
        assert BACKOFF_BASE <= first <= BACKOFF_BASE * 1.25

    def test_violating_payload_classifies_violation(self):
        (job,) = placeholder_jobs(1)
        executor, _ = _flaky_executor(
            violations={job.job_id: ["machine=x state=bad"]}
        )
        scheduler = FleetScheduler(
            [job], workers=1, clock=FakeClock(), inline=True,
            executor=executor,
        )
        report = scheduler.run()
        assert report.outcomes[0].classification == VIOLATION
        assert report.violations == ["machine=x state=bad"]
        assert report.ok  # violations are results, not infrastructure

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_slots_take_jobs_in_submission_order(self, workers):
        jobs = placeholder_jobs(6)
        ran = []

        def record(job):
            ran.append(job.job_id)
            return {"violations": [], "events": 0}

        FleetScheduler(
            jobs, workers=workers, clock=FakeClock(), inline=True,
            executor=record,
        ).run()
        # One pending deque: every free slot takes from its head.
        assert ran == [job.job_id for job in jobs]

    def test_duplicate_job_ids_rejected_at_submission(self):
        (job,) = placeholder_jobs(1)
        with pytest.raises(ValueError):
            FleetScheduler([job, job], inline=True)

    def test_inline_report_identical_across_worker_counts(self):
        jobs = placeholder_jobs(6)
        bodies = []
        for workers in (1, 2, 3):
            executor, _ = _flaky_executor()
            report = FleetScheduler(
                jobs, workers=workers, clock=FakeClock(), inline=True,
                executor=executor,
            ).run()
            bodies.append(json.dumps(report.to_json(), sort_keys=True))
        assert bodies[0] == bodies[1] == bodies[2]


# ----------------------------------------------------------------------
# Merge: arrival order never leaks out
# ----------------------------------------------------------------------


def _replay_outcome(path, reports, events=0):
    job = replay_jobs([path])[0]
    return JobOutcome(
        job=job,
        classification=VIOLATION if reports else CLEAN,
        payload={
            "kind": "replay-shard",
            "path": path,
            "header": {},
            "reports": [list(item) for item in reports],
            "events": events,
            "violations": [text for _, text in sorted(reports)],
            "recorded_reports": [],
            "warnings": [],
        },
    )


class TestMerge:
    def test_stream_restores_trace_seq_order(self):
        # Replay reports a file's violations in trace sequence order,
        # and the merge keeps that order.
        path = os.path.join(CORPUS_DIR, "drop_delete_local.trace")
        (job,) = replay_jobs([path])
        payload = execute_job(job)
        seqs = [seq for seq, _ in payload["reports"]]
        assert len(seqs) == 2 and seqs == sorted(seqs)
        outcome = JobOutcome(
            job=job, classification=VIOLATION, payload=payload
        )
        assert merge_replay(FleetReport([outcome])).violations == [
            text for _, text in payload["reports"]
        ]

    def test_merge_replay_keeps_submission_order(self):
        report = FleetReport(
            [
                _replay_outcome("b.trace", [(1, "from-b")], events=4),
                _replay_outcome("a.trace", [(1, "from-a")], events=3),
            ],
        )
        merged = merge_replay(report)
        assert merged.violations == ["from-b", "from-a"]
        assert merged.event_count == 7

    def test_merge_refuses_payloadless_outcomes(self):
        job = replay_jobs(["t.trace"])[0]
        crashed = JobOutcome(job=job, classification=CRASH, payload=None)
        with pytest.raises(ValueError):
            merge_replay(FleetReport([crashed]))


# ----------------------------------------------------------------------
# Parity: the fuzz report is pinned, in process and on worker processes
# ----------------------------------------------------------------------

#: SHA-256 of each report's canonical JSON, taken when a one-process
#: fuzz loop still ran beside the fleet's.
PINNED_FUZZ_DIGESTS = {
    (7, 1, "pyc"):
        "e9236dbfb24c20fd498f4c9ab14c083c2f9aa44e83e2ea240bf1e32a5b1ba00a",
    (2026, 1, "both"):
        "a1b569ae1024ce038c92dd059e5e3d411b6c8be9b5ff26521d6c0c4d322684da",
}


class TestSingleProcessParity:
    def test_fuzz_report_byte_identical(self):
        for (seed, rounds, substrate), digest in PINNED_FUZZ_DIGESTS.items():
            for workers in (0, 2):
                merged, report = fleet_fuzz(
                    seed, rounds=rounds, substrate=substrate,
                    workers=workers,
                )
                assert report.ok
                canonical = json.dumps(
                    merged, sort_keys=True, separators=(",", ":")
                )
                assert hashlib.sha256(
                    canonical.encode("utf-8")
                ).hexdigest() == digest, (seed, substrate, workers)

    def test_runners_take_no_queue(self, tmp_path):
        # A run keeps its state in memory; one that dies is run again.
        path = str(tmp_path / "fleet.queue")
        trace = LEAK_MONITOR
        runs = (
            lambda **option: fleet_fuzz(
                7, rounds=1, substrate="pyc", workers=0, **option
            ),
            lambda **option: fleet_replay([trace], workers=0, **option),
        )
        for run in runs:
            for option in ({"queue_path": path}, {"sync": "group"}):
                with pytest.raises(TypeError):
                    run(**option)
        assert os.listdir(str(tmp_path)) == []


# ----------------------------------------------------------------------
# The acceptance surface: real processes, 1/2/4 workers, one answer
# ----------------------------------------------------------------------


def _cluster_ids(merged):
    triage = ViolationTriage()
    return [triage.ingest_report_line(line) for line in merged.violations]


def _deterministic_snapshot(merged):
    hub = ObsHub(clock=FakeClock())
    for line in merged.violations:
        hub.triage.ingest_report_line(line)
    return hub.snapshot()


class TestWorkerCountDeterminism:
    WORKER_COUNTS = (1, 2, 4)

    @pytest.fixture(scope="class")
    def runs(self):
        paths, stream, events = corpus_baseline(CORPUS_DIR)
        results = {
            workers: fleet_replay(paths, workers=workers)
            for workers in self.WORKER_COUNTS
        }
        return (stream, events), results

    def test_streams_identical_across_worker_counts(self, runs):
        (stream, _), results = runs
        for workers, (merged, _) in results.items():
            assert merged.violations == stream, workers

    def test_event_counts_match_baseline(self, runs):
        (_, events), results = runs
        for workers, (merged, _) in results.items():
            assert merged.event_count == events, workers

    def test_report_bodies_identical(self, runs):
        _, results = runs
        bodies = {
            workers: json.dumps(report.to_json(), sort_keys=True)
            for workers, (_, report) in results.items()
        }
        assert len(set(bodies.values())) == 1

    def test_triage_cluster_ids_identical(self, runs):
        _, results = runs
        ids = {
            workers: _cluster_ids(merged)
            for workers, (merged, _) in results.items()
        }
        reference = ids[self.WORKER_COUNTS[0]]
        assert reference  # the corpus re-fires real violations
        assert all(value == reference for value in ids.values())

    def test_obs_snapshots_identical(self, runs):
        _, results = runs
        snapshots = [
            json.dumps(_deterministic_snapshot(merged), sort_keys=True)
            for merged, _ in results.values()
        ]
        assert len(set(snapshots)) == 1

    def test_every_job_completed_without_incident(self, runs):
        _, results = runs
        for workers, (_, report) in results.items():
            counts = report.counts
            assert counts[CRASH] == 0, workers
            assert counts["hang"] == 0, workers


class TestCorpusReplay:
    """Every shipped corpus trace replays to its manifest entry, one file
    at a time and on the fleet at 0, 1 and 2 workers, termination leak
    reports included (leak_global, leak_monitor, leak_pinned,
    under_decref, py_type_confusion)."""

    def test_replay_path_matches_manifest(self):
        from repro.trace.replay import replay_path

        for entry in load_manifest(CORPUS_DIR)["entries"]:
            result = replay_path(os.path.join(CORPUS_DIR, entry["trace"]))
            assert result.violations == entry["violations"], entry["name"]
            assert result.event_count == entry["events"], entry["name"]

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_fleet_replay_matches_manifest(self, workers):
        paths, stream, events = corpus_baseline(CORPUS_DIR)
        merged, report = fleet_replay(paths, workers=workers)
        assert report.ok
        assert len(merged.files) == 22
        assert merged.violations == stream
        assert merged.event_count == events
        entries = load_manifest(CORPUS_DIR)["entries"]
        for (path, result), entry in zip(merged.files, entries):
            assert path == os.path.join(CORPUS_DIR, entry["trace"])
            assert result.violations == entry["violations"], entry["name"]
            assert result.event_count == entry["events"], entry["name"]
            assert result.recorded_reports == entry["violations"]
            assert not result.drift


class TestExactlyOnceUnderWorkerDeath:
    def test_sigkilled_worker_still_acks_exactly_once(self, tmp_path):
        marker = str(tmp_path / "die.marker")
        paths, _, _ = corpus_baseline(CORPUS_DIR)
        jobs = replay_jobs(paths[:4])
        jobs.append(Job(
            kind="replay-shard",
            params={"path": LEAK_MONITOR, "die_once": marker},
        ))
        report = FleetScheduler(
            jobs, workers=2, seed=11, retries=1, executor=die_or_raise_once,
        ).run()
        assert report.ok
        # Every job once, in submission order, whatever order they
        # finished in and though one worker died mid-job.
        assert [o.job.job_id for o in report.outcomes] == [
            job.job_id for job in jobs
        ]
        for outcome in report.outcomes:
            assert outcome.classification in (CLEAN, VIOLATION)
        victim = report.outcomes[-1]
        assert victim.attempts == 2  # died once, recovered once


# ----------------------------------------------------------------------
# The process-mode watchdog: how `--timeout` runs see failures
# ----------------------------------------------------------------------


def _gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie counts: nobody reaps it)."""
    try:
        with open("/proc/{}/stat".format(pid)) as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestProcessWatchdog:
    """One worker process, no retries: the ``--timeout`` settings."""

    def test_hung_job_is_killed_and_the_next_job_completes(self, tmp_path):
        # Opening a FIFO for reading blocks until a writer comes: the
        # replay job hangs until the watchdog kills its worker.
        fifo = str(tmp_path / "hang.trace")
        os.mkfifo(fifo)
        good = LEAK_MONITOR
        report = FleetScheduler(
            replay_jobs([fifo, good]), workers=1, timeout=1.0, retries=0
        ).run()
        hung, after = report.outcomes
        assert hung.classification == HANG
        assert hung.detail == "watchdog killed after 1.0s"
        assert hung.attempts == 1
        assert report.counts[HANG] == 1
        assert not report.ok
        # Wall-clock time stays out of the deterministic body.
        assert "seconds" not in json.dumps(report.to_json())
        # Queued behind the hang, it runs on the respawned worker.
        assert after.classification == VIOLATION
        assert after.payload["path"] == good

    def test_watchdog_clock_starts_when_the_job_starts(self, tmp_path):
        # Two FIFO jobs on one worker.  Each blocks on open until a
        # writer comes and goes, then reads an empty trace.  The second
        # job is dispatched when the first one's result arrives, at
        # ~0.6 s, and is released at ~1.3 s: 0.7 s of its own, under the
        # 1 s timeout, though 1.3 s after the run started.
        fifos = [str(tmp_path / "{}.trace".format(n)) for n in (1, 2)]
        for fifo in fifos:
            os.mkfifo(fifo)
        started = time.monotonic()

        def release():
            for fifo, at in zip(fifos, (0.6, 1.3)):
                time.sleep(max(0.0, at - (time.monotonic() - started)))
                # Non-blocking: with no reader waiting, fail, don't hang.
                with suppress(OSError):
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))

        writer = threading.Thread(target=release, daemon=True)
        writer.start()
        report = FleetScheduler(
            replay_jobs(fifos), workers=1, timeout=1.0, retries=0
        ).run()
        writer.join(5.0)
        assert not writer.is_alive()
        for outcome in report.outcomes:
            assert outcome.classification == CRASH
            assert outcome.detail.startswith("TraceFormatError")
            assert "watchdog" not in outcome.detail

    def test_idle_worker_exits_when_its_parent_dies(self, tmp_path):
        # A parent runs [corpus trace, FIFO] on two workers and SIGKILLs
        # itself once the trace's replay is done.  Slot 1, forked after
        # slot 0, holds a copy of slot 0's parent end: idle slot 0 reads
        # no EOF even if it closed its own copy.
        fifo = str(tmp_path / "hang.trace")
        os.mkfifo(fifo)
        pids_path = str(tmp_path / "pids.json")
        script = textwrap.dedent("""
            import json, os, signal, sys, threading, time
            from repro.fleet import FleetScheduler, replay_jobs
            jobs = replay_jobs([sys.argv[3], sys.argv[1]])
            scheduler = FleetScheduler(jobs, workers=2, timeout=600.0)

            def die_once_idle():
                while not scheduler._outcomes:
                    time.sleep(0.01)
                pids = [slot.proc.pid for slot in scheduler._slots]
                with open(sys.argv[2], "w") as f:
                    json.dump(pids, f)
                os.kill(os.getpid(), signal.SIGKILL)

            threading.Thread(target=die_once_idle, daemon=True).start()
            scheduler.run()
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__
        )))
        proc = subprocess.run(
            [sys.executable, "-c", script, fifo, pids_path, LEAK_MONITOR],
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        with open(pids_path) as f:
            idle, hung = json.load(f)
        try:
            deadline = time.monotonic() + 5.0
            while not _gone(idle) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _gone(idle)
        finally:
            # A worker hung inside a job still outlives its parent.
            for pid in (idle, hung):
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("retries", [0, 1])
    def test_worker_death_blames_the_job_that_was_running(
        self, tmp_path, retries
    ):
        # Two jobs on one worker: the first finishes, the second,
        # dispatched when the first one's result arrives, SIGKILLs its
        # worker.  The blame must land on the job that was running.
        (ok,) = replay_jobs([LEAK_MONITOR])
        killer = Job(
            kind="replay-shard",
            params={"path": LEAK_MONITOR,
                    "die_once": str(tmp_path / "die.marker")},
        )
        report = FleetScheduler(
            [ok, killer], workers=1, retries=retries,
            executor=die_or_raise_once,
        ).run()
        healthy, victim = report.outcomes
        assert healthy.classification == VIOLATION
        assert healthy.attempts == 1
        if retries:
            assert victim.classification == VIOLATION
            assert victim.attempts == 2
            assert victim.backoffs == [backoff_delay(0, killer.job_id, 0)]
        else:
            assert victim.classification == CRASH
            assert victim.detail == "worker 0 died (exitcode {})".format(
                -signal.SIGKILL
            )
            assert victim.attempts == 1

    @pytest.mark.parametrize("retries", [0, 1])
    def test_raising_job_is_a_crash_with_detail(self, tmp_path, retries):
        # A raise is deterministic: never retried, whatever the budget.
        job = Job(
            kind="replay-shard",
            params={"path": LEAK_MONITOR,
                    "raise_once": str(tmp_path / "raise.marker")},
        )
        report = FleetScheduler(
            [job], workers=1, retries=retries, executor=die_or_raise_once
        ).run()
        outcome = report.outcomes[0]
        assert outcome.classification == CRASH
        assert outcome.detail.startswith("RuntimeError:")
        assert outcome.attempts == 1
        assert outcome.backoffs == []
        assert not report.ok
