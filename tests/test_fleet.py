"""The fleet fabric: job envelopes, the crash-safe queue, the
one-deque dispatcher, order-independent merging.

The determinism class is the acceptance surface from the issue: the
same seed and job set run on 1, 2, and 4 real worker processes must
produce identical merged violation streams, identical deterministic
report bodies, identical triage cluster IDs, and identical ObsHub
snapshots (load series excluded).  The exactly-once class SIGKILLs a
worker mid-job and proves the persistent queue still acks every job
exactly once.
"""

import json
import os
import signal

import pytest

from repro.core.clock import FakeClock
from repro.fleet import (
    EXPIRED,
    FleetReport,
    FleetScheduler,
    Job,
    JobQueue,
    bench_trial_jobs,
    corpus_jobs,
    fleet_chaos,
    fleet_corpus,
    fleet_fuzz,
    fleet_replay,
    fleet_smoke,
    fuzz_jobs,
    merge_replay,
    replay_jobs,
    violation_stream,
)
from repro.fleet.queue import QueueFormatError
from repro.fleet.scheduler import (
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


# ----------------------------------------------------------------------
# Job envelopes
# ----------------------------------------------------------------------


class TestJobEnvelope:
    def test_id_is_content_derived(self):
        a = Job(kind="bench-trial", params={"trial": 0}, seed=1)
        b = Job(kind="bench-trial", params={"trial": 0}, seed=1)
        c = Job(kind="bench-trial", params={"trial": 1}, seed=1)
        assert a.job_id == b.job_id
        assert a.job_id != c.job_id
        assert len(a.job_id) == 16

    def test_json_roundtrip_preserves_id(self):
        job = Job(
            kind="replay-shard",
            params={"path": "t.trace", "force": True},
            fingerprint="abc",
            priority=2,
            deadline=10.0,
        )
        back = Job.from_json(json.loads(json.dumps(job.to_json())))
        assert back == job
        assert back.job_id == job.job_id

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Job(kind="mine-bitcoin")

    def test_describe_names_kind_and_id(self):
        job = Job(kind="chaos-round", seed=3)
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

    def test_corpus_builder_covers_every_fault(self):
        from repro.fuzz.faults import FAULTS

        jobs = corpus_jobs(5, substrate="both")
        assert [job.params["fault"] for job in jobs] == [
            fault.name for fault in FAULTS
        ]


# ----------------------------------------------------------------------
# The crash-safe queue
# ----------------------------------------------------------------------


class TestJobQueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        with JobQueue(str(tmp_path / "q")) as queue:
            job = bench_trial_jobs(1, 1)[0]
            assert queue.enqueue(job) is True
            assert queue.enqueue(job) is False
            assert queue.depth == 1

    def test_lease_order_priority_then_fifo(self, tmp_path):
        with JobQueue(str(tmp_path / "q")) as queue:
            low = Job(kind="bench-trial", params={"trial": 0}, priority=1)
            hi_a = Job(kind="bench-trial", params={"trial": 1}, priority=0)
            hi_b = Job(kind="bench-trial", params={"trial": 2}, priority=0)
            for job in (low, hi_a, hi_b):
                queue.enqueue(job)
            order = [queue.lease("w0", ttl=60.0).job_id for _ in range(3)]
            assert order == [hi_a.job_id, hi_b.job_id, low.job_id]

    def test_ack_and_duplicate_ack(self, tmp_path):
        with JobQueue(str(tmp_path / "q")) as queue:
            job = bench_trial_jobs(1, 1)[0]
            queue.enqueue(job)
            queue.lease("w0", ttl=60.0)
            assert queue.ack(job.job_id, "w0") is True
            assert queue.ack(job.job_id, "w1") is False
            assert queue.duplicate_acks == 1
            assert queue.acked == 1
            assert queue.leased == 0

    def test_ack_unknown_job_raises(self, tmp_path):
        with JobQueue(str(tmp_path / "q")) as queue:
            with pytest.raises(KeyError):
                queue.ack("deadbeefdeadbeef", "w0")

    def test_requeue_never_moves_acked_jobs(self, tmp_path):
        with JobQueue(str(tmp_path / "q")) as queue:
            job = bench_trial_jobs(1, 1)[0]
            queue.enqueue(job)
            queue.lease("w0", ttl=60.0)
            queue.ack(job.job_id, "w0")
            assert queue.requeue(job.job_id) is False
            assert queue.depth == 0

    def test_lease_expiry_requeues(self, tmp_path):
        with JobQueue(str(tmp_path / "q")) as queue:
            job = bench_trial_jobs(1, 1)[0]
            queue.enqueue(job)
            leased = queue.lease("w0", ttl=5.0, now=100.0)
            assert leased.job_id == job.job_id
            assert queue.requeue_expired(now=104.0) == []
            assert queue.requeue_expired(now=106.0) == [job.job_id]
            assert queue.depth == 1
            assert queue.leased == 0

    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "q")
        jobs = bench_trial_jobs(2, 3)
        with JobQueue(path) as queue:
            for job in jobs:
                queue.enqueue(job)
            done = queue.lease("w0", ttl=60.0)
            queue.ack(done.job_id, "w0")
            queue.lease("w1", ttl=60.0)  # left outstanding
        with JobQueue(path) as queue:
            assert queue.acked == 1
            assert queue.leased == 1
            assert queue.depth == 1
            assert queue.acked_ids() == [done.job_id]
            # Crash recovery: the orphaned lease goes back to pending.
            orphans = queue.recover_leases()
            assert orphans == [jobs[1].job_id]
            assert queue.depth == 2
            assert queue.job(done.job_id).to_json() == jobs[0].to_json()

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "q")
        with JobQueue(path) as queue:
            for job in bench_trial_jobs(3, 2):
                queue.enqueue(job)
            queue.lease("w0", ttl=60.0)
        torn = b'999 ["l","truncated mid-rec'
        with open(path, "ab") as f:
            f.write(torn)
        with JobQueue(path) as queue:
            assert queue.torn_bytes == len(torn)
            assert queue.stats()["jobs"] == 2
            assert queue.leased == 1
            assert queue.depth == 1

    def test_ack_after_torn_recovery_survives_reopen(self, tmp_path):
        path = str(tmp_path / "q")
        with JobQueue(path) as queue:
            for job in bench_trial_jobs(3, 2):
                queue.enqueue(job)
        with open(path, "ab") as f:
            f.write(b'999 ["l","truncated mid-rec')
        # Reopen truncates the tear, so the ack appended below lands on
        # valid journal bytes — not behind the torn tail, where the
        # scan would never reach it.
        with JobQueue(path) as queue:
            assert queue.torn_bytes > 0
            done = queue.lease("w0", ttl=60.0)
            queue.ack(done.job_id, "w0")
        with JobQueue(path) as queue:
            assert queue.torn_bytes == 0
            assert queue.acked_ids() == [done.job_id]
            assert queue.depth == 1

    def test_non_queue_file_rejected(self, tmp_path):
        garbage = tmp_path / "garbage"
        garbage.write_text("this is not a journal\n")
        with pytest.raises(QueueFormatError):
            JobQueue(str(garbage))

    def test_wrong_header_rejected(self, tmp_path):
        other = tmp_path / "other"
        line = json.dumps({"format": "trace-journal"})
        other.write_text("{} {}\n".format(len(line.encode("utf-8")), line))
        with pytest.raises(QueueFormatError):
            JobQueue(str(other))


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
    def test_retry_then_succeed_with_deterministic_backoff(self):
        job = bench_trial_jobs(3, 1)[0]
        executor, calls = _flaky_executor(fail_first={job.job_id})
        clock = FakeClock()
        scheduler = FleetScheduler(
            [job], workers=1, seed=3, retries=1, backoff_base=0.05,
            backoff_cap=2.0, clock=clock, inline=True, executor=executor,
        )
        report = scheduler.run()
        outcome = report.outcomes[0]
        assert outcome.classification == CLEAN
        assert outcome.attempts == 2
        delay = backoff_delay(3, job.job_id, 0, base=0.05, cap=2.0)
        assert outcome.backoffs == [delay]
        # The backoff waited on the injected clock, not a real stall.
        assert 0 < clock.slept <= delay
        assert calls[job.job_id] == 2

    def test_backoff_delay_deterministic_and_capped(self):
        a = backoff_delay(1, "s", 4, base=0.05, cap=0.2)
        b = backoff_delay(1, "s", 4, base=0.05, cap=0.2)
        assert a == b
        assert a <= 0.2 * 1.25

    def test_exhausted_retries_classify_crash(self):
        job = bench_trial_jobs(4, 1)[0]

        def always_fail(job):
            raise RuntimeError("still broken")

        scheduler = FleetScheduler(
            [job], workers=1, seed=4, retries=2, backoff_base=0.01,
            backoff_cap=0.02, clock=FakeClock(), inline=True,
            executor=always_fail,
        )
        report = scheduler.run()
        outcome = report.outcomes[0]
        assert outcome.classification == CRASH
        assert outcome.attempts == 3
        assert len(outcome.backoffs) == 2
        assert "RuntimeError: still broken" in outcome.detail
        assert not report.ok

    def test_deadline_expires_before_dispatch(self):
        expired = Job(kind="bench-trial", params={"trial": 0}, deadline=0.0)
        live = Job(kind="bench-trial", params={"trial": 1})
        executor, calls = _flaky_executor()
        scheduler = FleetScheduler(
            [expired, live], workers=1, clock=FakeClock(), inline=True,
            executor=executor,
        )
        report = scheduler.run()
        assert report.outcomes[0].classification == EXPIRED
        assert report.outcomes[1].classification == CLEAN
        assert expired.job_id not in calls  # never executed
        assert not report.ok

    def test_violating_payload_classifies_violation(self):
        job = bench_trial_jobs(5, 1)[0]
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

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_slots_take_jobs_in_submission_order(self, workers, batch):
        jobs = bench_trial_jobs(6, 6)
        ran = []

        def record(job):
            ran.append(job.job_id)
            return {"violations": [], "events": 0}

        FleetScheduler(
            jobs, workers=workers, batch=batch, clock=FakeClock(),
            inline=True, executor=record,
        ).run()
        # One pending deque: every free slot takes from its head.
        assert ran == [job.job_id for job in jobs]

    def test_duplicate_job_ids_rejected_at_submission(self):
        job = bench_trial_jobs(7, 1)[0]
        with pytest.raises(ValueError):
            FleetScheduler([job, job], inline=True)

    def test_inline_report_identical_across_worker_counts(self):
        jobs = bench_trial_jobs(8, 6)
        bodies = []
        for workers in (1, 2, 3):
            executor, _ = _flaky_executor()
            report = FleetScheduler(
                jobs, workers=workers, clock=FakeClock(), inline=True,
                executor=executor,
            ).run()
            bodies.append(json.dumps(report.to_json(), sort_keys=True))
        assert bodies[0] == bodies[1] == bodies[2]

    def test_queue_mirrors_scheduler_lifecycle(self, tmp_path):
        jobs = bench_trial_jobs(9, 3)
        with JobQueue(str(tmp_path / "q")) as queue:
            executor, _ = _flaky_executor()
            report = FleetScheduler(
                jobs, workers=2, clock=FakeClock(), inline=True,
                executor=executor, queue=queue,
            ).run()
            assert report.ok
            stats = queue.stats()
            assert stats["depth"] == 0
            assert stats["acked"] == 3
            assert stats["duplicate_acks"] == 0

    def test_rerun_on_existing_queue_skips_acked_jobs(self, tmp_path):
        path = str(tmp_path / "q")
        jobs = bench_trial_jobs(10, 3)
        with JobQueue(path) as queue:
            executor, _ = _flaky_executor()
            FleetScheduler(
                jobs, workers=1, clock=FakeClock(), inline=True,
                executor=executor, queue=queue,
            ).run()
            assert queue.acked == 3
        # Resume on the same journal: acked jobs are complete and must
        # not re-execute (each re-completion would be a duplicate ack).
        with JobQueue(path) as queue:
            executor, calls = _flaky_executor()
            report = FleetScheduler(
                jobs, workers=1, clock=FakeClock(), inline=True,
                executor=executor, queue=queue,
            ).run()
            assert calls == {}
            assert report.outcomes == []
            assert report.skipped_acked == 3
            assert report.load_json()["skipped_acked"] == 3
            assert queue.duplicate_acks == 0


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
        outcome = _replay_outcome("t.trace", [(2, "second"), (1, "first")])
        report = FleetReport([outcome], workers=1)
        assert violation_stream(report) == ["first", "second"]

    def test_merge_replay_keeps_submission_order(self):
        report = FleetReport(
            [
                _replay_outcome("b.trace", [(1, "from-b")], events=4),
                _replay_outcome("a.trace", [(1, "from-a")], events=3),
            ],
            workers=2,
        )
        merged = merge_replay(report)
        assert merged.violations == ["from-b", "from-a"]
        assert merged.event_count == 7

    def test_merge_refuses_payloadless_outcomes(self):
        job = replay_jobs(["t.trace"])[0]
        crashed = JobOutcome(job=job, classification=CRASH, payload=None)
        with pytest.raises(ValueError):
            merge_replay(FleetReport([crashed], workers=1))


# ----------------------------------------------------------------------
# Parity: the fleet reproduces the single-process baselines byte for byte
# ----------------------------------------------------------------------


class TestSingleProcessParity:
    def test_fuzz_report_byte_identical(self):
        from repro.fuzz import fuzz_run

        baseline = fuzz_run(7, rounds=1, substrate="pyc")
        merged, report = fleet_fuzz(
            7, rounds=1, substrate="pyc", workers=0
        )
        assert report.ok
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )

    def test_chaos_report_identical(self):
        from repro.resilience import chaos_run

        baseline = chaos_run(3, substrate="pyc", rounds=1)
        merged, report = fleet_chaos(3, substrate="pyc", workers=0)
        assert report.ok
        assert merged == baseline

    def test_corpus_byte_identical(self, tmp_path):
        from repro.fuzz.corpus import MANIFEST_NAME, build_corpus

        baseline_dir = str(tmp_path / "baseline")
        fleet_dir = str(tmp_path / "fleet")
        build_corpus(baseline_dir, 5, substrate="pyc")
        manifest, report = fleet_corpus(
            fleet_dir, 5, substrate="pyc", workers=0
        )
        assert report.ok
        baseline_files = sorted(os.listdir(baseline_dir))
        assert sorted(os.listdir(fleet_dir)) == baseline_files
        assert MANIFEST_NAME in baseline_files
        for name in baseline_files:
            with open(os.path.join(baseline_dir, name), "rb") as f:
                expected = f.read()
            with open(os.path.join(fleet_dir, name), "rb") as f:
                assert f.read() == expected, name


# ----------------------------------------------------------------------
# The acceptance surface: real processes, 1/2/4 workers, one answer
# ----------------------------------------------------------------------


def _cluster_ids(report):
    triage = ViolationTriage()
    return [
        triage.ingest_report_line(line)
        for line in violation_stream(report)
    ]


def _deterministic_snapshot(report):
    hub = ObsHub(clock=FakeClock())
    for line in violation_stream(report):
        hub.triage.ingest_report_line(line)
    hub.publish_fleet(report, include_load=False)
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
        for workers, (_, report) in results.items():
            assert violation_stream(report) == stream, workers

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
            workers: _cluster_ids(report)
            for workers, (_, report) in results.items()
        }
        reference = ids[self.WORKER_COUNTS[0]]
        assert reference  # the corpus re-fires real violations
        assert all(value == reference for value in ids.values())

    def test_obs_snapshots_identical(self, runs):
        _, results = runs
        snapshots = [
            json.dumps(_deterministic_snapshot(report), sort_keys=True)
            for _, report in results.values()
        ]
        assert len(set(snapshots)) == 1

    def test_every_job_completed_without_incident(self, runs):
        _, results = runs
        for workers, (_, report) in results.items():
            counts = report.counts
            assert counts[CRASH] == 0, workers
            assert counts["hang"] == 0, workers
            assert counts[EXPIRED] == 0, workers


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
        assert violation_stream(report) == stream
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
        queue_path = str(tmp_path / "fleet.queue")
        jobs = bench_trial_jobs(11, 4)
        jobs.append(Job(
            kind="bench-trial",
            params={"substrate": "pyc", "trial": 99, "die_once": marker},
            seed=11,
        ))
        with JobQueue(queue_path) as queue:
            report = FleetScheduler(
                jobs, workers=2, seed=11, retries=1,
                backoff_base=0.01, backoff_cap=0.02, queue=queue,
            ).run()
            assert report.ok
            victim = report.outcomes[-1]
            assert victim.classification in (CLEAN, VIOLATION)
            assert victim.attempts == 2  # died once, recovered once
            stats = queue.stats()
            assert stats["acked"] == len(jobs)
            assert stats["depth"] == 0
            assert stats["duplicate_acks"] == 0
            assert stats["requeues"] >= 1  # the death went through requeue
        # Durability: the acks survive reopen with nothing left to run.
        with JobQueue(queue_path) as reopened:
            assert reopened.acked == len(jobs)
            assert reopened.recover_leases() == []
            assert reopened.depth == 0

    def test_smoke_gate_passes_on_two_workers(self):
        smoke = fleet_smoke(workers=2, corpus_dir=CORPUS_DIR)
        assert smoke["ok"]
        assert smoke["stream_identical"]
        assert smoke["counts"][CRASH] == 0


# ----------------------------------------------------------------------
# The process-mode watchdog: how `--timeout` runs see failures
# ----------------------------------------------------------------------


class TestProcessWatchdog:
    """One worker process, no retries: the ``--timeout`` settings."""

    def test_hung_job_is_killed_and_the_next_job_completes(self, tmp_path):
        # Opening a FIFO for reading blocks until a writer comes: the
        # replay job hangs until the watchdog kills its worker.
        fifo = str(tmp_path / "hang.trace")
        os.mkfifo(fifo)
        good = os.path.join(CORPUS_DIR, "leak_monitor.trace")
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

    @pytest.mark.parametrize("retries", [0, 1])
    def test_worker_death_blames_the_job_that_was_running(
        self, tmp_path, retries
    ):
        # One chunk of two: the first job finishes, the second SIGKILLs
        # its worker.  The finished result must survive the death, and
        # the blame must land on the job that was running.
        ok = Job(kind="bench-trial", params={"substrate": "pyc", "trial": 0})
        killer = Job(
            kind="bench-trial",
            params={"substrate": "pyc", "trial": 1,
                    "die_once": str(tmp_path / "die.marker")},
        )
        report = FleetScheduler(
            [ok, killer], workers=1, batch=2, retries=retries,
            backoff_base=0.01, backoff_cap=0.02,
        ).run()
        healthy, victim = report.outcomes
        assert healthy.classification == CLEAN
        assert healthy.attempts == 1
        if retries:
            assert victim.classification in (CLEAN, VIOLATION)
            assert victim.attempts == 2
        else:
            assert victim.classification == CRASH
            assert victim.detail == "worker 0 died (exitcode {})".format(
                -signal.SIGKILL
            )
            assert victim.attempts == 1

    def test_raising_job_is_a_crash_with_detail(self, tmp_path):
        job = Job(
            kind="bench-trial",
            params={"substrate": "pyc", "trial": 0,
                    "raise_once": str(tmp_path / "raise.marker")},
        )
        report = FleetScheduler([job], workers=1, retries=0).run()
        outcome = report.outcomes[0]
        assert outcome.classification == CRASH
        assert outcome.detail.startswith("RuntimeError:")
        assert outcome.attempts == 1
        assert not report.ok


# ----------------------------------------------------------------------
# Fleet series in the obs hub
# ----------------------------------------------------------------------


class TestObsIntegration:
    def _report(self):
        executor, _ = _flaky_executor()
        return FleetScheduler(
            bench_trial_jobs(13, 2), workers=2, clock=FakeClock(),
            inline=True, executor=executor,
        ).run()

    def test_publish_fleet_deterministic_series(self):
        hub = ObsHub(clock=FakeClock())
        hub.publish_fleet(self._report(), include_load=False)
        gauges = hub.metrics.snapshot()["gauges"]
        assert any(key.startswith("fleet_ok") for key in gauges)
        assert any(key.startswith("fleet_jobs") for key in gauges)
        assert not any(key.startswith("fleet_workers") for key in gauges)

    def test_publish_fleet_load_series(self):
        hub = ObsHub(clock=FakeClock())
        hub.publish_fleet(self._report())
        gauges = hub.metrics.snapshot()["gauges"]
        assert any(key.startswith("fleet_workers") for key in gauges)
        assert any(key.startswith("fleet_utilization") for key in gauges)


# ----------------------------------------------------------------------
# Batched lease/dispatch IPC
# ----------------------------------------------------------------------


class TestBatchedScheduler:
    def test_batch_knob_is_normalized(self):
        scheduler = FleetScheduler(bench_trial_jobs(5, 1), batch=0)
        assert scheduler.batch == 1
        scheduler = FleetScheduler(bench_trial_jobs(5, 1), batch=4)
        assert scheduler.batch == 4

    def test_inline_batched_report_identical_to_unbatched(self):
        jobs = bench_trial_jobs(13, 6)
        bodies = {}
        for batch in (1, 3, 8):
            executor, _ = _flaky_executor()
            report = FleetScheduler(
                jobs, workers=2, seed=13, clock=FakeClock(),
                inline=True, executor=executor, batch=batch,
            ).run()
            bodies[batch] = json.dumps(report.to_json(), sort_keys=True)
        assert len(set(bodies.values())) == 1

    def test_inline_batched_retry_still_works(self):
        jobs = bench_trial_jobs(17, 4)
        executor, calls = _flaky_executor(fail_first={jobs[1].job_id})
        report = FleetScheduler(
            jobs, workers=2, seed=17, retries=1, backoff_base=0.01,
            backoff_cap=0.05, clock=FakeClock(), inline=True,
            executor=executor, batch=3,
        ).run()
        assert report.ok
        assert calls[jobs[1].job_id] == 2
        assert all(o.classification == CLEAN for o in report.outcomes)

    def test_process_batched_stream_matches_baseline(self):
        paths, stream, events = corpus_baseline(CORPUS_DIR)
        merged, report = fleet_replay(paths, workers=2, batch=4)
        assert violation_stream(report) == stream
        assert merged.event_count == events
        counts = report.counts
        assert counts[CRASH] == 0
        assert counts["hang"] == 0
        assert counts[EXPIRED] == 0

    def test_batched_group_commit_queue_drain(self, tmp_path):
        jobs = bench_trial_jobs(11, 8)
        queue = JobQueue(
            str(tmp_path / "fleet.queue"), sync="group",
            group_max_batch=16, group_max_delay_ms=1e12,
        )
        with queue:
            report = FleetScheduler(
                jobs, workers=2, seed=11, queue=queue, batch=4,
            ).run()
            assert report.ok
            stats = queue.stats()
            assert stats["acked"] == len(jobs)
            assert stats["duplicate_acks"] == 0
            # run() ends with the explicit durability barrier: nothing
            # may remain in the window once completion is reported.
            assert stats["unflushed_acks"] == 0
            assert stats["ack_records"] == len(jobs)
            # Group commit amortizes: strictly fewer fsyncs than final
            # dispositions (eager mode pays one per disposition).
            assert stats["fsyncs"] < stats["ack_records"]
        with JobQueue(str(tmp_path / "fleet.queue")) as reopened:
            assert reopened.acked == len(jobs)
            assert reopened.depth == 0

    def test_report_spawn_seconds_roundtrips(self):
        executor, _ = _flaky_executor()
        report = FleetScheduler(
            bench_trial_jobs(5, 2), workers=1, clock=FakeClock(),
            inline=True, executor=executor,
        ).run()
        body = report.load_json()
        assert "spawn_seconds" in body
        assert body["spawn_seconds"] == 0.0  # inline mode spawns nothing
