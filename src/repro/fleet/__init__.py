"""repro.fleet: a multi-process execution fabric.

Every checking workload the repo can run — replay shards, fuzz
campaigns, chaos rounds, bench trials, corpus builds — becomes a typed
:class:`~repro.fleet.jobs.Job` with a deterministic ID, flows through a
crash-safe persistent :class:`~repro.fleet.queue.JobQueue` (the same
length-prefixed journal format trace recovery reads), and executes on
a :class:`~repro.fleet.scheduler.FleetScheduler`: one pending deque
feeding every worker slot in submission order, one pipe per worker, a
wall-clock watchdog per job, classified exits (clean / violation /
crash / hang / expired) with capped-backoff retry, and bounded
in-flight backpressure.  The scheduler is the one runner for parallel
and watched work alike: ``trace replay --workers N`` / ``--timeout T``
and ``fuzz run --workers N`` / ``--timeout T`` run here.

The fabric's core invariant is *merge determinism*: results are merged
keyed by job ID in submission order (:mod:`repro.fleet.merge`), never
arrival order, so the merged violation stream and ObsHub snapshot are
byte-identical across 1, 2, or N workers and any batch size.
"""

from repro.core.store import Fault, FaultyStore, InjectedFault, Store
from repro.fleet.chaos import storage_chaos, storage_chaos_gate
from repro.fleet.jobs import (
    JOB_KINDS,
    Job,
    bench_trial_jobs,
    chaos_jobs,
    corpus_jobs,
    execute_job,
    fuzz_jobs,
    replay_jobs,
)
from repro.fleet.merge import (
    merge_chaos,
    merge_corpus,
    merge_fuzz,
    merge_replay,
    violation_stream,
)
from repro.fleet.queue import (
    SYNC_MODES,
    JobQueue,
    QueueCorruptionError,
    QueueFormatError,
)
from repro.fleet.runner import (
    fleet_chaos,
    fleet_corpus,
    fleet_fuzz,
    fleet_replay,
    fleet_smoke,
)
from repro.fleet.scheduler import EXPIRED, FleetReport, FleetScheduler

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobQueue",
    "QueueCorruptionError",
    "QueueFormatError",
    "SYNC_MODES",
    "FleetReport",
    "FleetScheduler",
    "EXPIRED",
    "Store",
    "FaultyStore",
    "Fault",
    "InjectedFault",
    "storage_chaos",
    "storage_chaos_gate",
    "bench_trial_jobs",
    "chaos_jobs",
    "corpus_jobs",
    "execute_job",
    "fuzz_jobs",
    "replay_jobs",
    "merge_chaos",
    "merge_corpus",
    "merge_fuzz",
    "merge_replay",
    "violation_stream",
    "fleet_chaos",
    "fleet_corpus",
    "fleet_fuzz",
    "fleet_replay",
    "fleet_smoke",
]
