"""repro.fleet: a multi-process execution fabric.

The fleet's workloads — replay shards, fuzz campaigns and bench
trials — are typed :class:`~repro.fleet.jobs.Job` envelopes with
deterministic IDs.  Every job executes on a
:class:`~repro.fleet.scheduler.FleetScheduler`: one pending deque
feeding every worker slot in submission order, one pipe per worker, a
wall-clock watchdog per job, classified exits (clean / violation /
crash / hang / expired) with capped-backoff retry, and bounded
in-flight backpressure.  The scheduler is the one runner for parallel
and watched work alike: ``trace replay --workers N`` / ``--timeout T``
and ``fuzz run --workers N`` / ``--timeout T`` run here.  A run keeps
its state in memory: a run that dies is run again, never resumed.

The fabric's core invariant is *merge determinism*: results are merged
keyed by job ID in submission order (:mod:`repro.fleet.merge`), never
arrival order, so the merged violation stream and ObsHub snapshot are
byte-identical across 1, 2, or N workers and any batch size.
"""

from repro.fleet.jobs import (
    JOB_KINDS,
    Job,
    bench_trial_jobs,
    execute_job,
    fuzz_jobs,
    replay_jobs,
)
from repro.fleet.merge import merge_fuzz, merge_replay, violation_stream
from repro.fleet.runner import fleet_fuzz, fleet_replay, fleet_smoke
from repro.fleet.scheduler import EXPIRED, FleetReport, FleetScheduler

__all__ = [
    "JOB_KINDS",
    "Job",
    "FleetReport",
    "FleetScheduler",
    "EXPIRED",
    "bench_trial_jobs",
    "execute_job",
    "fuzz_jobs",
    "replay_jobs",
    "merge_fuzz",
    "merge_replay",
    "violation_stream",
    "fleet_fuzz",
    "fleet_replay",
    "fleet_smoke",
]
