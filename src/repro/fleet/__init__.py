"""repro.fleet: a multi-process execution fabric.

The fleet runs what ``trace replay`` and ``fuzz run`` hand it: replay
shards and fuzz campaign slices, typed
:class:`~repro.fleet.jobs.Job` envelopes with deterministic IDs.
Every job executes on a :class:`~repro.fleet.scheduler.FleetScheduler`:
one pending deque feeding every worker slot in submission order, one
job in flight per worker over one pipe each, a wall-clock watchdog per
job, and classified exits (clean / violation / crash / hang) with
capped-backoff retry.  The scheduler is the one runner for parallel
and watched work alike: ``trace replay --workers N`` / ``--timeout T``
and ``fuzz run --workers N`` / ``--timeout T`` run here.  A run keeps
its state in memory: a run that dies is run again, never resumed.

The fabric's core invariant is *merge determinism*: results are merged
keyed by job ID in submission order (:mod:`repro.fleet.merge`), never
arrival order, so the merged violation stream is byte-identical
across 1, 2, or N workers.
"""

from repro.fleet.jobs import (
    JOB_KINDS,
    Job,
    execute_job,
    fuzz_jobs,
    replay_jobs,
)
from repro.fleet.merge import merge_fuzz, merge_replay
from repro.fleet.runner import fleet_fuzz, fleet_replay
from repro.fleet.scheduler import FleetReport, FleetScheduler

__all__ = [
    "JOB_KINDS",
    "Job",
    "FleetReport",
    "FleetScheduler",
    "execute_job",
    "fuzz_jobs",
    "replay_jobs",
    "merge_fuzz",
    "merge_replay",
    "fleet_fuzz",
    "fleet_replay",
]
