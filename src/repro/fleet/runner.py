"""High-level fleet entry points: workloads in, merged reports out.

Each ``fleet_*`` function builds the ordered job list, runs the fleet
dispatcher, and merges through :mod:`repro.fleet.merge`.  The fleet is
the one runner for replay and fuzz work: ``trace replay`` runs
:func:`fleet_replay` and ``fuzz run`` runs :func:`fleet_fuzz`, in this
process at ``workers <= 0``.  A run keeps its state in memory, and a
run that dies is run again.  The pinned answers are
:func:`repro.trace.replay.replay_path` for one file, the violation
stream and event total in the shipped regression corpus's manifest,
and the fuzz report digests in the tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fleet.jobs import fuzz_jobs, replay_jobs
from repro.fleet.merge import MergedReplay, merge_fuzz, merge_replay
from repro.fleet.scheduler import FleetReport, FleetScheduler


def _run(jobs, *, workers: int, **kwargs) -> FleetReport:
    return FleetScheduler(
        jobs, workers=workers, inline=workers <= 0, **kwargs
    ).run()


def fleet_replay(
    paths: List[str],
    *,
    workers: int = 2,
    force: bool = False,
    repeats: int = 1,
    **kwargs,
) -> Tuple[MergedReplay, FleetReport]:
    """Replay trace files on the fleet; one job per distinct file.

    ``workers <= 0`` runs the jobs in this process.  Each file's result
    equals :func:`repro.trace.replay.replay_path` on that file.
    """
    jobs = replay_jobs(paths, force=force, repeats=repeats)
    report = _run(jobs, workers=workers, **kwargs)
    return merge_replay(report), report


def fleet_fuzz(
    seed: int,
    *,
    rounds: int = 3,
    substrate: str = "both",
    segments: Optional[int] = None,
    workers: int = 2,
    **kwargs,
) -> Tuple[Dict[str, object], FleetReport]:
    """Run a fuzz campaign; one job per :func:`fuzz_jobs` slice.

    Per round and substrate: one valid sequence (expected to produce
    zero violations and zero replay drift), then every registered fault
    class injected into its own fresh valid sequence (expected to be
    detected by the tagged machine, again with zero drift).  Returns
    the canonical (deterministic) report and the fleet report.
    """
    jobs = fuzz_jobs(seed, rounds=rounds, substrate=substrate, segments=segments)
    report = _run(jobs, workers=workers, seed=seed, **kwargs)
    return merge_fuzz(report, seed, rounds, substrate), report
