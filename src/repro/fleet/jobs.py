"""Typed job envelopes: the unit of work the fleet schedules.

A :class:`Job` is a frozen, JSON-round-trippable description of one
unit of checking work.  Its identity is content-derived — the sha1 of
the canonical JSON of the envelope — so the same work submitted twice
gets the same ID, and the merge layer can key results by ID with no
registration step.

There are two kinds: a replay shard (one trace file) and a fuzz
campaign slice.  A fuzz job carries the run seed explicitly.  A replay
job needs no registry fingerprint: the trace's header carries the one
it was recorded under, and :func:`repro.trace.replay.replay_path`
refuses a stale trace from it, in a worker as in a single process.

``execute_job`` is the default executor: it runs one job in the
calling process, dispatches on ``job.kind``, and returns a plain-JSON
payload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

#: Every kind the fabric knows how to execute.
JOB_KINDS = ("replay-shard", "fuzz-campaign")


@dataclass(frozen=True)
class Job:
    """One schedulable unit of checking work."""

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(
                "unknown job kind {!r}; expected one of {}".format(
                    self.kind, ", ".join(JOB_KINDS)
                )
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Job":
        return cls(
            kind=data["kind"],
            params=dict(data.get("params", {})),
            seed=data.get("seed", 0),
        )

    @cached_property
    def job_id(self) -> str:
        """Deterministic content-derived ID (canonical-JSON sha1).

        Computed once per job: the envelope is frozen and nothing
        mutates ``params`` after construction.
        """
        canonical = json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        return "{}[{}]".format(self.kind, self.job_id)


# ----------------------------------------------------------------------
# Builders: workload -> ordered job list
# ----------------------------------------------------------------------


def replay_jobs(
    paths: List[str], *, force: bool = False, repeats: int = 1
) -> List[Job]:
    """One replay-shard job per trace file, in input order.

    Repeated paths are dropped (first occurrence wins): replay is
    deterministic, so a second pass over the same file adds nothing,
    and content-derived job IDs would collide at submission.

    ``repeats`` replays each file that many times inside the job — CPU
    amplification for benches; the reported violation stream and event
    count always describe a *single* replay.
    """
    seen = set()
    jobs: List[Job] = []
    for path in paths:
        if path in seen:
            continue
        seen.add(path)
        jobs.append(
            Job(
                kind="replay-shard",
                params={"path": path, "force": force, "repeats": repeats},
            )
        )
    return jobs


def fuzz_jobs(
    seed: int,
    *,
    rounds: int = 3,
    substrate: str = "both",
    segments: Optional[int] = None,
) -> List[Job]:
    """A fuzz campaign as an ordered list of slices.

    Per substrate (jni, then pyc), one valid-sequence job, then one job
    per fault class in :func:`repro.fuzz.faults.faults_for` order.  This
    list is the one definition of a campaign's slices and their order:
    :func:`repro.fleet.merge.merge_fuzz` folds the payloads in
    submission order, so the report is the same at any worker count.
    """
    from repro.fuzz.engine import _substrates
    from repro.fuzz.faults import faults_for

    jobs: List[Job] = []
    for sub in _substrates(substrate):
        jobs.append(
            Job(
                kind="fuzz-campaign",
                params={
                    "campaign": "valid",
                    "substrate": sub,
                    "rounds": rounds,
                    "segments": segments,
                },
                seed=seed,
            )
        )
        for fault in faults_for(sub):
            jobs.append(
                Job(
                    kind="fuzz-campaign",
                    params={
                        "campaign": "fault",
                        "fault": fault.name,
                        "rounds": rounds,
                        "segments": segments,
                    },
                    seed=seed,
                )
            )
    return jobs


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _execute_replay_shard(job: Job) -> dict:
    from repro.trace.replay import replay_path

    params = job.params
    repeats = int(params.get("repeats", 1))
    result = None
    for _ in range(max(1, repeats)):
        result = replay_path(
            str(params["path"]), force=bool(params.get("force", False))
        )
    # Everything the one-file CLI checks travels with the payload: the
    # recorded stream for the drift check, and torn-tail warnings.
    return {
        "kind": job.kind,
        "path": params["path"],
        "header": result.header,
        "reports": [[seq, text] for seq, text in result.reports],
        "events": result.event_count,
        "violations": result.violations,
        "recorded_reports": result.recorded_reports,
        "warnings": result.warnings,
    }


def _execute_fuzz_campaign(job: Job) -> dict:
    from repro.fuzz.engine import fault_campaign, valid_campaign

    params = job.params
    rounds = int(params.get("rounds", 1))
    segments = params.get("segments")
    if params.get("campaign") == "valid":
        part = valid_campaign(
            job.seed, rounds, str(params["substrate"]), segments=segments
        )
        violations = [
            report
            for seq in part["valid"]["violating_sequences"]
            for report in seq["reports"]
        ]
        return {
            "kind": job.kind,
            "campaign": "valid",
            "part": part,
            "violations": violations,
            "events": part["events"],
        }
    part = fault_campaign(
        job.seed, rounds, str(params["fault"]), segments=segments
    )
    return {
        "kind": job.kind,
        "campaign": "fault",
        "part": part,
        # Detected injected faults are the fuzzer working, not incidents.
        "violations": [],
        "events": part["events"],
    }


_EXECUTORS = {
    "replay-shard": _execute_replay_shard,
    "fuzz-campaign": _execute_fuzz_campaign,
}


def execute_job(job: Job) -> dict:
    """Run one job to completion in this process; returns its payload."""
    return _EXECUTORS[job.kind](job)
