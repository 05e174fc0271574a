"""Typed job envelopes: the unit of work the fleet schedules.

A :class:`Job` is a frozen, JSON-round-trippable description of one
unit of checking work.  Its identity is content-derived — the sha1 of
the canonical JSON of the envelope — so the same work submitted twice
gets the same ID, and the merge layer can key results by ID with no
registration step.

Jobs are *seeded* (every kind that generates work carries the run
seed explicitly) and *fingerprint-pinned* (replay jobs may carry the
registry fingerprint the trace was recorded under, so a fleet of
workers refuses stale traces exactly as a single process would).

``execute_job`` is the worker-side entry point: it runs in the worker
process, dispatches on ``job.kind``, and returns a plain-JSON payload.
The ``die_once`` / ``raise_once`` params are test-only fault hooks,
mirroring the ``die`` hook of
:func:`repro.resilience.recover.journaled_fuzz_record`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

#: Every kind the fabric knows how to execute.
JOB_KINDS = ("replay-shard", "fuzz-campaign", "bench-trial")


@dataclass(frozen=True)
class Job:
    """One schedulable unit of checking work.

    ``deadline`` is a seconds budget from scheduler start: a job not
    *dispatched* before its deadline is classified ``expired`` without
    running — late work on a reproducibility fleet is wrong work, not
    slow work.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    fingerprint: Optional[str] = None
    deadline: Optional[float] = None

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
            "fingerprint": self.fingerprint,
            "deadline": self.deadline,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Job":
        return cls(
            kind=data["kind"],
            params=dict(data.get("params", {})),
            seed=data.get("seed", 0),
            fingerprint=data.get("fingerprint"),
            deadline=data.get("deadline"),
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
    paths: List[str],
    *,
    force: bool = False,
    fingerprint: Optional[str] = None,
    repeats: int = 1,
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
                fingerprint=fingerprint,
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


def bench_trial_jobs(
    seed: int, count: int, *, substrate: str = "pyc", noop: bool = False
) -> List[Job]:
    """Self-contained generated-workload trials (no file dependencies).

    ``noop=True`` yields transport-cost probes: jobs whose execution is
    a constant-time return, so a throughput measurement sees the
    scheduler and IPC overhead per job rather than checker CPU.
    """
    params = {"substrate": substrate}
    if noop:
        params["noop"] = True
    return [
        Job(
            kind="bench-trial",
            params=dict(params, trial=index),
            seed=seed,
        )
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------


def _fault_hooks(params: Dict[str, object]) -> None:
    """Test-only crash/raise injection, keyed by a marker file.

    ``die_once``/``raise_once`` name a path: the first execution to get
    there creates the marker and dies (SIGKILL) or raises; retries and
    requeues find the marker and proceed — the single-fault pattern
    the worker-death and retry tests drive.
    """
    for key, action in (("die_once", "die"), ("raise_once", "raise")):
        marker = params.get(key)
        if not marker:
            continue
        try:
            fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        if action == "die":
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("fleet: injected one-shot failure")


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


def _execute_bench_trial(job: Job) -> dict:
    from repro.fuzz.engine import run_ops, task_rng
    from repro.fuzz.gen import generate_sequence

    params = job.params
    substrate = str(params.get("substrate", "pyc"))
    if params.get("noop"):
        # Transport-cost probe: noop trials make jobs/sec measure the
        # dispatch and IPC overhead, not the fuzz workload itself.
        return {
            "kind": job.kind,
            "trial": params.get("trial", 0),
            "violations": [],
            "events": 1,
            "divergent": False,
        }
    sequence = generate_sequence(
        task_rng(job.seed, "fleet-trial", substrate, params.get("trial", 0)),
        substrate,
    )
    result = run_ops(substrate, sequence.ops)
    return {
        "kind": job.kind,
        "trial": params.get("trial", 0),
        "violations": list(result.live.reports),
        "events": result.event_count,
        "divergent": result.divergent,
    }


_EXECUTORS = {
    "replay-shard": _execute_replay_shard,
    "fuzz-campaign": _execute_fuzz_campaign,
    "bench-trial": _execute_bench_trial,
}


def execute_job(job: Job) -> dict:
    """Run one job to completion in this process; returns its payload."""
    _fault_hooks(job.params)
    return _EXECUTORS[job.kind](job)
