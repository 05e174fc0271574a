"""Typed job envelopes: the unit of work the fleet schedules.

A :class:`Job` is a frozen, JSON-round-trippable description of one
unit of checking work.  Its identity is content-derived — the sha1 of
the canonical JSON of the envelope — so the same work submitted twice
gets the same ID, persistent-queue enqueues are naturally idempotent,
and the merge layer can key results by ID with no registration step.

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
JOB_KINDS = (
    "replay-shard",
    "fuzz-campaign",
    "chaos-round",
    "bench-trial",
    "corpus-build",
)


@dataclass(frozen=True)
class Job:
    """One schedulable unit of checking work.

    ``priority`` orders queue leases (lower leases first; ties break by
    enqueue order).  ``deadline`` is a seconds budget from scheduler
    start: a job not *dispatched* before its deadline is classified
    ``expired`` without running — late work on a reproducibility fleet
    is wrong work, not slow work.  ``max_attempts`` caps total
    executions before the job is dead-lettered as poison; ``None``
    defers to the scheduler's ``retries`` default, and is omitted from
    the canonical JSON so pre-existing job IDs are unchanged.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    fingerprint: Optional[str] = None
    priority: int = 0
    deadline: Optional[float] = None
    max_attempts: Optional[int] = None

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(
                "unknown job kind {!r}; expected one of {}".format(
                    self.kind, ", ".join(JOB_KINDS)
                )
            )
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 when set")

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "priority": self.priority,
            "deadline": self.deadline,
        }
        if self.max_attempts is not None:
            out["max_attempts"] = self.max_attempts
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Job":
        return cls(
            kind=data["kind"],
            params=dict(data.get("params", {})),
            seed=data.get("seed", 0),
            fingerprint=data.get("fingerprint"),
            priority=data.get("priority", 0),
            deadline=data.get("deadline"),
            max_attempts=data.get("max_attempts"),
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
    priority: int = 0,
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
                priority=priority,
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
    """One valid-campaign job per substrate plus one job per fault class.

    The order matches :func:`repro.fuzz.engine.fuzz_run`'s loop
    (substrates, then each substrate's faults), so the merged report
    assembles byte-identically.
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


def chaos_jobs(
    seed: int,
    *,
    substrate: str = "both",
    rounds: int = 1,
) -> List[Job]:
    """One chaos-round job per substrate, in ``_substrates`` order."""
    from repro.fuzz.engine import _substrates

    return [
        Job(
            kind="chaos-round",
            params={"substrate": sub, "rounds": rounds},
            seed=seed,
        )
        for sub in _substrates(substrate)
    ]


def corpus_jobs(
    seed: int,
    *,
    substrate: str = "both",
    segments: Optional[int] = None,
) -> List[Job]:
    """One corpus-build job per fault class, in registry order."""
    from repro.fuzz.faults import FAULTS, faults_for

    faults = list(FAULTS) if substrate == "both" else faults_for(substrate)
    return [
        Job(
            kind="corpus-build",
            params={"fault": fault.name, "segments": segments},
            seed=seed,
        )
        for fault in faults
    ]


def bench_trial_jobs(
    seed: int, count: int, *, substrate: str = "pyc", noop: bool = False
) -> List[Job]:
    """Self-contained generated-workload trials (no file dependencies).

    ``noop=True`` yields transport-cost probes: jobs whose execution is
    a constant-time return, so a throughput benchmark measures the
    scheduler/queue/IPC overhead per job rather than checker CPU.
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
    the lease-expiry and retry tests drive.
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


def _execute_chaos_round(job: Job) -> dict:
    from repro.resilience.chaos import chaos_run

    params = job.params
    report = chaos_run(
        job.seed,
        substrate=str(params["substrate"]),
        rounds=int(params.get("rounds", 1)),
    )
    return {
        "kind": job.kind,
        "report": report,
        "violations": [],
        "events": 0,
    }


def _execute_bench_trial(job: Job) -> dict:
    from repro.fuzz.engine import run_ops, task_rng
    from repro.fuzz.gen import generate_sequence

    params = job.params
    substrate = str(params.get("substrate", "pyc"))
    if params.get("noop"):
        # Transport-cost probe: the throughput benchmark uses noop
        # trials so jobs/sec measures IPC + journal overhead, not the
        # fuzz workload itself.
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


def _execute_corpus_build(job: Job) -> dict:
    from repro.fuzz.faults import fault_by_name
    from repro.fuzz.ops import run_jni_ops, run_pyc_ops
    from repro.fuzz.shrink import shrink_fault
    from repro.trace import TraceRecorder

    params = job.params
    fault = fault_by_name(str(params["fault"]))
    shrunk = shrink_fault(fault, job.seed, segments=params.get("segments"))
    recorder = TraceRecorder(workload="fuzz:" + fault.name)
    runner = run_pyc_ops if fault.substrate == "pyc" else run_jni_ops
    final = runner(shrunk.sequence.ops, observer=recorder)
    events = recorder.close()
    entry = {
        "name": fault.name,
        "substrate": fault.substrate,
        "machine": fault.machine,
        "trace": fault.name + ".trace",
        "fingerprint": list(shrunk.fingerprint),
        "ops": [list(op) for op in shrunk.sequence.ops],
        "original_ops": shrunk.original_ops,
        "shrunk_ops": shrunk.shrunk_ops,
        "shrink_runs": shrunk.runs,
        "events": events,
        "violations": final.reports,
    }
    return {
        "kind": job.kind,
        "entry": entry,
        "trace_lines": list(recorder.lines or []),
        # Corpus entries *record* violations by design; not incidents.
        "violations": [],
        "events": events,
    }


_EXECUTORS = {
    "replay-shard": _execute_replay_shard,
    "fuzz-campaign": _execute_fuzz_campaign,
    "chaos-round": _execute_chaos_round,
    "bench-trial": _execute_bench_trial,
    "corpus-build": _execute_corpus_build,
}


def execute_job(job: Job) -> dict:
    """Run one job to completion in this process; returns its payload."""
    _fault_hooks(job.params)
    return _EXECUTORS[job.kind](job)
