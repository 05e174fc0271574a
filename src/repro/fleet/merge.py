"""Order-independent result merging: arrival order never leaks out.

Every merge here is keyed by job ID and ordered by the *submitted* job
list, so the merged violation stream, the assembled fuzz report, and
the ObsHub snapshot are byte-identical whether the fleet ran on one
worker or sixteen, and whatever order its jobs finished in.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.fleet.scheduler import FleetReport, JobOutcome
from repro.trace.replay import ReplayResult


class MissingPayloadError(ValueError):
    """A job ended without a payload, so its results cannot merge.

    ``outcome`` says which job and why (its classification and detail).
    """

    def __init__(self, outcome: JobOutcome):
        super().__init__(
            "job {} ended {} with no payload; cannot merge".format(
                outcome.job.describe(), outcome.classification
            )
        )
        self.outcome = outcome


def _payloads(report: FleetReport, kind: str) -> List[dict]:
    """Completed payloads of one kind, in job submission order."""
    out: List[dict] = []
    for outcome in report.outcomes:
        if outcome.job.kind != kind:
            continue
        if outcome.payload is None:
            raise MissingPayloadError(outcome)
        out.append(outcome.payload)
    return out


class MergedReplay:
    """A multi-file replay: one ``(path, ReplayResult)`` per file.

    Files keep submission order.  Each result carries what the one-file
    baseline :func:`repro.trace.replay.replay_path` reports, recorded
    stream and warnings included, so callers check one file or many the
    same way.
    """

    def __init__(self, files: List[Tuple[str, ReplayResult]]):
        self.files = files

    @property
    def violations(self) -> List[str]:
        return [
            report for _, result in self.files for report in result.violations
        ]

    @property
    def event_count(self) -> int:
        return sum(result.event_count for _, result in self.files)


def merge_replay(report: FleetReport) -> MergedReplay:
    """Fold replay-shard payloads into a :class:`MergedReplay`.

    :func:`repro.fleet.jobs.replay_jobs` makes one job per distinct
    path, so each payload is one whole file.
    """
    files = []
    for payload in _payloads(report, "replay-shard"):
        result = ReplayResult(payload["header"])
        result.reports = [(seq, text) for seq, text in payload["reports"]]
        result.event_count = payload["events"]
        result.recorded_reports = payload["recorded_reports"]
        result.log_lines = payload["warnings"]
        files.append((payload["path"], result))
    return MergedReplay(files)


def merge_fuzz(
    report: FleetReport, seed: int, rounds: int, substrate: str
) -> Dict[str, object]:
    """Assemble fuzz-campaign payloads into the canonical fuzz report.

    The parts reach :func:`repro.fuzz.engine.assemble_report` in
    :func:`repro.fleet.jobs.fuzz_jobs` order whatever order the jobs
    finished in, so the report is byte-identical at any worker count.
    """
    from repro.fuzz.engine import assemble_report

    valid_parts: List[dict] = []
    fault_parts: List[dict] = []
    for payload in _payloads(report, "fuzz-campaign"):
        if payload["campaign"] == "valid":
            valid_parts.append(payload["part"])
        else:
            fault_parts.append(payload["part"])
    return assemble_report(seed, rounds, substrate, valid_parts, fault_parts)


def violation_stream(report: FleetReport) -> List[str]:
    """The canonical merged violation stream (submission order, seq
    order within replay jobs) — the byte-identity surface the
    determinism gates compare across worker counts."""
    out: List[str] = []
    for outcome in report.outcomes:
        payload = outcome.payload
        if payload is not None and "reports" in payload:
            reports = sorted(payload["reports"], key=lambda item: item[0])
            out.extend(text for _, text in reports)
        else:
            out.extend(outcome.violations)
    return out

