"""The seeded, reproducible fuzz campaign: its slices and its report.

Every run is parameterized by a single integer seed.  Each generation
or injection step derives its own :func:`task_rng` from the seed plus a
string tag, so sequences are independent of iteration order and the
whole report is a pure function of ``(seed, rounds, substrate)`` —
``repro fuzz run --seed N`` twice produces byte-identical JSON (the
report carries no timing, and the model's addresses/serials are
deterministic per VM).  A campaign is the slice list of
:func:`repro.fleet.jobs.fuzz_jobs` — one :func:`valid_campaign` per
substrate, one :func:`fault_campaign` per fault class — folded by
:func:`assemble_report`; :func:`repro.fleet.fleet_fuzz` runs it, in
process or on worker processes.

Each sequence is executed once, live, with a trace recorder attached;
the captured trace is immediately replayed offline and the two
violation streams are diffed.  That cross-check is the fuzzer's second
oracle: a *divergence* means the recorder, the replayer, or a machine's
termination sweep disagrees with live interposition — a checker bug,
regardless of whether the sequence itself was buggy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fuzz.faults import fault_by_name
from repro.fuzz.gen import generate_sequence, generator_machines
from repro.fuzz.ops import RunOutcome, run_jni_ops, run_pyc_ops


def task_rng(seed: int, *parts) -> random.Random:
    """A deterministic RNG scoped to one task of one seeded run."""
    return random.Random("jinn-fuzz:{}:{}".format(seed, ":".join(str(p) for p in parts)))


@dataclass
class ExecutionResult:
    """One sequence executed live + replayed from its own trace."""

    live: RunOutcome
    replay_reports: List[str]
    diff: Dict[str, object]
    event_count: int
    #: The recorded trace lines, for byte-level parity checks.
    trace_lines: Optional[List[str]] = None

    @property
    def divergent(self) -> bool:
        return bool(self.diff["drift"])


def run_ops(substrate: str, ops) -> ExecutionResult:
    """Run ops live under a recorder, replay the trace, diff the streams."""
    from repro.trace import TraceRecorder, diff_reports, replay_lines

    recorder = TraceRecorder()
    runner = run_pyc_ops if substrate == "pyc" else run_jni_ops
    live = runner(ops, observer=recorder)
    recorder.close()
    replay = replay_lines(recorder.lines)
    return ExecutionResult(
        live=live,
        replay_reports=replay.violations,
        diff=diff_reports(live.reports, replay.violations),
        event_count=replay.event_count,
        trace_lines=recorder.lines,
    )


def _substrates(substrate: str) -> List[str]:
    if substrate == "both":
        return ["jni", "pyc"]
    if substrate in ("jni", "pyc"):
        return [substrate]
    raise ValueError("unknown substrate: {!r}".format(substrate))


def valid_campaign(
    seed: int,
    rounds: int,
    substrate: str,
    *,
    segments: Optional[int] = None,
) -> Dict[str, object]:
    """The valid-sequence slice of one substrate's campaign.

    A pure function of its arguments (every round derives its own
    :func:`task_rng`), so the slices split freely across fleet workers
    and merge identically.
    """
    valid: Dict[str, object] = {
        "sequences": 0,
        "ops": 0,
        "violations": 0,
        "violating_sequences": [],
        "divergences": 0,
    }
    runs = 0
    events = 0
    for round_no in range(rounds):
        sequence = generate_sequence(
            task_rng(seed, "valid", substrate, round_no),
            substrate,
            segments=segments,
        )
        result = run_ops(substrate, sequence.ops)
        runs += 1
        events += result.event_count
        valid["sequences"] += 1
        valid["ops"] += len(sequence.ops)
        if result.live.reports:
            valid["violations"] += len(result.live.reports)
            valid["violating_sequences"].append(
                {
                    "substrate": substrate,
                    "round": round_no,
                    "reports": result.live.reports,
                }
            )
        if result.divergent:
            valid["divergences"] += 1
    return {"valid": valid, "runs": runs, "events": events}


def fault_campaign(
    seed: int,
    rounds: int,
    fault_name: str,
    *,
    segments: Optional[int] = None,
) -> Dict[str, object]:
    """All rounds of one fault class: generate → inject → run → check.

    Same split-and-merge contract as :func:`valid_campaign`; the
    ``detection_rate`` is left to :func:`assemble_report` so partial
    campaigns stay summable.
    """
    fault = fault_by_name(fault_name)
    stats: Dict[str, object] = {
        "substrate": fault.substrate,
        "machine": fault.machine,
        "runs": 0,
        "detected": 0,
        "divergences": 0,
    }
    runs = 0
    events = 0
    for round_no in range(rounds):
        base = generate_sequence(
            task_rng(seed, "gen", fault.name, round_no),
            fault.substrate,
            segments=segments,
        )
        injected = fault.inject(
            task_rng(seed, "inject", fault.name, round_no), base
        )
        result = run_ops(fault.substrate, injected.ops)
        runs += 1
        events += result.event_count
        stats["runs"] += 1
        if any(v.machine == fault.machine for v in result.live.violations):
            stats["detected"] += 1
        if result.divergent:
            stats["divergences"] += 1
    return {"fault": fault.name, "stats": stats, "runs": runs, "events": events}


def assemble_report(
    seed: int,
    rounds: int,
    substrate: str,
    valid_parts: List[Dict[str, object]],
    fault_parts: List[Dict[str, object]],
) -> Dict[str, object]:
    """Fold campaign parts into the canonical fuzz report.

    ``valid_parts`` must arrive in :func:`_substrates` order and
    ``fault_parts`` in per-substrate
    :func:`repro.fuzz.faults.faults_for` order — the order of
    :func:`repro.fleet.jobs.fuzz_jobs`, which the fleet merge (keyed by
    job ID over that list) keeps at any worker count.
    """
    names = {sub: generator_machines(sub) for sub in _substrates(substrate)}
    valid: Dict[str, object] = {
        "sequences": 0,
        "ops": 0,
        "violations": 0,
        "violating_sequences": [],
        "divergences": 0,
    }
    fault_stats: Dict[str, Dict[str, object]] = {}
    total_runs = 0
    total_events = 0
    for part in valid_parts:
        for key in ("sequences", "ops", "violations", "divergences"):
            valid[key] += part["valid"][key]
        valid["violating_sequences"].extend(part["valid"]["violating_sequences"])
        total_runs += part["runs"]
        total_events += part["events"]
    for part in fault_parts:
        stats = fault_stats.setdefault(part["fault"], part["stats"])
        if stats is not part["stats"]:
            for key in ("runs", "detected", "divergences"):
                stats[key] += part["stats"][key]
        total_runs += part["runs"]
        total_events += part["events"]
    for stats in fault_stats.values():
        stats["detection_rate"] = (
            stats["detected"] / stats["runs"] if stats["runs"] else 0.0
        )
    return {
        "seed": seed,
        "rounds": rounds,
        "substrate": substrate,
        "machines": names,
        "valid": valid,
        "faults": fault_stats,
        "totals": {"runs": total_runs, "events": total_events},
    }


def fuzz_gate(report: Dict[str, object]) -> List[str]:
    """Hard-gate failures in a fuzz report; empty list means pass.

    - a valid sequence that produced any violation (generator or
      checker false-positive bug),
    - any live-vs-replay divergence anywhere,
    - any fault class whose tagged machine failed to fire every round.
    """
    failures: List[str] = []
    valid = report["valid"]
    if valid["violations"]:
        failures.append(
            "valid sequences produced {} violations".format(valid["violations"])
        )
    if valid["divergences"]:
        failures.append(
            "valid sequences diverged from replay {} times".format(
                valid["divergences"]
            )
        )
    for name in sorted(report["faults"]):
        stats = report["faults"][name]
        if stats["detected"] != stats["runs"]:
            failures.append(
                "fault {}: machine {} fired in only {}/{} runs".format(
                    name, stats["machine"], stats["detected"], stats["runs"]
                )
            )
        if stats["divergences"]:
            failures.append(
                "fault {}: {} live-vs-replay divergences".format(
                    name, stats["divergences"]
                )
            )
    return failures
