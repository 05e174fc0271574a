"""The measurement loop and the end-to-end metrics.

Load shape: a closed loop with one client.  Programs run back to back in
one thread of one process; the seed shuffles program order each round.
Within a round every program runs each paired configuration next to a
production twin on the same inputs, and which of the two goes first
alternates from round to round, so slow drift of the machine cancels in
the ratio.  ``gc.collect()`` runs before every timed run, outside the
timed interval.
"""

from __future__ import annotations

import gc
import os
import random
import time
import traceback
from typing import Callable, Dict, List, Optional

from bench import oracle, programs
from bench.programs import PAIRED, RATIO_METRIC, Program, Workload
from bench.spans import OFF, Tracer
from bench.stats import geomean, median, percentile
from repro.fuzz.engine import fault_campaign, valid_campaign
from repro.fuzz.faults import FAULTS

#: Fuzz seeds are ``seed * FUZZ_SEED_STRIDE + round``.
FUZZ_SEED_STRIDE = 1000


def fuzz_round(label: str, fuzz_seed: int, round_no: int,
               verdicts: oracle.Verdicts, tracer: Tracer = OFF,
               count_detection: bool = False) -> List[float]:
    """One round of seeded fuzz programs: ``fault_campaign(fuzz_seed, 1, f)``
    for every fault class and one ``valid_campaign`` per substrate.

    They have no unchecked twin, so they count toward verdicts and
    ``fuzz.program_ms`` only.  Returns each program's seconds.
    """
    jobs = [("fault", f.name, f.machine) for f in FAULTS]
    jobs += [("valid", sub, None) for sub in ("jni", "pyc")]
    seconds: List[float] = []
    for kind, name, machine in jobs:
        pid = "{}:fuzz-{}:r{}".format(label, name, round_no)
        expect = verdicts.expectation(name, machine)
        start = time.perf_counter()
        try:
            with tracer.span("program", pid):
                with tracer.span("fuzz.run_ops"):
                    if kind == "fault":
                        part = fault_campaign(fuzz_seed, 1, name)
                    else:
                        part = valid_campaign(fuzz_seed, 1, name)
        except Exception:
            verdicts.add(
                pid, expect,
                ["crash: " + traceback.format_exc(limit=3).strip()],
                False, False,
            )
            continue
        seconds.append(time.perf_counter() - start)
        if kind == "fault":
            problems = oracle.check_fault_campaign(part)
            if machine != expect:
                problems.append(
                    "fuzz {}: expected {}, the fault targets {}".format(
                        name, expect, machine
                    )
                )
            caught = machine == expect and (
                part["stats"]["detected"] == part["stats"]["runs"]
            )
        else:
            problems = oracle.check_valid_campaign(part, name)
            caught = False
        verdicts.add(pid, expect, problems, caught, count_detection)
    return seconds


class Loop:
    """Runs a workload's rounds and keeps every sample and verdict."""

    def __init__(self, workload: Workload, seed: int, work_dir: str,
                 verdicts: oracle.Verdicts, tracer: Tracer = OFF):
        self.workload = workload
        self.seed = seed
        self.programs: List[Program] = workload.programs(seed)
        self.index = {p.name: i for i, p in enumerate(self.programs)}
        self.trace_path = os.path.join(work_dir, "program.trace")
        self.verdicts = verdicts
        self.tracer = tracer
        #: config -> program -> paired ratios (config time / twin time).
        self.ratios: Dict[str, Dict[str, List[float]]] = {
            config: {} for config in RATIO_METRIC
        }
        self.rounds = 0
        #: Round-0 record traces: bytes written and events captured.
        self.trace_bytes = 0
        self.trace_events = 0
        #: Contained internal checker faults over every checked run.
        self.faults = 0

    # -- the loop ---------------------------------------------------------

    def run(self, seconds: float, min_rounds: int = 1, first_round: int = 0,
            side: Optional[Callable[[], None]] = None,
            side_calls: int = 0) -> None:
        """Run rounds until ``seconds`` pass and ``min_rounds`` are done.

        ``side`` is called ``side_calls`` times between programs, evenly
        spread over the run (the set-up probe): a slow spell of the
        machine then hits a few of its samples, not all of them.
        """
        start = time.perf_counter()
        deadline = start + seconds
        interval = seconds / side_calls if side_calls else 0.0
        sides = 0
        round_no = first_round
        while True:
            order = list(self.programs)
            random.Random(
                "bench:order:{}:{}:{}".format(
                    self.workload.name, self.seed, round_no
                )
            ).shuffle(order)
            done = round_no - first_round
            for program in order:
                now = time.perf_counter()
                if sides < side_calls and now >= start + sides * interval:
                    side()
                    sides += 1
                if done >= min_rounds and now >= deadline:
                    for _ in range(sides, side_calls):
                        side()
                    return
                self.rounds = round_no + 1
                self._program_round(program, round_no)
            if self.workload.fuzz:
                self._fuzz_round(round_no)
            round_no += 1

    def _timed(self, program: Program, config: str, pid: str):
        gc.collect()
        return programs.run_config(
            program, config, self.trace_path, self.tracer, pid
        )

    def _program_round(self, program: Program, round_no: int) -> None:
        pid = "{}:{}".format(self.workload.name, program.name)
        expect = self.verdicts.expectation(program.name, program.expect)
        runs = []
        problems: List[str] = []
        replay = None
        paired = PAIRED
        if (round_no + self.index[program.name]) % self.workload.trace_every:
            paired = tuple(c for c in PAIRED if c != "record")
        shift = round_no % len(paired)
        production_first = round_no % 2 == 0
        for config in paired[shift:] + paired[:shift]:
            order = ("production", config)
            if not production_first:
                order = order[::-1]
            timed = {}
            try:
                for c in order:
                    timed[c] = self._timed(
                        program, c, "{}:{}:r{}".format(pid, c, round_no)
                    )
                    runs.append((c, timed[c]))
                    if c == "record":
                        gc.collect()
                        seconds, replay = programs.run_replay(
                            self.trace_path, self.tracer,
                            "{}:replay:r{}".format(pid, round_no),
                        )
                        timed["replay"] = seconds
            except Exception:
                # The loop is the boundary that must keep running: a crash
                # is a wrong verdict, reported with its traceback.
                problems.append(
                    "crash in {}: {}".format(
                        config, traceback.format_exc(limit=3).strip()
                    )
                )
                continue
            twin = timed["production"].seconds
            self._ratio(config, program.name, timed[config].seconds / twin)
            if config == "record":
                self._ratio("replay", program.name, timed["replay"] / twin)
                if round_no == 0:
                    self.trace_bytes += os.path.getsize(self.trace_path)
                    self.trace_events += timed["record"].events
            self.faults += timed[config].faults
        problems += oracle.check_program(expect, runs, replay)
        self.verdicts.add(
            "{}:r{}".format(pid, round_no),
            expect,
            problems,
            oracle.detected(expect, runs),
            count_detection=round_no == 0,
        )

    def _ratio(self, config: str, name: str, ratio: float) -> None:
        self.ratios[config].setdefault(name, []).append(ratio)

    def _fuzz_round(self, round_no: int) -> None:
        fuzz_round(
            self.workload.name, self.seed * FUZZ_SEED_STRIDE + round_no,
            round_no, self.verdicts, self.tracer, round_no == 0,
        )

    # -- metrics ----------------------------------------------------------

    def pairs(self, config: str) -> int:
        return sum(len(v) for v in self.ratios[config].values())

    def program_medians(self, config: str) -> Dict[str, float]:
        return {
            name: median(values) for name, values in self.ratios[config].items()
        }

    def ratio(self, config: str) -> Optional[float]:
        """Geomean over programs of each program's median pair ratio."""
        medians = self.program_medians(config)
        return geomean(list(medians.values())) if medians else None

    def e2e(self) -> Dict[str, Dict[str, object]]:
        """The ratio metrics with their sample counts (pairs)."""
        metrics: Dict[str, Dict[str, object]] = {}
        for config, name in RATIO_METRIC.items():
            if self.pairs(config):
                metrics[name] = {
                    "value": self.ratio(config),
                    "unit": "x",
                    "samples": self.pairs(config),
                }
        checked = [r for values in self.ratios["jinn"].values() for r in values]
        if checked:
            metrics["overhead_x_p90"] = {
                "value": percentile(checked, 0.9),
                "unit": "x",
                "samples": len(checked),
            }
        return metrics
