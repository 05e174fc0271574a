"""What each workload runs, and how one program runs in one configuration.

A *program* is one seeded, deterministic input to the checker: a DaCapo
kernel, a generated Python/C extension kernel, or a known-answer bug
program.  A *configuration* is the set of agents it runs under:

- ``production``: no agent (HotSpot / CPython stand-ins; the denominator);
- ``interpose``: interposition only (Jinn's ``interpose`` mode; on
  Python/C, the checker over an empty machine registry);
- ``jinn``: the default checker;
- ``stack``: the default checker plus ``OverheadGovernor`` metering at
  ``budget=1.0`` and ``ObsHub`` telemetry;
- ``record``: the default checker with a ``TraceRecorder`` writing to
  disk, including ``close()``;
- ``replay``: ``replay_path`` of the trace the record run wrote.

Every timed interval covers what a user pays for one program run: the
agents and the VM (or interpreter) are built, the program is defined and
run, and the host shuts down (with the leak sweep) inside the interval.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from bench import pycext
from bench.oracle import expected_machine
from bench.spans import OFF, Tracer
from repro.fsm.errors import FFIViolation
from repro.fsm.registry import SpecRegistry
from repro.jinn.agent import JinnAgent
from repro.jvm import (
    DeadlockError,
    FatalJNIError,
    JavaException,
    JavaVM,
    SimulatedCrash,
)
from repro.obs import ObsHub
from repro.pyc import PyCChecker, PythonInterpreter
from repro.pyc.interp import PythonException
from repro.pyc.objects import InterpreterCrash
from repro.resilience.governor import GovernorPolicy, OverheadGovernor
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import replay_path
from repro.workloads import dacapo
from repro.workloads.casestudies import CASE_STUDIES
from repro.workloads.microbench import EXTRA_SCENARIOS, MICROBENCHMARKS
from repro.workloads.pyc_micro import PYC_MICROBENCHMARKS

#: Configurations timed against a production twin, in round order.
#: ``replay`` rides with ``record``: it replays the trace just written.
PAIRED = ("jinn", "interpose", "stack", "record")

#: The e2e ratio metric each configuration yields.
RATIO_METRIC = {
    "jinn": "overhead_x",
    "interpose": "interpose_x",
    "stack": "stack_x",
    "record": "record_x",
    "replay": "replay_x",
}

#: Transitions per DaCapo kernel run and per generated Python/C kernel
#: run: about 7 ms and 4 ms of production time.  Short runs buy pairs:
#: a run needs 100 checked pairs for ``overhead_x_p90``, and a
#: record/replay pair costs about 15 production runs.
KERNEL_TRANSITIONS = 2500
PYC_TRANSITIONS = 6000

#: Kernels ``record-replay`` draws per seed, by each kernel's dominant
#: operation family in ``dacapo.WORKLOAD_MIXES``.  Trace size and replay
#: cost follow the family, so a fixed quota keeps the seed from moving
#: the workload's ratios.  The 19 kernels split 7/5/5/2 over
#: calls/strings/arrays/fields; six draws in that proportion are
#: 2.2/1.6/1.6/0.6, which rounds to 2/1/1/1 with strings and arrays tied
#: for the sixth.  The tie goes to strings, the family of ``luindex``,
#: the kernel four of the seven ``BENCH_*.json`` gates time.  So
#: array-heavy traces (Get/ReleaseIntArrayElements events) weigh half as
#: much as string-heavy ones in ``record_x`` and ``replay_x``.
RECORD_REPLAY_QUOTA = {"calls": 2, "fields": 1, "strings": 2, "arrays": 1}

_JNI_OUTCOMES = (DeadlockError, SimulatedCrash, FatalJNIError, JavaException)
_PYC_OUTCOMES = (FFIViolation, InterpreterCrash, PythonException)


@dataclass(frozen=True)
class Program:
    """One input: ``build`` defines it on a fresh host, ``run`` drives it."""

    name: str
    substrate: str  # "jni" | "pyc"
    #: The machine whose violation must come first; None: bug-free.
    expect: Optional[str]
    build: Optional[Callable]
    run: Callable


@dataclass
class Run:
    """What one program run under one configuration did, and its cost."""

    seconds: float
    transitions: int
    reports: List[str] = field(default_factory=list)
    machines: List[str] = field(default_factory=list)
    #: Internal checker faults the containment ladder swallowed.
    faults: int = 0
    kernel_s: float = 0.0
    shutdown_s: float = 0.0
    #: Record runs: events captured and the ``close()`` time.
    events: int = 0
    close_s: float = 0.0


# -- checkers -----------------------------------------------------------------


def stack_governor() -> OverheadGovernor:
    """Metering only: at budget 1.0 the governor never samples a call out."""
    return OverheadGovernor(GovernorPolicy(budget=1.0))


def make_checker(substrate: str, *, interpose: bool = False, registry=None,
                 **stages):
    """A fresh checker for one run (stages: observer, governor, ...)."""
    if substrate == "jni":
        mode = "interpose" if interpose else "generated"
        return JinnAgent(registry, mode=mode, **stages)
    if interpose:
        registry = SpecRegistry([])
    return PyCChecker(registry, **stages)


def config_checker(substrate: str, config: str, observer=None):
    if config == "production":
        return None
    if config == "interpose":
        return make_checker(substrate, interpose=True)
    if config == "stack":
        return make_checker(
            substrate, governor=stack_governor(), telemetry=ObsHub()
        )
    return make_checker(substrate, observer=observer)


# -- running ----------------------------------------------------------------


def run_program(program: Program, new_checker: Callable, tracer: Tracer = OFF,
                observer=None) -> Run:
    """Build the agents and host, run ``program``, shut down; timed."""
    clock = time.perf_counter
    start = clock()
    with tracer.span("vm.boot"):
        checker = new_checker()
        agents = [checker] if checker is not None else []
        if program.substrate == "jni":
            host = JavaVM(agents=agents)
        else:
            host = PythonInterpreter(agents=agents)
    if program.build is not None:
        with tracer.span("workload.build"):
            program.build(host)
    outcomes = _JNI_OUTCOMES if program.substrate == "jni" else _PYC_OUTCOMES
    kernel_start = clock()
    with tracer.span("kernel.run"):
        try:
            program.run(host)
        except outcomes:
            pass
    shutdown_start = clock()
    with tracer.span("vm.shutdown"):
        if program.substrate == "jni":
            host.shutdown()
        elif checker is not None:
            # Always sweep, as the fuzz runner does: replay sweeps too.
            checker.termination_report()
    end = clock()
    run = Run(
        seconds=end - start,
        transitions=host.transition_count,
        kernel_s=shutdown_start - kernel_start,
        shutdown_s=end - shutdown_start,
    )
    if observer is not None:
        with tracer.span("recorder.close"):
            run.events = observer.close()
        run.close_s = clock() - end
        run.seconds += run.close_s
    rt = checker.rt if checker is not None else None
    if rt is not None:
        run.reports = [v.report() for v in rt.violations]
        run.machines = [v.machine for v in rt.violations]
        run.faults = rt.health.total_faults
    return run


def run_config(program: Program, config: str, trace_path: Optional[str],
               tracer: Tracer = OFF, pid: str = "") -> Run:
    """One program run under ``production`` or one of :data:`PAIRED`.

    A ``record`` run with no ``trace_path`` keeps its trace in memory.
    """
    observer = None
    if config == "record":
        observer = TraceRecorder(trace_path, workload=program.name)
    with tracer.span("program", pid):
        return run_program(
            program,
            partial(config_checker, program.substrate, config, observer),
            tracer,
            observer,
        )


def run_replay(trace_path: str, tracer: Tracer = OFF, pid: str = ""):
    """Replay a trace from disk; returns (seconds, ReplayResult).

    ``replay_path`` decodes and replays batch by batch; the ledger splits
    its cost into decoding and the engine.
    """
    start = time.perf_counter()
    with tracer.span("program", pid):
        with tracer.span("replay.run"):
            result = replay_path(trace_path)
    return time.perf_counter() - start, result


# -- program constructors -----------------------------------------------------


def _call_kernel(vm, class_name: str, iterations: int) -> None:
    vm.call_static(class_name, "kernel", "(I)V", iterations)


def _register(interp, name: str, impl: Callable) -> None:
    interp.register_extension(name, impl)


def _call_extension(interp, name: str) -> None:
    result = interp.call_extension(name)
    if result is not None and not result.freed:
        result.decref()


def dacapo_program(name: str, transitions: int = KERNEL_TRANSITIONS) -> Program:
    iterations = max(transitions // dacapo.transitions_per_iteration(name), 1)
    return Program(
        name,
        "jni",
        None,
        partial(dacapo.build_workload, name=name),
        partial(_call_kernel, class_name="dacapo/" + name, iterations=iterations),
    )


def pyc_kernel_program(name: str, weights: Dict[str, int],
                       transitions: int = PYC_TRANSITIONS) -> Program:
    kernel = pycext.make_kernel(
        weights, pycext.iterations_for(weights, transitions)
    )
    return Program(
        name,
        "pyc",
        None,
        partial(_register, name=name, impl=kernel),
        partial(_call_extension, name=name),
    )


def _pyc_bug_program(scenario) -> Program:
    return Program(
        scenario.name,
        "pyc",
        expected_machine(scenario.machine, "pyc"),
        partial(_register, name=scenario.name, impl=scenario.run),
        partial(_call_extension, name=scenario.name),
    )


def _jni_bug_program(name: str, declared: str, scenario: Callable) -> Program:
    return Program(name, "jni", expected_machine(declared, "jni"), None, scenario)


# -- workloads ---------------------------------------------------------------


def table3_programs(seed: int) -> List[Program]:
    """All 19 DaCapo / SPECjvm98 kernels at their paper mixes."""
    return [dacapo_program(name) for name in dacapo.BENCHMARK_NAMES]


def pyc_ext_programs(seed: int) -> List[Program]:
    """The seed's generated Python/C extension kernels."""
    return [
        pyc_kernel_program(pycext.kernel_name(i, weights), weights)
        for i, weights in enumerate(pycext.draw_mixes(seed))
    ]


def bug_programs(seed: int) -> List[Program]:
    """Known answers: JNI micros, case studies and Python/C micros.

    The seed varies only the fuzz programs each round adds (see
    ``bench.measure``); these thirty are fixed.
    """
    programs = [
        _jni_bug_program(s.name, s.machine, s.run)
        for s in MICROBENCHMARKS + EXTRA_SCENARIOS
    ]
    programs += [
        _jni_bug_program(c.name, c.machine, c.run) for c in CASE_STUDIES
    ]
    programs += [_pyc_bug_program(s) for s in PYC_MICROBENCHMARKS]
    return programs


def record_replay_draw(seed: int) -> List[str]:
    """The seed's kernels, :data:`RECORD_REPLAY_QUOTA` per family."""
    families = list(RECORD_REPLAY_QUOTA)
    by_family: Dict[str, List[str]] = {family: [] for family in families}
    for name in dacapo.BENCHMARK_NAMES:
        mix = dacapo.WORKLOAD_MIXES[name]
        by_family[families[mix.index(max(mix))]].append(name)
    rng = random.Random("bench:record-replay:{}".format(seed))
    return sorted(
        name
        for family, quota in RECORD_REPLAY_QUOTA.items()
        for name in rng.sample(by_family[family], quota)
    )


def record_replay_programs(seed: int) -> List[Program]:
    return [dacapo_program(name) for name in record_replay_draw(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    programs: Callable[[int], List[Program]]
    substrates: Tuple[str, ...]
    #: Whether each round adds the seeded fuzz programs.
    fuzz: bool = False
    #: A program runs the record/replay pair in one round out of this
    #: many (staggered across programs).  ``table3`` samples it, so the
    #: hot-path pairs get the rounds; ``record-replay`` runs it always.
    trace_every: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table3", table3_programs, ("jni",), trace_every=2),
        Workload("pyc-ext", pyc_ext_programs, ("pyc",)),
        Workload("bugs", bug_programs, ("jni", "pyc"), fuzz=True),
        Workload("record-replay", record_replay_programs, ("jni",)),
    )
}


def tiny_program(substrate: str) -> Program:
    """A one-iteration kernel, for warm-up and the set-up probe."""
    if substrate == "jni":
        return dacapo_program("luindex", transitions=1)
    return pyc_kernel_program(
        "warm", pycext.reference_mixes()[0], transitions=1
    )
