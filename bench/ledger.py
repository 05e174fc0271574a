"""The per-layer ledger: stage ablations measured in the traced run.

Every probe times a fixed reference program set, identical in every
workload's traced run, so the ledger reads the same way whichever
workload produced it:

- JNI: the DaCapo kernels ``luindex``, ``compress``, ``jython`` and
  ``hsqldb`` (one per mix family: strings, arrays, calls, fields);
- Python/C: the four reference mixes of ``bench.pycext``, each dominated
  by one operation family.

Per-transition costs are differences of ``kernel.run`` time between two
agent variants on the same kernel in the same repetition, divided by the
run's transitions, then the median over kernels and repetitions.  A
machine's cost is a one-machine ``SpecRegistry`` minus ``interpose``.
See README.md for which end-to-end metric each entry should move.
"""

from __future__ import annotations

import gc
import os
import time
from functools import partial
from typing import Callable, Dict, List

from bench import oracle, pycext
from bench.measure import FUZZ_SEED_STRIDE, fuzz_round
from bench.programs import (
    dacapo_program,
    make_checker,
    pyc_kernel_program,
    run_program,
    stack_governor,
    tiny_program,
)
from bench.spans import OFF, Tracer
from bench.stats import median, percentile
from repro.core.cache import WrapperCache
from repro.core.plancache import PlanDiskCache
from repro.core.runtime import ContainmentPolicy
from repro.fsm.registry import SpecRegistry
from repro.jinn.machines import SPEC_CLASSES, build_registry
from repro.jinn.synthesizer import Synthesizer
from repro.jvm import JavaVM
from repro.obs import ObsHub
from repro.pyc import PyCChecker, PythonInterpreter
from repro.pyc.machines import build_pyc_registry
from repro.pyc.spec import PY_FUNCTIONS
from repro.trace.format import iter_batches
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import replay_path

JNI_KERNELS = ("luindex", "compress", "jython", "hsqldb")

#: Fuzz probe rounds (24 programs each): enough for ten samples past p90.
FUZZ_ROUNDS = 5
#: The fuzz probe's seeds sit past any round the loop reaches.
FUZZ_SEED_OFFSET = FUZZ_SEED_STRIDE // 2


def _variants(substrate: str) -> Dict[str, Callable]:
    """Checker factories per ablation variant (None: production)."""
    machines = (
        [cls() for cls in SPEC_CLASSES]
        if substrate == "jni"
        else list(build_pyc_registry())
    )
    variants: Dict[str, Callable] = {
        "production": lambda: None,
        "interpose": partial(make_checker, substrate, interpose=True),
        "jinn": partial(make_checker, substrate),
    }
    if substrate == "jni":
        variants["uncontained"] = partial(
            make_checker, substrate,
            containment=ContainmentPolicy(enabled=False),
        )
        variants["governor"] = lambda: make_checker(
            substrate, governor=stack_governor()
        )
        variants["telemetry"] = lambda: make_checker(
            substrate, telemetry=ObsHub()
        )
    for spec in machines:
        variants["machine:" + spec.name] = partial(
            make_checker, substrate, registry=SpecRegistry([spec])
        )
    return variants


def warm() -> None:
    """Run a tiny program under every variant so each plan is compiled."""
    for substrate in ("jni", "pyc"):
        program = tiny_program(substrate)
        for factory in _variants(substrate).values():
            run_program(program, factory)


def _median_ms(fn: Callable, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e3


class Ledger:
    """Collects the ablation samples and turns them into metrics."""

    def __init__(self, work_dir: str, verdicts: oracle.Verdicts,
                 tracer: Tracer = OFF):
        self.trace_path = os.path.join(work_dir, "ledger.trace")
        self.verdicts = verdicts
        self.tracer = tracer
        self.metrics: Dict[str, float] = {}
        #: variant -> (substrate, kernel, rep) -> Run
        self.runs: Dict[str, Dict[tuple, object]] = {}
        #: Record/replay stage samples per event.
        self.stages: Dict[str, List[float]] = {
            "tap": [], "close": [], "decode": [], "engine": []
        }
        self.fuzz_seconds: List[float] = []
        self.repetitions = 0

    # -- fixed probes -------------------------------------------------------

    def synthesis(self) -> None:
        specs = (
            ("jni", build_registry(), None),
            ("pyc", build_pyc_registry(), PY_FUNCTIONS),
        )
        for substrate, registry, table in specs:
            samples = []
            for _ in range(3):
                with self.tracer.span("synth.compile", "ledger:synth:" + substrate):
                    start = time.perf_counter()
                    WrapperCache(disk=None).plans_for(
                        registry, function_table=table
                    )
                    samples.append(time.perf_counter() - start)
            self.metrics["synth.compile_s." + substrate] = median(samples)
            source = Synthesizer(
                registry, function_table=table
            ).generate_pipeline_source()
            self.metrics["synth.source_kb." + substrate] = len(source) / 1024
        disk = PlanDiskCache(os.environ["REPRO_PLAN_CACHE"])
        registry = build_registry()
        self.metrics["plancache.load_ms"] = _median_ms(
            lambda: WrapperCache(disk=disk).plans_for(registry), 9
        )

    def boot(self, reps: int = 21) -> None:
        def jvm_boot():
            JavaVM().shutdown()

        self.metrics["jvm.boot_ms"] = _median_ms(jvm_boot, reps)
        jni_bare = _median_ms(JavaVM, reps)
        jni_agent = _median_ms(lambda: JavaVM(agents=[make_checker("jni")]), reps)
        pyc_bare = _median_ms(PythonInterpreter, reps)
        pyc_agent = _median_ms(
            lambda: PythonInterpreter(agents=[PyCChecker()]), reps
        )
        self.metrics["pipeline.attach_ms.jni"] = jni_agent - jni_bare
        self.metrics["pipeline.attach_ms.pyc"] = pyc_agent - pyc_bare

    def fuzz(self, seed: int) -> None:
        """Fuzz programs for ``fuzz.program_ms``; the first round's catches
        count toward ``machine.<name>.detections``, so every workload's
        traced run reports each machine catching its fault classes."""
        base = seed * FUZZ_SEED_STRIDE + FUZZ_SEED_OFFSET
        for r in range(FUZZ_ROUNDS):
            self.fuzz_seconds += fuzz_round(
                "ledger", base + r, FUZZ_SEED_OFFSET + r, self.verdicts,
                self.tracer, r == 0,
            )
        ms = [s * 1e3 for s in self.fuzz_seconds]
        self.metrics["fuzz.program_ms.p50"] = median(ms)
        self.metrics["fuzz.program_ms.p90"] = percentile(ms, 0.9)

    # -- kernel ablations --------------------------------------------------

    def _run(self, variant: str, key: tuple, program, factory) -> None:
        gc.collect()
        pid = "ledger:{}:{}:{}:r{}".format(key[1], variant, key[0], key[2])
        with self.tracer.span("program", pid):
            run = run_program(program, factory, self.tracer)
        self.runs.setdefault(variant, {})[key] = run

    def _record(self, key: tuple, program) -> None:
        gc.collect()
        recorder = TraceRecorder(self.trace_path)
        pid = "ledger:{}:record:jni:r{}".format(key[1], key[2])
        with self.tracer.span("program", pid):
            run = run_program(
                program, partial(make_checker, "jni", observer=recorder),
                self.tracer, recorder,
            )
        gc.collect()
        start = time.perf_counter()
        with self.tracer.span("replay.decode", pid):
            for _ in iter_batches(self.trace_path):
                pass
        decode = time.perf_counter() - start
        gc.collect()
        start = time.perf_counter()
        with self.tracer.span("replay.run", pid):
            replayed = replay_path(self.trace_path)
        engine = time.perf_counter() - start - decode
        jinn = self.runs["jinn"][key]
        events = run.events
        problems = oracle.check_program(
            None, [("record", run)], replayed
        )
        self.verdicts.add(pid, None, problems, False, False)
        self.stages["tap"].append((run.kernel_s - jinn.kernel_s) / events)
        self.stages["close"].append(run.close_s / events)
        self.stages["decode"].append(decode / events)
        self.stages["engine"].append(engine / events)

    def repetition(self, rep: int, programs_by_substrate) -> None:
        for substrate, kernels in programs_by_substrate:
            variants = list(_variants(substrate).items())
            shift = rep % len(variants)
            variants = variants[shift:] + variants[:shift]
            if rep % 2:
                variants.reverse()
            for program in kernels:
                key = (substrate, program.name, rep)
                for variant, factory in variants:
                    self._run(variant, key, program, factory)
                if substrate == "jni":
                    self._record(key, program)

    def _per_tr(self, variant: str, key: tuple) -> float:
        run = self.runs[variant][key]
        return run.kernel_s / run.transitions

    def _delta(self, variant: str, base: str, substrate: str = "jni") -> float:
        """Median per-transition kernel time of ``variant`` minus ``base``, µs."""
        return median([
            self._per_tr(variant, key) - self._per_tr(base, key)
            for key in self.runs[variant]
            if key[0] == substrate
        ]) * 1e6

    def kernel_metrics(self) -> None:
        m = self.metrics
        for substrate in ("jni", "pyc"):
            m[substrate + ".raw_us_per_tr"] = median([
                self._per_tr("production", key)
                for key in self.runs["production"]
                if key[0] == substrate
            ]) * 1e6
        m["pipeline.interpose_us_per_tr"] = self._delta("interpose", "production")
        jni_machines = 0.0
        for substrate, registry in (
            ("jni", build_registry()), ("pyc", build_pyc_registry())
        ):
            for name in registry.names():
                cost = self._delta("machine:" + name, "interpose", substrate)
                m["machine.{}.us_per_tr".format(name)] = cost
                if substrate == "jni":
                    jni_machines += cost
        full = self._delta("jinn", "interpose")
        m["machines.interaction"] = jni_machines / full if full > 0 else 0.0
        m["runtime.containment_us_per_tr"] = self._delta("jinn", "uncontained")
        m["governor.meter_us_per_tr"] = self._delta("governor", "jinn")
        m["obs.tap_us_per_tr"] = self._delta("telemetry", "jinn")
        m["runtime.sweep_ms"] = median([
            run.shutdown_s - self.runs["production"][key].shutdown_s
            for key, run in self.runs["jinn"].items()
            if key[0] == "jni"
        ]) * 1e3
        for stage, name in (
            ("tap", "recorder.tap_us_per_ev"),
            ("close", "recorder.close_us_per_ev"),
            ("decode", "format.decode_us_per_ev"),
            ("engine", "replay.engine_us_per_ev"),
        ):
            m[name] = median(self.stages[stage]) * 1e6


def measure(seed: int, seconds: float, work_dir: str,
            verdicts: oracle.Verdicts, tracer: Tracer = OFF,
            min_reps: int = 2) -> Ledger:
    """Run every probe; kernel repetitions continue until ``seconds`` pass."""
    deadline = time.perf_counter() + seconds
    ledger = Ledger(work_dir, verdicts, tracer)
    warm()
    ledger.synthesis()
    ledger.boot()
    ledger.fuzz(seed)
    kernels = [
        ("jni", [dacapo_program(name) for name in JNI_KERNELS]),
        ("pyc", [
            pyc_kernel_program("ref-" + family, weights)
            for family, weights in zip(pycext.FAMILIES, pycext.reference_mixes())
        ]),
    ]
    while ledger.repetitions < min_reps or time.perf_counter() < deadline:
        ledger.repetition(ledger.repetitions, kernels)
        ledger.repetitions += 1
    ledger.kernel_metrics()
    return ledger
