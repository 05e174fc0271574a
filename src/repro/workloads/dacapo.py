"""Synthetic SPECjvm98 / DaCapo transition workloads (Table 3).

Table 3's quantity of interest is the cost Jinn adds *per language
transition*: its second column counts each benchmark's Java<->C
transitions, and the normalized execution times follow from how many
transitions the benchmark performs and what mix of JNI work each
transition does.  The real benchmarks are Java programs whose native
work lives in the system libraries; this module replays each benchmark's
transition count (scaled down — pure-Python JNI calls are ~10^5/s, not
10^8/s) with a benchmark-specific mix of JNI operations: string-heavy
for the text workloads (luindex, lusearch, jack), array-heavy for the
media workloads (mpegaudio, mtrt, raytrace, compress), call/field-heavy
for the rest.

The workloads are deliberately *bug-free*: every acquire is released and
local frames are managed, so checker configurations measure pure
overhead, not error handling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.jinn.agent import JinnAgent
from repro.jvm import HOTSPOT, JavaVM, VendorSpec

#: Paper Table 3, column two: language transition counts on HotSpot.
PAPER_TRANSITIONS: Dict[str, int] = {
    "antlr": 441_789,
    "bloat": 839_930,
    "chart": 1_006_933,
    "eclipse": 8_456_840,
    "fop": 1_976_384,
    "hsqldb": 206_829,
    "jython": 56_318_101,
    "luindex": 1_339_059,
    "lusearch": 4_080_540,
    "pmd": 967_430,
    "xalan": 1_114_000,
    "compress": 14_878,
    "jess": 153_118,
    "raytrace": 29_977,
    "db": 133_112,
    "javac": 258_553,
    "mpegaudio": 46_208,
    "mtrt": 32_231,
    "jack": 1_332_678,
}

#: Paper Table 3, normalized execution times (for EXPERIMENTS.md).
PAPER_OVERHEADS: Dict[str, Tuple[float, float, float]] = {
    # name: (runtime checking, Jinn interposing, Jinn checking)
    "antlr": (1.04, 0.98, 1.05),
    "bloat": (1.02, 1.19, 1.20),
    "chart": (1.02, 1.08, 1.12),
    "eclipse": (1.01, 1.17, 1.20),
    "fop": (1.07, 1.14, 1.37),
    "hsqldb": (0.88, 1.04, 1.05),
    "jython": (1.03, 1.10, 1.16),
    "luindex": (1.03, 1.08, 1.13),
    "lusearch": (1.04, 1.09, 1.21),
    "pmd": (1.04, 1.10, 1.13),
    "xalan": (1.01, 1.17, 1.19),
    "compress": (0.98, 1.09, 1.08),
    "jess": (0.99, 1.22, 1.17),
    "raytrace": (1.04, 1.16, 1.14),
    "db": (0.99, 1.01, 1.02),
    "javac": (1.06, 1.16, 1.14),
    "mpegaudio": (1.00, 1.01, 1.04),
    "mtrt": (1.01, 1.11, 1.14),
    "jack": (1.04, 1.10, 1.21),
}

#: Operation mixes: weights for (calls, fields, strings, arrays).
WORKLOAD_MIXES: Dict[str, Tuple[int, int, int, int]] = {
    "antlr": (3, 2, 3, 1),
    "bloat": (4, 3, 1, 1),
    "chart": (2, 2, 1, 4),
    "eclipse": (4, 2, 2, 1),
    "fop": (2, 2, 4, 1),
    "hsqldb": (3, 4, 1, 1),
    "jython": (5, 2, 2, 1),
    "luindex": (1, 1, 6, 1),
    "lusearch": (1, 1, 6, 1),
    "pmd": (3, 3, 2, 1),
    "xalan": (2, 2, 4, 1),
    "compress": (1, 1, 1, 6),
    "jess": (4, 3, 1, 1),
    "raytrace": (1, 2, 1, 5),
    "db": (2, 4, 2, 1),
    "javac": (3, 3, 2, 1),
    "mpegaudio": (1, 1, 1, 6),
    "mtrt": (1, 2, 1, 5),
    "jack": (1, 1, 5, 2),
}

BENCHMARK_NAMES: Tuple[str, ...] = tuple(PAPER_TRANSITIONS)

#: Overhead-measurement configurations (Table 3 columns).
CONFIGS = ("production", "xcheck", "interpose", "jinn")


@dataclass
class WorkloadResult:
    name: str
    config: str
    elapsed: float
    transitions: int


def build_workload(vm: JavaVM, name: str) -> None:
    """Define the benchmark's classes and its native kernel on ``vm``.

    The kernel native method performs ``iterations`` rounds of the
    benchmark's operation mix; each JNI call is one Call + one Return
    language transition.
    """
    mix = WORKLOAD_MIXES[name]
    calls, fields, strings, arrays = mix
    class_name = "dacapo/{}".format(name)
    vm.define_class(class_name)

    def java_compute(vmach, thread, cls, x):
        return (x * 31 + 7) & 0x7FFFFFFF

    vm.add_method(class_name, "compute", "(I)I", is_static=True, body=java_compute)
    vm.add_field(class_name, "counter", "I", is_static=True)
    vm.add_method(class_name, "kernel", "(I)V", is_static=True, is_native=True)

    def native_kernel(env, clazz, iterations):
        cls = env.FindClass(class_name)
        mid = env.GetStaticMethodID(cls, "compute", "(I)I")
        fid = env.GetStaticFieldID(cls, "counter", "I")
        acc = 1
        for i in range(iterations):
            env.PushLocalFrame(16)
            for _ in range(calls):
                acc = env.CallStaticIntMethodA(cls, mid, [acc])
            for _ in range(fields):
                env.SetStaticIntField(cls, fid, acc)
                acc ^= env.GetStaticIntField(cls, fid)
            for _ in range(strings):
                js = env.NewStringUTF("w{}".format(acc & 0xFF))
                chars = env.GetStringUTFChars(js)
                acc += len(chars.data)
                env.ReleaseStringUTFChars(js, chars)
            for _ in range(arrays):
                arr = env.NewIntArray(4)
                elems = env.GetIntArrayElements(arr)
                elems.write(0, acc & 0xFF)
                env.ReleaseIntArrayElements(arr, elems, 0)
                acc += env.GetArrayLength(arr)
            env.PopLocalFrame(None)

    vm.register_native(class_name, "kernel", "(I)V", native_kernel)


def transitions_per_iteration(name: str) -> int:
    """JNI transitions one kernel iteration performs (2 per call)."""
    calls, fields, strings, arrays = WORKLOAD_MIXES[name]
    jni_calls = 2 + calls + 2 * fields + 3 * strings + 4 * arrays
    return 2 * jni_calls


def iterations_for(name: str, scale: int) -> int:
    """Iterations needed to replay the paper's count, scaled by 1/scale."""
    target = max(PAPER_TRANSITIONS[name] // scale, 64)
    return max(target // transitions_per_iteration(name), 1)


def run_workload(
    name: str,
    *,
    config: str = "production",
    vendor: VendorSpec = HOTSPOT,
    scale: int = 1000,
    iterations: Optional[int] = None,
    agents: Optional[List] = None,
) -> WorkloadResult:
    """Run one benchmark under one Table 3 configuration, timed.

    ``agents`` overrides the config's default agent set — used to run
    a custom JinnAgent (e.g. one with a trace recorder attached) on the
    same kernels.  ``config`` still controls ``-Xcheck:jni``.
    """
    if config not in CONFIGS:
        raise ValueError("unknown config " + config)
    if agents is None:
        agents = []
        if config == "jinn":
            agents.append(JinnAgent(mode="generated"))
        elif config == "interpose":
            agents.append(JinnAgent(mode="interpose"))
    vm = JavaVM(vendor=vendor, agents=agents, check_jni=(config == "xcheck"))
    build_workload(vm, name)
    rounds = iterations if iterations is not None else iterations_for(name, scale)
    class_name = "dacapo/{}".format(name)
    start = time.perf_counter()
    vm.call_static(class_name, "kernel", "(I)V", rounds)
    elapsed = time.perf_counter() - start
    transitions = vm.transition_count
    vm.shutdown()
    return WorkloadResult(name, config, elapsed, transitions)


def measure_overheads(
    name: str, *, scale: int = 1000, trials: int = 5
) -> Dict[str, float]:
    """Median normalized execution times for one benchmark.

    Returns Table 3's three ratios: ``xcheck`` (runtime checking),
    ``interpose`` (Jinn framework only), and ``jinn`` (full checking),
    each normalized to the production median.
    """
    medians: Dict[str, float] = {}
    transitions = 0
    for config in CONFIGS:
        times: List[float] = []
        for _ in range(trials):
            result = run_workload(name, config=config, scale=scale)
            times.append(result.elapsed)
            if config == "production":
                # Reuse a measured trial instead of paying for an extra
                # run just to read the transition count.
                transitions = result.transitions
        times.sort()
        medians[config] = times[len(times) // 2]
    base = medians["production"]
    return {
        "transitions": transitions,
        "xcheck": medians["xcheck"] / base,
        "interpose": medians["interpose"] / base,
        "jinn": medians["jinn"] / base,
    }


def geomean(values: List[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0
