"""Ablation benches for the design choices DESIGN.md calls out.

1. **Checking strategy cost** — no agent, empty wrappers (interpose)
   and full generated checking on one kernel.  Interpretive checking
   (each crossing walks the matching machines' ``on_event`` handlers)
   is replay's; its cost is the ledger's ``replay.engine_us_per_ev``.
2. **Per-machine cost** — disable one machine at a time and measure the
   workload, exposing which constraints cost what.
3. **Local-frame capacity sweep** — where Subversion-style overflows
   appear as the JNI guarantee shrinks or grows.
"""

import statistics

import pytest

from benchmarks.conftest import print_table
from repro.jinn import JinnAgent, build_registry
from repro.jvm import JavaVM
from repro.workloads.casestudies import make_subversion_outputer
from repro.workloads.dacapo import build_workload
from repro.workloads.outcomes import run_scenario


def _timed_kernel(agent_factory, iterations=40):
    agents = [agent_factory()] if agent_factory else []
    vm = JavaVM(agents=agents)
    build_workload(vm, "luindex")

    def run():
        vm.call_static("dacapo/luindex", "kernel", "(I)V", iterations)

    return vm, run


@pytest.mark.parametrize("mode", ["none", "interpose", "generated"])
def test_checking_strategy_cost(benchmark, mode):
    """Generated checking against its two baselines."""
    factory = None if mode == "none" else (lambda: JinnAgent(mode=mode))
    vm, run = _timed_kernel(factory)
    benchmark(run)
    vm.shutdown()


MACHINES = (
    "jnienv_state",
    "exception_state",
    "critical_section",
    "fixed_typing",
    "entity_typing",
    "nullness",
    "local_ref",
    "global_ref",
)


#: Full/without kernel pairs per machine.
PAIRS = 10


def test_per_machine_ablation(benchmark):
    """Workload time with each machine removed, one at a time.

    Each machine's full and machine-less kernels run in interleaved
    pairs, alternating which runs first, so a load spell on the shared
    host lands on both sides of a pair.  A machine's delta is the median
    of its paired differences, against the median full time.
    """
    import time

    def measure(registry):
        agent = JinnAgent(registry=registry)
        vm = JavaVM(agents=[agent])
        build_workload(vm, "luindex")
        start = time.perf_counter()
        vm.call_static("dacapo/luindex", "kernel", "(I)V", 40)
        elapsed = time.perf_counter() - start
        vm.shutdown()
        return elapsed

    def sweep():
        fulls = []
        deltas = {}
        for name in MACHINES:
            diffs = []
            for pair in range(PAIRS):
                if pair % 2:
                    without = measure(build_registry().without(name))
                    full = measure(build_registry())
                else:
                    full = measure(build_registry())
                    without = measure(build_registry().without(name))
                fulls.append(full)
                diffs.append(full - without)
            deltas[name] = statistics.median(diffs)
        return statistics.median(fulls), deltas

    full, deltas = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (name, "{:+.1%}".format(delta / full)) for name, delta in deltas.items()
    ]
    print_table(
        "Per-machine ablation (time saved by removing each machine)",
        ("machine", "share of full-Jinn time"),
        rows,
    )
    # Entity typing does real per-call work on this call-heavy workload;
    # removing it should never make things slower beyond noise.
    assert deltas["entity_typing"] > -0.05 * full


@pytest.mark.parametrize("capacity", [8, 16, 32])
def test_local_frame_capacity_sweep(benchmark, capacity):
    """At which capacity does the Subversion Outputer overflow?"""
    result = benchmark.pedantic(
        lambda: run_scenario(
            make_subversion_outputer(entries=20),
            checker="jinn",
            local_frame_capacity=capacity,
        ),
        rounds=1,
        iterations=1,
    )
    overflowed = result.outcome == "exception"
    # 20 entries (+1 for the class handle prologue) overflow 8- and
    # 16-slot frames but fit a 32-slot frame.
    assert overflowed == (capacity < 24), (capacity, result.outcome)
