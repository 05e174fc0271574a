"""E3 — Table 3: Jinn performance on SPECjvm98 and DaCapo.

Regenerates the paper's Table 3: per benchmark, the language-transition
count and the execution time of (a) the vendor's runtime checking
(``-Xcheck:jni``), (b) Jinn interposing only, and (c) full Jinn checking,
each normalized to a production run.  Transition counts replay the
paper's per-benchmark totals scaled down by ``SCALE`` (the kernel runs
the benchmark's operation mix; see ``repro.workloads.dacapo``).

Shape assertions (the paper's qualitative claims, adjusted for the
substrate — see EXPERIMENTS.md):

- the interposing-only overhead is small (paper geomean 1.10x; a pure
  indirection layer should land in the same regime);
- full Jinn costs at least as much as interposing alone (within noise)
  and stays modest overall.

One claim does *not* transfer and is reported rather than asserted: on a
real JVM "most of the overhead ... comes from runtime interposition"
because the generated wrappers are compiled C while crossing JVMTI is
expensive; in a pure-Python substrate the checks themselves are Python
bytecode and dominate instead.
"""

import pytest

from benchmarks.conftest import print_table
from repro.workloads.dacapo import (
    BENCHMARK_NAMES,
    PAPER_OVERHEADS,
    PAPER_TRANSITIONS,
    geomean,
    measure_overheads,
    run_workload,
)

#: Transition-count scale-down factor (documented in EXPERIMENTS.md).
SCALE = 5000
TRIALS = 3


@pytest.mark.parametrize("config", ["production", "xcheck", "interpose", "jinn"])
def test_workload_kernel_cost(benchmark, config):
    """pytest-benchmark timing of one representative kernel per config."""
    benchmark(
        lambda: run_workload("luindex", config=config, scale=SCALE)
    )


def test_table3_overheads(benchmark):
    def measure_all():
        results = {}
        for name in BENCHMARK_NAMES:
            results[name] = measure_overheads(name, scale=SCALE, trials=TRIALS)
        return results

    results = benchmark.pedantic(measure_all, rounds=1, iterations=1)

    rows = []
    for name in BENCHMARK_NAMES:
        measured = results[name]
        paper = PAPER_OVERHEADS[name]
        rows.append(
            (
                name,
                PAPER_TRANSITIONS[name],
                measured["transitions"],
                paper[0],
                round(measured["xcheck"], 2),
                paper[1],
                round(measured["interpose"], 2),
                paper[2],
                round(measured["jinn"], 2),
            )
        )
    geo = {
        "xcheck": geomean([results[n]["xcheck"] for n in BENCHMARK_NAMES]),
        "interpose": geomean([results[n]["interpose"] for n in BENCHMARK_NAMES]),
        "jinn": geomean([results[n]["jinn"] for n in BENCHMARK_NAMES]),
    }
    rows.append(
        (
            "GeoMean",
            "",
            "",
            1.01,
            round(geo["xcheck"], 2),
            1.10,
            round(geo["interpose"], 2),
            1.14,
            round(geo["jinn"], 2),
        )
    )
    print_table(
        "Table 3 — normalized execution times (paper vs measured, "
        "scale=1/{})".format(SCALE),
        (
            "benchmark",
            "paper transitions",
            "measured transitions",
            "chk(paper)",
            "chk",
            "interp(paper)",
            "interp",
            "jinn(paper)",
            "jinn",
        ),
        rows,
    )

    # Shape assertions.
    assert geo["jinn"] < 4.0, "Jinn overhead should stay modest"
    assert geo["interpose"] < 1.6, (
        "pure interposition should be cheap (paper: 1.10x geomean)"
    )
    assert geo["jinn"] >= geo["interpose"] - 0.10, (
        "full checking should not be cheaper than interposing (mod noise)"
    )
