"""E10 — the running example: GNOME bug 576111 (Figures 1-4).

Checks that the Figure 1 program (a local reference escaping into a C
callback record) crashes production VMs, that Jinn's local-reference
machine reports ``Error: dangling`` at ``CallStaticVoidMethodA`` exactly
as Figure 2 prescribes, and that the synthesized wrappers contain the
Figure 3 / Figure 4 instrumentation.
"""

from repro.jinn import Synthesizer, build_registry
from repro.jvm import HOTSPOT, J9
from repro.workloads.casestudies import javagnome_576111
from repro.workloads.outcomes import run_scenario


def test_figure1_bug_outcomes(benchmark):
    def run_three():
        return (
            run_scenario(javagnome_576111, vendor=HOTSPOT, checker="none"),
            run_scenario(javagnome_576111, vendor=J9, checker="none"),
            run_scenario(javagnome_576111, checker="jinn"),
        )

    hotspot, j9, jinn = benchmark.pedantic(run_three, rounds=1, iterations=1)
    assert hotspot.outcome == "crash"
    assert j9.outcome == "crash"
    assert jinn.outcome == "exception"
    assert "dangling local reference used in CallStaticVoidMethodA" in (
        jinn.violations[0]
    )


def test_figure3_and_4_wrappers_generated(benchmark):
    source = benchmark(
        lambda: Synthesizer(build_registry()).generate_source()
    )
    # Figure 3: the native-method wrapper acquires reference arguments on
    # entry and releases the frame on return.
    assert (
        "rt.local_ref.enter_native(env, thread, method_name, handles)"
        in source
    )
    assert "rt.local_ref.exit_native(env, thread, method_name, result)" in source
    # Figure 4: the CallStaticVoidMethodA wrapper contains the
    # jinn_refs_contains-style use check and raises on dangling.
    lines = source.splitlines()
    start = lines.index(
        "    def wrapped_CallStaticVoidMethodA(env, *args):"
    )
    end = lines.index(
        "        result = raw_CallStaticVoidMethodA(env, *args)", start
    )
    body = "\n".join(lines[start:end])
    assert "rt.local_ref.contains(env, thread, args[0])" in body
    assert "rt.local_ref.report_dangling" in body
    assert "return rt.fail(env, v, None)" in body
