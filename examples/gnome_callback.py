"""The paper's running example: GNOME bug 576111 (Figures 1-4).

``Java_Callback_bind`` stores its ``receiver`` parameter — a JNI *local*
reference, valid only until the native method returns — into a C heap
record.  When the event later fires, C calls
``CallStaticVoidMethodA(env, cb->receiver, cb->mid, jargs)`` through the
dangling reference.

This example shows (1) the bug eluding production JVMs or crashing them,
(2) Jinn's local-reference state machine catching it at the exact call,
and (3) the synthesized wrapper code the paper's Figures 3 and 4 sketch.

Run:  python examples/gnome_callback.py
"""

from repro import JavaException, JavaVM, JinnAgent, Synthesizer, build_registry
from repro.jinn import render_uncaught
from repro.jvm import HOTSPOT, J9, SimulatedCrash
from repro.workloads.casestudies import javagnome_576111


def run_configuration(vendor, with_jinn: bool) -> None:
    agents = [JinnAgent()] if with_jinn else []
    label = "{}{}".format(vendor.name, " + Jinn" if with_jinn else "")
    vm = JavaVM(vendor=vendor, agents=agents)
    print("== {} ==".format(label))
    try:
        javagnome_576111(vm)
        print("ran to completion — the dangling use went unnoticed")
    except SimulatedCrash as crash:
        print("CRASH:", crash)
    except JavaException as je:
        print(render_uncaught(je.throwable))
    vm.shutdown()
    print()


def show_generated_wrapper() -> None:
    """The Figure 4 analogue: the synthesized CallStaticVoidMethodA."""
    source = Synthesizer(build_registry()).generate_pipeline_source()
    lines = source.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if "def entry_CallStaticVoidMethodA(" in line
    )
    end = next(
        i for i in range(start, len(lines))
        if lines[i].lstrip().startswith("entries[")
    )
    print("== synthesized entry for CallStaticVoidMethodA (cf. Figure 4) ==")
    print("\n".join(lines[start - 1 : end + 1]))
    print()


def main():
    run_configuration(HOTSPOT, with_jinn=False)
    run_configuration(J9, with_jinn=False)
    run_configuration(HOTSPOT, with_jinn=True)
    show_generated_wrapper()


if __name__ == "__main__":
    main()
