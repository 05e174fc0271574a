"""End-to-end tests for the Jinn agent: detection, reporting, modes."""

import pytest

from repro.jinn import (
    ASSERTION_FAILURE_CLASS,
    JinnAgent,
    build_registry,
    render_uncaught,
    summarize_violations,
    violation_of,
)
from repro.jvm import HOTSPOT, JavaException, JavaVM
from tests.conftest import call_native

_counter = [0]


def run_native(vm, body, descriptor="()V", *args):
    _counter[0] += 1
    return call_native(
        vm, "tj/Host{}".format(_counter[0]), "go", descriptor, body, *args
    )


def make_jinn_vm(mode="generated", registry=None):
    agent = JinnAgent(registry=registry, mode=mode)
    return JavaVM(vendor=HOTSPOT, agents=[agent]), agent


class TestBasicDetection:
    def test_clean_program_unaffected(self, jinn_vm, jinn_agent):
        out = {}

        def nat(env, this):
            s = env.NewStringUTF("clean")
            out["len"] = env.GetStringLength(s)
            env.DeleteLocalRef(s)

        run_native(jinn_vm, nat)
        assert out["len"] == 5
        assert jinn_agent.rt.violations == []

    def test_violation_becomes_assertion_failure(self, jinn_vm):
        def nat(env, this):
            env.GetStringLength(None)  # nullness violation

        with pytest.raises(JavaException) as exc_info:
            run_native(jinn_vm, nat)
        throwable = exc_info.value.throwable
        assert throwable.jclass.name == ASSERTION_FAILURE_CLASS
        assert violation_of(throwable).machine == "nullness"

    def test_violation_prevents_production_hazard(self, jinn_agent):
        from repro.jvm import J9, SimulatedCrash

        vm = JavaVM(vendor=J9, agents=[jinn_agent])

        def nat(env, this):
            env.GetStringLength(None)  # J9 would segfault here

        # Jinn intercedes: exception, not SimulatedCrash.
        with pytest.raises(JavaException):
            run_native(vm, nat)
        vm.shutdown()

    def test_wrapped_call_skips_raw_function(self, jinn_vm, jinn_agent):
        def nat(env, this):
            obj = env.AllocObject(env.FindClass("java/lang/Object"))
            # Fixed-typing violation: the raw lookup must not run, so no
            # NoSuchMethodError is pended on top.
            env.GetStaticMethodID(obj, "m", "()V")

        with pytest.raises(JavaException) as exc_info:
            run_native(jinn_vm, nat)
        assert violation_of(exc_info.value.throwable).machine == "fixed_typing"

    def test_cause_chain_matches_figure9(self, jinn_vm):
        jinn_vm.define_class("tj/Thrower")

        def body(vmach, thread, cls):
            vmach.throw_new(
                thread, "java/lang/RuntimeException", "checked by native code"
            )

        jinn_vm.add_method("tj/Thrower", "foo", "()V", is_static=True, body=body)

        def nat(env, this):
            cls = env.FindClass("tj/Thrower")
            mid = env.GetStaticMethodID(cls, "foo", "()V")
            env.CallStaticVoidMethodA(cls, mid, [])
            env.GetStaticMethodID(cls, "foo", "()V")  # violation 1
            env.CallStaticVoidMethodA(cls, mid, [])  # violation 2, chained

        with pytest.raises(JavaException) as exc_info:
            run_native(jinn_vm, nat)
        rendered = render_uncaught(exc_info.value.throwable)
        assert "An exception is pending in CallStaticVoidMethodA." in rendered
        assert "Caused by: jinn.JNIAssertionFailure" in rendered
        assert "Caused by: java.lang.RuntimeException: checked by native code" in rendered
        summaries = summarize_violations(exc_info.value.throwable)
        assert len(summaries) == 2

    def test_termination_leak_reporting(self, jinn_vm, jinn_agent):
        def nat(env, this):
            obj = env.AllocObject(env.FindClass("java/lang/Object"))
            env.NewGlobalRef(obj)  # leaked

        run_native(jinn_vm, nat)
        jinn_vm.shutdown()
        assert jinn_agent.termination_violations
        assert jinn_agent.termination_violations[0].machine == "global_ref"

    def test_diagnostics_logged_on_vm(self, jinn_vm, jinn_agent):
        def nat(env, this):
            env.GetStringLength(None)

        with pytest.raises(JavaException):
            run_native(jinn_vm, nat)
        assert any(d.startswith("jinn:") for d in jinn_vm.diagnostics)


class TestNativeMethodWrapping:
    def test_native_args_acquired_and_released(self, jinn_vm, jinn_agent):
        stash = {}

        def first(env, this, obj):
            stash["ref"] = obj

        def second(env, this):
            env.GetObjectClass(stash["ref"])  # dangling after first returned

        jinn_vm.define_class("tj/NW")
        jinn_vm.add_method(
            "tj/NW", "first", "(Ljava/lang/Object;)V", is_static=True, is_native=True
        )
        jinn_vm.register_native("tj/NW", "first", "(Ljava/lang/Object;)V", first)
        jinn_vm.add_method("tj/NW", "second", "()V", is_static=True, is_native=True)
        jinn_vm.register_native("tj/NW", "second", "()V", second)
        jinn_vm.call_static(
            "tj/NW",
            "first",
            "(Ljava/lang/Object;)V",
            jinn_vm.new_object("java/lang/Object"),
        )
        with pytest.raises(JavaException) as exc_info:
            jinn_vm.call_static("tj/NW", "second", "()V")
        assert violation_of(exc_info.value.throwable).machine == "local_ref"

    def test_leaked_frame_detected_at_native_return(self, jinn_vm):
        def nat(env, this):
            env.PushLocalFrame(8)

        with pytest.raises(JavaException) as exc_info:
            run_native(jinn_vm, nat)
        assert "never popped" in str(exc_info.value)


class TestModes:
    @pytest.mark.parametrize("mode", ["generated"])
    def test_modes_detect_the_same_violation(self, mode):
        vm, agent = make_jinn_vm(mode)

        def nat(env, this):
            s = env.NewStringUTF("x")
            env.DeleteLocalRef(s)
            env.DeleteLocalRef(s)

        with pytest.raises(JavaException):
            run_native(vm, nat)
        assert agent.rt.violations[0].machine == "local_ref"
        vm.shutdown()

    def test_interpose_mode_checks_nothing(self):
        vm, agent = make_jinn_vm("interpose")

        def nat(env, this):
            out = env.GetStringLength(None)  # HotSpot: returns default
            assert out == 0

        run_native(vm, nat)
        assert agent.rt.violations == []
        vm.shutdown()

    def test_unknown_mode_rejected(self):
        # Interpretive checking is replay's, not a live mode.
        for mode in ("turbo", "interpretive"):
            with pytest.raises(ValueError):
                JinnAgent(mode=mode)


class TestAblations:
    def test_disabled_machine_stops_detecting(self):
        registry = build_registry().without("nullness")
        vm, agent = make_jinn_vm(registry=registry)

        def nat(env, this):
            env.GetStringLength(None)

        run_native(vm, nat)  # HotSpot tolerates; nullness machine absent
        assert agent.rt.violations == []
        vm.shutdown()

    def test_other_machines_unaffected_by_ablation(self):
        registry = build_registry().without("nullness")
        vm, agent = make_jinn_vm(registry=registry)

        def nat(env, this):
            s = env.NewStringUTF("x")
            env.DeleteLocalRef(s)
            env.DeleteLocalRef(s)

        with pytest.raises(JavaException):
            run_native(vm, nat)
        vm.shutdown()

    def test_runtime_reset_clears_state(self, jinn_vm, jinn_agent):
        def nat(env, this):
            env.GetStringLength(None)

        with pytest.raises(JavaException):
            run_native(jinn_vm, nat)
        assert jinn_agent.rt.violations
        jinn_agent.rt.reset()
        assert jinn_agent.rt.violations == []
