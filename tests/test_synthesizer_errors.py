"""Error handling and edge cases of the synthesizer and runtime."""

import pytest

from repro.fsm import Direction, SpecRegistry, State, StateMachineSpec, StateTransition
from repro.fsm.errors import SpecificationError
from repro.jinn import JinnAgent, Synthesizer, build_registry
from repro.jinn.runtime import JinnRuntime
from repro.jni import functions
from repro.jvm import JavaVM


class _BrokenSpec(StateMachineSpec):
    name = "broken"
    observed_entity = "nothing"
    errors_discovered = ("nothing",)
    constraint_class = "type"

    def states(self):
        return (State("A"),)

    def state_transitions(self):
        return (StateTransition(State("A"), State("ghost")),)

    def language_transitions_for(self, transition):
        return ()

    def make_encoding(self, vm):
        raise AssertionError("never built")


class TestSpecValidationAtRegistration:
    def test_broken_spec_rejected_by_registry(self):
        with pytest.raises(SpecificationError):
            SpecRegistry([_BrokenSpec()])

    def test_registry_rejects_duplicate_machine(self):
        registry = build_registry()
        from repro.jinn.machines.nullness import NullnessSpec

        with pytest.raises(SpecificationError):
            registry.register(NullnessSpec())


class TestEmptyRegistrySynthesis:
    def test_empty_registry_generates_pure_interposition(self):
        source = Synthesizer(SpecRegistry()).generate_pipeline_source()
        compile(source, "<empty>", "exec")
        assert "rt." not in source.split('"""', 2)[-1].replace(
            "rt.fail", ""
        )  # no machine calls, only the fail plumbing (unused)

    def test_empty_registry_agent_detects_nothing(self):
        agent = JinnAgent(registry=SpecRegistry())
        vm = JavaVM(agents=[agent])
        vm.define_class("se/C")
        vm.register_native(
            "se/C", "nat", "()I", lambda env, this: env.GetStringLength(None)
        )
        assert vm.call_static("se/C", "nat", "()I") == 0  # HotSpot default
        assert agent.rt.violations == []
        vm.shutdown()


class TestRuntimeFailProtocol:
    def test_fail_records_and_pends(self):
        from repro.fsm.errors import FFIViolation

        vm = JavaVM(agents=[JinnAgent()])  # defines the exception class
        rt = JinnRuntime(vm, build_registry())
        env = vm.main_thread.env
        violation = FFIViolation(
            "synthetic", machine="nullness", error_state="Error: unexpected null"
        )
        result = rt.fail(env, violation, default=42)
        assert result == 42
        assert rt.violations == [violation]
        pending = vm.main_thread.pending_exception
        assert pending is not None
        assert pending.jclass.name == "jinn/JNIAssertionFailure"
        vm.main_thread.clear_exception()
        vm.shutdown()

    def test_fail_chains_previous_pending(self):
        from repro.fsm.errors import FFIViolation

        vm = JavaVM(agents=[JinnAgent()])
        rt = JinnRuntime(vm, build_registry())
        env = vm.main_thread.env
        rt.fail(env, FFIViolation("one", machine="m", error_state="e"))
        rt.fail(env, FFIViolation("two", machine="m", error_state="e"))
        pending = vm.main_thread.pending_exception
        assert pending.message == "two"
        assert pending.cause.message == "one"
        vm.main_thread.clear_exception()
        vm.shutdown()


class TestCustomFunctionTables:
    def test_synthesizer_over_subset_table(self):
        subset = {
            name: functions.FUNCTIONS[name]
            for name in ("FindClass", "GetStringLength", "DeleteLocalRef")
        }
        synthesizer = Synthesizer(build_registry(), function_table=subset)
        source = synthesizer.generate_pipeline_source()
        assert "def entry_FindClass" in source
        assert "def entry_CallStaticVoidMethodA" not in source
        compile(source, "<subset>", "exec")

    def test_plan_keys_match_subset(self):
        from repro.jinn.synthesizer import NATIVE_KEY

        subset = {"GetVersion": functions.FUNCTIONS["GetVersion"]}
        plan = Synthesizer(build_registry(), function_table=subset).plan()
        assert set(plan) == {"GetVersion", NATIVE_KEY}
