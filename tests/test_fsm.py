"""Unit tests for the state machine specification framework."""

import pytest

from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    FFIViolation,
    FunctionSelector,
    LanguageTransition,
    SpecRegistry,
    SpecificationError,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.fsm.machine import NATIVE_METHOD, functions_matching


class _FakeMeta:
    """Minimal function-metadata stand-in for selector tests."""

    def __init__(self, name):
        self.name = name


def _two_state_spec(name="demo"):
    ok = State("Ok")
    bad = State("Error: bad", is_error=True)

    class DemoSpec(StateMachineSpec):
        pass

    spec = DemoSpec()
    spec.name = name
    spec.observed_entity = "a widget"
    spec.errors_discovered = ("badness",)
    spec.constraint_class = "type"
    spec.states = lambda: (ok, bad)
    spec.state_transitions = lambda: (StateTransition(ok, bad, "oops"),)
    spec.language_transitions_for = lambda st: (
        LanguageTransition(
            Direction.CALL_NATIVE_TO_MANAGED,
            FunctionSelector.named("Frob"),
            EntitySelector.REFERENCE_PARAMETERS,
        ),
    )
    spec.make_encoding = lambda vm: Encoding(spec)
    return spec


class TestStates:
    def test_state_str(self):
        assert str(State("Acquired")) == "Acquired"

    def test_error_flag_defaults_false(self):
        assert not State("Ok").is_error

    def test_error_state(self):
        assert State("Error: dangling", is_error=True).is_error

    def test_transition_str_with_label(self):
        t = StateTransition(State("A"), State("B"), "use")
        assert str(t) == "A -> B [use]"

    def test_transition_str_without_label(self):
        t = StateTransition(State("A"), State("B"))
        assert str(t) == "A -> B"

    def test_states_hashable(self):
        assert len({State("A"), State("A"), State("B")}) == 2


class TestFunctionSelector:
    def test_named_matches(self):
        sel = FunctionSelector.named("Foo", "Bar")
        assert sel.matches(_FakeMeta("Foo"))
        assert sel.matches(_FakeMeta("Bar"))

    def test_named_rejects(self):
        assert not FunctionSelector.named("Foo").matches(_FakeMeta("Baz"))

    def test_all_functions(self):
        assert FunctionSelector.all_functions().matches(_FakeMeta("Anything"))

    def test_native_method_wildcard_matches_none_meta(self):
        assert NATIVE_METHOD.matches(None)

    def test_native_method_wildcard_rejects_real_meta(self):
        assert not NATIVE_METHOD.matches(_FakeMeta("FindClass"))

    def test_repr_mentions_description(self):
        assert "any native method" in repr(NATIVE_METHOD)


class TestLanguageTransition:
    def test_str_shape(self):
        lt = LanguageTransition(
            Direction.CALL_NATIVE_TO_MANAGED,
            FunctionSelector.all_functions(),
            EntitySelector.THREAD,
        )
        text = str(lt)
        assert "Call:C->Java" in text
        assert "thread" in text


class TestSpecValidation:
    def test_valid_spec_passes(self):
        _two_state_spec().validate()

    def test_undeclared_state_rejected(self):
        spec = _two_state_spec()
        rogue = StateTransition(State("X"), State("Y"))
        spec.state_transitions = lambda: (rogue,)
        spec.language_transitions_for = lambda st: ()
        with pytest.raises(SpecificationError):
            spec.validate()

    def test_empty_states_rejected(self):
        spec = _two_state_spec()
        spec.states = lambda: ()
        with pytest.raises(SpecificationError):
            spec.validate()

    def test_bad_mapping_rejected(self):
        spec = _two_state_spec()
        spec.language_transitions_for = lambda st: ("not a transition",)
        with pytest.raises(SpecificationError):
            spec.validate()

    def test_error_states_derived(self):
        spec = _two_state_spec()
        assert [s.name for s in spec.error_states()] == ["Error: bad"]

    def test_describe_mentions_entity_and_transitions(self):
        text = _two_state_spec().describe()
        assert "a widget" in text
        assert "Ok -> Error: bad" in text

    def test_transitions_by_label(self):
        index = _two_state_spec().transitions_by_label()
        assert "oops" in index
        assert len(index["oops"]) == 1

    def test_default_emit_is_empty(self):
        assert _two_state_spec().emit(None, Direction.CALL_NATIVE_TO_MANAGED) == []


class TestRegistry:
    def test_register_and_get(self):
        reg = SpecRegistry([_two_state_spec()])
        assert reg.get("demo").name == "demo"

    def test_duplicate_name_rejected(self):
        reg = SpecRegistry([_two_state_spec()])
        with pytest.raises(SpecificationError):
            reg.register(_two_state_spec())

    def test_unknown_name(self):
        with pytest.raises(SpecificationError):
            SpecRegistry().get("ghost")

    def test_len_and_iteration_order(self):
        reg = SpecRegistry([_two_state_spec("a"), _two_state_spec("b")])
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]

    def test_contains(self):
        reg = SpecRegistry([_two_state_spec("a")])
        assert "a" in reg
        assert "b" not in reg

    def test_by_class(self):
        reg = SpecRegistry([_two_state_spec("a")])
        assert [s.name for s in reg.by_class("type")] == ["a"]
        assert reg.by_class("resource") == []

    def test_without_builds_sub_registry(self):
        reg = SpecRegistry([_two_state_spec("a"), _two_state_spec("b")])
        sub = reg.without("a")
        assert sub.names() == ["b"]
        assert reg.names() == ["a", "b"]  # original untouched

    def test_without_unknown_name(self):
        reg = SpecRegistry([_two_state_spec("a")])
        with pytest.raises(SpecificationError):
            reg.without("zz")


class TestEventHelpers:
    def test_functions_matching_direction_filter(self):
        spec = _two_state_spec()
        frob = _FakeMeta("Frob")
        assert functions_matching([spec], frob, Direction.CALL_NATIVE_TO_MANAGED) == [
            spec
        ]
        assert (
            functions_matching([spec], frob, Direction.RETURN_MANAGED_TO_NATIVE)
            == []
        )

    def test_functions_matching_name_filter(self):
        spec = _two_state_spec()
        assert (
            functions_matching(
                [spec], _FakeMeta("Other"), Direction.CALL_NATIVE_TO_MANAGED
            )
            == []
        )


class TestFFIViolation:
    def test_report_includes_machine_and_state(self):
        v = FFIViolation(
            "boom", machine="m", error_state="Error: e", function="F"
        )
        report = v.report()
        assert "machine=m" in report
        assert "Error: e" in report
        assert "in F" in report

    def test_report_without_function(self):
        v = FFIViolation("boom", machine="m", error_state="e")
        assert "in " not in v.report().split("]")[-1]

    def test_fields_preserved(self):
        v = FFIViolation(
            "boom", machine="m", error_state="e", function="F", entity="obj"
        )
        assert (v.machine, v.error_state, v.function, v.entity) == (
            "m",
            "e",
            "F",
            "obj",
        )
