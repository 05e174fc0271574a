"""Tests for the language-neutral checker core (:mod:`repro.core`)."""

import sys
import threading

import pytest

from repro.core.cache import WRAPPER_CACHE, WrapperCache
from repro.core.defaults import (
    RETURN_DEFAULT_LITERALS,
    RETURN_DEFAULTS,
    default_literal,
    default_value,
)
from repro.core.dispatch import NATIVE_KEY, DispatchIndex
from repro.core.runtime import CheckerRuntime, FailurePolicy, RaiseViolationPolicy
from repro.fsm.errors import FFIViolation
from repro.fsm.machine import Encoding, State, StateMachineSpec
from repro.fsm.registry import SpecRegistry
from repro.jinn.machines import build_registry
from repro.jinn.machines.nullness import NullnessSpec
from repro.jni.functions import FUNCTIONS
from repro.pyc.machines import build_pyc_registry
from repro.pyc.spec import PY_FUNCTIONS


# ----------------------------------------------------------------------
# Return-kind defaults: one table, two consistent views
# ----------------------------------------------------------------------


class TestReturnDefaults:
    def test_every_jni_return_kind_has_consistent_views(self):
        """For every return kind the JNI table uses, the source literal
        the synthesizer embeds must evaluate to the value replay, the
        interpretive path, passes to ``fail`` — the two views of the
        defaults table may never drift apart."""
        kinds = {meta.returns for meta in FUNCTIONS.values()}
        assert kinds  # sanity: the table is populated
        for kind in sorted(kinds):
            assert eval(default_literal(kind)) == default_value(kind), kind

    def test_every_pyc_return_kind_has_consistent_views(self):
        kinds = {meta.returns for meta in PY_FUNCTIONS.values()}
        assert kinds
        for kind in sorted(kinds):
            assert eval(default_literal(kind)) == default_value(kind), kind

    def test_literal_table_is_derived_from_value_table(self):
        assert set(RETURN_DEFAULT_LITERALS) == set(RETURN_DEFAULTS)
        for kind, value in RETURN_DEFAULTS.items():
            assert eval(RETURN_DEFAULT_LITERALS[kind]) == value, kind

    def test_unknown_kind_falls_back_to_none(self):
        assert default_value("no_such_kind") is None
        assert default_literal("no_such_kind") == "None"

    def test_zero_values_match_jni_semantics(self):
        assert default_value("jboolean") is False
        assert default_value("jint") == 0
        assert default_value("jdouble") == 0.0
        assert default_value("void") is None
        assert default_value("jobject") is None  # references zero to null


# ----------------------------------------------------------------------
# Registry fingerprints and the shared wrapper cache
# ----------------------------------------------------------------------


class DefangedNullnessSpec(NullnessSpec):
    """Same machine *name* and shape as the builtin — but no checks.

    Models a downstream ablation: a user subclasses a builtin machine,
    keeps its name, and changes what it emits.  A cache keyed on machine
    names cannot tell this registry from the builtin one.
    """

    def emit(self, meta, direction):
        return []


class TestFingerprint:
    def test_identical_registries_fingerprint_identically(self):
        assert build_registry().fingerprint() == build_registry().fingerprint()

    def test_removing_a_machine_changes_the_fingerprint(self):
        full = build_registry()
        assert full.fingerprint() != full.without("nullness").fingerprint()

    def test_same_names_different_specs_fingerprint_differently(self):
        builtin = SpecRegistry([NullnessSpec()])
        custom = SpecRegistry([DefangedNullnessSpec()])
        assert builtin.names() == custom.names()
        assert builtin.fingerprint() != custom.fingerprint()

    def test_register_invalidates_the_memoized_fingerprint(self):
        full = build_registry()
        partial = full.without("nullness")
        before = partial.fingerprint()
        partial.register(NullnessSpec())
        assert partial.fingerprint() != before
        assert partial.fingerprint() == SpecRegistry(
            list(full.without("nullness")) + [NullnessSpec()]
        ).fingerprint()


#: The built-in registries' digests, as the committed corpus trace
#: headers (``tests/data/fuzz_corpus``) carry them.
BUILTIN_FINGERPRINTS = {
    "jni": "d373195f3dffe3508432e9daff47b2d872b5c9e734f61b7198ff3ecc12dd161d",
    "pyc": "8d87747f41eea13dee42077b1d5bd788322ed3240fe991c26b206b560b77299d",
}
BUILD_REGISTRY = {"jni": build_registry, "pyc": build_pyc_registry}


def _renamed(spec):
    """A spec of the same class under a new name."""
    cls = type(spec)
    return type(cls.__name__ + "Copy", (cls,), {"name": spec.name + "_copy"})()


class TestBuiltRegistries:
    """Each substrate's spec set is built, validated and fingerprinted
    once per process; every build after that is a copy."""

    @pytest.mark.parametrize("substrate", sorted(BUILD_REGISTRY))
    def test_fingerprint_matches_the_corpus_headers(self, substrate):
        digest = BUILD_REGISTRY[substrate]().fingerprint()
        assert digest == BUILTIN_FINGERPRINTS[substrate]

    @pytest.mark.parametrize("substrate", sorted(BUILD_REGISTRY))
    def test_rebuilding_neither_validates_nor_hashes(self, substrate, monkeypatch):
        build = BUILD_REGISTRY[substrate]
        build().fingerprint()
        calls = []

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls.append((type(self).__name__, name))
                return original(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        counted(StateMachineSpec, "validate")
        for spec in build():
            counted(type(spec), "state_transitions")
        for _ in range(5):
            build().fingerprint()
        assert calls == []

    @pytest.mark.parametrize("substrate", sorted(BUILD_REGISTRY))
    def test_built_registries_are_independent(self, substrate):
        build, digest = BUILD_REGISTRY[substrate], BUILTIN_FINGERPRINTS[substrate]
        first, second = build(), build()
        names = second.names()
        first.register(_renamed(list(first)[-1]))
        assert first.names() == names + [names[-1] + "_copy"]
        assert first.fingerprint() != digest
        assert second.names() == names
        assert second.fingerprint() == digest
        assert second.without(names[0]).fingerprint() != digest
        assert build().fingerprint() == digest

    @pytest.mark.parametrize("substrate", sorted(BUILD_REGISTRY))
    def test_threads_racing_the_first_fingerprint_get_whole_registries(
        self, substrate, monkeypatch
    ):
        build = BUILD_REGISTRY[substrate]
        shared = sys.modules[build.__module__]._REGISTRY
        monkeypatch.setattr(shared, "_fingerprint", None)
        built = []

        def build_many():
            for _ in range(50):
                registry = build()
                built.append((tuple(registry.names()), registry.fingerprint()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build_many) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 8 * 50
        assert set(built) == {
            (tuple(shared.names()), BUILTIN_FINGERPRINTS[substrate])
        }


class TestWrapperCache:
    def test_fingerprint_identical_registries_share_a_module(self):
        cache = WrapperCache()
        first = cache.plans_for(build_registry())
        second = cache.plans_for(build_registry())
        assert first is second
        assert cache.stats()["plan_modules"] == 1

    def test_checking_mode_is_part_of_the_key(self):
        cache = WrapperCache()
        checking = cache.plans_for(build_registry(), checking=True)
        interposing = cache.plans_for(build_registry(), checking=False)
        assert checking is not interposing

    def test_custom_registry_reusing_builtin_name_misses_cache(self):
        """Regression: the historic cache keyed on machine *names*, so a
        custom registry reusing a builtin name silently received the
        builtin's checks.  Spec identity must miss."""
        cache = WrapperCache()
        builtin = cache.plans_for(SpecRegistry([NullnessSpec()]))
        custom = cache.plans_for(SpecRegistry([DefangedNullnessSpec()]))
        assert builtin is not custom
        assert cache.stats()["plan_modules"] == 2

    def test_defanged_subclass_behaves_defanged_after_builtin_cached(self):
        """End to end: populate the shared cache with the builtin
        single-machine registry first (the order that triggered the
        historic bug), then run the defanged look-alike — it must not
        detect anything."""
        from repro.jvm import HOTSPOT, JavaException, JavaVM
        from repro.jinn.agent import JinnAgent
        from tests.conftest import call_native

        def nat(env, this):
            env.GetStringLength(None)  # nullness violation, if checked

        strict_agent = JinnAgent(SpecRegistry([NullnessSpec()]))
        strict_vm = JavaVM(vendor=HOTSPOT, agents=[strict_agent])
        with pytest.raises(JavaException):
            call_native(strict_vm, "tc/Strict", "go", "()V", nat)
        assert [v.machine for v in strict_agent.rt.violations] == ["nullness"]

        lax_agent = JinnAgent(SpecRegistry([DefangedNullnessSpec()]))
        lax_vm = JavaVM(vendor=HOTSPOT, agents=[lax_agent])
        call_native(lax_vm, "tc/Lax", "go", "()V", nat)  # must not raise
        assert lax_agent.rt.violations == []

    def test_dispatch_index_cached_by_fingerprint(self):
        cache = WrapperCache()
        first = cache.dispatch_for(build_registry())
        second = cache.dispatch_for(build_registry())
        assert first is second
        assert cache.dispatch_for(SpecRegistry([NullnessSpec()])) is not first

    def test_shared_instance_exists(self):
        assert isinstance(WRAPPER_CACHE, WrapperCache)

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            WrapperCache(max_entries=0)

    def test_insert_past_cap_evicts_least_recently_used(self):
        cache = WrapperCache(max_entries=2)
        registries = [
            build_registry(),
            build_registry().without("nullness"),
            build_registry().without("exception_state"),
        ]
        first = cache.dispatch_for(registries[0])
        cache.dispatch_for(registries[1])
        cache.dispatch_for(registries[2])  # evicts registries[0]
        stats = cache.stats()
        assert stats["dispatch_indexes"] == 2
        assert stats["evictions"] == 1
        # The evicted entry is rebuilt — a fresh object, a new miss.
        assert cache.dispatch_for(registries[0]) is not first

    def test_a_hit_refreshes_recency(self):
        cache = WrapperCache(max_entries=2)
        registries = [
            build_registry(),
            build_registry().without("nullness"),
            build_registry().without("exception_state"),
        ]
        oldest = cache.dispatch_for(registries[0])
        cache.dispatch_for(registries[1])
        refreshed = cache.dispatch_for(registries[0])  # hit: refresh
        assert refreshed is oldest
        cache.dispatch_for(registries[2])  # evicts registries[1], not [0]
        assert cache.dispatch_for(registries[0]) is oldest

    def test_stats_count_hits_misses_and_evictions(self):
        cache = WrapperCache(max_entries=2)
        registry = build_registry()
        cache.dispatch_for(registry)  # miss
        cache.dispatch_for(registry)  # hit
        cache.dispatch_for(registry)  # hit
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["max_entries"] == 2
        cache.clear()
        cleared = cache.stats()
        assert cleared["hits"] == cleared["misses"] == 0
        assert cleared["dispatch_indexes"] == 0


# ----------------------------------------------------------------------
# Dispatch index vs Algorithm 1's targeting
# ----------------------------------------------------------------------


def _expected_buckets(registry, function_table):
    """Recompute the cross product the way ``Synthesizer.plan`` targets
    wrappers, as sets per (key, direction)."""
    expected = {}
    for spec in registry:
        for st in spec.state_transitions():
            for lt in spec.language_transitions_for(st):
                if lt.functions.matches(None):
                    keys = [NATIVE_KEY]
                else:
                    keys = [
                        meta.name
                        for meta in function_table.values()
                        if lt.functions.matches(meta)
                    ]
                for key in keys:
                    expected.setdefault((key, lt.direction), set()).add(
                        spec.name
                    )
    return expected


class TestDispatchIndex:
    def test_index_agrees_exactly_with_plan_targeting(self):
        """Every (machine, function, direction) the synthesizer plans is
        in the index, and the index holds nothing more — on both
        substrates' tables."""
        from repro.fsm.events import Direction
        from repro.pyc.machines import build_pyc_registry

        for registry, table in (
            (build_registry(), FUNCTIONS),
            (build_pyc_registry(), PY_FUNCTIONS),
        ):
            index = DispatchIndex.build(registry, table)
            expected = _expected_buckets(registry, table)
            for (key, direction), machines in expected.items():
                if key == NATIVE_KEY:
                    got = index.native_machines(direction)
                else:
                    got = index.machines(key, direction)
                assert set(got) == machines, (key, direction)
            # Reverse inclusion: nothing spurious.
            for name in table:
                for direction in Direction:
                    got = set(index.machines(name, direction))
                    assert got == expected.get((name, direction), set())
            for direction in Direction:
                got = set(index.native_machines(direction))
                assert got == expected.get((NATIVE_KEY, direction), set())

    def test_buckets_preserve_registry_order(self):
        registry = build_registry()
        order = {name: i for i, name in enumerate(registry.names())}
        index = DispatchIndex.build(registry, FUNCTIONS)
        from repro.fsm.events import Direction

        for name in FUNCTIONS:
            for direction in Direction:
                positions = [
                    order[m] for m in index.machines(name, direction)
                ]
                assert positions == sorted(positions), (name, direction)

    def test_index_is_sparser_than_fanout(self):
        index = DispatchIndex.build(build_registry(), FUNCTIONS)
        assert index.handler_count() < index.fanout_handler_count()
        assert 0.0 < index.sparsity() < 1.0

    def test_synthesizer_exposes_the_index(self):
        from repro.jinn.synthesizer import Synthesizer

        index = Synthesizer(build_registry()).dispatch_index()
        assert isinstance(index, DispatchIndex)
        assert set(index.machine_names) == set(build_registry().names())


# ----------------------------------------------------------------------
# The shared CheckerRuntime protocol
# ----------------------------------------------------------------------


class LeakyEncoding(Encoding):
    def __init__(self, spec):
        super().__init__(spec)
        self.reset_calls = 0
        self.open_resources = ["resource left open"]

    def at_termination(self):
        return list(self.open_resources)

    def reset(self):
        self.reset_calls += 1
        self.open_resources = []


class LeakySpec(StateMachineSpec):
    name = "leaky"
    observed_entity = "a test resource"
    errors_discovered = ("leak",)
    constraint_class = "resource"

    def states(self):
        return [State("Open"), State("Error: leak", is_error=True)]

    def state_transitions(self):
        return []

    def language_transitions_for(self, transition):
        return []

    def make_encoding(self, vm):
        return LeakyEncoding(self)


class RecordingRuntime(CheckerRuntime):
    log_prefix = "test-checker"
    termination_site = "test exit"

    def __init__(self, registry, policy):
        self.lines = []
        super().__init__(None, registry, policy)

    def log(self, message):
        self.lines.append(message)


class SwallowPolicy(FailurePolicy):
    def handle(self, runtime, env, violation, default):
        return default


class TestCheckerRuntime:
    def _violation(self):
        return FFIViolation(
            "boom",
            machine="leaky",
            error_state="Error: leak",
            function="DoThing",
        )

    def test_encodings_bound_by_name_and_attribute(self):
        rt = RecordingRuntime(
            SpecRegistry([LeakySpec()]), RaiseViolationPolicy()
        )
        assert isinstance(rt.encodings["leaky"], LeakyEncoding)
        assert rt.leaky is rt.encodings["leaky"]

    def test_fail_records_logs_and_applies_policy(self):
        rt = RecordingRuntime(
            SpecRegistry([LeakySpec()]), RaiseViolationPolicy()
        )
        violation = self._violation()
        with pytest.raises(FFIViolation):
            rt.fail(None, violation)
        assert rt.violations == [violation]
        assert rt.lines == ["test-checker: " + violation.report()]

    def test_policy_return_value_becomes_wrapper_result(self):
        rt = RecordingRuntime(SpecRegistry([LeakySpec()]), SwallowPolicy())
        assert rt.fail(None, self._violation(), default=42) == 42

    def test_termination_sweep_builds_leak_violations(self):
        rt = RecordingRuntime(SpecRegistry([LeakySpec()]), SwallowPolicy())
        found = rt.at_termination()
        assert [v.machine for v in found] == ["leaky"]
        assert found[0].error_state == "Error: leak"
        assert found[0].function == "test exit"
        assert rt.violations == found  # sweep results land in the log

    def test_reset_clears_encodings_and_violations(self):
        rt = RecordingRuntime(SpecRegistry([LeakySpec()]), SwallowPolicy())
        rt.fail(None, self._violation())
        rt.reset()
        assert rt.violations == []
        assert rt.leaky.reset_calls == 1

    def test_substrate_runtimes_are_thin_policy_subclasses(self):
        """The tentpole's acceptance criterion: neither substrate
        runtime re-implements the shared protocol."""
        from repro.jinn.runtime import JinnRuntime
        from repro.pyc.checker import PyCRuntime

        for runtime_cls in (JinnRuntime, PyCRuntime):
            assert issubclass(runtime_cls, CheckerRuntime)
            for shared in ("fail", "at_termination", "reset"):
                assert shared not in vars(runtime_cls), (
                    runtime_cls,
                    shared,
                )

    def test_render_violation_log_uses_runtime_prefix(self):
        from repro.jinn.reporting import render_violation_log

        rt = RecordingRuntime(SpecRegistry([LeakySpec()]), SwallowPolicy())
        violation = self._violation()
        rt.fail(None, violation)
        assert render_violation_log(rt) == [
            "test-checker: " + violation.report()
        ]
