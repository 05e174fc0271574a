"""Unit tests for the plan compiler and its stage description."""

import pytest

from repro.core.cache import WrapperCache
from repro.core.dispatch import NATIVE_KEY
from repro.jinn.agent import JinnAgent
from repro.jinn.machines import build_registry
from repro.jni.functions import FUNCTIONS
from repro.jvm import HOTSPOT, JavaVM
from repro.pipeline import PipelinePlan


def jni_runtime():
    agent = JinnAgent()
    JavaVM(vendor=HOTSPOT, agents=[agent])
    return agent


def stages(plan):
    return plan.describe()["interceptors"]


class TestPlanComposition:
    def test_bare_stack(self):
        agent = jni_runtime()
        plan = PipelinePlan(agent.rt, agent.registry)
        assert [s["name"] for s in stages(plan)] == [
            "machines", "containment",
        ]

    def test_full_stack_outermost_first(self):
        from repro.resilience import OverheadGovernor
        from repro.trace import TraceRecorder

        agent = jni_runtime()
        recorder = TraceRecorder()
        recorder.attach_jinn(agent.rt, agent.vm)
        governor = OverheadGovernor()
        try:
            plan = PipelinePlan(
                agent.rt,
                agent.registry,
                recorder=recorder,
                governor=governor,
            )
            described = stages(plan)
            assert [s["name"] for s in described] == [
                "recorder", "governor", "machines", "containment",
            ]
            recorder_stage, governor_stage, _, containment = described
            assert recorder_stage == {"name": "recorder", "journal": False}
            assert governor_stage == {
                "name": "governor",
                "budget": governor.policy.budget,
            }
            assert containment == {
                "name": "containment", "enabled": True, "level": "full",
            }
        finally:
            recorder.close()

    def test_machine_stage_resolves_encodings(self):
        """A site's machines, resolved to this runtime's encodings by
        the dispatch index replay drives, are a strict subset."""
        from repro.fsm.events import Direction

        agent = jni_runtime()
        index = WrapperCache().dispatch_for(agent.registry)
        pre = index.encodings(
            agent.rt, "DeleteLocalRef", Direction.CALL_NATIVE_TO_MANAGED
        )
        assert [e.spec.name for e in pre] == list(
            index.machines("DeleteLocalRef", Direction.CALL_NATIVE_TO_MANAGED)
        )
        assert all(e is agent.rt.encodings[e.spec.name] for e in pre)
        assert 0 < len(pre) < len(agent.registry.names())

    def test_rejects_unknown_mode_and_dispatch(self):
        agent = jni_runtime()
        # Interpretive checking is replay's, not a live mode.
        for mode in ("jit", "interpretive"):
            with pytest.raises(ValueError, match="mode"):
                PipelinePlan(agent.rt, agent.registry, mode=mode)
        # One call path, one dispatch strategy: neither option exists.
        from repro.pyc import PyCChecker

        for option in ("pipeline", "dispatch"):
            with pytest.raises(TypeError, match=option):
                PipelinePlan(agent.rt, agent.registry, **{option: "x"})
            with pytest.raises(TypeError, match=option):
                JinnAgent(**{option: "x"})
            with pytest.raises(TypeError, match=option):
                PyCChecker(**{option: "x"})


class TestPlanEntries:
    def test_generated_entries_cover_the_table(self):
        agent = jni_runtime()
        plan = PipelinePlan(agent.rt, agent.registry)
        thread = agent.vm.current_thread
        entries = plan.entries(thread.env.function_table())
        assert set(entries) == set(thread.env.function_table())
        for entry in entries.values():
            assert callable(entry)

    def test_native_entry_without_prior_table(self):
        # Binding a native before any thread's table was installed must
        # work: the factory self-binds against a stub raw table.
        agent = jni_runtime()
        plan = PipelinePlan(agent.rt, agent.registry)
        calls = []

        def impl(env, this, *args):
            calls.append(args)
            return 0

        entry = plan.native_entry("Java_Lib_work", impl)
        assert callable(entry)


class TestPlanDescribe:
    def test_generated_describe(self):
        agent = jni_runtime()
        plan = PipelinePlan(agent.rt, agent.registry)
        described = plan.describe()
        assert described["mode"] == "generated"
        assert described["functions"] == len(FUNCTIONS)
        assert described["checked_sites"] > 0
        per_function = described["per_function"]
        assert NATIVE_KEY in per_function
        assert len(per_function) == len(FUNCTIONS) + 1
        for steps in per_function.values():
            assert "raw" in steps

    def test_interpose_checks_nothing(self):
        agent = jni_runtime()
        plan = PipelinePlan(agent.rt, agent.registry, mode="interpose")
        described = plan.describe()
        assert described["checked_sites"] == 0
        assert all(
            steps == ["raw"]
            for steps in described["per_function"].values()
        )

    def test_stage_flags_show_in_op_lists(self):
        from repro.resilience import OverheadGovernor
        from repro.trace import TraceRecorder

        agent = jni_runtime()
        recorder = TraceRecorder()
        recorder.attach_jinn(agent.rt, agent.vm)
        try:
            plan = PipelinePlan(
                agent.rt,
                agent.registry,
                recorder=recorder,
                governor=OverheadGovernor(),
            )
            steps = plan.describe()["per_function"]["DeleteLocalRef"]
            assert steps[0] == "record:call"
            assert steps[1].startswith("check:")  # the meter only meters
            assert steps[-2] == "govern:meter"
            assert steps[-1] == "record:return"
        finally:
            recorder.close()


class TestPlanCache:
    def test_same_spec_and_flags_share_one_module(self):
        cache = WrapperCache()
        registry = build_registry()
        first = cache.plans_for(registry)
        second = cache.plans_for(build_registry())
        assert first is second
        stats = cache.stats()
        assert stats["plan_modules"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_stage_flags_key_distinct_modules(self):
        cache = WrapperCache()
        registry = build_registry()
        plain = cache.plans_for(registry)
        recording = cache.plans_for(registry, record=True)
        governed = cache.plans_for(registry, record=True, govern=True)
        assert plain is not recording
        assert recording is not governed
        assert cache.stats()["plan_modules"] == 3

    def test_plan_uses_injected_cache(self):
        agent = jni_runtime()
        cache = WrapperCache()
        PipelinePlan(agent.rt, agent.registry, cache=cache)
        assert cache.stats()["plan_modules"] == 1
