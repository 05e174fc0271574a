"""Tests for the synthesizer (Algorithm 1) and its generated code."""

import pytest

from repro.fsm.events import Site
from repro.jinn import Synthesizer, build_registry, count_noncomment_lines
from repro.jinn.synthesizer import NATIVE_KEY
from repro.jni import functions


@pytest.fixture(scope="module")
def synthesizer():
    return Synthesizer(build_registry())


@pytest.fixture(scope="module")
def plan(synthesizer):
    return synthesizer.plan()


@pytest.fixture(scope="module")
def machines(synthesizer):
    """Which machines check each wrapper site, in checking order."""
    return {
        key: {site: [name for name, _ in groups] for site, groups in sites.items()}
        for key, sites in synthesizer.machine_plan().items()
    }


@pytest.fixture(scope="module")
def source(synthesizer):
    return synthesizer.generate_source()


class TestPlan:
    def test_every_function_planned(self, plan):
        assert set(plan) == set(functions.FUNCTIONS) | {NATIVE_KEY}

    def test_every_jni_function_gets_env_check_first(self, machines):
        for name in functions.FUNCTIONS:
            pre = machines[name][Site.PRE]
            assert pre
            assert pre[0] == "jnienv_state"

    def test_exception_oblivious_functions_skip_exception_check(self, machines):
        assert "exception_state" not in machines["ExceptionClear"][Site.PRE]
        assert "exception_state" in machines["FindClass"][Site.PRE]

    def test_critical_safe_functions_skip_critical_check(self, machines):
        assert "critical_section" not in machines["GetStringCritical"][Site.PRE]
        assert "critical_section" in machines["FindClass"][Site.PRE]

    def test_nullness_lines_match_metadata(self, plan):
        meta = functions.FUNCTIONS["CallStaticVoidMethodA"]
        null_lines = [
            line
            for line in plan["CallStaticVoidMethodA"][Site.PRE]
            if "rt.nullness.report_null" in line
        ]
        assert len(null_lines) == len(meta.nonnull_param_indices)

    def test_resource_machines_on_post_site(self, machines):
        assert "pinned_resource" in machines["GetIntArrayElements"][Site.POST]
        assert "global_ref" in machines["NewGlobalRef"][Site.POST]
        assert "local_ref" in machines["NewStringUTF"][Site.POST]

    def test_release_checks_on_pre_site(self, machines):
        assert "pinned_resource" in machines["ReleaseIntArrayElements"][Site.PRE]
        assert "local_ref" in machines["DeleteLocalRef"][Site.PRE]

    def test_native_wrapper_plan(self, machines):
        assert machines[NATIVE_KEY][Site.PRE] == ["local_ref"]
        assert "local_ref" in machines[NATIVE_KEY][Site.POST]

    def test_functions_without_entities_get_minimal_checks(self, machines):
        assert machines["GetVersion"][Site.PRE] == [
            "jnienv_state", "exception_state", "critical_section",
        ]
        assert machines["GetVersion"][Site.POST] == []

    def test_one_group_per_contributing_machine(self, synthesizer):
        # Containment wraps one ``rt.<name>`` group per machine and
        # site, so no machine may contribute twice to the same site.
        for sites in synthesizer.machine_plan().values():
            for groups in sites.values():
                names = [name for name, _ in groups]
                assert len(names) == len(set(names))

    def test_cross_product_scale(self, plan):
        total = sum(
            len(sites[Site.PRE]) + len(sites[Site.POST])
            for sites in plan.values()
        )
        # Thousands of checks from eleven machine specifications.
        assert total > 1500

    def test_plan_is_deterministic(self, synthesizer, plan):
        assert synthesizer.plan() == plan


class TestGeneratedSource:
    def test_source_compiles(self, source):
        compile(source, "<test>", "exec")

    def test_source_marks_itself_generated(self, source):
        assert "DO NOT EDIT" in source

    def test_one_wrapper_per_function(self, source):
        for name in functions.FUNCTIONS:
            assert "def wrapped_{}(env, *args):".format(name) in source

    def test_generated_is_large(self, source):
        # The paper: 1,400 lines of specification expand to 22,000+
        # generated lines of C.  Python is denser; assert the ratio
        # direction rather than the absolute count.
        assert count_noncomment_lines(source) > 3000

    def test_defaults_match_return_kinds(self, source):
        assert "return rt.fail(env, v, False)" in source  # jboolean
        assert "return rt.fail(env, v, 0)" in source  # jint
        assert "return rt.fail(env, v, None)" in source  # refs/void

    def test_interpose_only_mode_has_no_checks(self, synthesizer):
        bare = synthesizer.generate_source(checking=False)
        assert "rt.jnienv_state" not in bare
        assert "def wrapped_FindClass(env, *args):" in bare
        compile(bare, "<bare>", "exec")

    def test_write_source(self, synthesizer, tmp_path):
        path = tmp_path / "generated.py"
        lines = synthesizer.write_source(str(path))
        assert lines > 1000
        assert path.read_text().startswith('"""Code generated')


class TestBuild:
    def test_build_returns_wrappers_and_factory(self, synthesizer):
        from repro.jinn.runtime import JinnRuntime
        from repro.jvm import JavaVM

        vm = JavaVM()
        rt = JinnRuntime(vm, build_registry())
        build_wrappers = synthesizer.build()
        wrappers, factory = build_wrappers(
            rt, vm.main_thread.env.function_table()
        )
        assert set(wrappers) == set(functions.FUNCTIONS)
        assert callable(factory("Java_X_y", lambda env, this: None))
        vm.shutdown()

    def test_sub_registry_synthesis(self):
        registry = build_registry().without("nullness", "fixed_typing")
        source = Synthesizer(registry).generate_source()
        assert "rt.nullness" not in source
        assert "rt.fixed_typing" not in source
        assert "rt.local_ref" in source


class TestLineCounting:
    def test_counts_skip_comments_and_docstrings(self):
        sample = '"""doc\nstring"""\n# comment\nx = 1\n\ny = 2\n'
        assert count_noncomment_lines(sample) == 2

    def test_single_line_docstring(self):
        assert count_noncomment_lines('"""one liner"""\nz = 3\n') == 1

    def test_spec_to_generated_ratio_exceeds_three(self, source):
        import os

        import repro.jinn.machines as machines_pkg

        spec_dir = os.path.dirname(machines_pkg.__file__)
        spec_lines = 0
        for fname in os.listdir(spec_dir):
            if fname.endswith(".py"):
                with open(os.path.join(spec_dir, fname)) as f:
                    spec_lines += count_noncomment_lines(f.read())
        generated = count_noncomment_lines(source)
        assert generated / spec_lines > 3.0
