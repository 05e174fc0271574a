"""Property-based tests (hypothesis) on core invariants."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jinn import Synthesizer, build_registry
from repro.jni.refs import RefTables
from repro.jvm import JavaVM, descriptors
from repro.pyc.objects import Allocator

# ----------------------------------------------------------------------
# Descriptor round-trips
# ----------------------------------------------------------------------

_primitive = st.sampled_from(list("ZBCSIJFD"))
_class_name = st.lists(
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
    min_size=1,
    max_size=4,
).map("/".join)
_class_desc = _class_name.map(lambda n: "L{};".format(n))


def _field_descriptors(max_depth=2):
    base = st.one_of(_primitive, _class_desc)
    return st.recursive(
        base, lambda children: children.map(lambda d: "[" + d), max_leaves=4
    )


@given(_field_descriptors())
def test_field_descriptor_parse_is_identity(descriptor):
    assert descriptors.parse_field_descriptor(descriptor) == descriptor


@given(st.lists(_field_descriptors(), max_size=5), _field_descriptors())
def test_method_descriptor_roundtrip(params, ret):
    descriptor = "({}){}".format("".join(params), ret)
    parsed_params, parsed_ret = descriptors.parse_method_descriptor(descriptor)
    assert parsed_params == params
    assert parsed_ret == ret


@given(st.lists(_field_descriptors(), max_size=5))
def test_void_method_descriptor_roundtrip(params):
    descriptor = "({})V".format("".join(params))
    parsed_params, parsed_ret = descriptors.parse_method_descriptor(descriptor)
    assert parsed_params == params
    assert parsed_ret == "V"


@given(_field_descriptors())
def test_default_value_conforms_unless_reference(descriptor):
    vm = JavaVM()
    value = descriptors.default_value(descriptor)
    assert descriptors.value_conforms(vm, value, descriptor)
    vm.shutdown()


# ----------------------------------------------------------------------
# Local reference frames
# ----------------------------------------------------------------------

_ops = st.lists(
    st.sampled_from(["new", "delete_last", "push", "pop"]), max_size=40
)


@given(_ops)
@settings(max_examples=60)
def test_ref_tables_live_count_invariant(ops):
    """live_local_count always equals the sum of per-frame live refs and
    never goes negative, regardless of the operation sequence."""
    vm = JavaVM()
    tables = RefTables(default_capacity=4)
    tables.push_frame(implicit=True)
    live = []
    for op in ops:
        if op == "new":
            ref = tables.new_local(vm.new_object("java/lang/Object"), vm.main_thread)
            live.append(ref)
        elif op == "delete_last" and live:
            tables.delete_local(live.pop())
        elif op == "push":
            tables.push_frame()
        elif op == "pop" and len(tables.frames) > 1:
            tables.pop_frame()
            live = [ref for ref in live if ref.alive]
        assert tables.live_local_count() == sum(
            f.live_count for f in tables.frames
        )
        assert tables.live_local_count() >= 0
    vm.shutdown()


@given(_ops)
@settings(max_examples=60)
def test_popped_frames_kill_all_their_refs(ops):
    vm = JavaVM()
    tables = RefTables()
    tables.push_frame(implicit=True)
    created = []
    for op in ops:
        if op == "new":
            created.append(
                tables.new_local(vm.new_object("java/lang/Object"), vm.main_thread)
            )
        elif op == "push":
            tables.push_frame()
        elif op == "pop" and len(tables.frames) > 1:
            tables.pop_frame()
    tables.pop_frame(implicit=True)
    assert all(not ref.alive for ref in created)
    vm.shutdown()


# ----------------------------------------------------------------------
# Reference counting
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=30))
def test_refcount_balance_frees_exactly_at_zero(extra_refs):
    allocator = Allocator()
    obj = allocator.new("int", 1)
    for _ in range(extra_refs):
        obj.incref()
    for _ in range(extra_refs):
        obj.decref()
        assert not obj.freed
    obj.decref()
    assert obj.freed


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=10))
def test_container_children_freed_iff_unreferenced(child_extra_refs):
    allocator = Allocator()
    children = []
    for extra in child_extra_refs:
        child = allocator.new("int", extra)
        for _ in range(extra):
            child.incref()
        children.append(child)
    container = allocator.new("list", list(children))
    container.decref()
    for extra, child in zip(child_extra_refs, children):
        assert child.freed == (extra == 0)


# ----------------------------------------------------------------------
# GC reachability
# ----------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=12))
@settings(max_examples=30)
def test_gc_reclaims_exactly_the_unrooted(rooted, unrooted):
    vm = JavaVM()
    baseline = vm.heap.live_count
    kept = [vm.new_object("java/lang/Object") for _ in range(rooted)]
    for _ in range(unrooted):
        vm.new_object("java/lang/Object")
    vm.main_thread.java_stack.extend(kept)
    reclaimed = vm.gc()
    assert reclaimed == unrooted
    assert all(not obj.reclaimed for obj in kept)
    vm.shutdown()


# ----------------------------------------------------------------------
# Synthesizer determinism
# ----------------------------------------------------------------------


@given(st.randoms())
@settings(max_examples=5)
def test_generated_source_is_deterministic(_rng):
    a = Synthesizer(build_registry()).generate_pipeline_source()
    b = Synthesizer(build_registry()).generate_pipeline_source()
    assert a == b


@given(
    st.sets(
        st.sampled_from(
            ["nullness", "fixed_typing", "monitor", "global_ref", "pinned_resource"]
        ),
        max_size=3,
    )
)
@settings(max_examples=20, deadline=None)
def test_ablated_machines_never_appear_in_source(dropped):
    registry = build_registry().without(*dropped)
    source = Synthesizer(registry).generate_pipeline_source()
    for name in dropped:
        assert "rt.{}.".format(name) not in source
    compile(source, "<ablated>", "exec")
