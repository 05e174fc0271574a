"""Error paths of the per-site specialised checks agree on every path.

The synthesized entries call the typing and per-thread machines with
their site baked in (call mode, result kind, payload form, field flags,
fixed type, the crossing's thread).  Each case below drives one bug
those specialised checks catch through the generated agent (while
recording a trace) and through a replay of the trace, which runs the
same entries over the decoded stream, and requires the same
``(machine, error_state, function, entity, message)`` stream from both:
live against the trace round trip.
"""

import json

import pytest

from repro.jinn.agent import JinnAgent
from repro.jvm import FatalJNIError, JavaException, JavaVM, SimulatedCrash
from repro.trace import TraceRecorder
from repro.trace.format import parse_header
from repro.trace.replay import replay_engine
from repro.workloads.casestudies import local_ref_time_series

HOST = "pp/Host"


def _define_classes(vm):
    vm.define_class("pp/Base")
    vm.add_method(
        "pp/Base", "f", "(I)I", is_static=True, body=lambda v, t, c, x: x
    )
    vm.add_method("pp/Base", "g", "()V", body=lambda v, t, recv: None)
    vm.add_field("pp/Base", "s", "I", is_static=True)
    vm.add_field("pp/Base", "n", "I")
    vm.define_class("pp/Sub", superclass="pp/Base")
    vm.define_class(HOST)
    vm.add_method(HOST, "run", "()V", is_static=True, is_native=True)


def _keys(violations):
    return [
        (v.machine, v.error_state, v.function, v.entity, v.args[0])
        for v in violations
    ]


def run_live(body, trace_path):
    recorder = TraceRecorder(str(trace_path))
    agent = JinnAgent(observer=recorder)
    vm = JavaVM(agents=[agent])
    _define_classes(vm)
    vm.register_native(HOST, "run", "()V", lambda env, clazz: body(vm, env))
    try:
        vm.call_static(HOST, "run", "()V")
    except (JavaException, FatalJNIError, SimulatedCrash):
        pass
    vm.shutdown()
    recorder.close()
    return _keys(agent.rt.violations)


def run_replay(trace_path):
    # The replay engine's runtime holds the violation objects until
    # finish() (the public ReplayResult carries only report strings,
    # without entity).
    with open(str(trace_path)) as f:
        lines = f.read().splitlines()
    engine = replay_engine(parse_header(lines[0]))
    engine.run(json.loads(line) for line in lines[1:] if line.strip())
    keys = _keys(engine.rt.violations)
    engine.finish()
    return keys


def _base(env):
    return env.FindClass("pp/Base")


def _static_f(env):
    return env.GetStaticMethodID(_base(env), "f", "(I)I")


def swt_inherited_static(vm, env):
    # Eclipse SWT: the static call names a class that only inherits f.
    env.CallStaticIntMethodA(env.FindClass("pp/Sub"), _static_f(env), [1])


def static_through_instance(vm, env):
    obj = env.AllocObject(_base(env))
    env.CallIntMethodA(obj, _static_f(env), [1])


def instance_as_static(vm, env):
    base = _base(env)
    env.CallStaticVoidMethodA(base, env.GetMethodID(base, "g", "()V"), [])


def argument_count_mismatch(vm, env):
    env.CallStaticIntMethodA(_base(env), _static_f(env), [])


def formal_type_mismatch(vm, env):
    env.CallStaticIntMethodA(
        _base(env), _static_f(env), [env.NewStringUTF("no")]
    )


def field_of_wrong_kind(vm, env):
    base = _base(env)
    env.GetLongField(env.AllocObject(base), env.GetFieldID(base, "n", "I"))


def field_of_wrong_staticness(vm, env):
    base = _base(env)
    env.GetIntField(
        env.AllocObject(base), env.GetStaticFieldID(base, "s", "I")
    )


def jobject_where_jclass_due(vm, env):
    env.GetStaticMethodID(env.AllocObject(_base(env)), "f", "(I)I")


def jobject_where_jstring_due(vm, env):
    env.GetStringUTFLength(env.AllocObject(_base(env)))


def dangling_after_pop_frame(vm, env):
    env.PushLocalFrame(4)
    s = env.NewStringUTF("x")
    env.PopLocalFrame(None)
    env.GetStringUTFLength(s)


def local_ref_of_another_thread(vm, env):
    s = env.NewStringUTF("x")
    worker = vm.attach_thread("pp-worker")
    with vm.run_on_thread(worker):
        worker.env.GetStringUTFLength(s)


def delete_local_ref_twice(vm, env):
    s = env.NewStringUTF("x")
    env.DeleteLocalRef(s)
    env.DeleteLocalRef(s)


def local_ref_overflow(vm, env):
    for i in range(20):
        env.NewStringUTF("s{}".format(i))


def sensitive_call_in_critical_section(vm, env):
    arr = env.NewIntArray(4)
    carray = env.GetPrimitiveArrayCritical(arr)
    env.GetArrayLength(arr)
    env.ReleasePrimitiveArrayCritical(arr, carray, 0)


def release_of_unheld_critical(vm, env):
    env.ReleasePrimitiveArrayCritical(env.NewIntArray(4), None, 0)


#: (program, machine that must fire first, text its message contains).
CASES = [
    (swt_inherited_static, "entity_typing", "does not itself declare"),
    (static_through_instance, "entity_typing", "through an instance"),
    (instance_as_static, "entity_typing", "as static"),
    (argument_count_mismatch, "entity_typing", "passes 0 argument(s)"),
    (formal_type_mismatch, "entity_typing", "does not conform to formal"),
    (field_of_wrong_kind, "entity_typing", "as kind J"),
    (field_of_wrong_staticness, "entity_typing", "used on static field"),
    (jobject_where_jclass_due, "fixed_typing", "must be java.lang.Class"),
    (jobject_where_jstring_due, "fixed_typing", "must be java.lang.String"),
    (dangling_after_pop_frame, "local_ref", "dangling local reference"),
    (local_ref_of_another_thread, "local_ref", "of another thread"),
    (delete_local_ref_twice, "local_ref", "called twice"),
    (local_ref_overflow, "local_ref", "(overflow)"),
    (sensitive_call_in_critical_section, "critical_section", "inside a JNI"),
    (release_of_unheld_critical, "critical_section", "does not hold"),
]


@pytest.mark.parametrize(
    "program, machine, text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_error_path_parity(program, machine, text, tmp_path):
    trace = tmp_path / "t.trace"
    generated = run_live(program, trace)
    replayed = run_replay(trace)
    assert generated, program.__name__
    first_machine, _, _, _, first_message = generated[0]
    assert first_machine == machine
    assert text in first_message
    assert replayed == generated


def test_figure10_series_unchanged():
    # The local-reference live counts of the javagnome case study, as
    # recorded before the per-thread live-serial counts existed.
    assert local_ref_time_series(fixed=False) == list(range(1, 23)) + [0]
    assert local_ref_time_series(fixed=True) == [1] + [2, 3] * 20 + [2, 0]


def test_every_entity_taking_function_has_a_site_check():
    # A new entity-taking function must fail synthesis loudly rather
    # than go unchecked.
    from types import SimpleNamespace

    from repro.fsm import SpecificationError
    from repro.jinn.machines.entity_typing import site_check
    from repro.jni.functions import FUNCTIONS

    for meta in FUNCTIONS.values():
        if meta.takes_entity_id:
            site_check(meta)
    with pytest.raises(SpecificationError):
        site_check(SimpleNamespace(family="strings", name="NewEntityThing"))
