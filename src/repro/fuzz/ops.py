"""The fuzz op vocabulary and its substrate interpreters.

A fuzz sequence is a flat list of *ops* — plain tuples ``(kind, *args)``
whose arguments are scalars (slot names, strings, ints) — so sequences
are trivially JSON-serializable (the corpus manifest stores them
verbatim) and any *subsequence* remains executable, which is what makes
delta debugging sound: an op that refers to a slot no earlier op
assigned is simply a no-op, never a Python-level error.

Ops are interpreted inside a real native method (JNI) or extension
function (Python/C) on the genuine substrates, with the checker
attached, so a fuzz run exercises exactly the interposition path the
microbenchmarks do.  The interpreter is *defensive about harness
errors only*: FFI-level misbehaviour (deleting twice, using a dangling
reference) is executed faithfully — judging it is the checker's job.

Slot discipline: slots are never cleared.  ``delete_local`` keeps the
dead handle in its slot so a later ``delete_local``/``use_local`` on the
same slot faithfully replays a double free or dangling use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Phase marker: ops after it run in a second native method invoked on
#: an attached worker thread (JNI only; the pyc interpreter ignores it).
WORKER_MARKER = ("worker",)


@dataclass(frozen=True)
class FuzzSequence:
    """One generated call sequence over one substrate."""

    substrate: str  # "jni" | "pyc"
    ops: Tuple[tuple, ...]
    #: Machines whose generators contributed segments (diagnostics).
    machines: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "substrate": self.substrate,
            "ops": [list(op) for op in self.ops],
            "machines": list(self.machines),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FuzzSequence":
        return cls(
            substrate=data["substrate"],
            ops=tuple(tuple(op) for op in data["ops"]),
            machines=tuple(data.get("machines", ())),
        )


@dataclass
class RunOutcome:
    """Everything observed from interpreting one sequence live."""

    outcome: str
    #: FFIViolation objects, detection order (boundary + termination).
    violations: list = field(default_factory=list)
    #: ``violation.report()`` strings, same order.
    reports: List[str] = field(default_factory=list)
    exception_text: Optional[str] = None
    #: ``CheckerHealth.report()`` of the run's runtime (containment).
    health: Optional[dict] = None


def split_phases(ops) -> List[List[tuple]]:
    """Split an op list at WORKER_MARKERs into per-native phases."""
    phases: List[List[tuple]] = [[]]
    for op in ops:
        if tuple(op) == WORKER_MARKER:
            phases.append([])
        else:
            phases[-1].append(tuple(op))
    return phases


# ======================================================================
# JNI interpretation
# ======================================================================


class _JniCtx:
    """Interpreter state shared by every native phase of one sequence."""

    __slots__ = ("vm", "slots", "stash", "pins")

    def __init__(self, vm):
        self.vm = vm
        self.slots = {}  # slot name -> handle (JRef / jmethodID / ...)
        self.stash = {}  # the C-global stash (cross-thread env bugs)
        self.pins = {}  # pin slot -> (release kind, handle, buffer)


def _arg_value(ctx, spec):
    """Resolve a call-argument spec: ``["slot", name]`` or a literal."""
    if isinstance(spec, (list, tuple)) and len(spec) == 2 and spec[0] == "slot":
        return ctx.slots.get(spec[1])
    return spec


# Each handler takes (ctx, env, op).  Handlers skip silently when a slot
# the op *reads* was never assigned; a slot assigned to None (e.g. a
# failed method lookup) still counts as assigned, so the nullness fault
# genuinely calls through its NULL method ID.


def _op_find_class(ctx, env, op):
    ctx.slots[op[1]] = env.FindClass(op[2])


def _op_alloc_object(ctx, env, op):
    ctx.slots[op[1]] = env.AllocObject(env.FindClass("java/lang/Object"))


def _op_new_local(ctx, env, op):
    ctx.slots[op[1]] = env.NewStringUTF(op[2])


def _op_delete_local(ctx, env, op):
    if op[1] in ctx.slots:
        env.DeleteLocalRef(ctx.slots[op[1]])


def _op_use_local(ctx, env, op):
    if op[1] in ctx.slots:
        env.IsSameObject(ctx.slots[op[1]], ctx.slots[op[1]])


def _op_push_frame(ctx, env, op):
    env.PushLocalFrame(op[1])


def _op_pop_frame(ctx, env, op):
    env.PopLocalFrame(None)


def _op_ensure_capacity(ctx, env, op):
    env.EnsureLocalCapacity(op[1])


def _op_new_global(ctx, env, op):
    if op[2] in ctx.slots:
        ctx.slots[op[1]] = env.NewGlobalRef(ctx.slots[op[2]])


def _op_delete_global(ctx, env, op):
    if op[1] in ctx.slots:
        env.DeleteGlobalRef(ctx.slots[op[1]])


def _op_use_global(ctx, env, op):
    if op[1] in ctx.slots:
        env.GetObjectClass(ctx.slots[op[1]])


def _op_new_int_array(ctx, env, op):
    ctx.slots[op[1]] = env.NewIntArray(op[2])


def _op_pin_string(ctx, env, op):
    if op[2] in ctx.slots:
        handle = ctx.slots[op[2]]
        ctx.pins[op[1]] = ("string", handle, env.GetStringUTFChars(handle))


def _op_release_string(ctx, env, op):
    pin = ctx.pins.get(op[1])
    if pin is not None:
        env.ReleaseStringUTFChars(pin[1], pin[2])


def _op_pin_array(ctx, env, op):
    if op[2] in ctx.slots:
        handle = ctx.slots[op[2]]
        ctx.pins[op[1]] = ("array", handle, env.GetIntArrayElements(handle))


def _op_release_array(ctx, env, op):
    pin = ctx.pins.get(op[1])
    if pin is not None:
        env.ReleaseIntArrayElements(pin[1], pin[2], 0)


def _op_enter_critical(ctx, env, op):
    if op[2] in ctx.slots:
        handle = ctx.slots[op[2]]
        ctx.pins[op[1]] = (
            "critical",
            handle,
            env.GetPrimitiveArrayCritical(handle),
        )


def _op_exit_critical(ctx, env, op):
    pin = ctx.pins.get(op[1])
    if pin is not None:
        env.ReleasePrimitiveArrayCritical(pin[1], pin[2], 0)


def _op_monitor_enter(ctx, env, op):
    if op[1] in ctx.slots:
        env.MonitorEnter(ctx.slots[op[1]])


def _op_monitor_exit(ctx, env, op):
    if op[1] in ctx.slots:
        env.MonitorExit(ctx.slots[op[1]])


def _op_get_static_mid(ctx, env, op):
    if op[2] in ctx.slots:
        ctx.slots[op[1]] = env.GetStaticMethodID(ctx.slots[op[2]], op[3], op[4])


def _op_get_missing_mid(ctx, env, op):
    # The lookup fails and pends NoSuchMethodError; the op models buggy
    # code that clears the error but keeps the NULL ID.
    if op[2] in ctx.slots:
        ctx.slots[op[1]] = env.GetStaticMethodID(
            ctx.slots[op[2]], "doesNotExist", "()V"
        )
        env.ExceptionClear()


def _op_call_static_void(ctx, env, op):
    if op[1] in ctx.slots and op[2] in ctx.slots:
        env.CallStaticVoidMethodA(ctx.slots[op[2]], ctx.slots[op[1]], [])


def _op_call_static_with(ctx, env, op):
    if op[1] in ctx.slots and op[2] in ctx.slots:
        args = [_arg_value(ctx, spec) for spec in op[3]]
        env.CallStaticVoidMethodA(ctx.slots[op[2]], ctx.slots[op[1]], args)


def _op_exception_check(ctx, env, op):
    env.ExceptionCheck()


def _op_exception_clear(ctx, env, op):
    env.ExceptionClear()


def _op_get_static_fid(ctx, env, op):
    if op[2] in ctx.slots:
        ctx.slots[op[1]] = env.GetStaticFieldID(ctx.slots[op[2]], op[3], op[4])


def _op_set_static_int(ctx, env, op):
    if op[1] in ctx.slots and op[2] in ctx.slots:
        env.SetStaticIntField(ctx.slots[op[2]], ctx.slots[op[1]], op[3])


def _op_stash_env(ctx, env, op):
    ctx.stash["env"] = env


def _op_use_stashed_env(ctx, env, op):
    # The cross-thread bug: call through whatever env was stashed (the
    # current env when nothing was — then the op is benign).
    stashed = ctx.stash.get("env", env)
    stashed.FindClass("java/lang/Object")


def _op_block(ctx, env, op):
    """Run a self-contained buggy native body from workloads.blocks."""
    from repro.workloads.blocks import SELF_CONTAINED

    body = SELF_CONTAINED.get(op[1])
    if body is not None:
        body(env, None)


_JNI_OPS = {
    "find_class": _op_find_class,
    "alloc_object": _op_alloc_object,
    "new_local": _op_new_local,
    "delete_local": _op_delete_local,
    "use_local": _op_use_local,
    "push_frame": _op_push_frame,
    "pop_frame": _op_pop_frame,
    "ensure_capacity": _op_ensure_capacity,
    "new_global": _op_new_global,
    "delete_global": _op_delete_global,
    "use_global": _op_use_global,
    "new_int_array": _op_new_int_array,
    "pin_string": _op_pin_string,
    "release_string": _op_release_string,
    "pin_array": _op_pin_array,
    "release_array": _op_release_array,
    "enter_critical": _op_enter_critical,
    "exit_critical": _op_exit_critical,
    "monitor_enter": _op_monitor_enter,
    "monitor_exit": _op_monitor_exit,
    "get_static_mid": _op_get_static_mid,
    "get_missing_mid": _op_get_missing_mid,
    "call_static_void": _op_call_static_void,
    "call_static_with": _op_call_static_with,
    "exception_check": _op_exception_check,
    "exception_clear": _op_exception_clear,
    "get_static_fid": _op_get_static_fid,
    "set_static_int": _op_set_static_int,
    "stash_env": _op_stash_env,
    "use_stashed_env": _op_use_stashed_env,
    "block": _op_block,
}

#: The host class every JNI fuzz sequence runs against.
HOST_CLASS = "FuzzHost"


def _define_host(vm) -> None:
    vm.define_class(HOST_CLASS)

    def java_noop(vmach, thread, cls, *args):
        return None

    def java_throw(vmach, thread, cls, *args):
        vmach.throw_new(thread, "java/lang/RuntimeException", "fuzz thrower")

    vm.add_method(HOST_CLASS, "noop", "()V", is_static=True, body=java_noop)
    vm.add_method(HOST_CLASS, "thrower", "()V", is_static=True, body=java_throw)
    vm.add_method(HOST_CLASS, "takesInt", "(I)V", is_static=True, body=java_noop)
    vm.add_field(HOST_CLASS, "counter", "I", is_static=True)
    vm.add_field(HOST_CLASS, "LIMIT", "I", is_static=True, is_final=True)


def run_jni_ops(
    ops, *, observer=None, vendor=None, setup=None, containment=None,
    governor=None, telemetry=None,
) -> RunOutcome:
    """Interpret a JNI op list on a fresh checked VM.

    Mirrors :func:`repro.workloads.outcomes.run_scenario` with
    ``checker="jinn"`` but keeps the FFIViolation *objects* (the fuzz
    loop needs their ``machine`` attribute, not just the report text).
    Phases after a WORKER_MARKER run in a second native method invoked
    on an attached worker thread.

    ``setup`` (called with the agent once its runtime exists, before
    any op runs) and ``containment`` (a
    :class:`~repro.core.runtime.ContainmentPolicy`) are the chaos
    hooks: the resilience layer uses them to install checker-internal
    fault injectors on the very runtime the workload will exercise.
    """
    from repro.jinn.agent import JinnAgent
    from repro.jvm import (
        HOTSPOT,
        DeadlockError,
        FatalJNIError,
        JavaException,
        JavaVM,
        SimulatedCrash,
    )

    agent = JinnAgent(
        mode="generated", observer=observer,
        containment=containment, governor=governor, telemetry=telemetry,
    )
    vm = JavaVM(vendor=vendor if vendor is not None else HOTSPOT, agents=[agent])
    if setup is not None:
        setup(agent)
    _define_host(vm)
    ctx = _JniCtx(vm)
    phases = split_phases(ops)
    caught = None
    try:
        for index, phase_ops in enumerate(phases):
            name = "run{}".format(index)
            vm.add_method(
                HOST_CLASS, name, "()V", is_static=True, is_native=True
            )
            vm.register_native(
                HOST_CLASS, name, "()V", _make_native(ctx, phase_ops)
            )
            if index == 0:
                vm.call_static(HOST_CLASS, name, "()V")
            else:
                worker = vm.attach_thread("fuzz-worker-{}".format(index))
                with vm.run_on_thread(worker):
                    vm.call_static(HOST_CLASS, name, "()V")
    except (DeadlockError, SimulatedCrash, FatalJNIError, JavaException) as exc:
        caught = exc
    vm.shutdown()
    violations = list(agent.rt.violations) if agent.rt is not None else []
    outcome = "violation" if violations else "completed"
    if caught is not None and not violations:
        outcome = type(caught).__name__
    return RunOutcome(
        outcome=outcome,
        violations=violations,
        reports=[v.report() for v in violations],
        exception_text=str(caught) if caught is not None else None,
        health=agent.rt.health.report() if agent.rt is not None else None,
    )


def _make_native(ctx, phase_ops):
    def native_run(env, clazz):
        table = _JNI_OPS
        for op in phase_ops:
            handler = table.get(op[0])
            if handler is not None:
                handler(ctx, env, op)

    return native_run


# ======================================================================
# Python/C interpretation
# ======================================================================


class _PycCtx:
    __slots__ = ("slots", "gil_token")

    def __init__(self):
        self.slots = {}
        self.gil_token = None


def _pyc_new_str(ctx, api, op):
    ctx.slots[op[1]] = api.PyString_FromString(op[2])


def _pyc_new_long(ctx, api, op):
    ctx.slots[op[1]] = api.PyLong_FromLong(op[2])


def _pyc_new_list(ctx, api, op):
    ctx.slots[op[1]] = api.Py_BuildValue("[s]", op[2])


def _pyc_get_item(ctx, api, op):
    if op[2] in ctx.slots:
        ctx.slots[op[1]] = api.PyList_GetItem(ctx.slots[op[2]], op[3])


def _pyc_use_str(ctx, api, op):
    if op[1] in ctx.slots:
        api.PyString_AsString(ctx.slots[op[1]])


def _pyc_list_size(ctx, api, op):
    if op[1] in ctx.slots:
        api.PyList_Size(ctx.slots[op[1]])


def _pyc_incref(ctx, api, op):
    if op[1] in ctx.slots:
        api.Py_IncRef(ctx.slots[op[1]])


def _pyc_decref(ctx, api, op):
    if op[1] in ctx.slots:
        api.Py_DecRef(ctx.slots[op[1]])


def _pyc_gil_release(ctx, api, op):
    if ctx.gil_token is None:
        ctx.gil_token = api.PyEval_SaveThread()


def _pyc_gil_acquire(ctx, api, op):
    if ctx.gil_token is not None:
        api.PyEval_RestoreThread(ctx.gil_token)
        ctx.gil_token = None


def _pyc_err_set(ctx, api, op):
    api.PyErr_SetString(op[1], op[2])


def _pyc_err_occurred(ctx, api, op):
    api.PyErr_Occurred()


def _pyc_err_clear(ctx, api, op):
    api.PyErr_Clear()


_PYC_OPS = {
    "py_new_str": _pyc_new_str,
    "py_new_long": _pyc_new_long,
    "py_new_list": _pyc_new_list,
    "py_get_item": _pyc_get_item,
    "py_use_str": _pyc_use_str,
    "py_list_size": _pyc_list_size,
    "py_incref": _pyc_incref,
    "py_decref": _pyc_decref,
    "py_gil_release": _pyc_gil_release,
    "py_gil_acquire": _pyc_gil_acquire,
    "py_err_set": _pyc_err_set,
    "py_err_occurred": _pyc_err_occurred,
    "py_err_clear": _pyc_err_clear,
}


def run_pyc_ops(
    ops, *, observer=None, setup=None, containment=None, governor=None,
    telemetry=None,
) -> RunOutcome:
    """Interpret a Python/C op list under a fresh checked interpreter.

    Unlike :func:`repro.workloads.pyc_micro.run_pyc_scenario`, the
    termination sweep always runs (a fault that aborts the extension
    must not suppress leak detection — and the replayed sweep will run
    either way, so skipping it live would be a false divergence).

    ``setup``/``containment`` mirror :func:`run_jni_ops`: the chaos
    hooks through which the resilience layer installs checker-internal
    fault injectors (``setup`` receives the checker after its runtime
    exists, before any op runs).
    """
    from repro.fsm.errors import FFIViolation
    from repro.pyc import PyCChecker, PythonInterpreter

    checker = PyCChecker(
        observer=observer, containment=containment, governor=governor,
        telemetry=telemetry,
    )
    interp = PythonInterpreter(agents=[checker])
    if setup is not None:
        setup(checker)
    ctx = _PycCtx()

    def extension(api, self_obj, args):
        table = _PYC_OPS
        try:
            for op in ops:
                handler = table.get(op[0])
                if handler is not None:
                    handler(ctx, api, op)
        finally:
            if ctx.gil_token is not None:
                api.PyEval_RestoreThread(ctx.gil_token)
                ctx.gil_token = None
        return api.Py_RETURN_NONE()

    interp.register_extension("fuzz", extension)
    outcome = "completed"
    caught = None
    try:
        interp.call_extension("fuzz")
    except FFIViolation as violation:
        outcome = "violation"
        caught = violation
    except Exception as exc:  # PythonException, InterpreterCrash
        outcome = type(exc).__name__
        caught = exc
    checker.termination_report()
    violations = list(checker.rt.violations) if checker.rt is not None else []
    if violations:
        outcome = "violation"
    return RunOutcome(
        outcome=outcome,
        violations=violations,
        reports=[v.report() for v in violations],
        exception_text=str(caught) if caught is not None else None,
        health=checker.rt.health.report() if checker.rt is not None else None,
    )
