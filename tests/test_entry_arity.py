"""The fused entries' calling contract, on both substrates.

An entry for a function with a fixed C arity takes its parameters by
position and hands them straight to the raw call; only a function with a
C ``...`` parameter (``varargs`` in the metadata) takes ``*args``.  A
call of the wrong arity therefore fails at the entry with Python's own
``TypeError``, before any stage runs: no report, no contained fault and
no trace record.
"""

import inspect

import pytest

from repro.fsm import SpecRegistry
from repro.jinn.agent import JinnAgent
from repro.jni.functions import FUNCTIONS
from repro.jvm import JavaVM
from repro.obs import ObsHub
from repro.pyc import PyCChecker, PythonInterpreter
from repro.pyc.spec import PY_FUNCTIONS
from repro.resilience import GovernorPolicy, OverheadGovernor
from repro.trace import TraceRecorder

PLANS = ("checked", "interpose", "stack", "record")
TABLES = {"jni": FUNCTIONS, "pyc": PY_FUNCTIONS}
POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD
VAR_POSITIONAL = inspect.Parameter.VAR_POSITIONAL


def attach(substrate, plan):
    """A host with one checker attached; returns (checker, env, recorder)."""
    recorder = TraceRecorder() if plan == "record" else None
    stages = {}
    if plan == "stack":
        stages = {
            "governor": OverheadGovernor(GovernorPolicy(budget=1.0)),
            "telemetry": ObsHub(),
        }
    if substrate == "jni":
        mode = "interpose" if plan == "interpose" else "generated"
        checker = JinnAgent(mode=mode, observer=recorder, **stages)
        return checker, JavaVM(agents=[checker]).main_thread.env, recorder
    registry = SpecRegistry([]) if plan == "interpose" else None
    checker = PyCChecker(registry, observer=recorder, **stages)
    return checker, PythonInterpreter(agents=[checker]).api, recorder


def raw_table(substrate):
    """The production table: what an unchecked host dispatches to."""
    if substrate == "jni":
        return JavaVM().main_thread.env.function_table()
    return PythonInterpreter().api.function_table()


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("substrate", ["jni", "pyc"])
def test_entry_parameters_match_metadata_arity(substrate, plan):
    _, env, recorder = attach(substrate, plan)
    entries = env.function_table()
    raw = raw_table(substrate)
    for name, meta in TABLES[substrate].items():
        params = list(inspect.signature(entries[name]).parameters.values())
        assert params[0].name == "env", name
        kinds = [p.kind for p in params[1:]]
        if meta.varargs:
            assert kinds == [VAR_POSITIONAL], name
            fixed = len(meta.params) - 1
        else:
            assert kinds == [POSITIONAL] * len(meta.params), name
            fixed = len(meta.params)
        # The raw implementation takes the call the entry makes (JNI's
        # hazard wrapper is seen through to the implementation).
        raw_sig = inspect.signature(raw[name])
        raw_sig.bind(env, *[None] * fixed)
        raw_varargs = any(
            p.kind is VAR_POSITIONAL for p in raw_sig.parameters.values()
        )
        assert raw_varargs or not meta.varargs, name
    if recorder is not None:
        recorder.close()


def test_varargs_are_the_c_ellipsis_functions():
    jni = sorted(name for name, meta in FUNCTIONS.items() if meta.varargs)
    assert len(jni) == 31
    assert all(
        name == "NewObject" or (name.startswith("Call") and name.endswith("Method"))
        for name in jni
    )
    assert [n for n, m in PY_FUNCTIONS.items() if m.varargs] == ["Py_BuildValue"]
    # A va_list or jvalue[] is one argument: the V and A forms are fixed.
    assert len(FUNCTIONS["NewObjectV"].params) == 3
    assert not FUNCTIONS["CallNonvirtualIntMethodA"].varargs
    assert len(FUNCTIONS["CallNonvirtualIntMethodA"].params) == 4


WRONG_ARITY = {
    "jni": ("GetObjectClass", [(), ("a", "b")]),
    "pyc": ("PyList_GetItem", [("a",), ("a", 0, "c")]),
}


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("substrate", ["jni", "pyc"])
def test_wrong_arity_raises_type_error_at_the_entry(substrate, plan):
    checker, env, recorder = attach(substrate, plan)
    name, calls = WRONG_ARITY[substrate]
    for args in calls:
        with pytest.raises(TypeError) as raised:
            getattr(env, name)(*args)
        assert "entry_{}()".format(name) in str(raised.value)
    rt = checker.rt
    assert rt.violations == []
    assert rt.health.total_faults == 0
    if recorder is not None:
        assert recorder.close() == 0
