"""Pinned bytes of the recorder's close path.

``tests/data/pipeline_golden.json`` pins fuzz-program traces, which
define a handful of classes and close in one encode.  The cases here
add what those lack: DaCapo kernels with a few hundred class records,
journal mode, where the recorder encodes the stream slice by slice
mid-run (every 64 records, or every record at ``sync_every=1``), a
class object that materialises after its class record was written, a
Python/C run of thousands of events whose objects come back at changed
refcounts, and short streams of values a text memo could conflate.

Each trace is pinned as the SHA-256 of its env-normalised lines
(:func:`tests.test_pipeline_parity.trace_digest`), or line by line; the
expected values were taken from the recorder before its close path was
rewritten (the Python/C and memo cases before it reused any text), so
they hold it to the bytes it wrote then.  A cleanly closed journal must
also recover to the trace its run wrote at close, byte for byte.
"""

import gc
import json
import math
import os
import types

import pytest

from repro.jinn.agent import JinnAgent
from repro.jni.types import JFieldID, JMethodID, JRef, NativeBuffer
from repro.jvm import HOTSPOT, JavaVM
from repro.jvm.model import JObject
from repro.pyc import PyCChecker, PythonInterpreter
from repro.pyc.objects import PyObj
from repro.resilience import recover_journal
from repro.trace import TraceRecorder
from repro.trace import format as tfmt
from repro.workloads.dacapo import run_workload, transitions_per_iteration
from tests.conftest import define_native
from tests.test_pipeline_parity import normalized_lines, trace_digest

#: JNI transitions per recorded kernel, as the repo benchmark sizes them.
KERNEL_TRANSITIONS = 2500

#: Kernel -> digest of its trace.  Plain and journal recordings of a
#: DaCapo kernel write the same bytes: every class object exists before
#: the first flush.
PINNED_KERNELS = {
    "compress": "2b00f6cb2c703815375078745624249cb31392a50cb9add8f001911e1bd403b9",
    "hsqldb": "4d835f8732567eb6d1c58b7e7cb5ce39f4d25f287d789ff8504bbedaf5a34972",
    "jython": "ca154aa294bb31c4e32f368500fb22d1b4b0000b7792b4e28a2d2085a3bdc113",
    "luindex": "6b9696e46e89206e59a03ae0f09994e6e3b0fd5a552f2568ece656cf5d8bd7bc",
}

#: (kernel, sync_every); ``sync_every`` None records without a journal.
#: ``sync_every=1`` makes one slice per record: two kernels, not four,
#: since each record then costs an fsync.
KERNEL_CASES = [
    (kernel, sync_every)
    for kernel in sorted(PINNED_KERNELS)
    for sync_every in (None, 64)
] + [("hsqldb", 1), ("luindex", 1)]

#: sync_every -> digest of the late-class-object run.  The journal
#: writes the class record before the class object exists, so its
#: record reads ``null`` where the close-time encode has the object id.
PINNED_LATE = {
    None: "8b2ce02d78c1e1c6349eb255fafcf5357a43b8452b4bb6737a5edd71d1312910",
    1: "afa6a9b7f55dcdc5420d208fb0751d69fb767341461be8167094e3afb66c3d99",
    64: "8b2ce02d78c1e1c6349eb255fafcf5357a43b8452b4bb6737a5edd71d1312910",
}


def _recorder(directory, name, sync_every, workload=None):
    journal = None
    if sync_every is not None:
        journal = str(directory / (name + ".journal"))
    return TraceRecorder(
        str(directory / (name + ".trace")),
        workload=workload,
        journal_path=journal,
        sync_every=sync_every or 64,
    )


def record_kernel(kernel, directory, sync_every=None):
    """Record one DaCapo kernel under Jinn; returns the recorder."""
    recorder = _recorder(directory, kernel, sync_every, "dacapo/" + kernel)
    agent = JinnAgent(mode="generated", observer=recorder)
    iterations = max(KERNEL_TRANSITIONS // transitions_per_iteration(kernel), 1)
    run_workload(kernel, config="jinn", agents=[agent], iterations=iterations)
    recorder.close()
    return recorder


def record_late_class_object(directory, sync_every=None):
    """A run whose class object appears after its class record.

    ``app/Late`` is defined before the first crossing, so its class
    record goes out with the first slice; ``FindClass`` creates its
    class object several records later.
    """
    recorder = _recorder(directory, "late", sync_every)
    vm = JavaVM(vendor=HOTSPOT, agents=[JinnAgent(mode="generated", observer=recorder)])
    vm.define_class("app/Late")

    def run(env, this):
        for _ in range(3):
            env.GetVersion()
        late = env.FindClass("app/Late")
        env.IsSameObject(late, late)
        env.DeleteLocalRef(late)

    define_native(vm, "app/Main", "run", "()V", run)
    vm.call_static("app/Main", "run", "()V")
    vm.shutdown()
    recorder.close()
    return recorder


def _assert_files(recorder, directory):
    """The trace file holds the lines; the journal recovers to it."""
    with open(recorder.path) as f:
        trace = f.read()
    assert trace == "\n".join(recorder.lines) + "\n"
    if recorder._journal is not None:
        report = recover_journal(
            recorder._journal.path, str(directory / "recovered.trace")
        )
        assert report.complete
        assert report.dropped_bytes == 0
        with open(report.out_path) as f:
            assert f.read() == trace


def _case_id(case):
    kernel, sync_every = case
    return "{}-{}".format(kernel, "plain" if sync_every is None else sync_every)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=_case_id)
def test_kernel_trace_bytes_pinned(case, tmp_path):
    kernel, sync_every = case
    recorder = record_kernel(kernel, tmp_path, sync_every)
    assert trace_digest(recorder.lines, "jni") == PINNED_KERNELS[kernel]
    _assert_files(recorder, tmp_path)


@pytest.mark.parametrize("sync_every", [None, 1, 64], ids=str)
def test_late_class_object_bytes_pinned(sync_every, tmp_path):
    recorder = record_late_class_object(tmp_path, sync_every)
    assert trace_digest(recorder.lines, "jni") == PINNED_LATE[sync_every]
    _assert_files(recorder, tmp_path)
    # However late it appeared, the class object is interned under its
    # class's name, so replay can map it back to the class.
    names = [
        value[3][2]
        for line in recorder.lines[1:]
        for value in _values(json.loads(line))
        if value[0] == "O" and value[2] == tfmt.KIND_OBJ
    ]
    assert "app/Late" in names


def _values(record):
    """Every tagged value nested in a record."""
    stack = [record]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            if item and item[0] in ("O", "U"):
                yield item
            stack.extend(item)


def test_dump_record_matches_json_dumps(tmp_path):
    recorder = record_kernel("luindex", tmp_path)
    by_kind = {}
    for line in recorder.lines[1:]:
        record = json.loads(line)
        by_kind.setdefault(record[0], record)
    assert set(by_kind) == {"k", "t", "c", "r", "e"}
    header = tfmt.make_header(
        substrate="jni",
        fingerprint="f" * 16,
        termination_site="VM shutdown",
        local_frame_capacity=16,
        workload="dacapo/lüindex 日本 \U0001f600",
    )
    samples = [header, *by_kind.values()]
    samples.append(["v", "Parameter 'obj' of Café’s \"Call\"\n\tmust not be null."])
    samples.append(
        ["c", 7, "F", False, [1, 2, None],
         [0.1, -0.0, 1e300, 2.5e-308, 3.0, math.inf, -math.inf, math.nan,
          ["T", [True, False, None, -(2 ** 70)]], {"ké": [1.5]}]]
    )
    # The bound C encoder, and the shared-instance fallback for an
    # interpreter without the C accelerator.
    for dump in (tfmt.dump_record, tfmt._record_dumper(None)):
        for record in samples:
            assert dump(record) == json.dumps(record, separators=(",", ":"))


# -- a long Python/C trace ----------------------------------------------------

#: Iterations of :func:`_pyc_kernel`; each makes 28 API calls, so the
#: trace holds about 3,400 event records.
PYC_ITERATIONS = 60

#: sync_every -> digest of the Python/C kernel's trace.  A Python/C
#: trace has no class records, so each mode writes the same bytes.
PINNED_PYC = {
    None: "627040b4d1e23f9eeaff245cca73647391d7c671e4192daa96e87c22b678f362",
    1: "627040b4d1e23f9eeaff245cca73647391d7c671e4192daa96e87c22b678f362",
    64: "627040b4d1e23f9eeaff245cca73647391d7c671e4192daa96e87c22b678f362",
}


def _pyc_kernel(api, self_obj, args):
    """Short, correct Python/C operations over a few long-lived objects.

    ``shared`` and ``cache`` live for the whole run and come back at a
    refcount that each round raises and lowers again; every other object
    is created, used a few times at changing refcounts, and released.
    """
    shared = api.PyLong_FromLong(7)
    cache = api.PyDict_New()
    acc = 1
    for i in range(PYC_ITERATIONS):
        lst = api.PyList_New(0)
        api.PyList_Append(lst, shared)
        item = api.PyLong_FromLong(acc & 0xFF)
        api.PyList_Append(lst, item)
        api.Py_DecRef(item)
        got = api.PyList_GetItem(lst, 1)
        acc += api.PyLong_AsLong(got) + api.PyList_Size(lst)
        api.Py_DecRef(lst)
        value = api.PyString_FromString("v{}".format(i % 3))
        api.PyDict_SetItemString(cache, "key", value)
        api.Py_DecRef(value)
        got = api.PyDict_GetItemString(cache, "key")
        acc += api.PyString_Size(got)
        total = api.PyNumber_Add(shared, shared)
        acc += api.PyLong_AsLong(total)
        api.Py_DecRef(total)
        real = api.PyFloat_FromDouble(0.5 * (i % 2))
        acc += int(api.PyFloat_AsDouble(real))
        api.Py_DecRef(real)
        pair = api.Py_BuildValue("(O)", shared)
        api.PyArg_ParseTuple(pair, "i" if i % 2 else "d")
        api.Py_DecRef(pair)
        api.PyErr_SetString("ValueError", "rejected input")
        if api.PyErr_Occurred() is not None:
            api.PyErr_Clear()
        token = api.PyEval_SaveThread()
        api.PyEval_RestoreThread(token)
    api.Py_DecRef(cache)
    api.Py_DecRef(shared)
    return api.PyLong_FromLong(acc & 0x7FFFFFFF)


def run_pyc(recorder, extension):
    """Run one Python/C extension under a recorder, then close it."""
    checker = PyCChecker(observer=recorder)
    interp = PythonInterpreter(agents=[checker])
    interp.register_extension("ext", extension)
    interp.call_extension("ext")
    checker.termination_report()
    recorder.close()
    return recorder


@pytest.mark.parametrize("sync_every", [None, 1, 64], ids=str)
def test_pyc_trace_bytes_pinned(sync_every, tmp_path):
    recorder = run_pyc(
        _recorder(tmp_path, "pyc", sync_every, "pyc/kernel"), _pyc_kernel
    )
    assert recorder.event_count > 3000
    assert trace_digest(recorder.lines, "pyc") == PINNED_PYC[sync_every]
    _assert_files(recorder, tmp_path)


# -- values a text memo could conflate ----------------------------------------
#
# ``1``, ``True`` and ``1.0`` are equal and hash alike, so a memo keyed
# on capture equality would serve the text of one for the others.  The
# streams below put all three at one position of a container argument
# (and, on Python/C, of a pending exception and of the GIL holder in the
# host context),
# repeat an object within one record (first visit then reuse, and
# reuse twice), and first-visit objects inside a container and as a
# ref's target.  Their expected event and sync lines (JNI ones
# env-normalised) are in ``tests/data/trace_key_rule.json``, written by
# the recorder before its close path memoised any text.

KEY_RULE_PATH = os.path.join(os.path.dirname(__file__), "data", "trace_key_rule.json")


def record_key_rule_jni():
    recorder = TraceRecorder()
    vm = JavaVM(vendor=HOTSPOT, agents=[JinnAgent(mode="generated", observer=recorder)])
    vm.define_class("app/K")
    descriptors = ["(I)I", "(Z)I", "(D)I", "(Ljava/lang/Object;)I"]
    for name, descriptor in zip("izdo", descriptors):
        vm.add_method(
            "app/K", name, descriptor, is_static=True,
            body=lambda vmach, thread, cls, x: 7,
        )

    def run(env, this, a, b):
        # The class object is first met as the FindClass ref's target.
        cls = env.FindClass("app/K")
        mids = [
            env.GetStaticMethodID(cls, name, descriptor)
            for name, descriptor in zip("izdo", descriptors)
        ]
        for _ in range(2):
            for mid, value in zip(mids, (1, True, 1.0)):
                env.CallStaticIntMethodA(cls, mid, [value])
            env.CallStaticIntMethodA(cls, mids[3], [a])
        env.IsSameObject(a, b)
        env.IsSameObject(cls, cls)
        env.DeleteLocalRef(cls)

    descriptor = "(Ljava/lang/Object;Ljava/lang/Object;)V"
    define_native(vm, "app/Main", "run", descriptor, run)
    # One object as both arguments: the native's call record first
    # visits it through one ref and reuses it through the other.
    obj = vm.new_object("java/lang/Object")
    vm.call_static("app/Main", "run", descriptor, obj, obj)
    vm.shutdown()
    recorder.close()
    return recorder


def _key_rule_pyc_extension(api, self_obj, args):
    for fmt, value in (("i", 1), ("d", 1), ("i", 1), ("d", 1)):
        num = api.PyLong_FromLong(value)
        tup = api.Py_BuildValue("(O)", num)
        api.PyArg_ParseTuple(tup, fmt)
        api.Py_DecRef(tup)
        api.Py_DecRef(num)
    pair = api.Py_BuildValue("(ss)", "a", "b")
    # First visits inside a tuple, then the same items reused.
    api.PyArg_ParseTuple(pair, "OO")
    api.PyArg_ParseTuple(pair, "OO")
    api.Py_DecRef(pair)
    num = api.PyLong_FromLong(3)
    twice = api.Py_BuildValue("(OO)", num, num)
    api.PyArg_ParseTuple(twice, "OO")
    total = api.PyNumber_Add(num, num)
    api.Py_DecRef(total)
    api.Py_DecRef(twice)
    api.Py_DecRef(num)
    # A failed lookup's pending exception carries the name it was given,
    # so three host contexts differ only as 1, True and 1.0.
    attrs = api.PyDict_New()
    for name in (1, True, 1.0):
        api.PyObject_GetAttrString(attrs, name)
        api.PyErr_Clear()
    api.Py_DecRef(attrs)
    # A restored thread state makes whatever its token carried the GIL
    # holder: three more contexts that differ only as 1, True and 1.0,
    # and one whose holder is a list.
    for holder in (1, True, 1.0, ["t"]):
        api.PyEval_SaveThread()
        api.PyEval_RestoreThread(("tstate", holder))
        api.PyGILState_Release(("gil", "main", "acquired"))
        api.PyGILState_Ensure()
    return api.Py_RETURN_NONE()


def record_key_rule_pyc():
    return run_pyc(TraceRecorder(), _key_rule_pyc_extension)


def _event_lines(recorder, substrate):
    return [
        line
        for line in normalized_lines(recorder.lines, substrate)[1:]
        if json.loads(line)[0] in ("c", "r", "e")
    ]


@pytest.mark.parametrize("substrate", ["jni", "pyc"])
def test_key_rule_lines(substrate):
    record = record_key_rule_jni if substrate == "jni" else record_key_rule_pyc
    with open(KEY_RULE_PATH) as f:
        expected = json.load(f)[substrate]
    assert _event_lines(record(), substrate) == expected


# -- what a closed recorder keeps ---------------------------------------------

_MODEL_TYPES = (JRef, JObject, JMethodID, JFieldID, NativeBuffer, PyObj)

#: Objects whose referents the walk below does not follow: code and
#: classes lead to module globals, which reach everything.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.MethodType)


def _reachable_model_objects(roots):
    seen = set()
    found = []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, _MODEL_TYPES):
            found.append(obj)
            continue
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("substrate", ["jni", "pyc"])
def test_closed_recorder_holds_no_model_object(substrate):
    """``close()`` keeps the lines and lets the captures go.

    Apart from the runtime and host it was attached to, nothing a closed
    recorder holds (captures, interning tables, text memo) reaches a
    model object, so holding ``.lines`` pins none of them.
    """
    record = record_key_rule_jni if substrate == "jni" else record_key_rule_pyc
    recorder = record()
    held = [
        value
        for name, value in vars(recorder).items()
        if name not in ("_rt", "_host")
    ]
    assert _reachable_model_objects(held) == []
    assert recorder.event_count > 0
    assert recorder.close() == recorder.event_count
