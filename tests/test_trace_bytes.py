"""Pinned bytes of the recorder's close path.

``tests/data/pipeline_golden.json`` pins fuzz-program traces, which
define a handful of classes and close in one encode.  The cases here
add what those lack: DaCapo kernels with a few hundred class records,
journal mode, where the recorder encodes the stream slice by slice
mid-run (every 64 records, or every record at ``sync_every=1``), and a
class object that materialises after its class record was written.

Each trace is pinned as the SHA-256 of its env-normalised lines
(:func:`tests.test_pipeline_parity.trace_digest`); the digests were
taken from the recorder before its close path was rewritten, so they
hold it to the bytes it wrote then.  A cleanly closed journal must also
recover to the trace its run wrote at close, byte for byte.
"""

import json
import math

import pytest

from repro.jinn.agent import JinnAgent
from repro.jvm import HOTSPOT, JavaVM
from repro.resilience import recover_journal
from repro.trace import TraceRecorder
from repro.trace import format as tfmt
from repro.workloads.dacapo import run_workload, transitions_per_iteration
from tests.conftest import define_native
from tests.test_pipeline_parity import trace_digest

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
