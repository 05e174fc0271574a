"""Deterministic offline re-checking of recorded FFI event streams.

Replay runs the synthesized checker itself.  The engine binds the
checking-only :class:`repro.pipeline.PipelinePlan` — the same generated
entries a live run installs — to a :class:`ReplayRuntime` over a
minimal replay host, and lets the recorded stream drive them: each
``"c"`` record calls its function's entry (or its native's entry) with
the decoded arguments.  Every raw function and every native
implementation is one stub, which replays the records nested inside the
call and returns the decoded recorded result.  A replayed stream equal
to the recorded one therefore checks the trace round trip: the
recorder's captures, the codec and the decoder.

The decoder rebuilds *real* model instances (``JRef``, ``JObject``,
``PyObj``, ...) via ``object.__new__`` so the machine encodings run
unchanged, and the replay host supplies the few bits of VM surface the
machines consult (``current_thread``, ``find_class``,
``local_frame_capacity``, ``class_of_class_object``).

The stream is the live call stack, flattened.  A stub returns at the
``"r"`` record whose ``call_seq`` is its own call's, after decoding
that record and entering its host context.  A different ``"r"``, the
``"e"`` record, the end of the stream, or a ``"c"`` of the open call's
own kind (crossings alternate: C reaches the managed side only through
an FFI function, and back only through a native) means the open call
raised live and wrote no return record; the stub then unwinds the open
call, skipping its post site, and leaves the record to the enclosing
level.  An entry that never called its stub (an FFI function's
pre-violation) reads its own return record if one follows.  A pre-site
report carries its call's seq, a post-site report its return's, and the
termination sweep's the last crossing's seq plus one.

Binding the entries is too dear for a short trace, so each process
keeps one engine per substrate, bound once (rebuilt when the registry
fingerprint changes), and resets it per trace: fresh encodings, health,
violation log, decoder and host state.  An engine serves one replay at
a time.  Several files replay in parallel on the fleet
(:func:`repro.fleet.fleet_replay`), one job per file; each file is an
independent stream, so that split is sound.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.core.cache import WrapperCache
from repro.core.plancache import default_disk_cache
from repro.core.runtime import CheckerHealth, CheckerRuntime, FailurePolicy
from repro.pipeline.plan import PipelinePlan
from repro.trace import format as tfmt


class CollectViolationsPolicy(FailurePolicy):
    """Record violations without pending or raising.

    The live failure side effects are already *in the trace*: Jinn's
    pended ``JNIAssertionFailure`` shows up in later records' pending-
    exception context, and a raising policy's aborted extension shows up
    as an unmatched call record.  Replay must therefore only collect.
    """

    def handle(self, runtime, env, violation, default):
        return default


class ReplayRuntime(CheckerRuntime):
    """Checker core over a replay host, collecting into a list.

    The entries bound to it read ``rt.<machine>`` at each crossing, so
    :meth:`begin` hands every trace fresh encodings in place: no
    quarantine or chaos patch outlives its trace.
    """

    log_prefix = "replay"

    def __init__(self, host, registry):
        super().__init__(host, registry, CollectViolationsPolicy())
        self.log_lines: List[str] = []

    def log(self, message: str) -> None:
        self.log_lines.append(message)

    def begin(self, termination_site: str) -> None:
        # Must match the recording substrate so leak reports are
        # byte-identical ("in VM shutdown" vs "in interpreter exit").
        self.termination_site = termination_site
        for spec in self.registry:
            encoding = spec.make_encoding(self.host)
            self.encodings[spec.name] = encoding
            setattr(self, spec.name, encoding)
        self._original_encodings = dict(self.encodings)
        self.health = CheckerHealth(self.health.policy)
        self.log_lines = []

    def end(self) -> None:
        """Let go of the trace's machine state and violations."""
        for name in self.encodings:
            setattr(self, name, None)
        self.encodings.clear()
        self._original_encodings = {}
        self.violations.clear()


# -- replay host -------------------------------------------------------------


class _ReplayEnv:
    """Stands in for a JNIEnv/PyCApi; machines use it by identity only."""

    __slots__ = ("token",)

    def __init__(self, token):
        self.token = token

    def describe(self) -> str:
        return "env<{}>".format(self.token)


class _ReplayPending:
    """A recorded pending exception: carries only its description."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def describe(self) -> str:
        return self.text


class _ReplayThread:
    __slots__ = ("thread_id", "name", "env", "pending_exception")

    def __init__(self, thread_id, name, env):
        self.thread_id = thread_id
        self.name = name
        self.env = env
        self.pending_exception = None

    def describe(self) -> str:
        return "Thread[{},tid={}]".format(self.name, self.thread_id)


class ReplayVM:
    """Just enough JavaVM surface for the machine encodings."""

    def __init__(self):
        from repro.jvm.model import JClass  # local: pyc replays never need it

        self._jclass = JClass
        self.reset()

    def reset(self) -> None:
        self.classes: Dict[str, object] = {}
        self.local_frame_capacity = 16
        self.current_thread: Optional[_ReplayThread] = None
        self._class_by_object_id: Dict[int, object] = {}

    # -- the machine-facing surface -------------------------------------

    def find_class(self, name: str):
        jclass = self.classes.get(name)
        if jclass is None and name.startswith("["):
            # Array classes spring into existence on first use, exactly
            # as in the live VM.
            jclass = self._jclass(name, self.classes.get("java/lang/Object"))
            self.classes[name] = jclass
        return jclass

    def class_of_class_object(self, class_object):
        if class_object is None:
            return None
        return self._class_by_object_id.get(class_object.object_id)

    # -- trace-driven construction --------------------------------------

    def shell_class(self, name: str):
        jclass = self.classes.get(name)
        if jclass is None:
            jclass = self._jclass(name, self.classes.get("java/lang/Object"))
            self.classes[name] = jclass
        return jclass

    def define_class_record(self, record: list) -> None:
        from repro.jvm.model import JField, JMethod

        _, name, super_name, ifaces, methods, fields, class_object_id = record
        jclass = self.classes.get(name)
        if jclass is None:
            superclass = (
                self.shell_class(super_name) if super_name is not None else None
            )
            jclass = self._jclass(name, superclass)
            self.classes[name] = jclass
        jclass.interfaces = [self.shell_class(iname) for iname in ifaces]
        for mname, mdesc, is_static, is_native in methods:
            if (mname, mdesc) not in jclass.methods:
                jclass.add_method(
                    JMethod(
                        jclass,
                        mname,
                        mdesc,
                        is_static=is_static,
                        is_native=is_native,
                    )
                )
        for fname, fdesc, is_static, is_final in fields:
            if (fname, fdesc) not in jclass.fields:
                jclass.add_field(
                    JField(
                        jclass,
                        fname,
                        fdesc,
                        is_static=is_static,
                        is_final=is_final,
                    )
                )
        if class_object_id is not None:
            self._class_by_object_id[class_object_id] = jclass


class ReplayInterp:
    """Just enough PythonInterpreter surface for the pyc machines."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.current_thread = "main"
        self.gil_holder = "main"
        self.exc_info: Optional[tuple] = None


# -- value decoding ----------------------------------------------------------

_OPAQUE_TYPES: Dict[str, type] = {}


def _opaque(type_name: str):
    tp = _OPAQUE_TYPES.get(type_name)
    if tp is None:
        tp = type(
            type_name,
            (),
            {"describe": lambda self, _n=type_name: "<{}>".format(_n)},
        )
        _OPAQUE_TYPES[type_name] = tp
    return tp()


class _Decoder:
    """Tagged JSON values -> interned real model instances."""

    def __init__(self, host):
        self._host = host
        self._objects: Dict[int, object] = {}
        self._appliers: Dict[int, object] = {}

    def reset(self) -> None:
        self._objects.clear()
        self._appliers.clear()

    def decode(self, value):
        # Exact-type check: every encoded value is a scalar or a tagged
        # list, and scalars dominate real traces.
        if type(value) is not list:
            return value
        tag = value[0]
        if tag == "T":
            return tuple(self.decode(item) for item in value[1])
        if tag == "L":
            return [self.decode(item) for item in value[1]]
        if tag == "X":
            return _opaque(value[1])
        if tag == "U":
            token = value[1]
            obj = self._objects[token]
            self._appliers[token](obj, value[2])
            return obj
        if tag == "O":
            token, kind, static, mut = value[1], value[2], value[3], value[4]
            obj, applier = self._create(kind, static)
            self._objects[token] = obj
            self._appliers[token] = applier
            applier(obj, mut)
            return obj
        raise tfmt.TraceFormatError("unknown value tag " + repr(tag))

    # -- per-kind construction ------------------------------------------

    def _create(self, kind: str, static: list):
        if kind == tfmt.KIND_PYO:
            from repro.pyc.objects import PyObj

            obj = object.__new__(PyObj)
            obj.serial, obj.type_name = static
            obj.value = None
            obj.allocator = None
            obj.ob_refcnt = 1
            obj.freed = False
            return obj, self._apply_pyo
        if kind == tfmt.KIND_REF:
            from repro.jni.types import JRef

            ref = object.__new__(JRef)
            ref.kind, ref.serial = static
            ref.alive = True
            ref.target = None
            ref.owner_thread = None
            return ref, self._apply_ref
        if kind in (tfmt.KIND_OBJ, tfmt.KIND_STR, tfmt.KIND_ARR, tfmt.KIND_THR):
            return self._create_object(kind, static), self._apply_obj
        if kind == tfmt.KIND_MID:
            from repro.jni.types import JMethodID

            mid = object.__new__(JMethodID)
            mid.method = self._resolve_method(static)
            return mid, self._apply_nothing
        if kind == tfmt.KIND_FID:
            from repro.jni.types import JFieldID

            fid = object.__new__(JFieldID)
            fid.field = self._resolve_field(static)
            return fid, self._apply_nothing
        if kind == tfmt.KIND_BUF:
            from repro.jni.types import NativeBuffer

            buf = object.__new__(NativeBuffer)
            buf.source = self.decode(static[0])
            buf.data = [None] * static[1]
            buf.is_copy = static[2]
            buf.critical = static[3]
            buf.nul_terminated = static[4]
            buf.freed = False
            return buf, self._apply_buf
        raise tfmt.TraceFormatError("unknown object kind " + repr(kind))

    def _create_object(self, kind: str, static: list):
        from repro.jvm.exceptions import JThrowable
        from repro.jvm.model import JArray, JObject, JString

        jclass = self._host.shell_class(static[0])
        if kind == tfmt.KIND_STR:
            obj = object.__new__(JString)
            obj.value = static[2]
        elif kind == tfmt.KIND_ARR:
            obj = object.__new__(JArray)
            obj.element_descriptor = static[2]
            obj.elements = [None] * static[3]
        elif kind == tfmt.KIND_THR:
            obj = object.__new__(JThrowable)
            obj.message = static[2]
            obj.cause = None
            obj.stack_trace = []
        else:
            obj = object.__new__(JObject)
            if static[2] is not None:
                # This instance is a class's java/lang/Class object.
                self._host._class_by_object_id[static[1]] = self._host.shell_class(
                    static[2]
                )
        obj.jclass = jclass
        obj.object_id = static[1]
        obj.fields = {}
        obj.address = 0
        obj.reclaimed = False
        obj.monitor = None
        return obj

    def _resolve_method(self, static: list):
        from repro.jvm.model import JMethod

        class_name, name, descriptor, is_static, is_native = static
        jclass = self._host.shell_class(class_name)
        method = jclass.methods.get((name, descriptor))
        if method is None:
            # Declared-methods identity matters to entity typing: insert
            # into the class so ``declares_method`` holds.
            method = jclass.add_method(
                JMethod(
                    jclass,
                    name,
                    descriptor,
                    is_static=is_static,
                    is_native=is_native,
                )
            )
        return method

    def _resolve_field(self, static: list):
        from repro.jvm.model import JField

        class_name, name, descriptor, is_static, is_final = static
        jclass = self._host.shell_class(class_name)
        field = jclass.fields.get((name, descriptor))
        if field is None:
            field = jclass.add_field(
                JField(
                    jclass,
                    name,
                    descriptor,
                    is_static=is_static,
                    is_final=is_final,
                )
            )
        return field

    # -- per-kind mutable-state appliers --------------------------------

    def _apply_ref(self, ref, mut):
        ref.alive = mut[0]
        ref.target = self.decode(mut[1])

    @staticmethod
    def _apply_obj(obj, mut):
        obj.address = mut[0]
        obj.reclaimed = mut[1]

    @staticmethod
    def _apply_buf(buf, mut):
        buf.freed = mut[0]

    @staticmethod
    def _apply_pyo(obj, mut):
        obj.ob_refcnt = mut[0]
        obj.freed = mut[1]

    @staticmethod
    def _apply_nothing(obj, mut):
        pass


# -- the engine --------------------------------------------------------------


class ReplayResult:
    """Violations re-detected by one replay."""

    def __init__(self, header):
        self.header = header
        #: (event seq, report string), in detection order.
        self.reports: List[Tuple[int, str]] = []
        #: Reports the *live* checker logged into the trace (metadata).
        self.recorded_reports: List[str] = []
        self.event_count = 0
        self.log_lines: List[str] = []

    @property
    def violations(self) -> List[str]:
        return [report for _, report in self.reports]

    @property
    def warnings(self) -> List[str]:
        """Log lines a user must see, such as a dropped torn tail."""
        return [line for line in self.log_lines if line.startswith("warning:")]

    @property
    def drift(self) -> bool:
        """The re-detected stream differs from the one recorded live."""
        return bool(self.recorded_reports) and (
            self.recorded_reports != self.violations
        )


def _default_registry(substrate: str):
    if substrate == "pyc":
        from repro.pyc.machines import build_pyc_registry

        return build_pyc_registry()
    from repro.jinn.machines import build_registry

    return build_registry()


def _function_table(substrate: str):
    if substrate == "pyc":
        from repro.pyc.spec import PY_FUNCTIONS

        return PY_FUNCTIONS
    from repro.jni.functions import FUNCTIONS

    return FUNCTIONS


class _Unwind(Exception):
    """The open call raised live, so the stream holds no return for it.

    Carries the record that showed it to the enclosing level, which
    reads it next.
    """

    def __init__(self, record):
        super().__init__()
        self.record = record


#: What playback reads past the last record.
_END = ["end"]

#: Records applied wherever they appear: verdicts, threads, classes.
_SIDE_RECORDS = ("v", "t", "k")


class _ReplayEngine:
    """One substrate's generated entries, bound once over a replay host.

    :meth:`begin` readies the engine for one trace, :meth:`run` drives
    that trace's whole record stream through the entries, and
    :meth:`finish` returns the result and drops the trace's objects.
    """

    def __init__(self, substrate: str, registry):
        self.substrate = substrate
        self.registry = registry
        self.fingerprint = registry.fingerprint()
        jni = substrate == "jni"
        self.host = ReplayVM() if jni else ReplayInterp()
        self.rt = ReplayRuntime(self.host, registry)
        self.decoder = _Decoder(self.host)
        self.result: Optional[ReplayResult] = None
        self._threads: Dict[object, _ReplayThread] = {}
        self._envs: Dict[object, _ReplayEnv] = {}
        self._pyc_env = _ReplayEnv("pyc-api")
        #: [call seq, native flag, stub called] per open call.
        self._frames: List[list] = []
        #: One-slot cells the playback closures share: the record source,
        #: the violations already reported, the last crossing's seq and
        #: the crossing count.
        self._pull = [None]
        self._seen = [0]
        self._last_seq = [0]
        self._events = [0]
        table = _function_table(substrate)
        plan = PipelinePlan(
            self.rt, registry, None if jni else table, cache=_REPLAY_PLANS
        )
        entries: Dict[str, object] = {}
        stub, self._dispatch, self._consume = self._playback(
            entries, plan.native_entry
        )
        entries.update(plan.entries(dict.fromkeys(table, stub)))

    # -- host context ----------------------------------------------------

    def _env_of(self, token) -> _ReplayEnv:
        env = self._envs.get(token)
        if env is None:
            env = _ReplayEnv(token)
            self._envs[token] = env
        return env

    def _enter(self, ctx: list) -> _ReplayEnv:
        """Install the recorded host context; returns the crossing's env."""
        host = self.host
        if self.substrate == "jni":
            tid, env_token, pending = ctx
            env = self._env_of(env_token)
            thread = self._threads.get(tid)
            if thread is None:
                thread = _ReplayThread(tid, "t{}".format(tid), env)
                self._threads[tid] = thread
            thread.pending_exception = (
                None if pending is None else _ReplayPending(pending)
            )
            host.current_thread = thread
            return env
        current, gil, exc = ctx
        host.current_thread = current
        host.gil_holder = gil
        host.exc_info = None if exc is None else tuple(exc)
        return self._pyc_env

    # -- playback --------------------------------------------------------

    def _playback(self, entries, make_native):
        """The stub every raw function and native runs, and its helpers.

        Built once per engine: each closure reads per-trace state
        through containers :meth:`begin` resets in place.
        """
        natives: Dict[str, object] = {}
        frames = self._frames
        pull = self._pull
        seen = self._seen
        last_seq = self._last_seq
        events = self._events
        violations = self.rt.violations  # stable list: cleared in place
        decode = self.decoder.decode
        enter = self._enter
        feed = self._feed
        collect = self._collect

        def consume(record):
            """Read one return record; returns its decoded result."""
            _, seq, _, _, _, ctx, args, result = record
            for value in args:
                decode(value)
            result = decode(result)
            last_seq[0] = seq
            events[0] += 1
            enter(ctx)
            return result

        def stub(env, *args):
            """Replay the records inside the open call; return its result."""
            seq, native, _ = frame = frames[-1]
            frame[2] = True
            if len(violations) > seen[0]:
                collect(seq)
            record = pull[0]()
            while True:
                kind = record[0]
                if kind == "c":
                    if record[3] == native:
                        raise _Unwind(record)
                    record = dispatch(record) or pull[0]()
                elif kind == "r":
                    if record[2] != seq:
                        raise _Unwind(record)
                    return consume(record)
                elif kind in _SIDE_RECORDS:
                    feed(record)
                    record = pull[0]()
                else:
                    raise _Unwind(record)

        def dispatch(record):
            """Run one call record's entry.

            Returns the record the call left unread for the enclosing
            level, or None.
            """
            _, seq, name, native, ctx, args = record
            args = [decode(value) for value in args]
            last_seq[0] = seq
            events[0] += 1
            env = enter(ctx)
            if native:
                entry = natives.get(name)
                if entry is None:
                    entry = natives[name] = make_native(name, stub)
            else:
                entry = entries.get(name, stub)
            frame = [seq, native, False]
            frames.append(frame)
            try:
                entry(env, *args)
            except _Unwind as unwind:
                frames.pop()
                return unwind.record
            frames.pop()
            if len(violations) > seen[0]:
                collect(last_seq[0])
            if frame[2]:
                return None
            # An FFI function's pre-violation returned without the raw
            # call; a live entry that returned still wrote its return
            # record, after the violation's.
            record = pull[0]()
            while record[0] in _SIDE_RECORDS:
                feed(record)
                record = pull[0]()
            if record[0] == "r" and record[2] == seq:
                consume(record)
                return None
            return record

        return stub, dispatch, consume

    def _feed(self, record: list) -> None:
        """Apply one non-crossing record (thread, class, end, verdict)."""
        kind = record[0]
        if kind == "t":
            _, tid, name, env_token = record
            thread = _ReplayThread(tid, name, self._env_of(env_token))
            self._threads[tid] = thread
            env_machine = self.rt.encodings.get("jnienv_state")
            if env_machine is not None:
                env_machine.record_thread(thread)
        elif kind == "k":
            self.host.define_class_record(record)
        elif kind == "e":
            for capture in record[1]:
                self.decoder.decode(capture)
            self.rt.at_termination()
            self._collect(self._last_seq[0] + 1)
        elif kind == "v":
            self.result.recorded_reports.append(record[1])
        else:
            raise tfmt.TraceFormatError("unknown record kind " + repr(kind))

    def _collect(self, seq: int) -> None:
        violations = self.rt.violations
        seen = self._seen
        reports = self.result.reports
        while seen[0] < len(violations):
            reports.append((seq, violations[seen[0]].report()))
            seen[0] += 1

    # -- one trace -------------------------------------------------------

    def begin(self, header: Dict[str, object]) -> None:
        """Fresh per-trace state: encodings, health, log, decoder, host."""
        self._drop()
        if self.substrate == "jni":
            self.host.local_frame_capacity = header.get(
                "local_frame_capacity", 16
            )
        self.rt.begin(header.get("termination_site", "termination"))
        self.result = ReplayResult(header)

    def run(self, records) -> None:
        """Drive one trace's whole record stream through the entries."""
        pull = self._pull
        pull[0] = partial(next, iter(records), _END)
        dispatch = self._dispatch
        record = pull[0]()
        while record is not _END:
            kind = record[0]
            if kind == "c":
                record = dispatch(record) or pull[0]()
                continue
            if kind == "r":
                # A return whose call is not open: keep its state.
                self._consume(record)
            else:
                self._feed(record)
            record = pull[0]()

    def finish(self) -> ReplayResult:
        """The trace's result; drops every object the trace made."""
        result = self.result
        result.event_count = self._events[0]
        result.log_lines = self.rt.log_lines
        self.result = None
        self._drop()
        return result

    def _drop(self) -> None:
        """Let go of every object the last trace made."""
        self.rt.end()
        self.host.reset()
        self.decoder.reset()
        self._threads.clear()
        self._envs.clear()
        del self._frames[:]
        self._pull[0] = None
        self._seen[0] = 0
        self._last_seq[0] = 0
        self._events[0] = 0


#: Replay's compiled plans.  Its own cache, so replay's entries never
#: share code objects with the live plans, which CPython specialises on
#: the live host's types.
_REPLAY_PLANS = WrapperCache(disk=default_disk_cache())

#: substrate -> this process's engine for it.
_ENGINES: Dict[str, _ReplayEngine] = {}


def replay_engine(
    header: Dict[str, object], registry=None, *, force: bool = False
) -> _ReplayEngine:
    """This process's engine for the trace's substrate, begun on it.

    The engine is rebuilt only when the registry's fingerprint differs
    from the one it was bound for.
    """
    substrate = header.get("substrate", "jni")
    if registry is None:
        registry = _default_registry(substrate)
    tfmt.require_fingerprint(header, registry, force)
    engine = _ENGINES.get(substrate)
    if engine is None or engine.fingerprint != registry.fingerprint():
        engine = _ENGINES[substrate] = _ReplayEngine(substrate, registry)
    engine.begin(header)
    return engine


# -- entry points ------------------------------------------------------------


def replay_trace(
    header: Dict[str, object],
    records,
    *,
    registry=None,
    force: bool = False,
) -> ReplayResult:
    """Replay already-decoded records (in-memory traces, tests)."""
    engine = replay_engine(header, registry, force=force)
    try:
        engine.run(records)
    finally:
        result = engine.finish()
    return result


def replay_lines(lines, **kwargs) -> ReplayResult:
    """Replay a trace held as encoded JSONL lines."""
    import json

    header = tfmt.parse_header(lines[0])
    return replay_trace(
        header, (json.loads(line) for line in lines[1:] if line.strip()), **kwargs
    )


def replay_path(
    path: str,
    *,
    registry=None,
    force: bool = False,
    batch_size: int = 4096,
) -> ReplayResult:
    """Replay one trace file with batched decode.

    A torn final line — the signature of a recorder killed mid-write —
    is logged as a warning and replay stops at the last complete
    record; corruption anywhere before the tail stays a hard
    :class:`repro.trace.format.TraceFormatError`.  One :meth:`run`
    reads every batch, since a call may span two of them.
    """
    with open(path) as f:
        header = tfmt.parse_header(f.readline())
    engine = replay_engine(header, registry, force=force)

    def on_torn(line_no: int, line: str) -> None:
        engine.rt.log(
            "warning: torn final record at line {} ({} bytes) dropped; "
            "replaying the complete prefix".format(
                line_no, len(line.encode("utf-8"))
            )
        )

    batches = tfmt.iter_batches(path, batch_size, on_torn=on_torn)
    try:
        engine.run(chain.from_iterable(batches))
    finally:
        result = engine.finish()
    return result
