"""Deterministic offline re-checking of recorded FFI event streams.

Replay is the interpretive checking path.  Live runs execute the
synthesized checks; the replay engine streams a trace back through the
machines' ``on_event`` handlers instead —
:meth:`repro.core.dispatch.DispatchIndex.encodings` resolves each
recorded crossing to exactly the machines that observe it — without
any simulated JVM or interpreter in the loop.  A replayed stream equal
to the recorded one therefore checks the generated code against its
specifications.

The decoder rebuilds *real* model instances (``JRef``, ``JObject``,
``PyObj``, ...) via ``object.__new__`` so the machine encodings run
unchanged, and a minimal replay host supplies the few bits of VM
surface the machines consult (``current_thread``, ``find_class``,
``local_frame_capacity``, ``class_of_class_object``).

Control flow mirrors the live wrappers exactly: a pre-check violation
on an FFI function skips that call's post site (the generated wrapper
returned the default without running its post block), while a native
method's post site runs even after a pre-check violation (the generated
native wrapper does not return early).  A call record with no matching
return (the live call raised through the wrapper) simply never reaches
its post site.

One file replays in one engine, in stream order.  Several files replay
in parallel on the fleet (:func:`repro.fleet.fleet_replay`), one job
per file; each file is an independent stream, so that split is sound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cache import WRAPPER_CACHE
from repro.core.runtime import CheckerRuntime, FailurePolicy
from repro.fsm.errors import FFIViolation
from repro.fsm.events import Direction, EventContext, LanguageEvent
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
    """Checker core over a replay host, collecting into a list."""

    log_prefix = "replay"

    def __init__(self, host, registry, termination_site: str):
        # Must match the recording substrate so leak reports are
        # byte-identical ("in VM shutdown" vs "in interpreter exit").
        self.termination_site = termination_site
        super().__init__(host, registry, CollectViolationsPolicy())
        self.log_lines: List[str] = []

    def log(self, message: str) -> None:
        self.log_lines.append(message)


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

    def __init__(self, local_frame_capacity: int = 16):
        from repro.jvm.model import JClass  # local: pyc replays never need it

        self._jclass = JClass
        self.classes: Dict[str, object] = {}
        self.local_frame_capacity = local_frame_capacity
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

    def __init__(self, host, substrate: str):
        self._host = host
        self._substrate = substrate
        self._objects: Dict[int, object] = {}
        self._appliers: Dict[int, object] = {}

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


class _ReplayEngine:
    def __init__(
        self,
        header: Dict[str, object],
        registry=None,
        *,
        force: bool = False,
    ):
        self.header = header
        self.substrate = header.get("substrate", "jni")
        if registry is None:
            registry = _default_registry(self.substrate)
        tfmt.require_fingerprint(header, registry, force)
        self.registry = registry
        table = _function_table(self.substrate)
        self.table = table
        if self.substrate == "jni":
            self.host = ReplayVM(header.get("local_frame_capacity", 16))
            self.index = WRAPPER_CACHE.dispatch_for(registry)
        else:
            self.host = ReplayInterp()
            self.index = WRAPPER_CACHE.dispatch_for(registry, table)
        self.rt = ReplayRuntime(
            self.host, registry, header.get("termination_site", "termination")
        )
        self.decoder = _Decoder(self.host, self.substrate)
        self.result = ReplayResult(header)
        self._threads: Dict[object, _ReplayThread] = {}
        self._envs: Dict[object, _ReplayEnv] = {}
        self._skip_post: set = set()
        self._last_seq = 0
        self._seen_violations = 0
        # Per-function dispatch cache:
        # (pre, post, meta, default, call_event, return_event).
        self._handlers: Dict[Tuple[str, bool], tuple] = {}

    # -- dispatch resolution --------------------------------------------

    def _resolve(self, name: str, native: bool) -> tuple:
        key = (name, native)
        cached = self._handlers.get(key)
        if cached is not None:
            return cached
        from repro.core.defaults import default_value

        if native:
            call_dir = Direction.CALL_MANAGED_TO_NATIVE
            ret_dir = Direction.RETURN_NATIVE_TO_MANAGED
            pre = self.index.native_encodings(self.rt, call_dir)
            post = self.index.native_encodings(self.rt, ret_dir)
            meta = None
            default = None
        else:
            call_dir = Direction.CALL_NATIVE_TO_MANAGED
            ret_dir = Direction.RETURN_MANAGED_TO_NATIVE
            pre = self.index.encodings(self.rt, name, call_dir)
            post = self.index.encodings(self.rt, name, ret_dir)
            meta = self.table.get(name)
            default = default_value(meta.returns) if meta is not None else None
        # The crossing events are immutable per (name, native): build
        # them once here instead of per record in the feed loop.
        cached = (
            pre,
            post,
            meta,
            default,
            LanguageEvent(call_dir, name, native),
            LanguageEvent(ret_dir, name, native),
        )
        self._handlers[key] = cached
        return cached

    # -- host context ----------------------------------------------------

    def _env_of(self, token) -> _ReplayEnv:
        env = self._envs.get(token)
        if env is None:
            env = _ReplayEnv(token)
            self._envs[token] = env
        return env

    def _thread_of(self, tid, env) -> _ReplayThread:
        thread = self._threads.get(tid)
        if thread is None:
            thread = _ReplayThread(tid, "t{}".format(tid), env)
            self._threads[tid] = thread
        return thread

    def _enter(self, ctx: list):
        """Install the recorded host context; returns (env, thread)."""
        if self.substrate == "jni":
            tid, env_token, pending = ctx
            env = self._env_of(env_token)
            thread = self._thread_of(tid, env)
            thread.pending_exception = (
                None if pending is None else _ReplayPending(pending)
            )
            self.host.current_thread = thread
            return env, thread
        current, gil, exc = ctx
        self.host.current_thread = current
        self.host.gil_holder = gil
        self.host.exc_info = None if exc is None else tuple(exc)
        return self._env_of("pyc-api"), current

    # -- record feed -----------------------------------------------------

    def feed(self, record: list) -> None:
        """Apply one non-crossing record (thread, class, end, verdict)."""
        kind = record[0]
        if kind == "t":
            _, tid, name, env_token = record
            env = self._env_of(env_token)
            thread = _ReplayThread(tid, name, env)
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
            self._collect(self._last_seq + 1)
        elif kind == "v":
            self.result.recorded_reports.append(record[1])
        else:
            raise tfmt.TraceFormatError("unknown record kind " + repr(kind))

    def run(self, records) -> None:
        """Feed a stream of records through a hoisted-locals hot loop.

        This loop is the only code that drives the machines'
        ``on_event`` handlers: each "c"/"r" crossing runs its pre-bound
        encodings here, with every per-record attribute lookup hoisted.
        Rare record kinds go to :meth:`feed`.
        """
        decode = self.decoder.decode
        resolve = self._resolve
        enter = self._enter
        result = self.result
        fail = self.rt.fail
        contain = self.rt.contain
        violations = self.rt.violations  # stable list: cleared in place
        handlers = self._handlers
        skip_post = self._skip_post
        collect = self._collect
        for record in records:
            kind = record[0]
            if kind == "c":
                _, seq, name, native, ctx, args = record
                self._last_seq = seq
                jargs = tuple([decode(a) for a in args])
                result.event_count += 1
                env, thread = enter(ctx)
                handler = handlers.get((name, native))
                if handler is None:
                    handler = resolve(name, native)
                pre, _, meta, default, call_event, _ = handler
                context = EventContext(
                    call_event, env, thread, jargs, {}, None, meta
                )
                try:
                    for encoding in pre:
                        try:
                            encoding.on_event(context)
                        except FFIViolation:
                            raise
                        except Exception as exc:
                            contain(encoding.spec.name, exc, name, "pre")
                except FFIViolation as v:
                    fail(env, v, default)
                    if not native:
                        skip_post.add(seq)
                if len(violations) > self._seen_violations:
                    collect(seq)
            elif kind == "r":
                _, seq, call_seq, name, native, ctx, args, res = record
                self._last_seq = seq
                jargs = tuple([decode(a) for a in args])
                jresult = decode(res)
                result.event_count += 1
                env, thread = enter(ctx)
                if call_seq in skip_post:
                    skip_post.discard(call_seq)
                    continue
                handler = handlers.get((name, native))
                if handler is None:
                    handler = resolve(name, native)
                _, post, meta, _, _, ret_event = handler
                context = EventContext(
                    ret_event, env, thread, jargs, {}, jresult, meta
                )
                try:
                    for encoding in post:
                        try:
                            encoding.on_event(context)
                        except FFIViolation:
                            raise
                        except Exception as exc:
                            contain(encoding.spec.name, exc, name, "post")
                except FFIViolation as v:
                    fail(env, v)
                if len(violations) > self._seen_violations:
                    collect(seq)
            else:
                self.feed(record)

    def _collect(self, seq: int) -> None:
        violations = self.rt.violations
        while self._seen_violations < len(violations):
            self.result.reports.append(
                (seq, violations[self._seen_violations].report())
            )
            self._seen_violations += 1

    def finish(self) -> ReplayResult:
        self.result.log_lines = self.rt.log_lines
        return self.result


# -- entry points ------------------------------------------------------------


def replay_trace(
    header: Dict[str, object],
    records,
    *,
    registry=None,
    force: bool = False,
) -> ReplayResult:
    """Replay already-decoded records (in-memory traces, tests)."""
    engine = _ReplayEngine(header, registry, force=force)
    engine.run(records)
    return engine.finish()


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
    :class:`repro.trace.format.TraceFormatError`.
    """
    with open(path) as f:
        header = tfmt.parse_header(f.readline())
    engine = _ReplayEngine(header, registry, force=force)

    def on_torn(line_no: int, line: str) -> None:
        engine.rt.log(
            "warning: torn final record at line {} ({} bytes) dropped; "
            "replaying the complete prefix".format(
                line_no, len(line.encode("utf-8"))
            )
        )

    for batch in tfmt.iter_batches(path, batch_size, on_torn=on_torn):
        engine.run(batch)
    return engine.finish()
