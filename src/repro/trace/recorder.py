"""The live trace tap.

A :class:`TraceRecorder` attaches to a checker through the observer
hook on :class:`repro.core.runtime.CheckerRuntime`.  The interposition
layers (:class:`repro.jinn.agent.JinnAgent`,
:class:`repro.pyc.checker.PyCChecker`) consult ``rt.observer`` once, at
table-install time: with no recorder attached their plan compiles no
recorder hooks in and the steady-state cost is zero — no shim frame,
no conditional per call (guard, don't wrap).

Recording is two-phase to keep the live tap cheap.  At event time the
recorder appends small capture tuples holding *strong references* to
the model objects plus only their event-time mutable state (a
reference's liveness, an object's address, a Python object's refcount);
full JSONL serialization — interning, class-table emission, encoding —
is deferred to :meth:`TraceRecorder.close`.  The strong references also
pin the objects so interning by identity is sound.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.trace import format as tfmt

# -- event-time value capture ------------------------------------------------
#
# A capture is either a scalar (stored as-is) or a tuple whose first
# element is the snapshot kind.  Object captures carry the live object
# (strong reference) and the event-time values of its mutable fields;
# the immutable fields are read once, at encode time.

_SCALARS = frozenset((type(None), bool, int, float, str))


def _snap_slow(value):
    """Classify a value the fast-path type table has not seen yet."""
    from repro.jni.types import JFieldID, JMethodID, JRef, NativeBuffer
    from repro.jvm.exceptions import JThrowable
    from repro.jvm.model import JArray, JObject, JString
    from repro.pyc.objects import PyObj

    if isinstance(value, JRef):
        return (tfmt.KIND_REF, value, value.alive, _snap(value.target))
    if isinstance(value, JThrowable):
        return (tfmt.KIND_THR, value, value.address, value.reclaimed)
    if isinstance(value, JString):
        return (tfmt.KIND_STR, value, value.address, value.reclaimed)
    if isinstance(value, JArray):
        return (tfmt.KIND_ARR, value, value.address, value.reclaimed)
    if isinstance(value, JObject):
        return (tfmt.KIND_OBJ, value, value.address, value.reclaimed)
    if isinstance(value, JMethodID):
        return (tfmt.KIND_MID, value)
    if isinstance(value, JFieldID):
        return (tfmt.KIND_FID, value)
    if isinstance(value, NativeBuffer):
        return (tfmt.KIND_BUF, value, value.freed, _snap(value.source))
    if isinstance(value, PyObj):
        return (tfmt.KIND_PYO, value, value.ob_refcnt, value.freed)
    if isinstance(value, tuple):
        return ("T", [_snap(x) for x in value])
    if isinstance(value, list):
        return ("L", [_snap(x) for x in value])
    return ("X", type(value).__name__)


#: type -> capture function, filled lazily so the common exact types hit
#: one dict lookup instead of an isinstance chain.
_SNAPPERS: Dict[type, object] = {}


def _snap(value):
    snapper = _SNAPPERS.get(type(value))
    if snapper is not None:
        return snapper(value)
    if type(value) in _SCALARS:
        return value
    capture = _snap_slow(value)
    _register_snapper(type(value), capture[0] if isinstance(capture, tuple) else None)
    return capture


def _register_snapper(tp: type, kind: Optional[str]) -> None:
    if kind == tfmt.KIND_REF:
        _SNAPPERS[tp] = lambda v: (tfmt.KIND_REF, v, v.alive, _snap(v.target))
    elif kind in (tfmt.KIND_THR, tfmt.KIND_STR, tfmt.KIND_ARR, tfmt.KIND_OBJ):
        _SNAPPERS[tp] = lambda v, _k=kind: (_k, v, v.address, v.reclaimed)
    elif kind in (tfmt.KIND_MID, tfmt.KIND_FID):
        _SNAPPERS[tp] = lambda v, _k=kind: (_k, v)
    elif kind == tfmt.KIND_BUF:
        _SNAPPERS[tp] = lambda v: (tfmt.KIND_BUF, v, v.freed, _snap(v.source))
    elif kind == tfmt.KIND_PYO:
        _SNAPPERS[tp] = lambda v: (tfmt.KIND_PYO, v, v.ob_refcnt, v.freed)
    # Containers and opaques stay on the slow path: their capture shape
    # depends on the payload, not just the type.


for _scalar in _SCALARS:
    _SNAPPERS[_scalar] = lambda v: v

#: Kinds whose capture carries two event-time fields after the object.
_PAIR_MUTABLE = frozenset(
    (tfmt.KIND_OBJ, tfmt.KIND_STR, tfmt.KIND_ARR, tfmt.KIND_THR, tfmt.KIND_PYO)
)


class _Encoder:
    """Capture tuples -> tagged JSON values, interning objects.

    ``first_visits`` lists each interned object once, in the order the
    encoder first met it, pre-order: a ref before its target, a buffer
    before its source.  That is the order of the end-of-trace sync
    record, so building it needs no second walk over the captures.
    """

    def __init__(self, class_object_names: Dict[int, str]):
        self._tokens: Dict[int, int] = {}
        self._next = 0
        self._class_object_names = class_object_names
        self.first_visits: List[object] = []

    def encode(self, capture):
        if not isinstance(capture, tuple):
            return capture
        kind = capture[0]
        if kind in ("T", "L"):
            return [kind, [self.encode(item) for item in capture[1]]]
        if kind == "X":
            return ["X", capture[1]]
        obj = capture[1]
        token = self._tokens.get(id(obj))
        if token is None:
            self.first_visits.append(obj)
        # A ref's target is encoded (and interned) before the ref takes
        # its own token: token order is part of the trace bytes.
        if kind == tfmt.KIND_REF:
            mut = [capture[2], self.encode(capture[3])]
        elif kind == tfmt.KIND_BUF:
            mut = [capture[2]]
        elif kind in _PAIR_MUTABLE:
            mut = [capture[2], capture[3]]
        else:
            mut = []
        if token is not None:
            return ["U", token, mut]
        token = self._next
        self._next += 1
        self._tokens[id(obj)] = token
        return ["O", token, kind, self._static(kind, obj, capture), mut]

    def _static(self, kind, obj, capture):
        if kind == tfmt.KIND_REF:
            return [obj.kind, obj.serial]
        if kind == tfmt.KIND_OBJ:
            return [
                obj.jclass.name,
                obj.object_id,
                self._class_object_names.get(id(obj)),
            ]
        if kind == tfmt.KIND_STR:
            return [obj.jclass.name, obj.object_id, obj.value]
        if kind == tfmt.KIND_ARR:
            return [
                obj.jclass.name,
                obj.object_id,
                obj.element_descriptor,
                len(obj.elements),
            ]
        if kind == tfmt.KIND_THR:
            return [obj.jclass.name, obj.object_id, obj.message]
        if kind == tfmt.KIND_MID:
            method = obj.method
            return [
                method.declaring_class.name,
                method.name,
                method.descriptor,
                method.is_static,
                method.is_native,
            ]
        if kind == tfmt.KIND_FID:
            field = obj.field
            return [
                field.declaring_class.name,
                field.name,
                field.descriptor,
                field.is_static,
                field.is_final,
            ]
        if kind == tfmt.KIND_BUF:
            return [
                self.encode(capture[3]),
                len(obj.data),
                obj.is_copy,
                obj.critical,
                obj.nul_terminated,
            ]
        if kind == tfmt.KIND_PYO:
            return [obj.serial, obj.type_name]
        raise tfmt.TraceFormatError("unknown capture kind " + repr(kind))


class JournalWriter:
    """Crash-safe sink: checksummed records, fsync-bounded loss.

    Each record is written in the v2 framing of :mod:`repro.core.journal`,
    ``"<byte_len> <crc32> <json>\\n"`` — the length prefix lets recovery
    distinguish a torn final write from a complete record, and the CRC32
    turns a flipped bit into a detected error instead of a different
    record — and the file is flushed + fsynced every ``sync_every``
    appends, so a SIGKILL loses at most ``sync_every`` records past the
    last sync.

    All file traffic goes through an injectable
    :class:`repro.core.store.Store`, so storage-fault tests can swap in
    a :class:`repro.core.store.FaultyStore`.
    """

    def __init__(
        self,
        path: str,
        sync_every: int = 64,
        *,
        store=None,
    ):
        from repro.core.store import Store

        if sync_every < 1:
            raise ValueError("sync_every must be positive")
        self.path = path
        self.sync_every = sync_every
        self.store = store if store is not None else Store()
        self.records_written = 0
        self._since_sync = 0
        self._f = self.store.open(path, "w")

    def append(self, json_line: str) -> None:
        from repro.core.journal import encode_record

        self._f.write(encode_record(json_line))
        self.records_written += 1
        self._since_sync += 1
        if self._since_sync >= self.sync_every:
            self.sync()

    def sync(self) -> None:
        """Make every appended record durable; a no-op when they are."""
        if self._since_sync:
            self._f.fsync()
            self._since_sync = 0

    def close(self) -> None:
        if not self._f.closed:
            self.sync()
            self._f.close()


class TraceRecorder:
    """Observer that captures the FFI event stream to a trace file.

    With ``journal_path`` set, recording is crash-safe: captured
    records are encoded incrementally and appended to a
    :class:`JournalWriter` every ``sync_every`` records, so an
    interpreter killed mid-run leaves a journal recoverable up to the
    last complete record (``repro trace recover``).  The recorder also
    registers an atexit hook (and, in journal mode, a SIGTERM handler)
    that flushes buffered captures on abnormal exit.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        workload: Optional[str] = None,
        journal_path: Optional[str] = None,
        sync_every: int = 64,
    ):
        self.path = path
        self.workload = workload
        self._records: List[tuple] = []
        # Shared sequence counter; a one-slot list so every recording
        # closure bumps the same cell without an attribute round-trip.
        self._seq = [0]
        self._rt = None
        self._host = None
        self._substrate: Optional[str] = None
        self._terminated = False
        self._closed = False
        #: Encoded trace lines, available after :meth:`close`.
        self.lines: Optional[List[str]] = None
        #: Number of event records captured (calls + returns).
        self.event_count = 0
        self._gc_threshold = None
        # -- incremental encoding state (journal mode flushes early;
        # the plain path runs the same code once, at close) -------------
        self._enc: Optional[_Encoder] = None
        self._encoded_lines: List[str] = []
        self._encoded_upto = 0
        self._emitted_classes = 0
        self._pending_class_objects: List[object] = []
        # -- crash safety -----------------------------------------------
        self.sync_every = sync_every
        self._journal: Optional[JournalWriter] = None
        if journal_path is not None:
            self._journal = JournalWriter(journal_path, sync_every)
        self._atexit_registered = False
        self._prev_sigterm = None

    # -- attachment ------------------------------------------------------

    def attach_jinn(self, rt, vm) -> None:
        """Bind to a JinnRuntime; called by the agent at ``on_load``."""
        self._attach(rt, vm, "jni")

    def attach_pyc(self, rt, interp) -> None:
        """Bind to a PyCRuntime; called at ``on_api_created``."""
        self._attach(rt, interp, "pyc")

    def _attach(self, rt, host, substrate: str) -> None:
        if self._rt is not None and self._rt is not rt:
            raise RuntimeError("TraceRecorder is already attached")
        self._rt = rt
        self._host = host
        self._substrate = substrate
        rt.observer = self
        # Capture allocates a steady stream of long-lived tuples; at the
        # default gen-0 threshold the collector runs every few hundred
        # events and rescans the growing record list each time.  Raise
        # the threshold while attached (restored in close()).
        import gc

        self._gc_threshold = gc.get_threshold()
        gc.set_threshold(100000, self._gc_threshold[1], self._gc_threshold[2])
        if self._journal is not None:
            # The journal opens with the header so a recovered prefix is
            # a complete, pinned trace on its own.
            self._journal.append(tfmt.dump_record(self.header()))
            self._journal.sync()
        if self._journal is not None or self.path is not None:
            self._register_crash_hooks()

    # -- crash safety ----------------------------------------------------

    def _register_crash_hooks(self) -> None:
        import atexit

        if not self._atexit_registered:
            atexit.register(self._emergency_flush)
            self._atexit_registered = True
        if self._journal is not None and self._prev_sigterm is None:
            import signal

            try:
                prev = signal.getsignal(signal.SIGTERM)

                def _on_sigterm(signum, frame):
                    self._emergency_flush()
                    restore = (
                        prev
                        if prev not in (None, _on_sigterm)
                        else signal.SIG_DFL
                    )
                    signal.signal(signum, restore)
                    import os

                    os.kill(os.getpid(), signum)

                signal.signal(signal.SIGTERM, _on_sigterm)
                self._prev_sigterm = prev
            except ValueError:
                # Not the main thread: atexit still covers clean exits.
                pass

    def _unregister_crash_hooks(self) -> None:
        if self._atexit_registered:
            import atexit

            atexit.unregister(self._emergency_flush)
            self._atexit_registered = False
        if self._prev_sigterm is not None:
            import signal

            try:
                signal.signal(signal.SIGTERM, self._prev_sigterm)
            except ValueError:
                pass
            self._prev_sigterm = None

    def _emergency_flush(self) -> None:
        """Best-effort flush on abnormal exit (atexit / SIGTERM).

        Journal mode appends and fsyncs every buffered record (no
        end-of-trace marker — the run did not terminate cleanly); plain
        mode falls back to a full close so a configured ``path`` is
        still written.
        """
        if self._closed:
            return
        if self._journal is not None:
            try:
                self._flush_journal()
            except Exception:
                pass
        elif self.path is not None:
            try:
                self.close()
            except Exception:
                pass

    def _journal_tick(self) -> None:
        if len(self._records) - self._encoded_upto >= self.sync_every:
            self._flush_journal()

    def _flush_journal(self) -> None:
        """Encode captured-but-unencoded records into the journal."""
        journal = self._journal
        if journal is None:
            return
        pending = self._records[self._encoded_upto :]
        if not pending:
            return
        self._encoded_upto = len(self._records)
        lines = self._encode_slice(pending)
        self._encoded_lines.extend(lines)
        for line in lines:
            journal.append(line)
        journal.sync()

    # -- the tap ---------------------------------------------------------

    # -- the tap: fused-pipeline hooks -----------------------------------
    #
    # A fused entry inlines the call capture before its checks and the
    # return capture after them, with no wrapper frame of its own.  The
    # event-time budget rules here: everything a closure can pre-bind is
    # pre-bound, the common scalar argument types (int, str) skip the
    # snapper table, and the context tuple is built inline per substrate
    # instead of through a method call.

    def call_hook(self, name: str, native: bool):
        """``fn(env, args) -> callseq``: capture one call record."""
        if self._substrate == "jni":
            return self._jni_call_hook(name, native)
        return self._pyc_call_hook(name, native)

    def return_hook(self, name: str, native: bool):
        """``fn(env, args, result, callseq)``: capture one return."""
        if self._substrate == "jni":
            return self._jni_return_hook(name, native)
        return self._pyc_return_hook(name, native)

    def _jni_call_hook(self, name: str, native: bool):
        records_append = self._records.append
        seq_cell = self._seq
        host = self._host
        classes = host.classes
        snappers_get = _SNAPPERS.get
        snap = _snap
        jtick = self._journal_tick if self._journal is not None else None

        def call_hook(env, args):
            thread = host.current_thread
            pending = thread.pending_exception
            ctx = (
                thread.thread_id,
                id(env),
                None if pending is None else pending.describe(),
                len(classes),
            )
            snaps = []
            snaps_append = snaps.append
            for a in args:
                cls = a.__class__
                if cls is int or cls is str:
                    snaps_append(a)
                else:
                    s = snappers_get(cls)
                    snaps_append(s(a) if s is not None else snap(a))
            seq_cell[0] = seq = seq_cell[0] + 1
            records_append(("c", seq, name, native, ctx, snaps))
            if jtick is not None:
                jtick()
            return seq

        return call_hook

    def _jni_return_hook(self, name: str, native: bool):
        records_append = self._records.append
        seq_cell = self._seq
        host = self._host
        classes = host.classes
        snappers_get = _SNAPPERS.get
        snap = _snap
        jtick = self._journal_tick if self._journal is not None else None

        def return_hook(env, args, result, callseq):
            thread = host.current_thread
            pending = thread.pending_exception
            ctx = (
                thread.thread_id,
                id(env),
                None if pending is None else pending.describe(),
                len(classes),
            )
            snaps = []
            snaps_append = snaps.append
            for a in args:
                cls = a.__class__
                if cls is int or cls is str:
                    snaps_append(a)
                else:
                    s = snappers_get(cls)
                    snaps_append(s(a) if s is not None else snap(a))
            rcls = result.__class__
            if rcls is int or rcls is str:
                rsnap = result
            else:
                s = snappers_get(rcls)
                rsnap = s(result) if s is not None else snap(result)
            seq_cell[0] = seq2 = seq_cell[0] + 1
            records_append(
                ("r", seq2, callseq, name, native, ctx, snaps, rsnap)
            )
            if jtick is not None:
                jtick()

        return return_hook

    def _pyc_call_hook(self, name: str, native: bool):
        records_append = self._records.append
        seq_cell = self._seq
        interp = self._host
        snappers_get = _SNAPPERS.get
        snap = _snap
        jtick = self._journal_tick if self._journal is not None else None

        def call_hook(env, args):
            exc = interp.exc_info
            ctx = (
                interp.current_thread,
                interp.gil_holder,
                None if exc is None else list(exc),
            )
            snaps = []
            snaps_append = snaps.append
            for a in args:
                cls = a.__class__
                if cls is int or cls is str:
                    snaps_append(a)
                else:
                    s = snappers_get(cls)
                    snaps_append(s(a) if s is not None else snap(a))
            seq_cell[0] = seq = seq_cell[0] + 1
            records_append(("c", seq, name, native, ctx, snaps))
            if jtick is not None:
                jtick()
            return seq

        return call_hook

    def _pyc_return_hook(self, name: str, native: bool):
        records_append = self._records.append
        seq_cell = self._seq
        interp = self._host
        snappers_get = _SNAPPERS.get
        snap = _snap
        jtick = self._journal_tick if self._journal is not None else None

        def return_hook(env, args, result, callseq):
            exc = interp.exc_info
            ctx = (
                interp.current_thread,
                interp.gil_holder,
                None if exc is None else list(exc),
            )
            snaps = []
            snaps_append = snaps.append
            for a in args:
                cls = a.__class__
                if cls is int or cls is str:
                    snaps_append(a)
                else:
                    s = snappers_get(cls)
                    snaps_append(s(a) if s is not None else snap(a))
            rcls = result.__class__
            if rcls is int or rcls is str:
                rsnap = result
            else:
                s = snappers_get(rcls)
                rsnap = s(result) if s is not None else snap(result)
            seq_cell[0] = seq2 = seq_cell[0] + 1
            records_append(
                ("r", seq2, callseq, name, native, ctx, snaps, rsnap)
            )
            if jtick is not None:
                jtick()

        return return_hook

    # -- non-event hooks -------------------------------------------------

    def on_thread_start(self, thread) -> None:
        self._records.append(
            ("t", thread.thread_id, thread.name, id(thread.env))
        )
        if self._journal is not None:
            self._journal_tick()

    def on_violation(self, violation) -> None:
        """Called by ``CheckerRuntime.fail`` — metadata, not replayed."""
        self._records.append(("v", violation.report()))
        if self._journal is not None:
            # Violations are the evidence a crashed run most needs to
            # keep: flush eagerly, not on the count boundary.
            self._flush_journal()

    def on_termination(self) -> None:
        """Mark host death.

        The leak sweep reads end-of-run object state (a never-deleted
        global's target, a never-released buffer's source address), so
        the trace closes with a sync record carrying each interned
        object's final mutable fields.  It is built in :meth:`close`,
        off the live run's clock: the host is dead, no further events
        fire, and the strong references in the captures pin each
        object's state until it is read.
        """
        self._terminated = True

    # -- serialization ---------------------------------------------------

    def header(self) -> Dict[str, object]:
        if self._rt is None:
            raise RuntimeError("TraceRecorder was never attached")
        return tfmt.make_header(
            substrate=self._substrate,
            fingerprint=self._rt.registry.fingerprint(),
            termination_site=self._rt.termination_site,
            local_frame_capacity=(
                self._host.local_frame_capacity
                if self._substrate == "jni"
                else None
            ),
            workload=self.workload,
        )

    def close(self) -> int:
        """Encode the captured stream; returns the event-record count.

        Writes the trace to ``self.path`` when one was given; the
        encoded lines stay on ``self.lines`` either way.  In journal
        mode the already-flushed prefix is reused — only the tail is
        encoded here — and the journal is synced and closed.
        """
        if self._closed:
            return self.event_count
        self._closed = True
        self._unregister_crash_hooks()
        if self._gc_threshold is not None:
            import gc

            gc.set_threshold(*self._gc_threshold)
            self._gc_threshold = None
        pending = self._records[self._encoded_upto :]
        self._encoded_upto = len(self._records)
        tail = self._encode_slice(pending, sync=self._terminated)
        self._encoded_lines.extend(tail)
        journal = self._journal
        if journal is not None:
            for line in tail:
                journal.append(line)
            journal.close()
        lines = [tfmt.dump_record(self.header())]
        lines.extend(self._encoded_lines)
        self.lines = lines
        if self.path is not None:
            with open(self.path, "w") as f:
                f.write("\n".join(lines))
                f.write("\n")
        return self.event_count

    def _encode_slice(
        self, records: List[tuple], sync: bool = False
    ) -> List[str]:
        """Encode a run of captured records into trace lines.

        Captures carry their event-time mutable state inside the tuple,
        so encoding a slice mid-run produces exactly the lines a single
        close-time encode would — the property journal recovery leans
        on.  Class ("k") records are the one exception: they are read
        from the live class at flush time, so a journal flushed early
        may record fewer members than a close-time encode; the replay
        decoder resolves late members on demand either way.

        The host cannot change while a slice is encoded, so class
        objects that appeared since the last slice are resolved once,
        up front.  Each record is dumped as soon as it is encoded, so
        its lists die young instead of piling up for the collector.
        With ``sync`` the slice ends with the end-of-trace ("e")
        record.
        """
        if self._enc is None:
            self._enc = _Encoder({})
        encoder = self._enc
        encode = encoder.encode
        names = encoder._class_object_names
        jni = self._substrate == "jni"
        class_list: List = list(self._host.classes.values()) if jni else []
        if self._pending_class_objects:
            self._resolve_class_objects(names)
        dump = tfmt.dump_record
        out: List[str] = []
        append = out.append
        events = 0
        for record in records:
            kind = record[0]
            if kind == "c":
                _, seq, name, native, ctx, args = record
            elif kind == "r":
                _, seq, callseq, name, native, ctx, args, result = record
            else:  # "t", "v"
                append(dump(list(record)))
                continue
            events += 1
            if jni:
                epoch = min(ctx[3], len(class_list))
                while self._emitted_classes < epoch:
                    append(dump(self._emit_class(class_list, names)))
                ctx = [ctx[0], ctx[1], ctx[2]]
            else:
                ctx = list(ctx)
            args = [encode(a) for a in args]
            if kind == "c":
                append(dump(["c", seq, name, native, ctx, args]))
            else:
                result = encode(result)
                append(dump(["r", seq, callseq, name, native, ctx, args, result]))
        self.event_count += events
        if sync:
            # Classes defined after the last event still matter to the
            # sweep (and to late snapshots): flush the rest.
            while self._emitted_classes < len(class_list):
                append(dump(self._emit_class(class_list, names)))
            # Every object the stream interned, in first-visit order,
            # snapped at its final state before any of it is encoded.
            final = [_snap(obj) for obj in encoder.first_visits]
            append(dump(["e", [encode(capture) for capture in final]]))
        return out

    def _emit_class(self, class_list: List, names: Dict[int, str]) -> list:
        jclass = class_list[self._emitted_classes]
        self._emitted_classes += 1
        if jclass.class_object is not None:
            names[id(jclass.class_object)] = jclass.name
        else:
            # Class objects can materialize after the class: resolve
            # lazily so later snapshots still intern them by name.
            self._pending_class_objects.append(jclass)
        return self._class_record(jclass)

    def _resolve_class_objects(self, names: Dict[int, str]) -> None:
        still_pending = []
        for jclass in self._pending_class_objects:
            if jclass.class_object is not None:
                names[id(jclass.class_object)] = jclass.name
            else:
                still_pending.append(jclass)
        self._pending_class_objects = still_pending

    def _class_record(self, jclass) -> list:
        return [
            "k",
            jclass.name,
            jclass.superclass.name if jclass.superclass is not None else None,
            [iface.name for iface in jclass.interfaces],
            [
                [m.name, m.descriptor, m.is_static, m.is_native]
                for m in jclass.methods.values()
            ],
            [
                [f.name, f.descriptor, f.is_static, f.is_final]
                for f in jclass.fields.values()
            ],
            (
                jclass.class_object.object_id
                if jclass.class_object is not None
                else None
            ),
        ]
