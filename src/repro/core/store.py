"""The storage seam under the journal writer, plus fault injection.

:class:`Store` is the narrow waist between the trace
:class:`~repro.trace.recorder.JournalWriter` and the filesystem: the
handful of operations a crash-consistency argument has to reason about
— open, append, flush, fsync.  Production code uses the default
:class:`Store`; tests swap in a :class:`FaultyStore` that injects
faults at deterministic operation ordinals, in the spirit of
ALICE/CrashMonkey-style systematic fault injection over the write log.

The :class:`FaultyStore` models user-space durability precisely: bytes
written to a handle sit in an in-memory buffer (the page-cache/stdio
analog) until ``flush``/``fsync`` pushes them to the real file.  A
``crash`` fault — or :meth:`FaultyStore.crash` — discards every
unflushed buffer, so what the reopened file shows is exactly what a
SIGKILL or power loss would have persisted.

Fault kinds (all raise :class:`InjectedFault`, an ``OSError``):

- ``short``  — flush only the first ``keep`` fraction of the write's
  bytes to disk, then die: a torn append.
- ``enospc`` — the write fails outright (disk full); nothing of it is
  buffered.
- ``crash``  — die before the write buffers: clean prefix loss.
- ``fsync`` faults (``kind="error"``) — the data reached the file but
  durability was refused (EIO): callers must treat the record as
  possibly-persisted.
- ``bitflip`` — the write *succeeds* with one bit flipped: silent
  corruption the journal checksum layer exists to detect.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple


class InjectedFault(OSError):
    """A storage fault fired by :class:`FaultyStore`."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: the ``at``-th ``op`` misbehaves (1-based)."""

    op: str  # "write" | "fsync"
    at: int
    kind: str  # "short" | "enospc" | "crash" | "bitflip" | "error"
    keep: float = 0.5  # fraction persisted by a short write


class StoreHandle:
    """A writable journal handle over a real binary file."""

    def __init__(self, f):
        self._f = f

    def write(self, text: str) -> None:
        self._f.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._f.flush()

    def fsync(self) -> None:
        self._f.flush()
        os.fsync(self._f.fileno())

    def close(self) -> None:
        if not self._f.closed:
            self._f.close()

    @property
    def closed(self) -> bool:
        return self._f.closed


class Store:
    """The real filesystem, behind the injectable seam."""

    def read(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def open(self, path: str, mode: str = "a") -> StoreHandle:
        if mode not in ("a", "w"):
            raise ValueError("journal handles append or rewrite, not " + mode)
        return StoreHandle(open(path, mode + "b"))


class _FaultyHandle:
    """Buffers writes so a crash loses exactly the unflushed tail."""

    def __init__(self, store: "FaultyStore", f):
        self._store = store
        self._f = f
        self._buffer: List[bytes] = []

    def _flush_buffer(self) -> None:
        for chunk in self._buffer:
            self._f.write(chunk)
        self._buffer = []
        self._f.flush()

    def write(self, text: str) -> None:
        self._store._check_dead()
        data = text.encode("utf-8")
        fault = self._store._next_fault("write")
        if fault is None:
            self._buffer.append(data)
            return
        if fault.kind == "bitflip":
            # Flip one bit mid-payload; the write itself "succeeds".
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0x01
            self._buffer.append(bytes(flipped))
            return
        if fault.kind == "enospc":
            raise InjectedFault(errno.ENOSPC, "injected: no space left")
        if fault.kind == "short":
            kept = max(1, int(len(data) * fault.keep))
            self._buffer.append(data[:kept])
            self._flush_buffer()
            self._store._die()
            raise InjectedFault(errno.EIO, "injected: short write then crash")
        # "crash": nothing of this write — or the unflushed tail — lands.
        self._store._die()
        raise InjectedFault(errno.EIO, "injected: crash before write")

    def flush(self) -> None:
        self._store._check_dead()
        self._flush_buffer()

    def fsync(self) -> None:
        self._store._check_dead()
        fault = self._store._next_fault("fsync")
        if fault is not None:
            # Data reached the file, durability was refused.
            self._flush_buffer()
            raise InjectedFault(errno.EIO, "injected: fsync failure")
        self._flush_buffer()
        os.fsync(self._f.fileno())

    def close(self) -> None:
        if self._f.closed:
            return
        if not self._store.dead:
            self._flush_buffer()
        self._f.close()

    def abandon(self) -> None:
        """Close the real file without flushing the buffer (crash path)."""
        self._buffer = []
        if not self._f.closed:
            self._f.close()

    @property
    def closed(self) -> bool:
        return self._f.closed


class FaultyStore(Store):
    """A :class:`Store` that fires scheduled faults at exact ordinals.

    Operation ordinals count per ``op`` kind across the store's whole
    lifetime (all handles), so a fault schedule derived from a seed is
    reproducible regardless of how many handles the caller opens.
    """

    def __init__(self, faults: Optional[List[Fault]] = None):
        self.faults = list(faults or [])
        self.write_ops = 0
        self.fsync_ops = 0
        #: (op, ordinal, kind) of every fault that actually fired.
        self.fired: List[Tuple[str, int, str]] = []
        self.dead = False
        self._handles: List[_FaultyHandle] = []

    def _next_fault(self, op: str) -> Optional[Fault]:
        if op == "write":
            self.write_ops += 1
            ordinal = self.write_ops
        else:
            self.fsync_ops += 1
            ordinal = self.fsync_ops
        for fault in self.faults:
            if fault.op == op and fault.at == ordinal:
                self.fired.append((op, ordinal, fault.kind))
                return fault
        return None

    def _die(self) -> None:
        self.dead = True

    def _check_dead(self) -> None:
        if self.dead:
            raise InjectedFault(errno.EIO, "store crashed earlier")

    def crash(self) -> None:
        """Simulate process death: drop every unflushed buffer."""
        self.dead = True
        for handle in self._handles:
            handle.abandon()

    def open(self, path: str, mode: str = "a") -> _FaultyHandle:
        self._check_dead()
        if mode not in ("a", "w"):
            raise ValueError("journal handles append or rewrite, not " + mode)
        handle = _FaultyHandle(self, open(path, mode + "b"))
        self._handles.append(handle)
        return handle
