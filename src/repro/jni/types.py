"""Opaque JNI handle types.

Native code never touches JVM objects directly; it holds *handles* —
``jobject`` references (local, global, weak-global), ``jmethodID`` /
``jfieldID`` entity IDs, and raw buffers obtained from pinned strings and
arrays.  These classes are those handles.  They are deliberately opaque:
the simulator's "C code" can store, copy, and pass them around, and the
raw JNI layer decides (per vendor policy) what happens when a stale or
mistyped handle is dereferenced.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.jvm.model import JObject

_ref_serials = itertools.count(1)


def reset_ref_serials() -> None:
    """Restart the jobject serial counter (called at JavaVM creation).

    Serials only need to be unique within one VM — the checkers key
    per-VM state by them — and restarting per VM keeps violation report
    text deterministic run over run, whatever the process did earlier.
    """
    global _ref_serials
    _ref_serials = itertools.count(1)


class JRef:
    """An opaque ``jobject`` reference.

    Attributes:
        kind: "local", "global", or "weak".
        target: the referenced object; a cleared weak reference has
            target None.  A *dead* reference (deleted, or local to a frame
            that has been popped) keeps its last target for the benefit of
            vendors that "work by accident" on dangling references, but
            ``alive`` is False.
        owner_thread: for local references, the thread whose frame owns
            the reference; JNI forbids using them from any other thread.
    """

    __slots__ = ("kind", "target", "alive", "owner_thread", "serial")

    def __init__(self, kind: str, target: Optional[JObject], owner_thread=None):
        self.kind = kind
        self.target = target
        self.alive = True
        self.owner_thread = owner_thread
        self.serial = next(_ref_serials)

    def describe(self) -> str:
        state = "" if self.alive else " (dead)"
        what = self.target.describe() if self.target is not None else "<cleared>"
        return "{} ref #{} -> {}{}".format(self.kind, self.serial, what, state)

    def __repr__(self):
        return "<JRef {}>".format(self.describe())


class JMethodID:
    """An opaque ``jmethodID``; wraps the resolved :class:`JMethod`."""

    __slots__ = ("method",)

    def __init__(self, method):
        self.method = method

    def describe(self) -> str:
        return "jmethodID({})".format(self.method.describe())

    def __repr__(self):
        return "<{}>".format(self.describe())


class JFieldID:
    """An opaque ``jfieldID``; wraps the resolved :class:`JField`."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def describe(self) -> str:
        return "jfieldID({})".format(self.field.describe())

    def __repr__(self):
        return "<{}>".format(self.describe())


class NativeBuffer:
    """Direct access to a pinned/copied string or array (paper §5.3).

    Returned by ``Get<Type>ArrayElements``, ``GetString[UTF]Chars``, and
    the two ``*Critical`` functions.  The buffer must be released with the
    matching ``Release*`` call; releasing twice is a double-free and never
    releasing is a leak.

    Attributes:
        data: mutable list of elements (chars for strings).
        is_copy: whether the VM copied rather than pinned.
        nul_terminated: for string buffers — whether a trailing NUL is
            present (vendor-dependent; pitfall 8).
    """

    __slots__ = (
        "source",
        "data",
        "is_copy",
        "freed",
        "critical",
        "nul_terminated",
    )

    def __init__(
        self,
        source: JObject,
        data: List,
        *,
        is_copy: bool = True,
        critical: bool = False,
        nul_terminated: bool = False,
    ):
        self.source = source
        self.data = data
        self.is_copy = is_copy
        self.freed = False
        self.critical = critical
        self.nul_terminated = nul_terminated

    def read(self, index: int):
        """Read one element, as C pointer arithmetic would.

        Reading a freed buffer is use-after-free; reading past the end of
        a string buffer with no NUL terminator is pitfall 8's over-read.
        Both are *C-side* behaviours the simulator surfaces via IndexError
        / ValueError for the workloads to map onto vendor reactions.
        """
        if self.freed:
            raise ValueError("read of released buffer")
        if index == len(self.data) and self.nul_terminated:
            return "\0"
        if index >= len(self.data):
            raise IndexError("read past end of buffer")
        return self.data[index]

    def write(self, index: int, value) -> None:
        if self.freed:
            raise ValueError("write to released buffer")
        self.data[index] = value

    def describe(self) -> str:
        kind = "critical " if self.critical else ""
        return "{}buffer over {} ({} elements)".format(
            kind, self.source.describe(), len(self.data)
        )

