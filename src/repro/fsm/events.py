"""Language transitions as dynamic events.

A *language transition* is a control transfer that crosses the foreign
function interface.  For a Java/C program there are exactly four kinds
(paper, Section 3.2): a call from Java into a native method, the matching
return, a call from C into the JVM through a JNI function, and the matching
return.  The Python/C checker reuses the same four kinds with "Java"
replaced by "the interpreter".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class Direction(enum.Enum):
    """The four language-transition kinds of the paper."""

    #: Java (managed) code invokes a native method.
    CALL_MANAGED_TO_NATIVE = "Call:Java->C"
    #: A native method returns to Java (managed) code.
    RETURN_NATIVE_TO_MANAGED = "Return:C->Java"
    #: Native code calls into the managed runtime through an FFI function.
    CALL_NATIVE_TO_MANAGED = "Call:C->Java"
    #: An FFI function returns back to native code.
    RETURN_MANAGED_TO_NATIVE = "Return:Java->C"


class Site(enum.Enum):
    """Where instrumentation is placed inside a synthesized wrapper.

    Algorithm 1 adds code "to the start or end of w, depending on whether
    e.direction is Call or Return".  ``PRE`` is the start of the wrapper
    (the call crossing), ``POST`` is the end (the return crossing).
    """

    PRE = "pre"
    POST = "post"


#: Which wrapper site observes each direction, for wrappers around FFI
#: functions (called *from* native code) and around native methods (called
#: *from* managed code).
FFI_FUNCTION_SITES = {
    Direction.CALL_NATIVE_TO_MANAGED: Site.PRE,
    Direction.RETURN_MANAGED_TO_NATIVE: Site.POST,
}
NATIVE_METHOD_SITES = {
    Direction.CALL_MANAGED_TO_NATIVE: Site.PRE,
    Direction.RETURN_NATIVE_TO_MANAGED: Site.POST,
}


@dataclass
class LanguageEvent:
    """A single dynamic crossing of the language boundary.

    Attributes:
        direction: which of the four transition kinds occurred.
        function: the FFI function name (e.g. ``"CallStaticVoidMethodA"``)
            or the native method's mangled name.
        is_native_method: True when the crossing is a native-method call or
            return rather than an FFI-function call or return.
    """

    direction: Direction
    function: str
    is_native_method: bool = False


@dataclass
class EventContext:
    """Everything an encoding may inspect when handling an event.

    Instances are created by the replay engine at every recorded
    boundary crossing and passed to
    :meth:`repro.fsm.machine.Encoding.on_event` (the interpretive path);
    generated wrapper code passes the same facts as arguments instead.

    Attributes:
        event: the boundary crossing itself.
        env: the foreign interface environment (a ``JNIEnv`` for JNI).
        thread: the runtime thread performing the crossing.
        args: positional arguments of the call, *excluding* the leading
            environment pointer.
        kwargs: named arguments, for FFI surfaces that use them.
        result: the call's result; only meaningful at ``Site.POST``.
        meta: the FFI function's static metadata record, if the crossing
            is an FFI function call/return (None for native methods).
    """

    event: LanguageEvent
    env: Any
    thread: Any
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    result: Any = None
    meta: Optional[Any] = None
