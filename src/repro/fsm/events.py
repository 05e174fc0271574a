"""Language transitions: their four directions and the wrapper sites.

A *language transition* is a control transfer that crosses the foreign
function interface.  For a Java/C program there are exactly four kinds
(paper, Section 3.2): a call from Java into a native method, the matching
return, a call from C into the JVM through a JNI function, and the matching
return.  The Python/C checker reuses the same four kinds with "Java"
replaced by "the interpreter".  The synthesized entries observe each
dynamic crossing at the site its direction maps to.
"""

from __future__ import annotations

import enum


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
