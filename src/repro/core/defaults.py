"""The unified return-kind defaults table.

When a generated wrapper's pre-check fails, Jinn skips the raw call and
hands back the return type's *zero value* — preventing the undefined
behaviour instead of merely observing it.  The synthesizer embeds that
value as a source *literal*, derived from the value table below, so
the two cannot drift (a test evaluates the literal of every JNI and
Python/C return kind against the table).

Return kinds absent from the table are reference or pointer kinds whose
zero value is the null handle — ``None`` in the simulator.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Zero value per primitive FFI return kind.  Reference/pointer kinds
#: (jobject, jclass, buffer, ...) deliberately fall through to None.
RETURN_DEFAULTS: Dict[str, object] = {
    "void": None,
    "jboolean": False,
    "jint": 0,
    "jsize": 0,
    "jlong": 0,
    "jbyte": 0,
    "jchar": "\0",
    "jshort": 0,
    "jfloat": 0.0,
    "jdouble": 0.0,
    "jobjectRefType": 0,
    # Python/C return kinds (paper §7): the C convention's error values
    # are produced by the raw functions themselves, so wrappers hand back
    # the neutral zero value for non-object returns.
    "int": 0,
    "str": None,
    "object": None,
    "handle": None,
}

#: Source literal per return kind, derived from the value table so the
#: generated-code view and the runtime view are consistent by
#: construction.
RETURN_DEFAULT_LITERALS: Dict[str, str] = {
    kind: repr(value) for kind, value in RETURN_DEFAULTS.items()
}


def default_literal(return_kind: str) -> str:
    """Source literal of a return kind's zero value (None for references)."""
    return RETURN_DEFAULT_LITERALS.get(return_kind, "None")


def describe(return_kind: str) -> Optional[str]:
    """Human-readable ``kind -> literal`` line (for the CLI)."""
    return "{:<15} -> {}".format(return_kind, default_literal(return_kind))
