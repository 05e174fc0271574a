"""Shared helpers for the eleven JNI state machine specifications."""

from __future__ import annotations

from repro.fsm.errors import FFIViolation
from repro.fsm.machine import FunctionSelector
from repro.jni.types import JRef


def violation(message, *, machine, error_state, function=None, entity=None):
    """Construct the FFIViolation an encoding raises on an error state."""
    return FFIViolation(
        message,
        machine=machine,
        error_state=error_state,
        function=function,
        entity=entity,
    )


def peek(handle):
    """Read a handle's target without raw-layer vendor consequences.

    Jinn is JVM-cooperating code: the real tool inspects objects through
    safe JNI calls; the simulator's equivalent is reading the handle's
    target cell directly.  Returns None for null, dead, cleared, or
    non-reference handles.
    """
    if isinstance(handle, JRef):
        return handle.target
    return None


class ClassResolver:
    """Per-VM memo of class lookups for the typing machines.

    Only positive answers are kept, keyed by the name or the class
    object itself: the VM never redefines or unloads a class, so a found
    class stays right, while a miss may become a hit once the class is
    defined.  It offers the VM's ``find_class``, so ``conforms`` and
    ``value_conforms`` take it in the VM's place.
    """

    __slots__ = ("vm", "_by_name", "_by_object")

    def __init__(self, vm):
        self.vm = vm
        self._by_name = {}
        self._by_object = {}

    def find_class(self, name):
        jclass = self._by_name.get(name)
        if jclass is None:
            jclass = self.vm.find_class(name)
            if jclass is not None:
                self._by_name[name] = jclass
        return jclass

    def class_of_class_object(self, class_object):
        jclass = self._by_object.get(class_object)
        if jclass is None:
            jclass = self.vm.class_of_class_object(class_object)
            if jclass is not None:
                self._by_object[class_object] = jclass
        return jclass


def selector(description, predicate) -> FunctionSelector:
    """A FunctionSelector over JNI metadata that never matches native
    methods (meta None)."""
    return FunctionSelector(
        description, lambda m: m is not None and predicate(m)
    )


#: Selectors reused across machines.
ANY_JNI_FUNCTION = selector("any JNI function", lambda m: True)
REF_TAKING = selector(
    "JNI function taking a reference", lambda m: bool(m.reference_param_indices)
)
REF_RETURNING = selector(
    "JNI function returning a reference", lambda m: m.returns_reference
)
