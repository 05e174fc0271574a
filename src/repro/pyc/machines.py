"""State machine specifications for the Python/C FFI (paper Section 7).

The same three constraint classes as JNI apply:

- *interpreter state*: the GIL machine and the exception-state machine;
- *resource*: the co-owned/borrowed reference machines, including the
  paper's §7.2 use-after-release checker for borrowed references
  (Figure 11's ``first`` borrowing from ``pythons``);
- type constraints are performed dynamically by the interpreter itself
  for this API subset and are left to it, as §7.1 discusses.

Direction vocabulary maps as: ``Call:C->Java`` = C calls an API function,
``Return:Java->C`` = the API function returns, ``Call:Java->C`` = the
interpreter invokes an extension, ``Return:C->Java`` = it returns.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    FunctionSelector,
    LanguageTransition,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.fsm.errors import FFIViolation
from repro.fsm.machine import NATIVE_METHOD
from repro.fsm.registry import SpecRegistry
from repro.pyc.objects import PyObj


def _selector(description, predicate) -> FunctionSelector:
    return FunctionSelector(description, lambda m: m is not None and predicate(m))


def _violation(message, machine, error_state, function=None, entity=None):
    return FFIViolation(
        message,
        machine=machine,
        error_state=error_state,
        function=function,
        entity=entity,
    )


# ======================================================================
# Borrowed references: the §7.2 use-after-release checker
# ======================================================================

VALID = State("Valid borrow")
INVALID = State("Invalid borrow")
ERROR_DANGLING = State("Error: dangling borrowed reference", is_error=True)

BORROWERS = _selector(
    "API function returning a borrowed reference",
    lambda m: m.ref_kind == "borrowed" and m.borrow_from is not None,
)
RELINQUISHERS = _selector(
    "Py_DecRef / Py_XDecRef",
    lambda m: m.count_effect is not None and m.count_effect[1] < 0,
)
OBJECT_TAKING = _selector(
    "API function taking object parameters", lambda m: bool(m.object_params)
)


class BorrowedRefEncoding(Encoding):
    """Tracks borrows and invalidates them when the owner is relinquished.

    The per-crossing methods allocate only state they keep (a new
    owner's borrow set), never a throwaway default.
    """

    def __init__(self, spec, interp):
        super().__init__(spec)
        self.interp = interp
        #: owner serial -> set of borrowed serials.
        self.borrows_by_owner: Dict[int, Set[int]] = {}
        #: borrowed serial -> owner serial, while the borrow is valid.
        self.owner_of: Dict[int, int] = {}
        #: borrowed serials whose owner has been relinquished.
        self.invalid: Set[int] = set()

    def borrow(self, api, function: str, owner, result) -> None:
        if not isinstance(result, PyObj) or not isinstance(owner, PyObj):
            return
        serial = result.serial
        borrows = self.borrows_by_owner.get(owner.serial)
        if borrows is None:
            self.borrows_by_owner[owner.serial] = {serial}
        else:
            borrows.add(serial)
        self.owner_of[serial] = owner.serial
        self.invalid.discard(serial)

    def relinquish(self, api, function: str, owner) -> None:
        if not isinstance(owner, PyObj):
            return
        borrows = self.borrows_by_owner.pop(owner.serial, None)
        if borrows is None:
            return
        for serial in borrows:
            self.invalid.add(serial)
            self.owner_of.pop(serial, None)

    def borrow_parsed(self, api, function: str, args_tuple, result) -> None:
        """``PyArg_ParseTuple`` "O" conversions borrow from the tuple."""
        if not isinstance(result, tuple):
            return
        for value in result:
            if isinstance(value, PyObj):
                self.borrow(api, function, args_tuple, value)

    def promote(self, api, function: str, obj) -> None:
        """``Py_IncRef`` on a borrow makes C a co-owner: stop tracking.

        The safe idiom for keeping a borrowed reference past its owner's
        lifetime is to increment its count; the borrow then stops being a
        borrow.
        """
        if not isinstance(obj, PyObj):
            return
        serial = obj.serial
        owner_serial = self.owner_of.pop(serial, None)
        if owner_serial is not None:
            borrows = self.borrows_by_owner.get(owner_serial)
            if borrows is not None:
                borrows.discard(serial)
        self.invalid.discard(serial)

    def check_use(self, api, function: str, args, indices) -> None:
        for index in indices:
            value = args[index] if index < len(args) else None
            if not isinstance(value, PyObj):
                continue
            if value.serial in self.invalid:
                raise _violation(
                    "Use of borrowed reference {} after its owner was "
                    "released in {}.".format(value.describe(), function),
                    self.spec.name,
                    ERROR_DANGLING.name,
                    function,
                    value.describe(),
                )
            if value.freed:
                raise _violation(
                    "Use of freed object {} in {}.".format(
                        value.describe(), function
                    ),
                    self.spec.name,
                    ERROR_DANGLING.name,
                    function,
                    value.describe(),
                )

    def reset(self) -> None:
        self.borrows_by_owner.clear()
        self.owner_of.clear()
        self.invalid.clear()


class BorrowedRefSpec(StateMachineSpec):
    name = "borrowed_ref"
    observed_entity = "a borrowed Python/C reference"
    errors_discovered = ("dangling borrowed reference",)
    constraint_class = "resource"

    def states(self):
        return (VALID, INVALID, ERROR_DANGLING)

    def state_transitions(self):
        return (
            StateTransition(VALID, INVALID, "owner relinquished"),
            StateTransition(INVALID, ERROR_DANGLING, "use"),
        )

    def language_transitions_for(self, transition):
        if transition.label == "owner relinquished":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED,
                    RELINQUISHERS,
                    EntitySelector.ALL_PARAMETERS,
                ),
            )
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED,
                OBJECT_TAKING,
                EntitySelector.ALL_PARAMETERS,
            ),
            LanguageTransition(
                Direction.RETURN_MANAGED_TO_NATIVE,
                BORROWERS,
                EntitySelector.REFERENCE_RETURN,
            ),
        )

    def make_encoding(self, interp):
        return BorrowedRefEncoding(self, interp)

    def emit(self, meta, direction):
        if meta is None:
            return []
        lines = []
        if direction is Direction.CALL_NATIVE_TO_MANAGED:
            is_refcount_op = (
                meta.count_effect is not None and meta.name.startswith("Py_")
            )
            if meta.object_params and not is_refcount_op:
                lines.append(
                    'rt.borrowed_ref.check_use(env, "{}", args, {!r})'.format(
                        meta.name, tuple(meta.object_params)
                    )
                )
            if is_refcount_op:
                index, delta = meta.count_effect
                if delta < 0:
                    lines.append(
                        'rt.borrowed_ref.relinquish(env, "{}", args[{}])'.format(
                            meta.name, index
                        )
                    )
                else:
                    lines.append(
                        'rt.borrowed_ref.promote(env, "{}", args[{}])'.format(
                            meta.name, index
                        )
                    )
        elif direction is Direction.RETURN_MANAGED_TO_NATIVE:
            if meta.ref_kind == "borrowed" and meta.borrow_from is not None:
                lines.append(
                    'rt.borrowed_ref.borrow(env, "{}", args[{}], result)'.format(
                        meta.name, meta.borrow_from
                    )
                )
            elif meta.name == "PyArg_ParseTuple":
                lines.append(
                    'rt.borrowed_ref.borrow_parsed('
                    'env, "PyArg_ParseTuple", args[0], result)'
                )
        return lines


# ======================================================================
# Co-owned references: leaks and over-releases
# ======================================================================

OWNED = State("Co-owned by C")
RELEASED = State("Released")
ERROR_LEAK = State("Error: leak", is_error=True)
ERROR_OVER_RELEASE = State("Error: over-release", is_error=True)

NEW_RETURNING = _selector(
    "API function returning a new reference", lambda m: m.ref_kind == "new"
)
INCREFFERS = _selector(
    "Py_IncRef / Py_XIncRef",
    lambda m: m.count_effect is not None
    and m.count_effect[1] > 0
    and m.name.startswith("Py_"),
)
STEALERS = _selector(
    "reference-stealing setters", lambda m: m.steals is not None
)


#: Objects at or above this count (``None``, ``True``, ...) are immortal:
#: no C code owns them.
_IMMORTAL = 1 << 29


class OwnedRefEncoding(Encoding):
    def __init__(self, spec, interp):
        super().__init__(spec)
        self.interp = interp
        #: object serial -> (obj, C-held ownership count)
        self.owned: Dict[int, list] = {}

    def acquire(self, api, function: str, obj) -> None:
        if not isinstance(obj, PyObj) or obj.ob_refcnt >= _IMMORTAL:
            return
        entry = self.owned.get(obj.serial)
        if entry is None:
            self.owned[obj.serial] = [obj, 1]
        else:
            entry[1] += 1

    def release(self, api, function: str, obj) -> None:
        if not isinstance(obj, PyObj) or obj.ob_refcnt >= _IMMORTAL:
            return
        entry = self.owned.get(obj.serial)
        if entry is None or entry[1] == 0:
            raise _violation(
                "{} releases a reference C does not own ({}).".format(
                    function, obj.describe()
                ),
                self.spec.name,
                ERROR_OVER_RELEASE.name,
                function,
                obj.describe(),
            )
        entry[1] -= 1
        if entry[1] == 0:
            del self.owned[obj.serial]

    def steal(self, api, function: str, obj) -> None:
        """Ownership transferred into the container: no longer C's."""
        if not isinstance(obj, PyObj) or obj.ob_refcnt >= _IMMORTAL:
            return
        entry = self.owned.get(obj.serial)
        if entry is not None:
            entry[1] -= 1
            if entry[1] <= 0:
                del self.owned[obj.serial]

    def transfer_to_python(self, api, function: str, obj) -> None:
        """A new reference returned from the extension to Python."""
        self.steal(api, function, obj)

    def at_termination(self) -> List[str]:
        return [
            "reference co-owned by C never released: {}".format(obj.describe())
            for obj, count in self.owned.values()
            if count > 0 and not obj.freed
        ]

    def reset(self) -> None:
        self.owned.clear()


class OwnedRefSpec(StateMachineSpec):
    name = "owned_ref"
    observed_entity = "a reference co-owned by C"
    errors_discovered = ("leak", "over-release")
    constraint_class = "resource"

    def states(self):
        return (OWNED, RELEASED, ERROR_LEAK, ERROR_OVER_RELEASE)

    def state_transitions(self):
        return (
            StateTransition(RELEASED, OWNED, "acquire"),
            StateTransition(OWNED, RELEASED, "release"),
            StateTransition(RELEASED, ERROR_OVER_RELEASE, "release"),
            StateTransition(OWNED, ERROR_LEAK, "program termination"),
        )

    def language_transitions_for(self, transition):
        everything = EntitySelector.ALL_PARAMETERS
        if transition.label == "acquire":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE, NEW_RETURNING, everything
                ),
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, INCREFFERS, everything
                ),
            )
        if transition.label == "release":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, RELINQUISHERS, everything
                ),
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, STEALERS, everything
                ),
                LanguageTransition(
                    Direction.RETURN_NATIVE_TO_MANAGED, NATIVE_METHOD, everything
                ),
            )
        return ()

    def make_encoding(self, interp):
        return OwnedRefEncoding(self, interp)

    def emit(self, meta, direction):
        if meta is None:
            if direction is Direction.RETURN_NATIVE_TO_MANAGED:
                return [
                    "rt.owned_ref.transfer_to_python(env, method_name, result)"
                ]
            return []
        lines = []
        if direction is Direction.RETURN_MANAGED_TO_NATIVE:
            if meta.ref_kind == "new":
                lines.append(
                    'rt.owned_ref.acquire(env, "{}", result)'.format(meta.name)
                )
        elif direction is Direction.CALL_NATIVE_TO_MANAGED:
            if meta.count_effect is not None:
                index, delta = meta.count_effect
                if delta > 0 and meta.name.startswith("Py_"):
                    lines.append(
                        'rt.owned_ref.acquire(env, "{}", args[{}])'.format(
                            meta.name, index
                        )
                    )
                elif delta < 0:
                    lines.append(
                        'rt.owned_ref.release(env, "{}", args[{}])'.format(
                            meta.name, index
                        )
                    )
            if meta.steals is not None:
                lines.append(
                    'rt.owned_ref.steal(env, "{}", args[{}])'.format(
                        meta.name, meta.steals
                    )
                )
        return lines


# ======================================================================
# Type constraints (the §7.1 extension: "A dynamic analysis based on the
# type constraints of Section 5.2 would enable reliable detection of
# these errors, at the cost of reintroducing dynamic checking")
# ======================================================================

TYPE_CHECKED = State("Checked")
ERROR_TYPE = State("Error: type mismatch", is_error=True)

TYPED = _selector(
    "API function with a fixed-typed parameter", lambda m: bool(m.expected_types)
)


class PyFixedTypingEncoding(Encoding):
    """Stateless checks of the interpreter's skipped fast-path types."""

    def __init__(self, spec, interp):
        super().__init__(spec)
        self.interp = interp

    def require_type(self, api, function: str, args, index, expected) -> None:
        value = args[index] if index < len(args) else None
        if not isinstance(value, PyObj) or value.freed:
            return  # null/freed are other machines' business
        actual = value.type_name
        ok = (
            actual in expected
            if isinstance(expected, tuple)
            else actual == expected
        )
        if not ok:
            raise _violation(
                "Parameter {} of {} is a {} but must be {}.".format(
                    index,
                    function,
                    actual,
                    " or ".join(expected)
                    if isinstance(expected, tuple)
                    else expected,
                ),
                self.spec.name,
                ERROR_TYPE.name,
                function,
                value.describe(),
            )


class PyFixedTypingSpec(StateMachineSpec):
    name = "py_fixed_typing"
    observed_entity = "an object parameter"
    errors_discovered = ("Python type mismatch",)
    constraint_class = "type"

    def states(self):
        return (TYPE_CHECKED, ERROR_TYPE)

    def state_transitions(self):
        return (StateTransition(TYPE_CHECKED, ERROR_TYPE, "api call"),)

    def language_transitions_for(self, transition):
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED,
                TYPED,
                EntitySelector.ALL_PARAMETERS,
            ),
        )

    def make_encoding(self, interp):
        return PyFixedTypingEncoding(self, interp)

    def emit(self, meta, direction):
        if (
            meta is None
            or direction is not Direction.CALL_NATIVE_TO_MANAGED
            or not meta.expected_types
        ):
            return []
        return [
            'rt.py_fixed_typing.require_type(env, "{}", args, {}, {!r})'.format(
                meta.name, index, expected
            )
            for index, expected in meta.expected_types
        ]


# ======================================================================
# GIL state
# ======================================================================

GIL_HELD = State("GIL held")
GIL_RELEASED = State("GIL released")
ERROR_NO_GIL = State("Error: API call without the GIL", is_error=True)

GIL_REQUIRING = _selector(
    "API function requiring the GIL", lambda m: not m.gil_free
)


class GILStateEncoding(Encoding):
    def __init__(self, spec, interp):
        super().__init__(spec)
        self.interp = interp

    def check_held(self, api, function: str) -> None:
        interp = self.interp
        if interp.gil_holder != interp.current_thread:
            raise _violation(
                "{} called by {} without holding the GIL (held by {}).".format(
                    function, interp.current_thread, interp.gil_holder
                ),
                self.spec.name,
                ERROR_NO_GIL.name,
                function,
            )


class GILStateSpec(StateMachineSpec):
    name = "gil_state"
    observed_entity = "a thread"
    errors_discovered = ("API call without the GIL",)
    constraint_class = "jvm-state"

    def states(self):
        return (GIL_HELD, GIL_RELEASED, ERROR_NO_GIL)

    def state_transitions(self):
        return (
            StateTransition(GIL_RELEASED, GIL_HELD, "acquire"),
            StateTransition(GIL_HELD, GIL_RELEASED, "release"),
            StateTransition(GIL_RELEASED, ERROR_NO_GIL, "api call"),
        )

    def language_transitions_for(self, transition):
        thread = EntitySelector.THREAD
        if transition.label == "acquire":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE,
                    _selector(
                        "PyGILState_Ensure or PyEval_RestoreThread",
                        lambda m: m.name
                        in ("PyGILState_Ensure", "PyEval_RestoreThread"),
                    ),
                    thread,
                ),
            )
        if transition.label == "release":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED,
                    _selector(
                        "PyGILState_Release or PyEval_SaveThread",
                        lambda m: m.name
                        in ("PyGILState_Release", "PyEval_SaveThread"),
                    ),
                    thread,
                ),
            )
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED, GIL_REQUIRING, thread
            ),
            LanguageTransition(
                Direction.CALL_MANAGED_TO_NATIVE, NATIVE_METHOD, thread
            ),
        )

    def make_encoding(self, interp):
        return GILStateEncoding(self, interp)

    def emit(self, meta, direction):
        if meta is None:
            if direction is Direction.CALL_MANAGED_TO_NATIVE:
                return ["rt.gil_state.check_held(env, method_name)"]
            return []
        if (
            direction is Direction.CALL_NATIVE_TO_MANAGED
            and not meta.gil_free
        ):
            return ['rt.gil_state.check_held(env, "{}")'.format(meta.name)]
        return []


# ======================================================================
# Exception state
# ======================================================================

PYC_NO_EXC = State("No exception")
PYC_PENDING = State("Exception pending")
ERROR_PENDING = State("Error: unhandled exception", is_error=True)

EXC_SENSITIVE = _selector(
    "exception-sensitive API function", lambda m: not m.exception_oblivious
)


class PyExceptionStateEncoding(Encoding):
    def __init__(self, spec, interp):
        super().__init__(spec)
        self.interp = interp

    def check_sensitive(self, api, function: str) -> None:
        if self.interp.exc_info is not None:
            raise _violation(
                "An exception is pending in {} ({}).".format(
                    function, self.interp.exc_info[0]
                ),
                self.spec.name,
                ERROR_PENDING.name,
                function,
            )


class PyExceptionStateSpec(StateMachineSpec):
    name = "py_exception_state"
    observed_entity = "the interpreter"
    errors_discovered = ("unhandled Python exception",)
    constraint_class = "jvm-state"

    def states(self):
        return (PYC_NO_EXC, PYC_PENDING, ERROR_PENDING)

    def state_transitions(self):
        return (
            StateTransition(PYC_NO_EXC, PYC_PENDING, "exception raised"),
            StateTransition(PYC_PENDING, PYC_NO_EXC, "cleared"),
            StateTransition(PYC_PENDING, ERROR_PENDING, "sensitive call"),
        )

    def language_transitions_for(self, transition):
        thread = EntitySelector.THREAD
        if transition.label == "sensitive call":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, EXC_SENSITIVE, thread
                ),
            )
        if transition.label == "cleared":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED,
                    _selector(
                        "PyErr_Clear or PyErr_Fetch",
                        lambda m: m.name in ("PyErr_Clear", "PyErr_Fetch"),
                    ),
                    thread,
                ),
            )
        return (
            LanguageTransition(
                Direction.RETURN_MANAGED_TO_NATIVE, EXC_SENSITIVE, thread
            ),
        )

    def make_encoding(self, interp):
        return PyExceptionStateEncoding(self, interp)

    def emit(self, meta, direction):
        if (
            meta is None
            or direction is not Direction.CALL_NATIVE_TO_MANAGED
            or meta.exception_oblivious
        ):
            return []
        return [
            'rt.py_exception_state.check_sensitive(env, "{}")'.format(meta.name)
        ]


#: The Python/C specs in checking order, built and validated once per
#: process, at import.
_REGISTRY = SpecRegistry(
    [
        GILStateSpec(),
        PyExceptionStateSpec(),
        PyFixedTypingSpec(),
        BorrowedRefSpec(),
        OwnedRefSpec(),
    ]
)


def build_pyc_registry() -> SpecRegistry:
    """A new registry of the Python/C machines in checking order,
    validated and fingerprinted once per process; every registry it
    returns shares the same immutable spec instances
    (:meth:`SpecRegistry.copy`)."""
    return _REGISTRY.copy()
