"""Resource machine 11: local references.

Paper Figures 2 and 8 (fourth machine) — the machine that detects the
running GNOME bug 576111 example.  Observed entity: a local JNI
reference.  Errors discovered: overflow, leak, dangling, and double free.
State machine encoding: for each thread, a stack of frames; each frame
has a capacity and a list of local references.

Acquire: a native method receives reference arguments (Call:Java->C), or
a JNI function returns a reference (Return:Java->C).  Release:
``DeleteLocalRef`` / ``PopLocalFrame``, or the native method returns to
Java (Return:C->Java), which kills the whole implicit frame.  Use: a JNI
function takes a reference (Call:C->Java), or a native method returns a
reference (Return:C->Java).  Using a released reference is the
``Error: dangling`` state of Figure 2; acquiring beyond the frame's
capacity is overflow; an explicit frame never popped is a leak; deleting
twice (or popping with nothing to pop) is a double free.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    LanguageTransition,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.fsm.machine import NATIVE_METHOD
from repro.jinn.machines.common import REF_RETURNING, REF_TAKING, selector, violation
from repro.jni.types import JRef

BEFORE = State("Before acquire")
ACQUIRED = State("Acquired")
RELEASED = State("Released")
ERROR_DANGLING = State("Error: dangling", is_error=True)
ERROR_OVERFLOW = State("Error: overflow", is_error=True)
ERROR_LEAK = State("Error: leak", is_error=True)
ERROR_DOUBLE_FREE = State("Error: double free", is_error=True)

DELETE = selector("DeleteLocalRef", lambda m: m.name == "DeleteLocalRef")
PUSH = selector("PushLocalFrame", lambda m: m.name == "PushLocalFrame")
POP = selector("PopLocalFrame", lambda m: m.name == "PopLocalFrame")
ENSURE = selector(
    "EnsureLocalCapacity", lambda m: m.name == "EnsureLocalCapacity"
)


class _Frame:
    __slots__ = ("capacity", "refs", "implicit")

    def __init__(self, capacity: int, implicit: bool):
        self.capacity = capacity
        self.refs: Set[int] = set()
        self.implicit = implicit


#: The live-serial view of a thread that never crossed the boundary.
_NOTHING: Dict[int, int] = {}


def _unhold(live: Dict[int, int], serial: int) -> None:
    """One fewer frame holds ``serial``; forget it when none does."""
    count = live[serial]
    if count == 1:
        del live[serial]
    else:
        live[serial] = count - 1


class LocalRefEncoding(Encoding):
    """Per-thread frame stacks mirroring the JVM's local-reference state.

    This is Jinn's *own* bookkeeping (the thread-local ``refs`` set of
    the paper's Figure 3), independent of the JVM's tables.  Beside the
    frames, each thread keeps a count of the frames holding each live
    serial, maintained on acquire, release and frame kill, so the
    Figure 4 ``jinn_refs_contains`` guard is one membership test.
    """

    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        #: thread id -> stack of frames.
        self.stacks: Dict[int, List[_Frame]] = {}
        #: thread id -> {serial -> number of that thread's frames holding it}.
        self.live: Dict[int, Dict[int, int]] = {}
        #: ref serial -> owning thread id, for wrong-thread diagnostics.
        self.owner: Dict[int, int] = {}
        #: serials ever released, to tell double-free from never-acquired.
        self.released: Set[int] = set()
        #: Live-count time series (Figure 10) when enabled.
        self.record_history = False
        self.history: List[int] = []

    # -- frame management ----------------------------------------------------

    def _stack(self, thread) -> List[_Frame]:
        stack = self.stacks.get(thread.thread_id)
        if stack is None:
            stack = self.stacks[thread.thread_id] = []
            self.live[thread.thread_id] = {}
        return stack

    def _top(self, thread) -> _Frame:
        stack = self._stack(thread)
        if not stack:
            stack.append(_Frame(self.vm.local_frame_capacity, implicit=True))
        return stack[-1]

    def enter_native(self, env, thread, method_name: str, handles) -> None:
        """Call:Java->C — push the implicit frame, acquire ref args."""
        stack = self._stack(thread)
        stack.append(_Frame(self.vm.local_frame_capacity, implicit=True))
        for handle in handles:
            if isinstance(handle, JRef):
                self._acquire(thread, handle, method_name)

    def exit_native(self, env, thread, method_name: str, result) -> None:
        """Return:C->Java — use-check the result, then kill the frame.

        The frame mirror is cleaned up even when a violation is raised,
        so one error does not corrupt subsequent checking.
        """
        error = None
        try:
            self.check_use_single(env, thread, method_name, result)
        except Exception as exc:  # FFIViolation; re-raised after cleanup
            error = exc
        stack = self._stack(thread)
        leaked = 0
        while stack and not stack[-1].implicit:
            self._kill_frame(thread, stack.pop())
            leaked += 1
        if stack:
            self._kill_frame(thread, stack.pop())
        if error is None and leaked:
            error = violation(
                "{} returned to Java with {} local frame(s) pushed but "
                "never popped (leak).".format(method_name, leaked),
                machine=self.spec.name,
                error_state=ERROR_LEAK.name,
                function=method_name,
            )
        if error is not None:
            raise error

    def push_frame(self, env, thread, function: str, capacity, result) -> None:
        if result == 0:
            self._stack(thread).append(_Frame(int(capacity), implicit=False))

    def pop_frame_check(self, env, thread, function: str) -> None:
        """Call side of PopLocalFrame: there must be a frame to pop."""
        stack = self._stack(thread)
        if not stack or stack[-1].implicit:
            raise violation(
                "PopLocalFrame with nothing left to pop (double free).",
                machine=self.spec.name,
                error_state=ERROR_DOUBLE_FREE.name,
                function=function,
            )
        self._kill_frame(thread, stack.pop())

    def ensure_capacity(self, env, thread, function: str, capacity, result) -> None:
        if result == 0:
            top = self._top(thread)
            top.capacity = max(top.capacity, int(capacity))

    def _kill_frame(self, thread, frame: _Frame) -> None:
        live = self.live[thread.thread_id]
        for serial in frame.refs:
            _unhold(live, serial)
        self.released.update(frame.refs)
        self._note_history()

    # -- acquire / release / use ------------------------------------------------

    def acquire_return(self, env, thread, function: str, result) -> None:
        """Return:Java->C of a reference-returning JNI function."""
        if isinstance(result, JRef) and result.kind == "local":
            self._acquire(thread, result, function)

    def _acquire(self, thread, ref: JRef, function: str) -> None:
        if ref.kind != "local":
            return
        top = self._top(thread)
        serial = ref.serial
        if serial not in top.refs:
            top.refs.add(serial)
            live = self.live[thread.thread_id]
            live[serial] = live.get(serial, 0) + 1
        self.owner[serial] = thread.thread_id
        self._note_history()
        if len(top.refs) > top.capacity:
            raise violation(
                "More than {} local references acquired in the current "
                "frame at {} without PushLocalFrame/EnsureLocalCapacity "
                "(overflow).".format(top.capacity, function),
                machine=self.spec.name,
                error_state=ERROR_OVERFLOW.name,
                function=function,
            )

    def release_one(self, env, thread, function: str, handle) -> None:
        """Call side of DeleteLocalRef."""
        if handle is None or not isinstance(handle, JRef):
            return
        if handle.kind != "local":
            raise violation(
                "{} called on a {} reference (expects a local "
                "reference).".format(function, handle.kind),
                machine=self.spec.name,
                error_state=ERROR_DANGLING.name,
                function=function,
                entity=handle.describe(),
            )
        for frame in reversed(self._stack(thread)):
            if handle.serial in frame.refs:
                frame.refs.discard(handle.serial)
                _unhold(self.live[thread.thread_id], handle.serial)
                self.released.add(handle.serial)
                self._note_history()
                return
        if handle.serial in self.released:
            raise violation(
                "DeleteLocalRef called twice for the same reference "
                "(double free).",
                machine=self.spec.name,
                error_state=ERROR_DOUBLE_FREE.name,
                function=function,
                entity=handle.describe(),
            )
        raise violation(
            "DeleteLocalRef on a reference this thread never acquired.",
            machine=self.spec.name,
            error_state=ERROR_DANGLING.name,
            function=function,
            entity=handle.describe(),
        )

    def check_use(self, env, thread, function: str, args, indices) -> None:
        for index in indices:
            handle = args[index] if index < len(args) else None
            self.check_use_single(env, thread, function, handle)

    def check_use_single(self, env, thread, function: str, handle) -> None:
        if not self.contains(env, thread, handle):
            self.report_dangling(env, thread, function, handle)

    def contains(self, env, thread, handle) -> bool:
        """Is this handle a live local reference of ``thread``?

        The ``jinn_refs_contains`` primitive of the paper's Figure 4.
        Handles that are not local references are not this machine's
        business and count as contained.
        """
        if not isinstance(handle, JRef) or handle.kind != "local":
            return True
        return handle.serial in self.live.get(thread.thread_id, _NOTHING)

    def report_dangling(self, env, thread, function: str, handle) -> None:
        """Raise the Figure 4 ``Error: dangling`` violation."""
        owner_tid = self.owner.get(handle.serial)
        if owner_tid is not None and owner_tid != thread.thread_id:
            if handle.serial in self.live.get(owner_tid, _NOTHING):
                raise violation(
                    "Error: local reference of another thread used in "
                    "{}.".format(function),
                    machine=self.spec.name,
                    error_state=ERROR_DANGLING.name,
                    function=function,
                    entity=handle.describe(),
                )
        raise violation(
            "Error: dangling local reference used in {}.".format(function),
            machine=self.spec.name,
            error_state=ERROR_DANGLING.name,
            function=function,
            entity=handle.describe(),
        )

    # -- Figure 10 instrumentation ---------------------------------------------

    def live_count(self) -> int:
        return sum(
            len(frame.refs) for stack in self.stacks.values() for frame in stack
        )

    def _note_history(self) -> None:
        if self.record_history:
            self.history.append(self.live_count())

    def reset(self) -> None:
        self.stacks.clear()
        self.live.clear()
        self.owner.clear()
        self.released.clear()
        self.history.clear()


class LocalRefSpec(StateMachineSpec):
    name = "local_ref"
    observed_entity = "a local JNI reference"
    errors_discovered = ("overflow", "leak", "dangling", "double-free")
    constraint_class = "resource"
    reads_thread = True

    def states(self):
        return (
            BEFORE,
            ACQUIRED,
            RELEASED,
            ERROR_DANGLING,
            ERROR_OVERFLOW,
            ERROR_LEAK,
            ERROR_DOUBLE_FREE,
        )

    def state_transitions(self):
        return (
            StateTransition(BEFORE, ACQUIRED, "acquire"),
            StateTransition(ACQUIRED, RELEASED, "release"),
            StateTransition(ACQUIRED, ACQUIRED, "frame management"),
            StateTransition(ACQUIRED, ERROR_OVERFLOW, "acquire"),
            StateTransition(RELEASED, ERROR_DANGLING, "use"),
            StateTransition(RELEASED, ERROR_DOUBLE_FREE, "release"),
            StateTransition(ACQUIRED, ERROR_LEAK, "return with unpopped frame"),
        )

    def language_transitions_for(self, transition):
        refs = EntitySelector.REFERENCE_PARAMETERS
        if transition.label == "acquire":
            return (
                LanguageTransition(
                    Direction.CALL_MANAGED_TO_NATIVE, NATIVE_METHOD, refs
                ),
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE,
                    REF_RETURNING,
                    EntitySelector.REFERENCE_RETURN,
                ),
            )
        if transition.label == "release":
            return (
                LanguageTransition(Direction.CALL_NATIVE_TO_MANAGED, DELETE, refs),
                LanguageTransition(Direction.CALL_NATIVE_TO_MANAGED, POP, refs),
                LanguageTransition(
                    Direction.RETURN_NATIVE_TO_MANAGED, NATIVE_METHOD, refs
                ),
            )
        if transition.label == "use":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, REF_TAKING, refs
                ),
                LanguageTransition(
                    Direction.RETURN_NATIVE_TO_MANAGED,
                    NATIVE_METHOD,
                    EntitySelector.REFERENCE_RETURN,
                ),
            )
        if transition.label == "frame management":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE, PUSH, refs
                ),
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE, ENSURE, refs
                ),
            )
        if transition.label == "return with unpopped frame":
            return (
                LanguageTransition(
                    Direction.RETURN_NATIVE_TO_MANAGED, NATIVE_METHOD, refs
                ),
            )
        return ()

    def make_encoding(self, vm):
        return LocalRefEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None:
            if direction is Direction.CALL_MANAGED_TO_NATIVE:
                return [
                    "rt.local_ref.enter_native("
                    "env, thread, method_name, handles)"
                ]
            if direction is Direction.RETURN_NATIVE_TO_MANAGED:
                return [
                    "rt.local_ref.exit_native(env, thread, method_name, result)"
                ]
            return []
        lines = []
        if direction is Direction.CALL_NATIVE_TO_MANAGED:
            if meta.name == "DeleteLocalRef":
                lines.append(
                    'rt.local_ref.release_one('
                    'env, thread, "DeleteLocalRef", args[0])'
                )
            elif meta.name == "PopLocalFrame":
                lines.append(
                    'rt.local_ref.pop_frame_check(env, thread, "PopLocalFrame")'
                )
            else:
                # Figure 4 style: one inline guard per reference
                # parameter, calling the contains primitive directly.
                for index in meta.reference_param_indices:
                    lines.append(
                        "if args[{0}] is not None and not rt.local_ref."
                        "contains(env, thread, args[{0}]):".format(index)
                    )
                    lines.append(
                        '    rt.local_ref.report_dangling(env, thread, "{}", '
                        "args[{}])".format(meta.name, index)
                    )
        elif direction is Direction.RETURN_MANAGED_TO_NATIVE:
            if meta.name == "PushLocalFrame":
                lines.append(
                    'rt.local_ref.push_frame('
                    'env, thread, "PushLocalFrame", args[0], result)'
                )
            elif meta.name == "EnsureLocalCapacity":
                lines.append(
                    "rt.local_ref.ensure_capacity("
                    'env, thread, "EnsureLocalCapacity", args[0], result)'
                )
            elif meta.returns_reference:
                lines.append(
                    'rt.local_ref.acquire_return(env, thread, "{}", result)'.format(
                        meta.name
                    )
                )
        return lines
