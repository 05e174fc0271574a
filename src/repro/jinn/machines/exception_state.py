"""JVM-state machine 2: no pending exception at exception-sensitive calls.

Paper Figure 6, second machine.  Observed entity: a thread.  Error
discovered: unhandled Java exception.  State machine encoding: the JVM's
own per-thread pending-exception slot — the JVM already records the
transition to "exception pending" when a JNI call returns, so Jinn reads
that structure instead of mirroring it.

Twenty JNI functions are exception-oblivious (the query/clean-up set:
``Exception*``, the ``Release*``/``Delete*`` family, ``PopLocalFrame``);
all 209 others are exception-sensitive.
"""

from __future__ import annotations

from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    LanguageTransition,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.jinn.machines.common import selector, violation

NO_EXCEPTION = State("No exception")
PENDING = State("Exception pending")
ERROR_UNHANDLED = State("Error: unhandled exception", is_error=True)

SENSITIVE = selector(
    "exception-sensitive JNI function", lambda m: not m.exception_oblivious
)
OBLIVIOUS = selector(
    "exception-oblivious JNI function", lambda m: m.exception_oblivious
)
ANY = selector("any JNI function", lambda m: True)
CLEARING = selector("ExceptionClear", lambda m: m.name == "ExceptionClear")


class ExceptionStateEncoding(Encoding):
    """Reads the JVM-internal pending-exception slot; no mirror needed."""

    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm

    def check_sensitive(self, env, thread, function: str) -> None:
        pending = thread.pending_exception
        if pending is not None:
            raise violation(
                "An exception is pending in {}.".format(function),
                machine=self.spec.name,
                error_state=ERROR_UNHANDLED.name,
                function=function,
                entity=pending.describe(),
            )


class ExceptionStateSpec(StateMachineSpec):
    name = "exception_state"
    observed_entity = "a thread"
    errors_discovered = ("unhandled Java exception",)
    constraint_class = "jvm-state"
    reads_thread = True

    def states(self):
        return (NO_EXCEPTION, PENDING, ERROR_UNHANDLED)

    def state_transitions(self):
        return (
            StateTransition(NO_EXCEPTION, PENDING, "jni return"),
            StateTransition(PENDING, NO_EXCEPTION, "clear or return to Java"),
            StateTransition(PENDING, PENDING, "exception-oblivious call"),
            StateTransition(PENDING, ERROR_UNHANDLED, "exception-sensitive call"),
        )

    def language_transitions_for(self, transition):
        thread = EntitySelector.THREAD
        if transition.label == "jni return":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE, ANY, thread
                ),
            )
        if transition.label == "clear or return to Java":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE, CLEARING, thread
                ),
                LanguageTransition(
                    Direction.RETURN_NATIVE_TO_MANAGED,
                    _native_method_selector(),
                    thread,
                ),
            )
        if transition.label == "exception-oblivious call":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, OBLIVIOUS, thread
                ),
            )
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED, SENSITIVE, thread
            ),
        )

    def make_encoding(self, vm):
        return ExceptionStateEncoding(self, vm)

    def emit(self, meta, direction):
        if (
            meta is None
            or direction is not Direction.CALL_NATIVE_TO_MANAGED
            or meta.exception_oblivious
        ):
            return []
        return [
            'rt.exception_state.check_sensitive(env, thread, "{}")'.format(
                meta.name
            )
        ]


def _native_method_selector():
    from repro.fsm.machine import NATIVE_METHOD

    return NATIVE_METHOD
