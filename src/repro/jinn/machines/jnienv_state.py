"""JVM-state machine 1: the JNIEnv* must match the current thread.

Paper Figure 6, first machine.  Observed entity: a thread.  Error
discovered: JNIEnv* mismatch.  State machine encoding: a map from thread
IDs to their expected JNIEnv* pointers, populated when the VM attaches a
thread (Jinn learns the pointer from the JVM and the thread ID from the
OS).
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
from repro.jinn.machines.common import ANY_JNI_FUNCTION, violation

MATCHED = State("Matched")
ERROR_MISMATCH = State("Error: JNIEnv* mismatch", is_error=True)


class JNIEnvStateEncoding(Encoding):
    """Map thread id -> expected JNIEnv, checked on every JNI call."""

    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        self.expected = {}

    def record_thread(self, thread) -> None:
        self.expected[thread.thread_id] = thread.env

    def check(self, env, thread, function: str) -> None:
        expected = self.expected.get(thread.thread_id)
        if expected is not None and expected is not env:
            raise violation(
                "The JNIEnv used in {} belongs to another thread "
                "(expected the JNIEnv of {}).".format(
                    function, thread.describe()
                ),
                machine=self.spec.name,
                error_state=ERROR_MISMATCH.name,
                function=function,
                entity=thread.describe(),
            )

    def on_event(self, ctx) -> None:
        if (
            ctx.event.direction is Direction.CALL_NATIVE_TO_MANAGED
            and ctx.meta is not None
        ):
            self.check(ctx.env, ctx.thread, ctx.event.function)

    def reset(self) -> None:
        self.expected.clear()


class JNIEnvStateSpec(StateMachineSpec):
    name = "jnienv_state"
    observed_entity = "a thread"
    errors_discovered = ("JNIEnv* mismatch",)
    constraint_class = "jvm-state"
    reads_thread = True

    def states(self):
        return (MATCHED, ERROR_MISMATCH)

    def state_transitions(self):
        return (StateTransition(MATCHED, ERROR_MISMATCH, "jni call"),)

    def language_transitions_for(self, transition):
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED,
                ANY_JNI_FUNCTION,
                EntitySelector.THREAD,
            ),
        )

    def make_encoding(self, vm):
        return JNIEnvStateEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None or direction is not Direction.CALL_NATIVE_TO_MANAGED:
            return []
        return ['rt.jnienv_state.check(env, thread, "{}")'.format(meta.name)]
