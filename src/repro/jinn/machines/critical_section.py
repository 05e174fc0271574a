"""JVM-state machine 3: JNI critical sections.

Paper Figure 6, third machine.  Observed entity: a thread.  Error
discovered: critical section violation.  State machine encoding: a map
from critical resources to the number of times the thread has acquired
each.  Between an acquire (``GetStringCritical`` /
``GetPrimitiveArrayCritical``) and the matching release, the thread may
call only the four critical-safe functions — calling any of the other 225
risks deadlocking the VM (the GC may be disabled).
"""

from __future__ import annotations

from typing import Dict

from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    LanguageTransition,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.jinn.machines.common import peek, selector, violation

OUTSIDE = State("Outside critical section")
INSIDE = State("Inside critical section")
ERROR_VIOLATION = State("Error: critical section violation", is_error=True)

ACQUIRERS = selector(
    "GetStringCritical or GetPrimitiveArrayCritical",
    lambda m: m.acquires == "critical",
)
RELEASERS = selector(
    "ReleaseStringCritical or ReleasePrimitiveArrayCritical",
    lambda m: m.releases == "critical",
)
SENSITIVE = selector(
    "critical-section-sensitive JNI function", lambda m: not m.critical_safe
)


class CriticalSectionEncoding(Encoding):
    """Per-thread tallies of acquired critical resources (Jinn's own).

    A thread's tally holds only resources it still holds, so "inside a
    critical section" is a non-empty tally: one dict ``get`` on the hot
    path, which every critical-sensitive JNI call pays.
    """

    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        #: thread id -> {resource object id -> acquisition count}
        self.tallies: Dict[int, Dict[int, int]] = {}

    def acquire(self, env, thread, function: str, handle, result) -> None:
        if result is None:
            return
        resource = peek(handle)
        if resource is None:
            return
        tally = self.tallies.get(thread.thread_id)
        if tally is None:
            tally = self.tallies[thread.thread_id] = {}
        tally[resource.object_id] = tally.get(resource.object_id, 0) + 1

    def release(self, env, thread, function: str, handle) -> None:
        resource = peek(handle)
        if resource is None:
            return
        tally = self.tallies.get(thread.thread_id)
        count = tally.get(resource.object_id, 0) if tally else 0
        if count == 0:
            raise violation(
                "{} releases a critical resource the thread does not "
                "hold ({}).".format(function, resource.describe()),
                machine=self.spec.name,
                error_state=ERROR_VIOLATION.name,
                function=function,
                entity=resource.describe(),
            )
        if count == 1:
            del tally[resource.object_id]
        else:
            tally[resource.object_id] = count - 1

    def check_sensitive(self, env, thread, function: str) -> None:
        if self.tallies.get(thread.thread_id):
            raise violation(
                "{} called inside a JNI critical section; only the four "
                "critical get/release functions are legal here.".format(
                    function
                ),
                machine=self.spec.name,
                error_state=ERROR_VIOLATION.name,
                function=function,
            )

    def in_critical(self, thread) -> bool:
        return bool(self.tallies.get(thread.thread_id))

    def on_event(self, ctx) -> None:
        if ctx.meta is None:
            return
        if ctx.event.direction is Direction.CALL_NATIVE_TO_MANAGED:
            if not ctx.meta.critical_safe:
                self.check_sensitive(ctx.env, ctx.thread, ctx.event.function)
            elif ctx.meta.releases == "critical":
                self.release(
                    ctx.env, ctx.thread, ctx.event.function, ctx.args[0]
                )
        elif ctx.event.direction is Direction.RETURN_MANAGED_TO_NATIVE:
            if ctx.meta.acquires == "critical":
                self.acquire(
                    ctx.env, ctx.thread, ctx.event.function, ctx.args[0],
                    ctx.result,
                )

    def reset(self) -> None:
        self.tallies.clear()


class CriticalSectionSpec(StateMachineSpec):
    name = "critical_section"
    observed_entity = "a thread"
    errors_discovered = ("critical section violation",)
    constraint_class = "jvm-state"
    reads_thread = True

    def states(self):
        return (OUTSIDE, INSIDE, ERROR_VIOLATION)

    def state_transitions(self):
        return (
            StateTransition(OUTSIDE, INSIDE, "acquire"),
            StateTransition(INSIDE, OUTSIDE, "release"),
            StateTransition(INSIDE, ERROR_VIOLATION, "critical-sensitive call"),
        )

    def language_transitions_for(self, transition):
        thread = EntitySelector.THREAD
        if transition.label == "acquire":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE, ACQUIRERS, thread
                ),
            )
        if transition.label == "release":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, RELEASERS, thread
                ),
            )
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED, SENSITIVE, thread
            ),
        )

    def make_encoding(self, vm):
        return CriticalSectionEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None:
            return []
        lines = []
        if direction is Direction.CALL_NATIVE_TO_MANAGED:
            if not meta.critical_safe:
                lines.append(
                    'rt.critical_section.check_sensitive(env, thread, "{}")'.format(
                        meta.name
                    )
                )
            elif meta.releases == "critical":
                lines.append(
                    'rt.critical_section.release(env, thread, "{}", args[0])'.format(
                        meta.name
                    )
                )
        elif direction is Direction.RETURN_MANAGED_TO_NATIVE:
            if meta.acquires == "critical":
                lines.append(
                    'rt.critical_section.acquire('
                    'env, thread, "{}", args[0], result)'.format(
                        meta.name
                    )
                )
        return lines
