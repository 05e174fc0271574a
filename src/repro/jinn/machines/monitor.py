"""Resource machine 9: Java monitors.

Paper Figure 8, third machine.  Observed entity: a monitor.  Error
discovered: leak (a monitor still held at program termination indicates a
deadlock risk).  State machine encoding: the set of monitors currently
held *through JNI* with their entry counts.  Jinn need not check overflow
or double-free here — the JVM already raises exceptions for unbalanced
``MonitorExit`` — and cannot check dangling (releasing "too early" is a
matter of programmer intent).
"""

from __future__ import annotations

from typing import Dict, List

from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    LanguageTransition,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.jinn.machines.common import peek, selector

FREE = State("Not held")
HELD = State("Held")
ERROR_LEAK = State("Error: leak", is_error=True)

ENTER = selector("MonitorEnter", lambda m: m.name == "MonitorEnter")
EXIT = selector("MonitorExit", lambda m: m.name == "MonitorExit")


class MonitorEncoding(Encoding):
    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        #: object id -> [object, entry count]
        self.held: Dict[int, list] = {}

    def entered(self, env, function: str, handle, result) -> None:
        if result != 0:
            return
        obj = peek(handle)
        if obj is None:
            return
        entry = self.held.setdefault(obj.object_id, [obj, 0])
        entry[1] += 1

    def exited(self, env, function: str, handle, result) -> None:
        if result != 0:
            return  # the JVM reported the unbalanced exit itself
        obj = peek(handle)
        if obj is None:
            return
        entry = self.held.get(obj.object_id)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del self.held[obj.object_id]

    def at_termination(self) -> List[str]:
        return [
            "monitor on {} held at program termination (deadlock risk)".format(
                obj.describe()
            )
            for obj, _count in self.held.values()
        ]

    def reset(self) -> None:
        self.held.clear()


class MonitorSpec(StateMachineSpec):
    name = "monitor"
    observed_entity = "a monitor"
    errors_discovered = ("leak",)
    constraint_class = "resource"

    def states(self):
        return (FREE, HELD, ERROR_LEAK)

    def state_transitions(self):
        return (
            StateTransition(FREE, HELD, "acquire"),
            StateTransition(HELD, FREE, "release"),
            StateTransition(HELD, ERROR_LEAK, "program termination"),
        )

    def language_transitions_for(self, transition):
        if transition.label == "acquire":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE,
                    ENTER,
                    EntitySelector.REFERENCE_PARAMETERS,
                ),
            )
        if transition.label == "release":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE,
                    EXIT,
                    EntitySelector.REFERENCE_PARAMETERS,
                ),
            )
        return ()

    def make_encoding(self, vm):
        return MonitorEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None or direction is not Direction.RETURN_MANAGED_TO_NATIVE:
            return []
        if meta.name == "MonitorEnter":
            return ['rt.monitor.entered(env, "MonitorEnter", args[0], result)']
        if meta.name == "MonitorExit":
            return ['rt.monitor.exited(env, "MonitorExit", args[0], result)']
        return []
