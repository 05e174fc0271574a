"""Resource machine 8: pinned or copied strings and arrays.

Paper Figure 8, first machine.  Observed entity: a Java string or array
that is pinned or copied.  Errors discovered: leak and double-free.
State machine encoding: a list of acquired JVM resources.  Acquire
happens on return from the ``Get*Chars`` / ``Get<Type>ArrayElements`` /
``Get*Critical`` getters; release on call of the 12 matching release
functions; anything still acquired at program termination (the JVMTI
VM-death callback) is a leak.

``Release<Type>ArrayElements`` with mode ``JNI_COMMIT`` copies back but
does *not* release — the machine stays in Acquired, as the JNI manual
specifies.
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
from repro.jinn.machines.common import selector, violation
from repro.jni.types import NativeBuffer

JNI_COMMIT = 1

BEFORE = State("Before acquire")
ACQUIRED = State("Acquired")
RELEASED = State("Released")
ERROR_DOUBLE_FREE = State("Error: double free", is_error=True)
ERROR_LEAK = State("Error: leak", is_error=True)

ACQUIRERS = selector(
    "Get<Type>ArrayElements, GetString[UTF]Chars, or Get*Critical",
    lambda m: m.acquires in ("pinned", "critical"),
)
RELEASERS = selector(
    "Release<Type>ArrayElements, ReleaseString[UTF]Chars, or Release*Critical",
    lambda m: m.releases in ("pinned", "critical"),
)


class PinnedResourceEncoding(Encoding):
    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        #: id(buffer) -> (buffer, acquiring function)
        self.acquired: Dict[int, tuple] = {}

    def acquire(self, env, function: str, result) -> None:
        if isinstance(result, NativeBuffer):
            self.acquired[id(result)] = (result, function)

    def release(self, env, function: str, buf, mode=None) -> None:
        if mode == JNI_COMMIT:
            return  # copy back without releasing
        if not isinstance(buf, NativeBuffer) or id(buf) not in self.acquired:
            raise violation(
                "{} releases a string/array buffer that is not currently "
                "acquired (double free).".format(function),
                machine=self.spec.name,
                error_state=ERROR_DOUBLE_FREE.name,
                function=function,
            )
        del self.acquired[id(buf)]

    def at_termination(self) -> List[str]:
        return [
            "pinned resource acquired by {} never released: {}".format(
                fn, buf.describe()
            )
            for buf, fn in self.acquired.values()
        ]

    def live_count(self) -> int:
        return len(self.acquired)

    def reset(self) -> None:
        self.acquired.clear()


def _mode_index(meta):
    for index, p in enumerate(meta.params):
        if p.name == "mode":
            return index
    return None


class PinnedResourceSpec(StateMachineSpec):
    name = "pinned_resource"
    observed_entity = "a Java string or array that is pinned or copied"
    errors_discovered = ("leak", "double-free")
    constraint_class = "resource"

    def states(self):
        return (BEFORE, ACQUIRED, RELEASED, ERROR_DOUBLE_FREE, ERROR_LEAK)

    def state_transitions(self):
        return (
            StateTransition(BEFORE, ACQUIRED, "acquire"),
            StateTransition(ACQUIRED, RELEASED, "release"),
            StateTransition(RELEASED, ERROR_DOUBLE_FREE, "release"),
            StateTransition(ACQUIRED, ERROR_LEAK, "program termination"),
        )

    def language_transitions_for(self, transition):
        if transition.label == "acquire":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE,
                    ACQUIRERS,
                    EntitySelector.REFERENCE_PARAMETERS,
                ),
            )
        if transition.label == "release":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED,
                    RELEASERS,
                    EntitySelector.REFERENCE_PARAMETERS,
                ),
            )
        return ()  # program termination arrives via the JVMTI callback

    def make_encoding(self, vm):
        return PinnedResourceEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None:
            return []
        if (
            direction is Direction.RETURN_MANAGED_TO_NATIVE
            and meta.acquires in ("pinned", "critical")
        ):
            return ['rt.pinned_resource.acquire(env, "{}", result)'.format(meta.name)]
        if (
            direction is Direction.CALL_NATIVE_TO_MANAGED
            and meta.releases in ("pinned", "critical")
        ):
            mode_index = _mode_index(meta)
            if mode_index is None:
                return [
                    'rt.pinned_resource.release(env, "{}", args[1])'.format(
                        meta.name
                    )
                ]
            return [
                'rt.pinned_resource.release(env, "{}", args[1], '
                "args[{}])".format(meta.name, mode_index)
            ]
        return []
