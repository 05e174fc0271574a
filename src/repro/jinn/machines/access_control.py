"""Type machine 6: access control.

Paper Figure 7, second machine.  Observed entity: a field ID.  Error
discovered: assignment to a final field.  In practice JNI ignores
visibility but honours ``final`` (mutating final fields interferes with
JIT optimisation and the memory model), so Jinn flags exactly the 18
``Set<Type>Field`` / ``SetStatic<Type>Field`` functions when the target
field is final.  The encoding is a map from field IDs to their modifiers;
in the simulator the ID itself carries the declared field, so the map is
implicit.
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
from repro.jni.types import JFieldID

CHECKED = State("Checked")
ERROR_FINAL = State("Error: assignment to final field", is_error=True)

WRITERS = selector(
    "Set<Type>Field or SetStatic<Type>Field", lambda m: m.writes_field
)


class AccessControlEncoding(Encoding):
    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm

    def check(self, env, function: str, fid) -> None:
        if not isinstance(fid, JFieldID):
            return  # handle-kind confusion is the fixed-typing machine's job
        field = fid.field
        if field.is_final:
            raise violation(
                "{} assigns to final field {}.".format(
                    function, field.describe()
                ),
                machine=self.spec.name,
                error_state=ERROR_FINAL.name,
                function=function,
                entity=field.describe(),
            )


class AccessControlSpec(StateMachineSpec):
    name = "access_control"
    observed_entity = "a field ID"
    errors_discovered = ("assignment to final field",)
    constraint_class = "type"

    def states(self):
        return (CHECKED, ERROR_FINAL)

    def state_transitions(self):
        return (StateTransition(CHECKED, ERROR_FINAL, "jni call"),)

    def language_transitions_for(self, transition):
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED,
                WRITERS,
                EntitySelector.ID_PARAMETERS,
            ),
        )

    def make_encoding(self, vm):
        return AccessControlEncoding(self, vm)

    def emit(self, meta, direction):
        if (
            meta is None
            or direction is not Direction.CALL_NATIVE_TO_MANAGED
            or not meta.writes_field
        ):
            return []
        return ['rt.access_control.check(env, "{}", args[1])'.format(meta.name)]
