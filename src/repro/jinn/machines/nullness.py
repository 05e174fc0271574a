"""Type machine 7: nullness.

Paper Figure 7, fourth machine.  Observed entity: a reference parameter.
Error discovered: unexpected null passed to a JNI function.  The paper's
authors determined the non-null parameter set experimentally (416
constraints over the functions that define parameters); here the set is
declared per parameter in :mod:`repro.jni.functions`.  The machine is
stateless — no encoding data structure is needed.
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

CHECKED = State("Checked")
ERROR_NULL = State("Error: unexpected null", is_error=True)

NONNULL_TAKING = selector(
    "JNI function with a parameter that must not be null",
    lambda m: bool(m.nonnull_param_indices),
)


class NullnessEncoding(Encoding):
    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        #: Function name -> (index, name) of each non-null parameter.
        self._params = {}

    def require(self, env, function: str, args, index: int, name: str) -> None:
        value = args[index] if index < len(args) else None
        if value is None:
            self.report_null(env, function, name)

    def report_null(self, env, function: str, name: str) -> None:
        raise violation(
            "Parameter '{}' of {} must not be null.".format(name, function),
            machine=self.spec.name,
            error_state=ERROR_NULL.name,
            function=function,
            entity=name,
        )

    def on_event(self, ctx) -> None:
        meta = ctx.meta
        if meta is None or ctx.event.direction is not Direction.CALL_NATIVE_TO_MANAGED:
            return
        params = self._params.get(meta.name)
        if params is None:
            params = self._params[meta.name] = tuple(
                (index, meta.params[index].name)
                for index in meta.nonnull_param_indices
            )
        for index, name in params:
            self.require(ctx.env, meta.name, ctx.args, index, name)


class NullnessSpec(StateMachineSpec):
    name = "nullness"
    observed_entity = "a reference parameter"
    errors_discovered = ("unexpected null value passed to JNI function",)
    constraint_class = "type"

    def states(self):
        return (CHECKED, ERROR_NULL)

    def state_transitions(self):
        return (StateTransition(CHECKED, ERROR_NULL, "jni call"),)

    def language_transitions_for(self, transition):
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED,
                NONNULL_TAKING,
                EntitySelector.REFERENCE_PARAMETERS,
            ),
        )

    def make_encoding(self, vm):
        return NullnessEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None or direction is not Direction.CALL_NATIVE_TO_MANAGED:
            return []
        lines = []
        for index in meta.nonnull_param_indices:
            lines.append("if args[{}] is None:".format(index))
            lines.append(
                '    rt.nullness.report_null(env, "{}", "{}")'.format(
                    meta.name, meta.params[index].name
                )
            )
        return lines
