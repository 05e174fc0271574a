"""Type machine 4: fixed typing.

Paper Figure 7, first machine.  Observed entity: a reference parameter.
Error discovered: type mismatch between actual and formal parameter of a
JNI function.  Many JNI parameters have their Java type fixed by the
function itself (``clazz`` must be a ``java.lang.Class``, ``string`` a
``java.lang.String``, ...); this machine also covers the handle-kind
confusions of pitfalls 3 and 6 — passing a ``jobject`` where a ``jclass``
is due, or an entity ID where a reference is due.
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
from repro.jinn.machines.common import ClassResolver, selector, violation
from repro.jni.typecheck import conforms, describe_fixed_type
from repro.jni.types import JFieldID, JMethodID, JRef

CHECKED = State("Checked")
ERROR_MISMATCH = State("Error: fixed type mismatch", is_error=True)

TYPED = selector(
    "JNI function with a fixed-typed, reference, or ID parameter",
    lambda m: bool(m.fixed_type_params)
    or bool(m.reference_param_indices)
    or bool(m.id_param_indices),
)


class FixedTypingEncoding(Encoding):
    """Stateless checks: kind of handle, then Java-type conformance.

    The fixed type is baked into each generated line; resolving its
    class goes through a per-VM :class:`ClassResolver`, so a check costs
    a dict hit instead of a ``find_class`` lookup.
    """

    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        self.classes = ClassResolver(vm)
        #: Function name -> its checked parameters, for ``on_event``.
        self._params = {}

    def require_reference(self, env, function, args, index, name) -> None:
        value = args[index] if index < len(args) else None
        if value is None or isinstance(value, JRef):
            return
        raise violation(
            "Parameter '{}' of {} must be a reference but is {} "
            "(confusing IDs with references?).".format(
                name, function, type(value).__name__
            ),
            machine=self.spec.name,
            error_state=ERROR_MISMATCH.name,
            function=function,
            entity=name,
        )

    def require_id(self, env, function, args, index, name, id_kind) -> None:
        value = args[index] if index < len(args) else None
        if value is None:
            return
        wanted = JMethodID if id_kind == "jmethodID" else JFieldID
        if isinstance(value, wanted):
            return
        raise violation(
            "Parameter '{}' of {} must be a {} but is {} "
            "(confusing references with IDs?).".format(
                name, function, id_kind, type(value).__name__
            ),
            machine=self.spec.name,
            error_state=ERROR_MISMATCH.name,
            function=function,
            entity=name,
        )

    def require_type(self, env, function, args, index, name, fixed_type) -> None:
        value = args[index] if index < len(args) else None
        if not isinstance(value, JRef):
            return
        target = value.target
        if target is None:
            return
        if conforms(self.classes, target, fixed_type):
            return
        raise violation(
            "Parameter '{}' of {} is a {} but must be {}.".format(
                name,
                function,
                target.jclass.name.replace("/", "."),
                describe_fixed_type(fixed_type),
            ),
            machine=self.spec.name,
            error_state=ERROR_MISMATCH.name,
            function=function,
            entity=target.describe(),
        )

    def on_event(self, ctx) -> None:
        meta = ctx.meta
        if meta is None or ctx.event.direction is not Direction.CALL_NATIVE_TO_MANAGED:
            return
        params = self._params.get(meta.name)
        if params is None:
            params = self._params[meta.name] = _checked_params(meta)
        handles, fixed = params
        env, function, args = ctx.env, meta.name, ctx.args
        for index, name, id_kind in handles:
            if id_kind is None:
                self.require_reference(env, function, args, index, name)
            else:
                self.require_id(env, function, args, index, name, id_kind)
        for index, name, fixed_type in fixed:
            self.require_type(env, function, args, index, name, fixed_type)


def _checked_params(meta):
    """``meta``'s checked parameters in check order, as ``emit`` bakes them.

    ``(handles, fixed)``: ``handles`` is ``(index, name, id_kind)`` per
    reference (``id_kind`` None) or ID parameter; ``fixed`` is
    ``(index, name, fixed_type)`` per fixed-typed parameter.
    """
    handles = tuple(
        (index, p.name, None if p.is_reference else p.jtype)
        for index, p in enumerate(meta.params)
        if p.is_reference or p.is_id
    )
    fixed = tuple(
        (index, meta.params[index].name, fixed_type)
        for index, fixed_type in meta.fixed_type_params
    )
    return handles, fixed


class FixedTypingSpec(StateMachineSpec):
    name = "fixed_typing"
    observed_entity = "a reference parameter"
    errors_discovered = ("type mismatch between actual and formal parameter",)
    constraint_class = "type"

    def states(self):
        return (CHECKED, ERROR_MISMATCH)

    def state_transitions(self):
        return (StateTransition(CHECKED, ERROR_MISMATCH, "jni call"),)

    def language_transitions_for(self, transition):
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED,
                TYPED,
                EntitySelector.REFERENCE_PARAMETERS,
            ),
        )

    def make_encoding(self, vm):
        return FixedTypingEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None or direction is not Direction.CALL_NATIVE_TO_MANAGED:
            return []
        lines = []
        for index, p in enumerate(meta.params):
            if p.is_reference:
                lines.append(
                    'rt.fixed_typing.require_reference('
                    'env, "{}", args, {}, "{}")'.format(meta.name, index, p.name)
                )
            elif p.is_id:
                lines.append(
                    'rt.fixed_typing.require_id('
                    'env, "{}", args, {}, "{}", "{}")'.format(
                        meta.name, index, p.name, p.jtype
                    )
                )
        for index, fixed_type in meta.fixed_type_params:
            lines.append("if args[{}] is not None:".format(index))
            lines.append(
                '    rt.fixed_typing.require_type('
                'env, "{}", args, {}, "{}", {!r})'.format(
                    meta.name, index, meta.params[index].name, fixed_type
                )
            )
        return lines
