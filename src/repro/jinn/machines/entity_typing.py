"""Type machine 5: entity-specific typing.

Paper Figure 7, third machine.  Observed entity: a pair of ID parameters.
Errors discovered: type mismatch for a Java field assignment or between
actuals and formals of a Java method.  A ``jmethodID``/``jfieldID``
carries the signature Jinn recorded when the ID was produced; at each of
the 131 entity-taking functions that signature constrains the receiver,
the other arguments, and the result kind the caller asked for.

The Eclipse SWT case study (paper §6.4.3) is this machine: a static call
whose ``clazz`` did not itself declare the method (only a superclass did)
is a violation even though production JVMs happen not to notice.
"""

from __future__ import annotations

from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    LanguageTransition,
    SpecificationError,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.jinn.machines.common import ClassResolver, peek, selector, violation
from repro.jni import functions
from repro.jni.types import JFieldID, JMethodID, JRef
from repro.jvm import descriptors

CHECKED = State("Checked")
ERROR_MISMATCH = State("Error: entity type mismatch", is_error=True)

ENTITY_TAKING = selector(
    "JNI function taking a method or field ID", lambda m: m.takes_entity_id
)


def site_check(meta):
    """The per-site check method for ``meta`` and its baked arguments.

    A method call's mode, result kind and payload form, or a field
    access's static/write flags and kind.  Generated lines pass them as
    literals; :meth:`EntityTypingEncoding.check` (interpretive and
    replay paths) derives them here.  Raises :class:`SpecificationError`
    for an entity-taking function no per-site check covers.
    """
    if meta.family == "new_object":
        return "check_call", ("new", None, _packed(meta))
    if meta.family == "calls":
        return "check_call", (
            meta.extra_value("mode", "static"),
            meta.extra_value("result_kind"),
            _packed(meta),
        )
    if meta.family == "field_access":
        return "check_field", (
            meta.extra_value("static"),
            meta.extra_value("write"),
            meta.extra_value("result_kind"),
        )
    if meta.name in ("ToReflectedMethod", "ToReflectedField"):
        return "check_reflected", ()
    raise SpecificationError(
        "entity_typing has no per-site check for {}".format(meta.name)
    )


def _packed(meta) -> bool:
    """Do the Java arguments come as one array or va_list (``...A``/``...V``)?"""
    return meta.name.endswith(("V", "A"))


class EntityTypingEncoding(Encoding):
    """Signature checks keyed on the entity ID a call passes.

    Each method ID's parsed signature and each class object's
    :class:`~repro.jvm.model.JClass` are resolved once per VM and kept,
    keyed by the method or class object itself.
    """

    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        self.classes = ClassResolver(vm)
        #: JMethod -> (parameter descriptors, return descriptor).
        self.signatures = {}
        #: Function name -> its :func:`site_check`, for :meth:`check`.
        self._sites = {}

    def check(self, env, function: str, args) -> None:
        """Run the per-site check of ``function``, deriving its site once."""
        site = self._sites.get(function)
        if site is None:
            site = site_check(functions.FUNCTIONS[function])
            self._sites[function] = site
        method, site_args = site
        getattr(self, method)(env, function, args, *site_args)

    # -- method calls --------------------------------------------------------

    def check_call(self, env, fn: str, args, mode, result_kind, packed) -> None:
        """A ``Call*Method*`` (mode virtual/nonvirtual/static) or
        ``NewObject*`` (mode ``"new"``) with its site baked in."""
        receiver_handle = None
        clazz_handle = None
        if mode == "virtual":
            receiver_handle = args[0]
            pos = 1
        elif mode == "nonvirtual":
            receiver_handle = args[0]
            clazz_handle = args[1]
            pos = 2
        else:
            clazz_handle = args[0]
            pos = 1
        mid = args[pos]
        pos += 1
        if not isinstance(mid, JMethodID):
            return  # the fixed-typing machine reports handle-kind confusion
        method = mid.method

        if mode == "new":
            if method.name != "<init>":
                self._fail(
                    fn,
                    "{} requires a constructor ID, got {}".format(
                        fn, method.describe()
                    ),
                )
        elif mode == "static":
            if not method.is_static:
                self._fail(
                    fn,
                    "{} invokes instance method {} as static".format(
                        fn, method.describe()
                    ),
                )
        elif method.is_static:
            self._fail(
                fn,
                "{} invokes static method {} through an instance".format(
                    fn, method.describe()
                ),
            )

        if clazz_handle is not None:
            clazz_obj = peek(clazz_handle)
            jclass = (
                self.classes.class_of_class_object(clazz_obj)
                if clazz_obj is not None
                else None
            )
            if jclass is not None and not jclass.declares_method(method):
                self._fail(
                    fn,
                    "class {} does not itself declare {} (a superclass "
                    "may, but the ID was not derived from this class)".format(
                        jclass.name.replace("/", "."), method.describe()
                    ),
                )
        if receiver_handle is not None:
            receiver = peek(receiver_handle)
            if receiver is not None and not receiver.jclass.is_subclass_of(
                method.declaring_class
            ):
                self._fail(
                    fn,
                    "receiver {} is not an instance of {}".format(
                        receiver.describe(), method.declaring_class.name
                    ),
                )

        signature = self.signatures.get(method)
        if signature is None:
            params, ret = descriptors.parse_method_descriptor(method.descriptor)
            signature = self.signatures[method] = (tuple(params), ret)
        param_descs, ret_desc = signature
        if result_kind is not None and not _result_matches(result_kind, ret_desc):
            self._fail(
                fn,
                "{} expects a {} result but {} returns {}".format(
                    fn, result_kind, method.describe(), ret_desc
                ),
            )

        if packed:
            jargs = args[pos] if pos < len(args) else None
            if not isinstance(jargs, (list, tuple)):
                jargs = list(jargs or ())
        else:
            jargs = args[pos:]
        if len(jargs) != len(param_descs):
            self._fail(
                fn,
                "{} passes {} argument(s) to {} which declares {}".format(
                    fn, len(jargs), method.describe(), len(param_descs)
                ),
            )
        classes = self.classes
        for i, (value, desc) in enumerate(zip(jargs, param_descs)):
            actual = value.target if isinstance(value, JRef) else value
            if not descriptors.value_conforms(classes, actual, desc):
                self._fail(
                    fn,
                    "argument {} of {} does not conform to formal type "
                    "{} of {}".format(i + 1, fn, desc, method.describe()),
                )

    # -- field accesses ---------------------------------------------------------

    def check_field(
        self, env, fn: str, args, is_static, is_write, result_kind
    ) -> None:
        """A ``Get/Set[Static]<Type>Field`` with its flags baked in."""
        fid = args[1]
        if not isinstance(fid, JFieldID):
            return
        field = fid.field
        if field.is_static != is_static:
            self._fail(
                fn,
                "{} used on {} field {}".format(
                    fn,
                    "static" if field.is_static else "instance",
                    field.describe(),
                ),
            )
        if not _result_matches(result_kind, field.descriptor):
            self._fail(
                fn,
                "{} accesses {} as kind {} but it is declared {}".format(
                    fn, field.describe(), result_kind, field.descriptor
                ),
            )
        if not is_static:
            receiver = peek(args[0])
            if receiver is not None and not receiver.jclass.is_subclass_of(
                field.declaring_class
            ):
                self._fail(
                    fn,
                    "receiver {} is not an instance of {}".format(
                        receiver.describe(), field.declaring_class.name
                    ),
                )
        if is_write:
            value = args[2]
            actual = value.target if isinstance(value, JRef) else value
            if not descriptors.value_conforms(
                self.classes, actual, field.descriptor
            ):
                self._fail(
                    fn,
                    "value assigned by {} does not conform to field "
                    "type {} of {}".format(
                        fn, field.descriptor, field.describe()
                    ),
                )

    # -- reflection conversions ----------------------------------------------

    def check_reflected(self, env, fn: str, args) -> None:
        entity = args[1]
        is_static = bool(args[2]) if len(args) > 2 else False
        if isinstance(entity, JMethodID):
            if entity.method.is_static != is_static:
                self._fail(
                    fn,
                    "{}: isStatic={} but {} is {}".format(
                        fn,
                        is_static,
                        entity.method.describe(),
                        "static" if entity.method.is_static else "non-static",
                    ),
                )
        elif isinstance(entity, JFieldID):
            if entity.field.is_static != is_static:
                self._fail(
                    fn,
                    "{}: isStatic={} but {} is {}".format(
                        fn,
                        is_static,
                        entity.field.describe(),
                        "static" if entity.field.is_static else "non-static",
                    ),
                )

    def _fail(self, function: str, message: str) -> None:
        raise violation(
            message + ".",
            machine=self.spec.name,
            error_state=ERROR_MISMATCH.name,
            function=function,
        )

    def on_event(self, ctx) -> None:
        if (
            ctx.meta is not None
            and ctx.meta.takes_entity_id
            and ctx.event.direction is Direction.CALL_NATIVE_TO_MANAGED
        ):
            self.check(ctx.env, ctx.event.function, ctx.args)


def _result_matches(result_kind: str, declared_descriptor: str) -> bool:
    """Does a function's result kind agree with a declared descriptor?"""
    if result_kind == "V":
        return declared_descriptor == "V"
    if result_kind == "L":
        return descriptors.is_reference_descriptor(declared_descriptor)
    return declared_descriptor == result_kind


class EntityTypingSpec(StateMachineSpec):
    name = "entity_typing"
    observed_entity = "a pair of ID parameters"
    errors_discovered = (
        "type mismatch for Java field assignment",
        "type mismatch between actual and formal of a Java method",
    )
    constraint_class = "type"

    def states(self):
        return (CHECKED, ERROR_MISMATCH)

    def state_transitions(self):
        return (StateTransition(CHECKED, ERROR_MISMATCH, "jni call"),)

    def language_transitions_for(self, transition):
        return (
            LanguageTransition(
                Direction.CALL_NATIVE_TO_MANAGED,
                ENTITY_TAKING,
                EntitySelector.ID_PARAMETERS,
            ),
        )

    def make_encoding(self, vm):
        return EntityTypingEncoding(self, vm)

    def emit(self, meta, direction):
        if (
            meta is None
            or direction is not Direction.CALL_NATIVE_TO_MANAGED
            or not meta.takes_entity_id
        ):
            return []
        method, site_args = site_check(meta)
        return [
            'rt.entity_typing.{}(env, "{}", args{})'.format(
                method, meta.name, "".join(", " + repr(a) for a in site_args)
            )
        ]
