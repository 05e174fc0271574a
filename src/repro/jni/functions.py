"""Static metadata for all 229 JNI 1.6 interface functions.

The paper's key quantitative claim about JNI (Table 2) is that its 1,500+
usage rules reduce to per-function facts — which parameters are
references, which must not be null, which carry a fixed Java type, which
functions are exception- or critical-section-oblivious, and which acquire
or release resources.  This module is that fact base: one
:class:`FunctionMeta` record per JNI function, in function-table order.
Both the synthesizer (to specialize generated wrappers) and the Table 2
reproduction (to count constraints) read it.

The function inventory matches the JNI 1.6 specification exactly: 229
callable functions (the C function table has 233 slots, 4 reserved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Parameter/return type vocabulary.  Reference kinds are handle types C
#: code obtains from the JVM; "cstring" is a C string literal (class
#: names, signatures, messages); "buffer" is a raw memory area.
REFERENCE_JTYPES = frozenset(
    {
        "jobject",
        "jclass",
        "jstring",
        "jthrowable",
        "jarray",
        "jobjectArray",
        "jbooleanArray",
        "jbyteArray",
        "jcharArray",
        "jshortArray",
        "jintArray",
        "jlongArray",
        "jfloatArray",
        "jdoubleArray",
        "jweak",
    }
)
ID_JTYPES = frozenset({"jmethodID", "jfieldID"})
POINTER_JTYPES = REFERENCE_JTYPES | ID_JTYPES | {"cstring", "buffer", "jvalueArray"}

#: The eight primitive kinds in JNI declaration order:
#: (Name used in function names, descriptor character, array handle type).
PRIMITIVES = (
    ("Boolean", "Z", "jbooleanArray"),
    ("Byte", "B", "jbyteArray"),
    ("Char", "C", "jcharArray"),
    ("Short", "S", "jshortArray"),
    ("Int", "I", "jintArray"),
    ("Long", "J", "jlongArray"),
    ("Float", "F", "jfloatArray"),
    ("Double", "D", "jdoubleArray"),
)

#: Call/field result kinds: the eight primitives plus Object and (for
#: calls only) Void.
RESULT_KINDS = PRIMITIVES + (("Object", "L", None),)


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a JNI function.

    Attributes:
        name: the spec's parameter name (``clazz``, ``methodID``, ...).
        jtype: entry of the type vocabulary above.
        nullable: whether the specification permits NULL here.
        fixed_type: the Java type the actual must conform to when the
            function itself fixes it (paper §5.2 "fixed typing") — an
            internal class name, an array descriptor like ``[I``, ``[*``
            for any array, or a tuple of alternatives.
    """

    name: str
    jtype: str
    nullable: bool = False
    fixed_type: Optional[object] = None

    @property
    def is_reference(self) -> bool:
        return self.jtype in REFERENCE_JTYPES

    @property
    def is_id(self) -> bool:
        return self.jtype in ID_JTYPES

    @property
    def is_pointerish(self) -> bool:
        return self.jtype in POINTER_JTYPES


@dataclass(frozen=True)
class FunctionMeta:
    """Static description of one JNI interface function."""

    name: str
    family: str
    params: Tuple[ParamSpec, ...]
    returns: str
    #: May legally be called with an exception pending (20 functions).
    exception_oblivious: bool = False
    #: May legally be called inside a JNI critical section (4 functions).
    critical_safe: bool = False
    #: Takes a method/field ID whose signature constrains other params.
    takes_entity_id: bool = False
    #: May assign to a field (access-control constraint applies).
    writes_field: bool = False
    #: Resource kind acquired by a successful call.
    acquires: Optional[str] = None
    #: Resource kind released by a successful call.
    releases: Optional[str] = None
    #: Family-specific payload, e.g. the primitive descriptor for
    #: Call<Type>Method or the call mode ("virtual"/"nonvirtual"/"static").
    extra: Tuple[Tuple[str, object], ...] = ()

    # -- derived views used by the synthesizer -----------------------------

    @property
    def reference_param_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.params) if p.is_reference)

    @property
    def id_param_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.params) if p.is_id)

    @property
    def nonnull_param_indices(self) -> Tuple[int, ...]:
        return tuple(
            i
            for i, p in enumerate(self.params)
            if p.is_pointerish and not p.nullable
        )

    @property
    def fixed_type_params(self) -> Tuple[Tuple[int, object], ...]:
        return tuple(
            (i, p.fixed_type)
            for i, p in enumerate(self.params)
            if p.fixed_type is not None
        )

    @property
    def returns_reference(self) -> bool:
        return self.returns in REFERENCE_JTYPES

    @property
    def varargs(self) -> bool:
        """Ends in a C ``...`` parameter (31 functions), so has no fixed
        arity.  The ``V`` and ``A`` forms take their ``va_list`` or
        ``jvalue[]`` as one argument."""
        return bool(self.params) and self.params[-1].jtype == "varargs"

    def extra_value(self, key: str, default=None):
        for k, v in self.extra:
            if k == key:
                return v
        return default


def _p(name, jtype, nullable=False, fixed_type=None) -> ParamSpec:
    return ParamSpec(name, jtype, nullable, fixed_type)


_CLASS = "java/lang/Class"
_STRING = "java/lang/String"
_THROWABLE = "java/lang/Throwable"
_BUFFER = "java/nio/Buffer"
_REFLECT_METHOD = ("java/lang/reflect/Method", "java/lang/reflect/Constructor")
_REFLECT_FIELD = "java/lang/reflect/Field"


def _build_table() -> Dict[str, FunctionMeta]:
    table: Dict[str, FunctionMeta] = {}

    def add(meta: FunctionMeta) -> None:
        if meta.name in table:
            raise AssertionError("duplicate JNI function " + meta.name)
        table[meta.name] = meta

    # -- version --------------------------------------------------------
    add(FunctionMeta("GetVersion", "version", (), "jint"))

    # -- class operations -------------------------------------------------
    add(
        FunctionMeta(
            "DefineClass",
            "class_ops",
            (
                _p("name", "cstring"),
                _p(
                    "loader",
                    "jobject",
                    nullable=True,
                    fixed_type="java/lang/ClassLoader",
                ),
                _p("buf", "buffer"),
            ),
            "jclass",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "FindClass",
            "class_ops",
            (_p("name", "cstring"),),
            "jclass",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "FromReflectedMethod",
            "reflection",
            (_p("method", "jobject", fixed_type=_REFLECT_METHOD),),
            "jmethodID",
        )
    )
    add(
        FunctionMeta(
            "FromReflectedField",
            "reflection",
            (_p("field", "jobject", fixed_type=_REFLECT_FIELD),),
            "jfieldID",
        )
    )
    add(
        FunctionMeta(
            "ToReflectedMethod",
            "reflection",
            (
                _p("cls", "jclass", fixed_type=_CLASS),
                _p("methodID", "jmethodID"),
                _p("isStatic", "jboolean"),
            ),
            "jobject",
            takes_entity_id=True,
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "GetSuperclass",
            "class_ops",
            (_p("clazz", "jclass", fixed_type=_CLASS),),
            "jclass",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "IsAssignableFrom",
            "class_ops",
            (
                _p("clazz1", "jclass", fixed_type=_CLASS),
                _p("clazz2", "jclass", fixed_type=_CLASS),
            ),
            "jboolean",
        )
    )
    add(
        FunctionMeta(
            "ToReflectedField",
            "reflection",
            (
                _p("cls", "jclass", fixed_type=_CLASS),
                _p("fieldID", "jfieldID"),
                _p("isStatic", "jboolean"),
            ),
            "jobject",
            takes_entity_id=True,
            acquires="local",
        )
    )

    # -- exceptions ------------------------------------------------------
    add(
        FunctionMeta(
            "Throw",
            "exceptions",
            (_p("obj", "jthrowable", fixed_type=_THROWABLE),),
            "jint",
        )
    )
    add(
        FunctionMeta(
            "ThrowNew",
            "exceptions",
            (
                _p("clazz", "jclass", fixed_type=_CLASS),
                _p("message", "cstring", nullable=True),
            ),
            "jint",
        )
    )
    add(
        FunctionMeta(
            "ExceptionOccurred",
            "exceptions",
            (),
            "jthrowable",
            exception_oblivious=True,
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "ExceptionDescribe", "exceptions", (), "void", exception_oblivious=True
        )
    )
    add(
        FunctionMeta(
            "ExceptionClear", "exceptions", (), "void", exception_oblivious=True
        )
    )
    add(FunctionMeta("FatalError", "exceptions", (_p("msg", "cstring"),), "void"))

    # -- references --------------------------------------------------------
    add(
        FunctionMeta(
            "PushLocalFrame", "refs", (_p("capacity", "jint"),), "jint"
        )
    )
    add(
        FunctionMeta(
            "PopLocalFrame",
            "refs",
            (_p("result", "jobject", nullable=True),),
            "jobject",
            exception_oblivious=True,
            releases="local_frame",
        )
    )
    add(
        FunctionMeta(
            "NewGlobalRef",
            "refs",
            (_p("obj", "jobject", nullable=True),),
            "jobject",
            acquires="global",
        )
    )
    add(
        FunctionMeta(
            "DeleteGlobalRef",
            "refs",
            (_p("globalRef", "jobject", nullable=True),),
            "void",
            exception_oblivious=True,
            releases="global",
        )
    )
    add(
        FunctionMeta(
            "DeleteLocalRef",
            "refs",
            (_p("localRef", "jobject", nullable=True),),
            "void",
            exception_oblivious=True,
            releases="local",
        )
    )
    add(
        FunctionMeta(
            "IsSameObject",
            "refs",
            (
                _p("ref1", "jobject", nullable=True),
                _p("ref2", "jobject", nullable=True),
            ),
            "jboolean",
        )
    )
    add(
        FunctionMeta(
            "NewLocalRef",
            "refs",
            (_p("ref", "jobject", nullable=True),),
            "jobject",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "EnsureLocalCapacity", "refs", (_p("capacity", "jint"),), "jint"
        )
    )

    # -- object operations ---------------------------------------------------
    add(
        FunctionMeta(
            "AllocObject",
            "objects",
            (_p("clazz", "jclass", fixed_type=_CLASS),),
            "jobject",
            acquires="local",
        )
    )
    for suffix, args_param in (
        ("", _p("args", "varargs", nullable=True)),
        ("V", _p("args", "va_list", nullable=True)),
        ("A", _p("args", "jvalueArray", nullable=True)),
    ):
        add(
            FunctionMeta(
                "NewObject" + suffix,
                "new_object",
                (
                    _p("clazz", "jclass", fixed_type=_CLASS),
                    _p("methodID", "jmethodID"),
                    args_param,
                ),
                "jobject",
                takes_entity_id=True,
                acquires="local",
            )
        )
    add(
        FunctionMeta(
            "GetObjectClass",
            "objects",
            (_p("obj", "jobject"),),
            "jclass",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "IsInstanceOf",
            "objects",
            (
                _p("obj", "jobject", nullable=True),
                _p("clazz", "jclass", fixed_type=_CLASS),
            ),
            "jboolean",
        )
    )

    # -- method calls -----------------------------------------------------
    add(
        FunctionMeta(
            "GetMethodID",
            "method_ids",
            (
                _p("clazz", "jclass", fixed_type=_CLASS),
                _p("name", "cstring"),
                _p("sig", "cstring"),
            ),
            "jmethodID",
        )
    )

    def call_name(mode: str, kind: str, suffix: str) -> str:
        prefix = {"virtual": "Call", "nonvirtual": "CallNonvirtual", "static": "CallStatic"}[mode]
        return "{}{}Method{}".format(prefix, kind, suffix)

    call_results = RESULT_KINDS + (("Void", "V", None),)
    for mode in ("virtual", "nonvirtual", "static"):
        for kind, descriptor, _ in call_results:
            for suffix, args_param in (
                ("", _p("args", "varargs", nullable=True)),
                ("V", _p("args", "va_list", nullable=True)),
                ("A", _p("args", "jvalueArray", nullable=True)),
            ):
                params = []
                if mode in ("virtual", "nonvirtual"):
                    params.append(_p("obj", "jobject"))
                if mode in ("nonvirtual", "static"):
                    params.append(_p("clazz", "jclass", fixed_type=_CLASS))
                params.append(_p("methodID", "jmethodID"))
                params.append(args_param)
                returns = "jobject" if kind == "Object" else (
                    "void" if kind == "Void" else "j" + kind.lower()
                )
                add(
                    FunctionMeta(
                        call_name(mode, kind, suffix),
                        "calls",
                        tuple(params),
                        returns,
                        takes_entity_id=True,
                        acquires="local" if kind == "Object" else None,
                        extra=(("result_kind", descriptor), ("mode", mode)),
                    )
                )

    # -- instance fields ------------------------------------------------------
    add(
        FunctionMeta(
            "GetFieldID",
            "field_ids",
            (
                _p("clazz", "jclass", fixed_type=_CLASS),
                _p("name", "cstring"),
                _p("sig", "cstring"),
            ),
            "jfieldID",
        )
    )
    for kind, descriptor, _ in RESULT_KINDS:
        returns = "jobject" if kind == "Object" else "j" + kind.lower()
        add(
            FunctionMeta(
                "Get{}Field".format(kind),
                "field_access",
                (_p("obj", "jobject"), _p("fieldID", "jfieldID")),
                returns,
                takes_entity_id=True,
                acquires="local" if kind == "Object" else None,
                extra=(("result_kind", descriptor), ("static", False), ("write", False)),
            )
        )
    for kind, descriptor, _ in RESULT_KINDS:
        value_type = "jobject" if kind == "Object" else "j" + kind.lower()
        add(
            FunctionMeta(
                "Set{}Field".format(kind),
                "field_access",
                (
                    _p("obj", "jobject"),
                    _p("fieldID", "jfieldID"),
                    _p("value", value_type, nullable=(kind == "Object")),
                ),
                "void",
                takes_entity_id=True,
                writes_field=True,
                extra=(("result_kind", descriptor), ("static", False), ("write", True)),
            )
        )

    # -- static methods and fields ----------------------------------------------
    add(
        FunctionMeta(
            "GetStaticMethodID",
            "method_ids",
            (
                _p("clazz", "jclass", fixed_type=_CLASS),
                _p("name", "cstring"),
                _p("sig", "cstring"),
            ),
            "jmethodID",
        )
    )
    # (CallStatic* added in the loop above, in table order this is fine:
    # ordering within the dict only matters for the census, not dispatch.)
    add(
        FunctionMeta(
            "GetStaticFieldID",
            "field_ids",
            (
                _p("clazz", "jclass", fixed_type=_CLASS),
                _p("name", "cstring"),
                _p("sig", "cstring"),
            ),
            "jfieldID",
        )
    )
    for kind, descriptor, _ in RESULT_KINDS:
        returns = "jobject" if kind == "Object" else "j" + kind.lower()
        add(
            FunctionMeta(
                "GetStatic{}Field".format(kind),
                "field_access",
                (
                    _p("clazz", "jclass", fixed_type=_CLASS),
                    _p("fieldID", "jfieldID"),
                ),
                returns,
                takes_entity_id=True,
                acquires="local" if kind == "Object" else None,
                extra=(("result_kind", descriptor), ("static", True), ("write", False)),
            )
        )
    for kind, descriptor, _ in RESULT_KINDS:
        value_type = "jobject" if kind == "Object" else "j" + kind.lower()
        add(
            FunctionMeta(
                "SetStatic{}Field".format(kind),
                "field_access",
                (
                    _p("clazz", "jclass", fixed_type=_CLASS),
                    _p("fieldID", "jfieldID"),
                    _p("value", value_type, nullable=(kind == "Object")),
                ),
                "void",
                takes_entity_id=True,
                writes_field=True,
                extra=(("result_kind", descriptor), ("static", True), ("write", True)),
            )
        )

    # -- strings ------------------------------------------------------------
    add(
        FunctionMeta(
            "NewString",
            "strings",
            (_p("unicodeChars", "buffer"), _p("len", "jsize")),
            "jstring",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "GetStringLength",
            "strings",
            (_p("string", "jstring", fixed_type=_STRING),),
            "jsize",
        )
    )
    add(
        FunctionMeta(
            "GetStringChars",
            "strings",
            (_p("string", "jstring", fixed_type=_STRING),),
            "buffer",
            acquires="pinned",
        )
    )
    add(
        FunctionMeta(
            "ReleaseStringChars",
            "strings",
            (
                _p("string", "jstring", fixed_type=_STRING),
                _p("chars", "buffer"),
            ),
            "void",
            exception_oblivious=True,
            releases="pinned",
        )
    )
    add(
        FunctionMeta(
            "NewStringUTF",
            "strings",
            (_p("bytes", "cstring"),),
            "jstring",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "GetStringUTFLength",
            "strings",
            (_p("string", "jstring", fixed_type=_STRING),),
            "jsize",
        )
    )
    add(
        FunctionMeta(
            "GetStringUTFChars",
            "strings",
            (_p("string", "jstring", fixed_type=_STRING),),
            "buffer",
            acquires="pinned",
        )
    )
    add(
        FunctionMeta(
            "ReleaseStringUTFChars",
            "strings",
            (
                _p("string", "jstring", fixed_type=_STRING),
                _p("utf", "buffer"),
            ),
            "void",
            exception_oblivious=True,
            releases="pinned",
        )
    )

    # -- arrays ---------------------------------------------------------------
    add(
        FunctionMeta(
            "GetArrayLength",
            "arrays",
            (_p("array", "jarray", fixed_type="[*"),),
            "jsize",
        )
    )
    add(
        FunctionMeta(
            "NewObjectArray",
            "arrays",
            (
                _p("length", "jsize"),
                _p("elementClass", "jclass", fixed_type=_CLASS),
                _p("initialElement", "jobject", nullable=True),
            ),
            "jobjectArray",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "GetObjectArrayElement",
            "arrays",
            (
                _p("array", "jobjectArray", fixed_type="[L"),
                _p("index", "jsize"),
            ),
            "jobject",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "SetObjectArrayElement",
            "arrays",
            (
                _p("array", "jobjectArray", fixed_type="[L"),
                _p("index", "jsize"),
                _p("value", "jobject", nullable=True),
            ),
            "void",
        )
    )
    for kind, descriptor, array_jtype in PRIMITIVES:
        add(
            FunctionMeta(
                "New{}Array".format(kind),
                "arrays",
                (_p("length", "jsize"),),
                array_jtype,
                acquires="local",
                extra=(("element", descriptor),),
            )
        )
    for kind, descriptor, array_jtype in PRIMITIVES:
        add(
            FunctionMeta(
                "Get{}ArrayElements".format(kind),
                "arrays",
                (_p("array", array_jtype, fixed_type="[" + descriptor),),
                "buffer",
                acquires="pinned",
                extra=(("element", descriptor),),
            )
        )
    for kind, descriptor, array_jtype in PRIMITIVES:
        add(
            FunctionMeta(
                "Release{}ArrayElements".format(kind),
                "arrays",
                (
                    _p("array", array_jtype, fixed_type="[" + descriptor),
                    _p("elems", "buffer"),
                    _p("mode", "jint"),
                ),
                "void",
                exception_oblivious=True,
                releases="pinned",
                extra=(("element", descriptor),),
            )
        )
    for kind, descriptor, array_jtype in PRIMITIVES:
        add(
            FunctionMeta(
                "Get{}ArrayRegion".format(kind),
                "arrays",
                (
                    _p("array", array_jtype, fixed_type="[" + descriptor),
                    _p("start", "jsize"),
                    _p("len", "jsize"),
                    _p("buf", "buffer"),
                ),
                "void",
                extra=(("element", descriptor),),
            )
        )
    for kind, descriptor, array_jtype in PRIMITIVES:
        add(
            FunctionMeta(
                "Set{}ArrayRegion".format(kind),
                "arrays",
                (
                    _p("array", array_jtype, fixed_type="[" + descriptor),
                    _p("start", "jsize"),
                    _p("len", "jsize"),
                    _p("buf", "buffer"),
                ),
                "void",
                extra=(("element", descriptor),),
            )
        )

    # -- native method registration ---------------------------------------------
    add(
        FunctionMeta(
            "RegisterNatives",
            "natives",
            (
                _p("clazz", "jclass", fixed_type=_CLASS),
                _p("methods", "buffer"),
                _p("nMethods", "jint"),
            ),
            "jint",
        )
    )
    add(
        FunctionMeta(
            "UnregisterNatives",
            "natives",
            (_p("clazz", "jclass", fixed_type=_CLASS),),
            "jint",
        )
    )

    # -- monitors -----------------------------------------------------------
    add(
        FunctionMeta(
            "MonitorEnter",
            "monitors",
            (_p("obj", "jobject"),),
            "jint",
            acquires="monitor",
        )
    )
    add(
        FunctionMeta(
            "MonitorExit",
            "monitors",
            (_p("obj", "jobject"),),
            "jint",
            releases="monitor",
        )
    )

    # -- VM interface -----------------------------------------------------------
    add(FunctionMeta("GetJavaVM", "vm", (), "JavaVM"))

    # -- string regions -----------------------------------------------------
    add(
        FunctionMeta(
            "GetStringRegion",
            "strings",
            (
                _p("str", "jstring", fixed_type=_STRING),
                _p("start", "jsize"),
                _p("len", "jsize"),
                _p("buf", "buffer"),
            ),
            "void",
        )
    )
    add(
        FunctionMeta(
            "GetStringUTFRegion",
            "strings",
            (
                _p("str", "jstring", fixed_type=_STRING),
                _p("start", "jsize"),
                _p("len", "jsize"),
                _p("buf", "buffer"),
            ),
            "void",
        )
    )

    # -- critical regions -------------------------------------------------------
    add(
        FunctionMeta(
            "GetPrimitiveArrayCritical",
            "critical",
            (_p("array", "jarray", fixed_type="[*"),),
            "buffer",
            critical_safe=True,
            acquires="critical",
        )
    )
    add(
        FunctionMeta(
            "ReleasePrimitiveArrayCritical",
            "critical",
            (
                _p("array", "jarray", fixed_type="[*"),
                _p("carray", "buffer"),
                _p("mode", "jint"),
            ),
            "void",
            exception_oblivious=True,
            critical_safe=True,
            releases="critical",
        )
    )
    add(
        FunctionMeta(
            "GetStringCritical",
            "critical",
            (_p("string", "jstring", fixed_type=_STRING),),
            "buffer",
            critical_safe=True,
            acquires="critical",
        )
    )
    add(
        FunctionMeta(
            "ReleaseStringCritical",
            "critical",
            (
                _p("string", "jstring", fixed_type=_STRING),
                _p("carray", "buffer"),
            ),
            "void",
            exception_oblivious=True,
            critical_safe=True,
            releases="critical",
        )
    )

    # -- weak global references --------------------------------------------------
    add(
        FunctionMeta(
            "NewWeakGlobalRef",
            "refs",
            (_p("obj", "jobject"),),
            "jweak",
            acquires="weak",
        )
    )
    add(
        FunctionMeta(
            "DeleteWeakGlobalRef",
            "refs",
            (_p("obj", "jweak", nullable=True),),
            "void",
            exception_oblivious=True,
            releases="weak",
        )
    )

    # -- exception check ----------------------------------------------------------
    add(
        FunctionMeta(
            "ExceptionCheck", "exceptions", (), "jboolean", exception_oblivious=True
        )
    )

    # -- NIO ------------------------------------------------------------------
    add(
        FunctionMeta(
            "NewDirectByteBuffer",
            "nio",
            (_p("address", "buffer"), _p("capacity", "jlong")),
            "jobject",
            acquires="local",
        )
    )
    add(
        FunctionMeta(
            "GetDirectBufferAddress",
            "nio",
            (_p("buf", "jobject", fixed_type=_BUFFER),),
            "buffer",
        )
    )
    add(
        FunctionMeta(
            "GetDirectBufferCapacity",
            "nio",
            (_p("buf", "jobject", fixed_type=_BUFFER),),
            "jlong",
        )
    )

    # -- reference introspection -----------------------------------------------
    add(
        FunctionMeta(
            "GetObjectRefType",
            "refs",
            (_p("obj", "jobject", nullable=True),),
            "jobjectRefType",
        )
    )

    return table


#: The full JNI function table, name -> metadata, in specification order.
FUNCTIONS: Dict[str, FunctionMeta] = _build_table()

#: Paper Table 2 reports 229 JNI functions; the inventory must match.
EXPECTED_FUNCTION_COUNT = 229


def get(name: str) -> FunctionMeta:
    return FUNCTIONS[name]


def census() -> Dict[str, int]:
    """Constraint counts in the shape of the paper's Table 2.

    Keys mirror Table 2's rows; values are derived purely from the
    metadata table, so the Table 2 reproduction is a measurement of this
    fact base rather than hard-coded numbers.
    """
    metas = list(FUNCTIONS.values())
    return {
        "jnienv_state": len(metas),
        "exception_state": sum(1 for m in metas if not m.exception_oblivious),
        "critical_section": sum(1 for m in metas if not m.critical_safe),
        "fixed_typing": sum(len(m.fixed_type_params) for m in metas),
        "entity_typing": sum(1 for m in metas if m.takes_entity_id),
        "access_control": sum(1 for m in metas if m.writes_field),
        "nullness": sum(len(m.nonnull_param_indices) for m in metas),
        "pinned": sum(1 for m in metas if m.releases == "pinned")
        + sum(1 for m in metas if m.releases == "critical"),
        "monitor": sum(1 for m in metas if m.releases == "monitor"),
        "global_weak_use": sum(1 for m in metas if m.reference_param_indices),
        "local_ref": sum(1 for m in metas if m.reference_param_indices)
        + sum(1 for m in metas if m.acquires == "local")
        + sum(1 for m in metas if m.releases in ("local", "local_frame")),
    }
