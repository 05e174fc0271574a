"""Reference-semantics specification for the Python/C API subset.

This is the "specification file that lists which functions return new or
borrowed references" of paper §7.2.  Every API function carries:

- ``ref_kind``: "new" (the caller co-owns the result), "borrowed" (the
  result's lifetime is tied to another object), or None;
- ``borrow_from``: for borrowed returns, the parameter index the borrow's
  owner comes from;
- ``steals``: parameter index whose reference the callee consumes
  (``PyList_SetItem`` and ``PyTuple_SetItem``);
- ``object_params``: indices of PyObject* parameters (use sites for the
  dangling-borrow check);
- ``exception_oblivious`` / ``gil_free``: the state-constraint flags,
  mirroring the JNI classification (§7.1);
- ``varargs``: the last parameter is a C ``...`` (``Py_BuildValue``), so
  the function's synthesized entry takes ``*args``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class PyFunctionMeta:
    """Static description of one Python/C API function."""

    name: str
    params: Tuple[str, ...]
    returns: str = "object"  # "object", "int", "str", "void", "handle"
    ref_kind: Optional[str] = None  # "new" | "borrowed" | None
    borrow_from: Optional[int] = None
    steals: Optional[int] = None
    object_params: Tuple[int, ...] = ()
    exception_oblivious: bool = False
    gil_free: bool = False
    #: Reference-count effect on an object parameter: (index, delta).
    count_effect: Optional[Tuple[int, int]] = None
    #: Expected Python type per object parameter: (index, type name or
    #: tuple of names).  The §7.1 type constraints: the interpreter
    #: forgoes these checks in fast paths "for performance reasons".
    expected_types: Tuple[Tuple[int, object], ...] = ()
    #: The last parameter is a C ``...``: the function has no fixed arity.
    varargs: bool = False


def _f(name, params, **kwargs) -> PyFunctionMeta:
    return PyFunctionMeta(name, tuple(params), **kwargs)


def _build() -> Dict[str, PyFunctionMeta]:
    metas = [
        # -- reference counting (macros in CPython; functions here, as the
        # paper's customized interpreter makes them) ------------------------
        _f("Py_IncRef", ["obj"], returns="void", object_params=(0,),
           count_effect=(0, 1), exception_oblivious=True),
        _f("Py_DecRef", ["obj"], returns="void", object_params=(0,),
           count_effect=(0, -1), exception_oblivious=True),
        _f("Py_XIncRef", ["obj"], returns="void", object_params=(0,),
           count_effect=(0, 1), exception_oblivious=True),
        _f("Py_XDecRef", ["obj"], returns="void", object_params=(0,),
           count_effect=(0, -1), exception_oblivious=True),
        # -- construction ------------------------------------------------
        _f("Py_BuildValue", ["format", "args"], ref_kind="new",
           varargs=True),
        _f("PyArg_ParseTuple", ["args", "format"], returns="int",
           object_params=(0,), expected_types=((0, "tuple"),)),
        _f("PyLong_FromLong", ["value"], ref_kind="new"),
        _f("PyFloat_FromDouble", ["value"], ref_kind="new"),
        _f("PyBool_FromLong", ["value"], ref_kind="new"),
        _f("PyString_FromString", ["data"], ref_kind="new"),
        # -- scalar access --------------------------------------------------
        _f("PyLong_AsLong", ["obj"], returns="int", object_params=(0,),
           expected_types=((0, ("int", "bool")),)),
        _f("PyFloat_AsDouble", ["obj"], returns="int", object_params=(0,),
           expected_types=((0, ("float", "int")),)),
        _f("PyString_AsString", ["obj"], returns="str", object_params=(0,),
           expected_types=((0, "str"),)),
        _f("PyString_Size", ["obj"], returns="int", object_params=(0,),
           expected_types=((0, "str"),)),
        _f("PyObject_IsTrue", ["obj"], returns="int", object_params=(0,)),
        _f("PyObject_Length", ["obj"], returns="int", object_params=(0,)),
        _f("PyObject_Str", ["obj"], ref_kind="new", object_params=(0,)),
        _f("PyObject_Repr", ["obj"], ref_kind="new", object_params=(0,)),
        # -- lists -------------------------------------------------------
        _f("PyList_New", ["size"], ref_kind="new"),
        _f("PyList_Size", ["list"], returns="int", object_params=(0,),
           expected_types=((0, "list"),)),
        _f("PyList_GetItem", ["list", "index"], ref_kind="borrowed",
           borrow_from=0, object_params=(0,), expected_types=((0, "list"),)),
        _f("PyList_SetItem", ["list", "index", "item"], returns="int",
           steals=2, object_params=(0, 2), expected_types=((0, "list"),)),
        _f("PyList_Append", ["list", "item"], returns="int",
           object_params=(0, 1), count_effect=(1, 1),
           expected_types=((0, "list"),)),
        _f("PyList_Insert", ["list", "index", "item"], returns="int",
           object_params=(0, 2), count_effect=(2, 1),
           expected_types=((0, "list"),)),
        # -- tuples ----------------------------------------------------------
        _f("PyTuple_New", ["size"], ref_kind="new"),
        _f("PyTuple_Size", ["tuple"], returns="int", object_params=(0,),
           expected_types=((0, "tuple"),)),
        _f("PyTuple_GetItem", ["tuple", "index"], ref_kind="borrowed",
           borrow_from=0, object_params=(0,),
           expected_types=((0, "tuple"),)),
        _f("PyTuple_SetItem", ["tuple", "index", "item"], returns="int",
           steals=2, object_params=(0, 2), expected_types=((0, "tuple"),)),
        # -- dicts ---------------------------------------------------------
        _f("PyDict_New", [], ref_kind="new"),
        _f("PyDict_Size", ["dict"], returns="int", object_params=(0,),
           expected_types=((0, "dict"),)),
        _f("PyDict_SetItemString", ["dict", "key", "value"], returns="int",
           object_params=(0, 2), count_effect=(2, 1),
           expected_types=((0, "dict"),)),
        _f("PyDict_GetItemString", ["dict", "key"], ref_kind="borrowed",
           borrow_from=0, object_params=(0,), expected_types=((0, "dict"),)),
        # -- abstract protocols --------------------------------------------
        _f("PySequence_GetItem", ["seq", "index"], ref_kind="new",
           object_params=(0,)),
        _f("PyNumber_Add", ["a", "b"], ref_kind="new", object_params=(0, 1)),
        _f("PyObject_GetAttrString", ["obj", "name"], ref_kind="new",
           object_params=(0,)),
        _f("PyObject_SetAttrString", ["obj", "name", "value"], returns="int",
           object_params=(0, 2)),
        _f("PyObject_CallObject", ["callable", "args"], ref_kind="new",
           object_params=(0, 1)),
        _f("PyCallable_Check", ["obj"], returns="int", object_params=(0,)),
        # -- exceptions ------------------------------------------------------
        _f("PyErr_SetString", ["exc_type", "message"], returns="void",
           exception_oblivious=True),
        _f("PyErr_Occurred", [], ref_kind="borrowed",
           exception_oblivious=True),
        _f("PyErr_Clear", [], returns="void", exception_oblivious=True),
        _f("PyErr_Fetch", [], returns="object", exception_oblivious=True),
        # -- GIL ---------------------------------------------------------
        _f("PyGILState_Ensure", [], returns="handle", gil_free=True,
           exception_oblivious=True),
        _f("PyGILState_Release", ["handle"], returns="void", gil_free=True,
           exception_oblivious=True),
        _f("PyEval_SaveThread", [], returns="handle",
           exception_oblivious=True),
        _f("PyEval_RestoreThread", ["token"], returns="void", gil_free=True,
           exception_oblivious=True),
    ]
    return {meta.name: meta for meta in metas}


#: The Python/C function table, name -> metadata.
PY_FUNCTIONS: Dict[str, PyFunctionMeta] = _build()


def census() -> Dict[str, int]:
    """Constraint counts per class, the §7.1 analogue of Table 2."""
    metas = list(PY_FUNCTIONS.values())
    return {
        "gil_state": sum(1 for m in metas if not m.gil_free),
        "exception_state": sum(1 for m in metas if not m.exception_oblivious),
        "new_references": sum(1 for m in metas if m.ref_kind == "new"),
        "borrowed_references": sum(1 for m in metas if m.ref_kind == "borrowed"),
        "steals": sum(1 for m in metas if m.steals is not None),
        "use_sites": sum(1 for m in metas if m.object_params),
        "type_constraints": sum(len(m.expected_types) for m in metas),
    }
