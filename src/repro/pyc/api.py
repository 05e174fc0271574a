"""The Python/C API over the simulated interpreter.

Mirrors the JNI layer's structure: every function dispatches through a
table so the synthesized checker can interpose, and the raw
implementations perform CPython's behaviour *without* safety — using a
freed object reads stale or garbage memory, decref'ing a freed object
corrupts the heap, and most functions skip checks the interpreter forgoes
"for performance reasons" (paper §7.1).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.pyc.objects import GARBAGE, InterpreterCrash, PyObj
from repro.pyc.spec import PY_FUNCTIONS


class PyCApi:
    """Per-interpreter C API surface (what ``Python.h`` exposes)."""

    def __init__(self, interp):
        self.interp = interp
        self._table: Dict[str, Callable] = dict(_RAW_TABLE)
        self._bind()

    @property
    def Py_None(self) -> PyObj:
        return self.interp.none

    @property
    def Py_True(self) -> PyObj:
        return self.interp.true

    @property
    def Py_False(self) -> PyObj:
        return self.interp.false

    def _bind(self) -> None:
        for name in PY_FUNCTIONS:
            setattr(self, name, self._make_entry(name))

    def _make_entry(self, name: str):
        def entry(*args):
            self.interp.transition_count += 2
            return self._table[name](self, *args)

        entry.__name__ = name
        return entry

    def function_table(self) -> Dict[str, Callable]:
        """The *current* table — wrappers included, so interposers stack."""
        return dict(self._table)

    def install_function_table(self, table: Dict[str, Callable]) -> None:
        unknown = set(table) - set(PY_FUNCTIONS)
        if unknown:
            raise KeyError("not Python/C functions: {}".format(sorted(unknown)))
        self._table.update(table)

    # -- convenience for "C code" in workloads -----------------------------

    def Py_RETURN_NONE(self) -> PyObj:
        self.Py_IncRef(self.interp.none)
        return self.interp.none


# ======================================================================
# Raw implementations
# ======================================================================


def _guard(obj, what: str) -> PyObj:
    if not isinstance(obj, PyObj):
        raise InterpreterCrash("{}: not a PyObject*: {!r}".format(what, obj))
    return obj


def _raw_Py_IncRef(api, obj):
    _guard(obj, "Py_IncRef").incref()


def _raw_Py_DecRef(api, obj):
    _guard(obj, "Py_DecRef").decref()


def _raw_Py_XIncRef(api, obj):
    if obj is not None:
        _guard(obj, "Py_XIncRef").incref()


def _raw_Py_XDecRef(api, obj):
    if obj is not None:
        _guard(obj, "Py_XDecRef").decref()


def _raw_Py_BuildValue(api, fmt, *args):
    values, rest = _build_values(api, fmt, list(args))
    if rest:
        raise InterpreterCrash("Py_BuildValue: too many arguments for " + fmt)
    if len(values) == 1:
        return values[0]
    return api.interp.new_tuple(values)


def _build_values(api, fmt: str, args: list):
    """Parse a Py_BuildValue format string; returns (objects, leftover)."""
    interp = api.interp
    values = []
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == "s":
            values.append(interp.new_str(str(args.pop(0))))
        elif ch == "i":
            values.append(interp.new_int(int(args.pop(0))))
        elif ch == "d":
            values.append(interp.new_float(float(args.pop(0))))
        elif ch == "O":
            obj = _guard(args.pop(0), "Py_BuildValue O")
            obj.incref()
            values.append(obj)
        elif ch == "[":
            close = _matching(fmt, i, "[", "]")
            inner, args = _consume(api, fmt[i + 1 : close], args)
            values.append(interp.new_list(inner))
            i = close
        elif ch == "(":
            close = _matching(fmt, i, "(", ")")
            inner, args = _consume(api, fmt[i + 1 : close], args)
            values.append(interp.new_tuple(inner))
            i = close
        elif ch == "{":
            close = _matching(fmt, i, "{", "}")
            if close != i + 1:
                raise InterpreterCrash("Py_BuildValue: only '{}' supported")
            values.append(interp.new_dict())
            i = close
        elif ch in " ,":
            pass
        else:
            raise InterpreterCrash(
                "Py_BuildValue: unsupported format char {!r}".format(ch)
            )
        i += 1
    return values, args


def _consume(api, inner_fmt, args):
    values, rest = _build_values(api, inner_fmt, args)
    return values, rest


def _matching(fmt: str, start: int, open_ch: str, close_ch: str) -> int:
    depth = 0
    for i in range(start, len(fmt)):
        if fmt[i] == open_ch:
            depth += 1
        elif fmt[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    raise InterpreterCrash("Py_BuildValue: unbalanced " + open_ch)


def _raw_PyArg_ParseTuple(api, args, fmt):
    """Parse an argument tuple; ``O`` conversions yield *borrowed* refs.

    Returns a tuple of converted values, or None with a TypeError pending
    (the C convention's 0 return).
    """
    payload = _guard(args, "PyArg_ParseTuple").read()
    if not isinstance(payload, list):
        api.interp.set_exception("TypeError", "argument list expected")
        return None
    values = []
    position = 0
    for ch in fmt:
        if ch in " ,:":
            continue
        if position >= len(payload):
            api.interp.set_exception(
                "TypeError", "not enough arguments for format " + fmt
            )
            return None
        item = payload[position]
        position += 1
        if ch == "s":
            text = item.read() if isinstance(item, PyObj) else item
            if not isinstance(text, str):
                api.interp.set_exception("TypeError", "expected str")
                return None
            values.append(text)
        elif ch == "i":
            number = item.read() if isinstance(item, PyObj) else item
            if not isinstance(number, int):
                api.interp.set_exception("TypeError", "expected int")
                return None
            values.append(number)
        elif ch == "d":
            number = item.read() if isinstance(item, PyObj) else item
            if not isinstance(number, (int, float)):
                api.interp.set_exception("TypeError", "expected float")
                return None
            values.append(float(number))
        elif ch == "O":
            values.append(item)  # borrowed from the argument tuple
        else:
            raise InterpreterCrash(
                "PyArg_ParseTuple: unsupported format char {!r}".format(ch)
            )
    if position != len(payload):
        api.interp.set_exception(
            "TypeError", "too many arguments for format " + fmt
        )
        return None
    return tuple(values)


def _raw_PyLong_FromLong(api, value):
    return api.interp.new_int(int(value))


def _raw_PyLong_AsLong(api, obj):
    payload = _guard(obj, "PyLong_AsLong").read()
    if isinstance(payload, int):
        return payload
    api.interp.set_exception("TypeError", "an integer is required")
    return -1


def _raw_PyFloat_FromDouble(api, value):
    return api.interp.new_float(float(value))


def _raw_PyFloat_AsDouble(api, obj):
    payload = _guard(obj, "PyFloat_AsDouble").read()
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return float(payload)
    api.interp.set_exception("TypeError", "a float is required")
    return -1.0


def _raw_PyBool_FromLong(api, value):
    return api.interp.true if value else api.interp.false


def _raw_PyString_FromString(api, data):
    return api.interp.new_str(str(data))


def _raw_PyString_AsString(api, obj):
    payload = _guard(obj, "PyString_AsString").read()
    if payload == GARBAGE:
        return GARBAGE  # reading reused memory
    if isinstance(payload, str):
        return payload
    api.interp.set_exception("TypeError", "expected str")
    return None


def _raw_PyString_Size(api, obj):
    payload = _guard(obj, "PyString_Size").read()
    return len(payload) if isinstance(payload, str) else -1


def _raw_PyObject_IsTrue(api, obj):
    payload = _guard(obj, "PyObject_IsTrue").read()
    return 1 if payload else 0


def _raw_PyObject_Length(api, obj):
    payload = _guard(obj, "PyObject_Length").read()
    try:
        return len(payload)
    except TypeError:
        api.interp.set_exception("TypeError", "object has no len()")
        return -1


def _raw_PyObject_Str(api, obj):
    payload = _guard(obj, "PyObject_Str").read()
    return api.interp.new_str(str(payload))


def _raw_PyObject_Repr(api, obj):
    payload = _guard(obj, "PyObject_Repr").read()
    return api.interp.new_str(repr(payload))


def _raw_PyList_New(api, size):
    return api.interp.new_list([None] * int(size))


def _raw_PyList_Size(api, lst):
    payload = _guard(lst, "PyList_Size").read()
    return len(payload) if isinstance(payload, list) else -1


def _raw_PyList_GetItem(api, lst, index):
    payload = _guard(lst, "PyList_GetItem").read()
    if not isinstance(payload, list) or not 0 <= index < len(payload):
        api.interp.set_exception("IndexError", "list index out of range")
        return None
    return payload[index]  # borrowed: no incref


def _raw_PyList_SetItem(api, lst, index, item):
    payload = _guard(lst, "PyList_SetItem").read()
    if not isinstance(payload, list) or not 0 <= index < len(payload):
        api.interp.set_exception("IndexError", "list assignment out of range")
        return -1
    old = payload[index]
    payload[index] = item  # steals the reference to item
    if isinstance(old, PyObj) and not old.freed:
        old.decref()
    return 0


def _raw_PyList_Append(api, lst, item):
    payload = _guard(lst, "PyList_Append").read()
    if not isinstance(payload, list):
        api.interp.set_exception("TypeError", "not a list")
        return -1
    _guard(item, "PyList_Append item").incref()
    payload.append(item)
    return 0


def _raw_PyList_Insert(api, lst, index, item):
    payload = _guard(lst, "PyList_Insert").read()
    if not isinstance(payload, list):
        api.interp.set_exception("TypeError", "not a list")
        return -1
    _guard(item, "PyList_Insert item").incref()
    payload.insert(index, item)
    return 0


def _raw_PyTuple_New(api, size):
    return api.interp.new_tuple([None] * int(size))


def _raw_PyTuple_Size(api, tup):
    payload = _guard(tup, "PyTuple_Size").read()
    return len(payload) if isinstance(payload, list) else -1


def _raw_PyTuple_GetItem(api, tup, index):
    payload = _guard(tup, "PyTuple_GetItem").read()
    if not isinstance(payload, list) or not 0 <= index < len(payload):
        api.interp.set_exception("IndexError", "tuple index out of range")
        return None
    return payload[index]  # borrowed


def _raw_PyTuple_SetItem(api, tup, index, item):
    payload = _guard(tup, "PyTuple_SetItem").read()
    if not isinstance(payload, list) or not 0 <= index < len(payload):
        api.interp.set_exception("IndexError", "tuple assignment out of range")
        return -1
    old = payload[index]
    payload[index] = item  # steals
    if isinstance(old, PyObj) and not old.freed:
        old.decref()
    return 0


def _raw_PyDict_New(api):
    return api.interp.new_dict()


def _raw_PyDict_Size(api, dct):
    payload = _guard(dct, "PyDict_Size").read()
    return len(payload) if isinstance(payload, dict) else -1


def _raw_PyDict_SetItemString(api, dct, key, value):
    payload = _guard(dct, "PyDict_SetItemString").read()
    if not isinstance(payload, dict):
        api.interp.set_exception("TypeError", "not a dict")
        return -1
    _guard(value, "PyDict_SetItemString value").incref()
    old = payload.get(key)
    payload[key] = value
    if isinstance(old, PyObj) and not old.freed:
        old.decref()
    return 0


def _raw_PyDict_GetItemString(api, dct, key):
    payload = _guard(dct, "PyDict_GetItemString").read()
    if not isinstance(payload, dict):
        return None
    return payload.get(key)  # borrowed; no exception on miss


def _raw_PySequence_GetItem(api, seq, index):
    payload = _guard(seq, "PySequence_GetItem").read()
    if not isinstance(payload, list) or not 0 <= index < len(payload):
        api.interp.set_exception("IndexError", "sequence index out of range")
        return None
    item = payload[index]
    if isinstance(item, PyObj):
        item.incref()  # new reference, unlike PyList_GetItem
    return item


def _raw_PyNumber_Add(api, a, b):
    va = _guard(a, "PyNumber_Add").read()
    vb = _guard(b, "PyNumber_Add").read()
    try:
        result = va + vb
    except TypeError:
        api.interp.set_exception("TypeError", "unsupported operand types")
        return None
    if isinstance(result, str):
        return api.interp.new_str(result)
    if isinstance(result, float):
        return api.interp.new_float(result)
    if isinstance(result, list):
        return api.interp.new_list(result)
    return api.interp.new_int(result)


def _raw_PyObject_GetAttrString(api, obj, name):
    payload = _guard(obj, "PyObject_GetAttrString").read()
    if isinstance(payload, dict) and name in payload:
        value = payload[name]
        if isinstance(value, PyObj):
            value.incref()
        return value
    api.interp.set_exception("AttributeError", name)
    return None


def _raw_PyObject_SetAttrString(api, obj, name, value):
    payload = _guard(obj, "PyObject_SetAttrString").read()
    if not isinstance(payload, dict):
        api.interp.set_exception("TypeError", "object has no attributes")
        return -1
    _guard(value, "PyObject_SetAttrString value").incref()
    payload[name] = value
    return 0


def _raw_PyObject_CallObject(api, callable_obj, args):
    payload = _guard(callable_obj, "PyObject_CallObject").read()
    if not callable(payload):
        api.interp.set_exception("TypeError", "object is not callable")
        return None
    arg_list = []
    if args is not None:
        arg_list = list(_guard(args, "PyObject_CallObject args").read() or [])
    return payload(api, *arg_list)


def _raw_PyCallable_Check(api, obj):
    return 1 if callable(_guard(obj, "PyCallable_Check").read()) else 0


def _raw_PyErr_SetString(api, exc_type, message):
    api.interp.set_exception(str(exc_type), str(message))


def _raw_PyErr_Occurred(api):
    if api.interp.exc_info is None:
        return None
    return api.interp.new_str(api.interp.exc_info[0])


def _raw_PyErr_Clear(api):
    api.interp.clear_exception()


def _raw_PyErr_Fetch(api):
    info = api.interp.exc_info
    api.interp.clear_exception()
    if info is None:
        return None
    return api.interp.new_tuple(
        [api.interp.new_str(info[0]), api.interp.new_str(info[1])]
    )


def _raw_PyGILState_Ensure(api):
    interp = api.interp
    holder = interp.gil_holder
    if holder == interp.current_thread:
        # Re-ensuring is legal; a matching Release is still required.
        return ("gil", interp.current_thread, "nested")
    if holder is not None:
        raise InterpreterCrash(
            "deadlock: GIL held by {} while {} blocks forever".format(
                holder, interp.current_thread
            )
        )
    interp.gil_holder = interp.current_thread
    return ("gil", interp.current_thread, "acquired")


def _raw_PyGILState_Release(api, handle):
    interp = api.interp
    if not isinstance(handle, tuple) or handle[0] != "gil":
        raise InterpreterCrash("PyGILState_Release with bad handle")
    if handle[2] == "acquired":
        interp.gil_holder = None


def _raw_PyEval_SaveThread(api):
    interp = api.interp
    token = ("tstate", interp.gil_holder)
    interp.gil_holder = None
    return token


def _raw_PyEval_RestoreThread(api, token):
    interp = api.interp
    if not isinstance(token, tuple) or token[0] != "tstate":
        raise InterpreterCrash("PyEval_RestoreThread with bad token")
    if interp.gil_holder is not None:
        raise InterpreterCrash(
            "deadlock: restoring thread state while GIL is held"
        )
    interp.gil_holder = token[1]


def _build_raw_table() -> Dict[str, Callable]:
    table = {}
    module = globals()
    for name in PY_FUNCTIONS:
        impl = module.get("_raw_" + name)
        if impl is None:
            raise AssertionError("no raw implementation for " + name)
        table[name] = impl
    return table


_RAW_TABLE = _build_raw_table()
