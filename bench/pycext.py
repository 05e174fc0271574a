"""Seeded Python/C extension kernels for the ``pyc-ext`` workload.

A kernel is one C extension function that loops over a mix of four
operation families, each a short, correct use of the Python/C API:

- ``list``: build a list, append an owned item, read it back borrowed;
- ``dict``: set and get a string value, read the borrowed result;
- ``number``: integer and float round trips through ``PyNumber_Add``;
- ``error``: set, test and clear an exception, then release and
  re-acquire the GIL.

Every reference is released and every error cleared, so a checked run
must report nothing.  The seed draws each kernel's family weights; the
kernel itself receives only the generated mix.  This module imports
nothing from ``repro`` (the kernels see the API object they are handed),
so the set-up probe can time ``import repro`` without it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

FAMILIES: Tuple[str, ...] = ("list", "dict", "number", "error")

#: API calls one operation of each family makes (two transitions each).
CALLS: Dict[str, int] = {"list": 8, "dict": 8, "number": 8, "error": 5}

#: The weights each family takes across the workload's kernels, one per
#: kernel.  The seed deals them out, so the mixes change with the seed
#: while every family keeps the same total weight: a seed moves work
#: between kernels, not between families, and the workload's geomean
#: measures the checker rather than the draw.
WEIGHTS: Tuple[int, ...] = (1, 2, 2, 3, 3, 4)


def _op_list(api, acc: int) -> int:
    lst = api.PyList_New(0)
    item = api.PyLong_FromLong(acc & 0xFF)
    api.PyList_Append(lst, item)
    api.Py_DecRef(item)
    got = api.PyList_GetItem(lst, 0)
    acc += api.PyLong_AsLong(got) + api.PyList_Size(lst)
    api.Py_DecRef(lst)
    return acc


def _op_dict(api, acc: int) -> int:
    dct = api.PyDict_New()
    value = api.PyString_FromString("v{}".format(acc & 7))
    api.PyDict_SetItemString(dct, "key", value)
    api.Py_DecRef(value)
    got = api.PyDict_GetItemString(dct, "key")
    acc += api.PyString_Size(got) + api.PyDict_Size(dct)
    api.Py_DecRef(dct)
    return acc


def _op_number(api, acc: int) -> int:
    num = api.PyLong_FromLong(acc & 0xFF)
    total = api.PyNumber_Add(num, num)
    acc += api.PyLong_AsLong(total)
    real = api.PyFloat_FromDouble(0.5)
    acc += int(api.PyFloat_AsDouble(real))
    api.Py_DecRef(real)
    api.Py_DecRef(total)
    api.Py_DecRef(num)
    return acc


def _op_error(api, acc: int) -> int:
    api.PyErr_SetString("ValueError", "rejected input")
    if api.PyErr_Occurred() is not None:
        api.PyErr_Clear()
    token = api.PyEval_SaveThread()
    api.PyEval_RestoreThread(token)
    return acc + 1


_OPS: Dict[str, Callable] = {
    "list": _op_list,
    "dict": _op_dict,
    "number": _op_number,
    "error": _op_error,
}


def transitions_per_iteration(weights: Dict[str, int]) -> int:
    return 2 * sum(weights[f] * CALLS[f] for f in FAMILIES)


def iterations_for(weights: Dict[str, int], transitions: int) -> int:
    """Iterations that make about ``transitions`` API transitions."""
    return max(transitions // transitions_per_iteration(weights), 1)


def kernel_name(index: int, weights: Dict[str, int]) -> str:
    return "ext{}:L{}D{}N{}E{}".format(
        index, *(weights[f] for f in FAMILIES)
    )


def draw_mixes(seed: int) -> List[Dict[str, int]]:
    """The seed's family weights, one mix per kernel (see :data:`WEIGHTS`)."""
    rng = random.Random("bench:pyc-ext:{}".format(seed))
    columns = {family: rng.sample(WEIGHTS, len(WEIGHTS)) for family in FAMILIES}
    return [
        {family: columns[family][k] for family in FAMILIES}
        for k in range(len(WEIGHTS))
    ]


def reference_mixes() -> List[Dict[str, int]]:
    """Seed-independent mixes, one dominated by each family (the ledger's)."""
    return [
        {f: (4 if f == dominant else 1) for f in FAMILIES}
        for dominant in FAMILIES
    ]


def make_kernel(weights: Dict[str, int], iterations: int) -> Callable:
    """The extension function: ``iterations`` rounds of the weighted mix."""
    ops = [_OPS[f] for f in FAMILIES for _ in range(weights[f])]

    def kernel(api, self_obj, args):
        acc = 1
        for _ in range(iterations):
            for op in ops:
                acc = op(api, acc)
        return api.PyLong_FromLong(acc & 0x7FFFFFFF)

    return kernel
