"""The reference machines' allocation-free methods keep the old state.

``borrowed_ref`` (``borrow``, ``relinquish``, ``promote``) and
``owned_ref`` (``acquire``, ``release``, ``steal``) no longer build a
throwaway default on their happy paths.  Each case below runs every
call of those methods beside the version they replaced, on a twin
encoding, and requires the same outcome (same report, or none) and the
same machine state after each call.  Each case runs live on the
generated path and again on a replay of the trace it recorded, which
drives the same generated entries over the decoded stream: live
against the trace round trip.
"""

import json
from collections import Counter

import pytest

from repro.fsm.errors import FFIViolation
from repro.fuzz.engine import task_rng
from repro.fuzz.gen import generate_sequence
from repro.fuzz.ops import run_pyc_ops
from repro.pyc import PyCChecker, PythonInterpreter
from repro.pyc.machines import (
    ERROR_OVER_RELEASE,
    BorrowedRefEncoding,
    OwnedRefEncoding,
)
from repro.pyc.objects import PyObj
from repro.trace import TraceRecorder
from repro.trace.format import parse_header
from repro.trace.replay import replay_engine
from repro.workloads.pyc_micro import dangling_borrow, over_release


class PriorBorrowed(BorrowedRefEncoding):
    """The borrow-tracking methods as they were, allocating defaults."""

    def borrow(self, api, function, owner, result):
        if not isinstance(result, PyObj) or not isinstance(owner, PyObj):
            return
        self.borrows_by_owner.setdefault(owner.serial, set()).add(result.serial)
        self.owner_of[result.serial] = owner.serial
        self.invalid.discard(result.serial)

    def relinquish(self, api, function, owner):
        if not isinstance(owner, PyObj):
            return
        for serial in self.borrows_by_owner.pop(owner.serial, set()):
            self.invalid.add(serial)
            self.owner_of.pop(serial, None)

    def promote(self, api, function, obj):
        if not isinstance(obj, PyObj):
            return
        owner_serial = self.owner_of.pop(obj.serial, None)
        if owner_serial is not None:
            self.borrows_by_owner.get(owner_serial, set()).discard(obj.serial)
        self.invalid.discard(obj.serial)


class PriorOwned(OwnedRefEncoding):
    """The ownership methods as they were, with ``_is_immortal`` calls."""

    def _is_immortal(self, obj):
        return obj.ob_refcnt >= (1 << 29)

    def acquire(self, api, function, obj):
        if not isinstance(obj, PyObj) or self._is_immortal(obj):
            return
        entry = self.owned.setdefault(obj.serial, [obj, 0])
        entry[1] += 1

    def release(self, api, function, obj):
        if not isinstance(obj, PyObj) or self._is_immortal(obj):
            return
        entry = self.owned.get(obj.serial)
        if entry is None or entry[1] == 0:
            raise FFIViolation(
                "{} releases a reference C does not own ({}).".format(
                    function, obj.describe()
                ),
                machine=self.spec.name,
                error_state=ERROR_OVER_RELEASE.name,
                function=function,
                entity=obj.describe(),
            )
        entry[1] -= 1
        if entry[1] == 0:
            del self.owned[obj.serial]

    def steal(self, api, function, obj):
        if not isinstance(obj, PyObj) or self._is_immortal(obj):
            return
        entry = self.owned.get(obj.serial)
        if entry is not None:
            entry[1] -= 1
            if entry[1] <= 0:
                del self.owned[obj.serial]


#: machine -> (prior encoding, changed methods, state fields).
CHANGED = {
    "borrowed_ref": (
        PriorBorrowed,
        ("borrow", "relinquish", "promote"),
        ("borrows_by_owner", "owner_of", "invalid"),
    ),
    "owned_ref": (PriorOwned, ("acquire", "release", "steal"), ("owned",)),
}


def _outcome(method, args):
    try:
        method(*args)
    except FFIViolation as violation:
        return violation, (
            violation.report(), violation.machine, violation.error_state,
            violation.function, violation.entity,
        )
    return None, None


class Twins:
    """Runs each changed method of one runtime beside its prior version.

    A mismatch is noted, not asserted on the spot: the containment arm
    around each machine line would swallow an ``AssertionError``.
    """

    def __init__(self, rt):
        self.calls = Counter()
        self.mismatches = []
        self.pairs = []
        for machine, (prior_type, methods, fields) in CHANGED.items():
            live = rt.encodings[machine]
            prior = prior_type(live.spec, live.interp)
            self.pairs.append((live, prior, fields))
            for name in methods:
                live.__dict__[name] = self._twin(
                    machine, name, live, prior, fields
                )

    def _twin(self, machine, name, live, prior, fields):
        live_method = getattr(live, name)
        prior_method = getattr(prior, name)

        def twin(*args):
            self.calls[machine, name] += 1
            _, expected = _outcome(prior_method, args)
            raised, got = _outcome(live_method, args)
            if got != expected:
                self.mismatches.append((machine, name, got, expected))
            for field in fields:
                if getattr(live, field) != getattr(prior, field):
                    self.mismatches.append((machine, name, field))
            if raised is not None:
                raise raised

        return twin

    def finish(self):
        assert self.mismatches == []
        for live, prior, fields in self.pairs:
            for field in fields:
                assert getattr(live, field) == getattr(prior, field)
            assert live.at_termination() == prior.at_termination()


def promoted_borrow(api, self_obj, args):
    """Figure 11 made safe: ``Py_IncRef`` on the borrow before the owner
    goes promotes it (the one path that edits an owner's borrow set)."""
    pythons = api.Py_BuildValue("[ss]", "Eric", "Graham")
    first = api.PyList_GetItem(pythons, 0)
    api.Py_IncRef(first)
    api.Py_DecRef(pythons)
    api.PyString_AsString(first)
    api.Py_DecRef(first)
    return api.Py_RETURN_NONE()


def run_extension(body, recorder):
    """One extension under a checker with twins; returns its twins."""
    checker = PyCChecker(observer=recorder)
    interp = PythonInterpreter(agents=[checker])
    twins = Twins(checker.rt)
    interp.register_extension("case", body)
    try:
        interp.call_extension("case")
    except FFIViolation:
        pass
    checker.termination_report()
    return twins, [v.report() for v in checker.rt.violations]


def run_sequence(round_no, recorder):
    sequence = generate_sequence(task_rng(11, "valid", "pyc", round_no), "pyc")
    twins = []
    outcome = run_pyc_ops(
        sequence.ops, observer=recorder,
        setup=lambda checker: twins.append(Twins(checker.rt)),
    )
    return twins[0], outcome.reports


def replay(lines):
    engine = replay_engine(parse_header(lines[0]))
    twins = Twins(engine.rt)
    engine.run(json.loads(line) for line in lines[1:] if line.strip())
    reports = [v.report() for v in engine.rt.violations]
    engine.finish()
    return twins, reports


CASES = [
    ("figure11", lambda rec: run_extension(dangling_borrow, rec)),
    ("over_release", lambda rec: run_extension(over_release, rec)),
    ("promoted_borrow", lambda rec: run_extension(promoted_borrow, rec)),
] + [
    ("valid_{}".format(n), lambda rec, n=n: run_sequence(n, rec))
    for n in range(8)
]
PATHS = ("generated", "replay")


@pytest.fixture(scope="module")
def runs():
    """case -> path -> (twins, reports): live, then a replay of its trace."""
    out = {}
    for name, run in CASES:
        recorder = TraceRecorder()
        live = run(recorder)
        recorder.close()
        out[name] = {"generated": live, "replay": replay(recorder.lines)}
    return out


@pytest.mark.parametrize("path", PATHS)
def test_same_state_and_reports_as_the_prior_methods(runs, path):
    for case in runs.values():
        case[path][0].finish()


@pytest.mark.parametrize("path", PATHS)
def test_every_changed_method_ran_beside_its_prior(runs, path):
    calls = Counter()
    for case in runs.values():
        calls.update(case[path][0].calls)
    for machine, (_, methods, _) in CHANGED.items():
        for name in methods:
            assert calls[machine, name] > 0, (machine, name)


@pytest.mark.parametrize("path", PATHS)
def test_known_answers(runs, path):
    figure11 = runs["figure11"][path][1]
    assert len(figure11) == 1
    assert figure11[0].startswith("Use of borrowed reference")
    # The over-release, then the exit sweep's leak of the list.
    over = runs["over_release"][path][1]
    assert len(over) == 2
    assert "releases a reference C does not own" in over[0]
    assert "never released" in over[1]
    for name, case in runs.items():
        if name == "promoted_borrow" or name.startswith("valid_"):
            assert case[path][1] == [], name
