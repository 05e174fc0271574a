"""Substrate and mode parity over the shared checker core.

The refactor's contract: the generated entries live, a replay of their
trace, and a replay through entries synthesized from a brute-force
fan-out index (every machine asked to emit at every site) all
implement the *same* specifications, so any misuse scenario must yield
the identical violation stream — same machines, same error states, same
faulting functions, in the same order.  And moving the Python/C checker
onto :class:`repro.core.CheckerRuntime` must not change its
raise-at-the-faulting-call protocol.
"""

import pytest

from repro.core.dispatch import NATIVE_KEY, DispatchIndex
from repro.fsm.errors import FFIViolation
from repro.fsm.events import Direction
from repro.jinn.agent import JinnAgent
from repro.jvm import (
    HOTSPOT,
    DeadlockError,
    FatalJNIError,
    JavaException,
    JavaVM,
    SimulatedCrash,
)
from repro.trace.replay import replay_path
from repro.workloads.microbench import MICROBENCHMARKS, scenario_by_name
from tests.test_trace_replay import record_micro


def violation_stream(scenario, mode):
    """(machine, error_state, function) triples one configuration saw."""
    agent = JinnAgent(mode=mode)
    vm = JavaVM(vendor=HOTSPOT, agents=[agent])
    try:
        scenario(vm)
    except (DeadlockError, SimulatedCrash, FatalJNIError, JavaException):
        pass
    vm.shutdown()  # triggers the termination sweep
    return [
        (v.machine, v.error_state, v.function) for v in agent.rt.violations
    ]


def _fanout_index(registry, function_table=None):
    """A brute-force index: every machine in every bucket."""
    from repro.jni.functions import FUNCTIONS

    functions = tuple(function_table or FUNCTIONS)
    names = tuple(registry.names())
    buckets = {
        (key, d): names for key in functions + (NATIVE_KEY,) for d in Direction
    }
    return DispatchIndex(buckets, names, functions)


class TestModeParity:
    @pytest.mark.parametrize(
        "scenario", MICROBENCHMARKS, ids=lambda s: s.name
    )
    def test_generated_and_interpretive_streams_identical(
        self, scenario, tmp_path
    ):
        """Replay drives the generated entries over the live run's
        trace and must re-detect its stream."""
        path = tmp_path / "t.trace"
        live = record_micro(scenario.name, path)
        assert live, scenario.name  # every micro demonstrates a bug
        assert replay_path(str(path)).violations == live, scenario.name

    @pytest.mark.parametrize(
        "scenario", MICROBENCHMARKS, ids=lambda s: s.name
    )
    def test_dispatch_index_matches_fanout(
        self, scenario, monkeypatch, tmp_path
    ):
        """The index is an optimization, not a semantics change: a
        machine the index leaves out of a site must have nothing to
        check there, so entries synthesized with every machine asked
        at every site re-detect, in a replay of the live run's trace,
        the same live stream the indexed entries do (the test above)."""
        from repro.core.cache import WrapperCache
        from repro.jinn.synthesizer import Synthesizer
        from repro.trace import replay as replay_module

        path = tmp_path / "t.trace"
        live = record_micro(scenario.name, path)
        monkeypatch.setattr(
            Synthesizer,
            "dispatch_index",
            lambda self: _fanout_index(self.registry, self.function_table),
        )
        monkeypatch.setattr(
            replay_module, "_REPLAY_PLANS", WrapperCache(disk=None)
        )
        monkeypatch.setattr(replay_module, "_ENGINES", {})
        assert replay_path(str(path)).violations == live, scenario.name

    def test_interpose_mode_sees_nothing(self):
        scenario = scenario_by_name("Nullness")
        assert violation_stream(scenario.run, "interpose") == []

    def test_violating_machine_matches_scenario_label(self):
        for scenario in MICROBENCHMARKS:
            stream = violation_stream(scenario.run, "generated")
            assert stream[0][0] == scenario.machine, scenario.name


class TestPyCOverCore:
    """The Python/C checker through the shared core keeps its protocol."""

    def test_raises_at_the_exact_faulting_call(self):
        from repro.pyc import PyCChecker, PythonInterpreter

        checker = PyCChecker()
        interp = PythonInterpreter(agents=[checker])
        reached = []

        def dangle(api, self_obj, args):
            pythons = api.Py_BuildValue("[ss]", "Eric", "Graham")
            first = api.PyList_GetItem(pythons, 0)
            api.Py_DecRef(pythons)
            api.PyString_AsString(first)  # dangling borrow: raises here
            reached.append("past the fault")
            return api.Py_RETURN_NONE()

        interp.register_extension("dangle", dangle)
        with pytest.raises(FFIViolation) as exc_info:
            interp.call_extension("dangle")
        assert exc_info.value.machine == "borrowed_ref"
        assert reached == []  # the C caller was stopped at the fault
        assert [v.machine for v in checker.rt.violations] == ["borrowed_ref"]

    def test_both_substrates_share_one_runtime_core(self):
        from repro.core.runtime import CheckerRuntime
        from repro.pyc import PyCChecker, PythonInterpreter

        checker = PyCChecker()
        PythonInterpreter(agents=[checker])
        agent = JinnAgent()
        JavaVM(vendor=HOTSPOT, agents=[agent])
        assert isinstance(checker.rt, CheckerRuntime)
        assert isinstance(agent.rt, CheckerRuntime)
        assert type(checker.rt).fail is CheckerRuntime.fail
        assert type(agent.rt).fail is CheckerRuntime.fail


class TestEarlyExtensionBind:
    """Regression: extensions bound before ``on_api_created`` used to be
    returned unwrapped — checking silently disabled."""

    @staticmethod
    def _dangle(api, self_obj, args):
        pythons = api.Py_BuildValue("[ss]", "Eric", "Graham")
        first = api.PyList_GetItem(pythons, 0)
        api.Py_DecRef(pythons)
        api.PyString_AsString(first)
        return api.Py_RETURN_NONE()

    def test_bind_then_attach_still_checks(self):
        from repro.pyc import PyCChecker, PythonInterpreter

        checker = PyCChecker()
        # Bind through the hook *before* any interpreter exists.
        entry = checker.on_extension_bind(None, "early", self._dangle)
        interp = PythonInterpreter(agents=[checker])  # runs on_api_created
        with pytest.raises(FFIViolation) as exc_info:
            entry(interp.api, None, None)
        assert exc_info.value.machine == "borrowed_ref"

    def test_bind_without_attach_fails_loudly(self):
        from repro.pyc import PyCChecker, PythonInterpreter

        checker = PyCChecker()
        entry = checker.on_extension_bind(None, "orphan", self._dangle)
        # An API the checker was never attached to.
        interp = PythonInterpreter()
        with pytest.raises(RuntimeError, match="orphan"):
            entry(interp.api, None, None)
