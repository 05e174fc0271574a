"""The synthesized Python/C dynamic checker (paper §7.2).

Structurally identical to Jinn: the same synthesizer (Algorithm 1)
consumes the Python/C machine specifications and generates a fused
entry for every API function plus a factory for extension entries, and
the same runtime core (:class:`repro.core.CheckerRuntime`) owns the
encodings and violation bookkeeping.  The differences the paper
discusses are reflected here: there is no JVMTI analogue, so the checker
is "statically linked" — handed to the interpreter at construction — and
reference-count macros are functions (``Py_IncRef``/``Py_DecRef``) so
interposition can see them.

On a violation the checker *raises* (:class:`repro.core.runtime.
RaiseViolationPolicy`) — the C caller is stopped at the exact faulting
call, and the harness observes an
:class:`~repro.fsm.errors.FFIViolation`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.runtime import (
    CheckerRuntime,
    ContainmentPolicy,
    RaiseViolationPolicy,
)
from repro.fsm.errors import FFIViolation
from repro.fsm.registry import SpecRegistry
from repro.pyc.machines import build_pyc_registry
from repro.pyc.spec import PY_FUNCTIONS


class PyCRuntime(CheckerRuntime):
    """The shared checker core bound to an interpreter, raising at fault."""

    log_prefix = "pyc-checker"
    termination_site = "interpreter exit"

    def __init__(
        self,
        interp,
        registry: SpecRegistry,
        containment: Optional[ContainmentPolicy] = None,
    ):
        self.interp = interp
        super().__init__(
            interp, registry, RaiseViolationPolicy(), containment=containment
        )

    def log(self, message: str) -> None:
        self.interp.log(message)


class PyCChecker:
    """Bind-time interposer handed to :class:`PythonInterpreter`."""

    def __init__(
        self,
        registry: Optional[SpecRegistry] = None,
        *,
        observer=None,
        containment: Optional[ContainmentPolicy] = None,
        governor=None,
        telemetry=None,
    ):
        self.registry = registry if registry is not None else build_pyc_registry()
        self.containment = containment
        #: Optional :class:`repro.resilience.governor.OverheadGovernor`.
        self.governor = governor
        #: Optional :class:`repro.obs.ObsHub` (or a prepared
        #: :class:`repro.obs.TelemetryTap`); fused into the entries.
        self.telemetry = telemetry
        self.rt: Optional[PyCRuntime] = None
        self._plan = None
        #: Optional event-stream observer (a ``repro.trace.TraceRecorder``).
        self.observer = observer

    def on_api_created(self, interp, api) -> None:
        from repro.pipeline import PipelinePlan

        self.rt = PyCRuntime(interp, self.registry, containment=self.containment)
        if self.observer is not None:
            self.observer.attach_pyc(self.rt, interp)
        # The plan resolves its compiled module through the shared cache,
        # so interpreters for the same specification reuse one module.
        self._plan = PipelinePlan(
            self.rt,
            self.registry,
            PY_FUNCTIONS,
            recorder=self.rt.observer,
            governor=self.governor,
            telemetry=self.telemetry,
        )
        api.install_function_table(self._plan.entries(api.function_table()))

    def on_extension_bind(self, interp, name: str, impl: Callable) -> Callable:
        if self._plan is None:
            # Bound before on_api_created: wrap lazily so checking is
            # never silently disabled for early-bound extensions.  The
            # entry resolves the plan at first call and fails loudly if
            # the checker still has not been attached to an API.
            return self._deferred_entry(name, impl)
        # The plan's native entry takes (api, self_obj, args_tuple), the
        # extension calling convention, as its (env, this, *args).
        return self._plan.native_entry(name, impl)

    def _deferred_entry(self, name: str, impl: Callable) -> Callable:
        state = {"wrapped": None}

        def deferred_entry(api, self_obj, args_tuple):
            if state["wrapped"] is None:
                if self._plan is None:
                    raise RuntimeError(
                        "PyCChecker: extension {!r} was bound before the "
                        "checker was attached to an API (on_api_created "
                        "never ran); checking would be silently "
                        "disabled".format(name)
                    )
                state["wrapped"] = self._plan.native_entry(name, impl)
            return state["wrapped"](api, self_obj, args_tuple)

        return deferred_entry

    def termination_report(self) -> List[FFIViolation]:
        if self.rt is None:
            return []
        observer = self.rt.observer
        if observer is not None:
            observer.on_termination()
        return self.rt.at_termination()
