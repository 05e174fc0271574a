"""The Jinn agent: transparent interposition through the tools interface.

The JVM loads the agent at start-up (``JavaVM(agents=[JinnAgent()])`` —
the simulator's ``-agentlib:jinn``).  The agent then:

1. defines Jinn's custom exception class ``jinn/JNIAssertionFailure``;
2. at every thread start, swaps the thread's JNI function table for the
   plan's fused entries (composing with whatever table the thread
   already had, so Jinn stacks with other agents);
3. at every native-method bind, swaps the implementation for a fused
   native-method entry;
4. at VM death, asks every resource machine for leaks.

Two modes support the paper's measurements: ``generated`` (full Jinn)
and ``interpose`` (empty wrappers — Table 3's framework-overhead
column).  Both install their entries through one fused
:class:`repro.pipeline.PipelinePlan`: recorder tap, governor meter,
machine checks and containment arms compiled into one flat entry per
crossing.  Walking the machine specifications event by event is what
offline replay does (:mod:`repro.trace.replay`); it is not a live mode.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.fsm.errors import FFIViolation
from repro.fsm.registry import SpecRegistry
from repro.jinn.machines import build_registry
from repro.jinn.runtime import ASSERTION_FAILURE_CLASS, JinnRuntime
from repro.jvm.jvmti import JVMTIAgent

_MODES = ("generated", "interpose")


class JinnAgent(JVMTIAgent):
    """Compiler- and VM-independent dynamic JNI bug detector."""

    name = "jinn"

    def __init__(
        self,
        registry: Optional[SpecRegistry] = None,
        *,
        mode: str = "generated",
        observer=None,
        containment=None,
        governor=None,
        telemetry=None,
    ):
        if mode not in _MODES:
            raise ValueError("mode must be one of {}".format(_MODES))
        self.registry = registry if registry is not None else build_registry()
        self.mode = mode
        #: Optional event-stream observer (a ``repro.trace.TraceRecorder``).
        #: When None the agent installs untapped entries — the recording
        #: layer costs nothing unless a recorder is attached.
        self.observer = observer
        #: Optional :class:`repro.core.runtime.ContainmentPolicy`.
        self.containment = containment
        #: Optional :class:`repro.resilience.governor.OverheadGovernor`;
        #: when set, its meter is fused into the entries.
        self.governor = governor
        #: Optional :class:`repro.obs.ObsHub` (or a prepared
        #: :class:`repro.obs.TelemetryTap`); fused into the entries.
        self.telemetry = telemetry
        self.rt: Optional[JinnRuntime] = None
        self.vm = None
        self._plan = None
        #: Leak violations found at VM death.
        self.termination_violations: List[FFIViolation] = []

    # ------------------------------------------------------------------
    # JVMTI hooks
    # ------------------------------------------------------------------

    def on_load(self, vm) -> None:
        self.vm = vm
        if vm.find_class(ASSERTION_FAILURE_CLASS) is None:
            # An Error, not a RuntimeException: application handlers for
            # their own exceptions must not swallow Jinn's reports.
            vm.define_class(ASSERTION_FAILURE_CLASS, superclass="java/lang/Error")
        self.rt = JinnRuntime(vm, self.registry, containment=self.containment)
        if self.observer is not None:
            self.observer.attach_jinn(self.rt, vm)

    def on_thread_start(self, vm, thread) -> None:
        env_machine = self.rt.encodings.get("jnienv_state")
        if env_machine is not None:  # may be ablated away
            env_machine.record_thread(thread)
        env = thread.env
        observer = self.rt.observer
        if observer is not None:
            observer.on_thread_start(thread)
        plan = self._pipeline_plan()
        env.install_function_table(plan.entries(env.function_table()))

    def on_native_method_bind(self, vm, method, impl: Callable) -> Callable:
        return self._pipeline_plan().native_entry(method.mangled_name(), impl)

    def on_vm_death(self, vm) -> None:
        observer = self.rt.observer
        if observer is not None:
            # The end-of-trace marker must precede the leak sweep so the
            # replayed sweep sees the same final object states.
            observer.on_termination()
        self.termination_violations = self.rt.at_termination()

    # ------------------------------------------------------------------
    # The fused pipeline
    # ------------------------------------------------------------------

    def _pipeline_plan(self):
        """The plan for this runtime's stage set, built on first use."""
        plan = self._plan
        if plan is None or plan.recorder is not self.rt.observer:
            from repro.pipeline import PipelinePlan

            self._plan = plan = PipelinePlan(
                self.rt,
                self.registry,
                mode=self.mode,
                recorder=self.rt.observer,
                governor=self.governor,
                telemetry=self.telemetry,
            )
        return plan
