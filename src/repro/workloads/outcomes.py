"""Running scenarios under a configuration and classifying the outcome.

Table 1 of the paper compares, per pitfall, the *observable behaviour*
under six configurations: {HotSpot, J9} x {production, -Xcheck:jni} plus
Jinn.  This module runs a scenario function against a fresh VM in any of
those configurations and reduces what happened to the paper's outcome
vocabulary:

- ``running``   — completed on undefined state, no diagnosis;
- ``crash``     — the VM aborted without diagnosis;
- ``NPE``       — a null pointer exception surfaced;
- ``leak``      — completed but retained VM resources (production runs);
- ``deadlock``  — the VM would hang forever;
- ``warning``   — a checker printed a diagnosis and continued;
- ``error``     — a checker printed a diagnosis and aborted;
- ``exception`` — Jinn threw (or reported at termination) a
  ``JNIAssertionFailure``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.jinn.agent import JinnAgent
from repro.jinn.runtime import ASSERTION_FAILURE_CLASS
from repro.jvm import (
    HOTSPOT,
    J9,
    DeadlockError,
    FatalJNIError,
    JavaException,
    JavaVM,
    SimulatedCrash,
    VendorSpec,
)

#: Outcomes that count as a valid bug report in the coverage experiment
#: (paper §6.3: "exceptions, warnings ... and errors ... counting as
#: valid bug reports").
VALID_REPORTS = frozenset({"warning", "error", "exception"})

#: The Table 1 configurations, in column order.  Jinn runs on both
#: vendors: its verdict is VM-independent except where it cannot check at
#: the boundary (pitfall 8), where the production behaviour shows through.
CONFIGURATIONS = (
    ("HotSpot", "none"),
    ("J9", "none"),
    ("HotSpot", "xcheck"),
    ("J9", "xcheck"),
    ("HotSpot", "jinn"),
    ("J9", "jinn"),
)


@dataclass
class RunResult:
    """Everything observed from one scenario run."""

    outcome: str
    diagnostics: List[str] = field(default_factory=list)
    leaks: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    exception_text: Optional[str] = None
    transition_count: int = 0


def run_scenario(
    scenario: Callable[[JavaVM], None],
    *,
    vendor: VendorSpec = HOTSPOT,
    checker: str = "none",
    local_frame_capacity: int = 16,
    observer=None,
) -> RunResult:
    """Run ``scenario`` on a fresh VM under one configuration.

    Args:
        scenario: callable that defines classes/natives on the VM and
            drives the buggy program (exceptions propagate out).
        checker: "none" (production), "xcheck" (the vendor's built-in
            ``-Xcheck:jni``), or "jinn".
        observer: optional event-stream observer (a
            ``repro.trace.TraceRecorder``) attached to the Jinn agent.
    """
    if checker not in ("none", "xcheck", "jinn"):
        raise ValueError("unknown checker " + checker)
    jinn_agent: Optional[JinnAgent] = None
    agents = []
    if checker == "jinn":
        jinn_agent = JinnAgent(observer=observer)
        agents.append(jinn_agent)
    vm = JavaVM(
        vendor=vendor,
        agents=agents,
        check_jni=(checker == "xcheck"),
        local_frame_capacity=local_frame_capacity,
    )
    caught: Optional[BaseException] = None
    try:
        scenario(vm)
    except (DeadlockError, SimulatedCrash, FatalJNIError, JavaException) as exc:
        caught = exc
    leaks = vm.shutdown()
    outcome = _classify(vm, caught, leaks, checker, jinn_agent)
    result = RunResult(
        outcome=outcome,
        diagnostics=list(vm.diagnostics),
        leaks=list(leaks),
        transition_count=vm.transition_count,
    )
    if jinn_agent is not None and jinn_agent.rt is not None:
        result.violations = [v.report() for v in jinn_agent.rt.violations]
    if isinstance(caught, JavaException):
        from repro.jinn.reporting import render_uncaught

        result.exception_text = render_uncaught(caught.throwable)
    elif caught is not None:
        result.exception_text = str(caught)
    return result


def _classify(vm, caught, leaks, checker, jinn_agent) -> str:
    if isinstance(caught, DeadlockError):
        return "deadlock"
    if isinstance(caught, SimulatedCrash):
        return "crash"
    if isinstance(caught, FatalJNIError):
        return "error"
    if isinstance(caught, JavaException):
        cls = caught.throwable.jclass.name
        if cls == ASSERTION_FAILURE_CLASS:
            return "exception"
        if cls.endswith("NullPointerException"):
            return "NPE"
        return "uncaught:" + cls
    if jinn_agent is not None and jinn_agent.termination_violations:
        return "exception"
    if checker == "xcheck":
        xcheck = vm.agent_host.agents[0]
        if getattr(xcheck, "reports", 0):
            return "warning"
        return "running"
    if checker == "none" and leaks:
        return "leak"
    return "running"


def run_all_configurations(scenario) -> dict:
    """The scenario's Table 1 row: outcome per configuration."""
    vendors = {"HotSpot": HOTSPOT, "J9": J9}
    row = {}
    for vendor_name, checker in CONFIGURATIONS:
        key = (
            vendor_name
            if checker == "none"
            else "{}-{}".format(vendor_name, checker)
        )
        row[key] = run_scenario(
            scenario, vendor=vendors[vendor_name], checker=checker
        ).outcome
    hotspot_jinn = row.pop("HotSpot-jinn")
    j9_jinn = row.pop("J9-jinn")
    row["Jinn"] = (
        hotspot_jinn
        if hotspot_jinn == j9_jinn
        else "{}/{}".format(hotspot_jinn, j9_jinn)
    )
    return row
