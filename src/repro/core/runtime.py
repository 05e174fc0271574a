"""The language-neutral checker runtime core.

The paper's generality claim (§7) is that one synthesizer plus
per-language specifications yields checkers for *any* FFI.  The runtime
side of that claim lives here: everything a checker needs at run time —
encoding instantiation, the violation log, the termination leak sweep,
fault containment (full -> quarantine -> off, never sampling) and reset
— is identical across substrates.  Only the *failure protocol* differs:
Jinn pends a Java ``JNIAssertionFailure`` and returns the type's zero
value; the Python/C checker raises at the faulting call.  That
difference is a pluggable :class:`FailurePolicy`, so
:class:`~repro.jinn.runtime.JinnRuntime` and
:class:`~repro.pyc.checker.PyCRuntime` are thin policy subclasses of
:class:`CheckerRuntime`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fsm.errors import FFIViolation
from repro.fsm.registry import SpecRegistry


class FailurePolicy:
    """How a substrate surfaces a detected violation.

    ``handle`` receives the runtime, the foreign environment of the
    faulting call, the violation, and the wrapper's default result; what
    it returns is what the generated wrapper hands back to the caller
    instead of performing the unsafe raw call.
    """

    def handle(self, runtime: "CheckerRuntime", env, violation, default):
        raise NotImplementedError


class RaiseViolationPolicy(FailurePolicy):
    """Stop the foreign caller at the exact faulting call by raising.

    The Python/C checker's protocol (§7.2): there is no managed
    exception to pend, so the violation propagates as a host exception.
    """

    def handle(self, runtime, env, violation, default):
        raise violation


# -- checker fault containment ----------------------------------------------
#
# A *detected violation* is the checker doing its job; an *internal
# checker error* (a bug in a machine encoding, a corrupted table, an
# injected chaos fault) is the checker failing at its job.  In the
# paper's deployment model the checker rides inside production VMs, so
# the second kind must never take the host down: every check site — the
# generated entries (live or driven by replay) and the termination
# sweep — hands internal errors to
# :meth:`CheckerRuntime.contain`, which converts them to structured
# diagnostics and walks the degradation ladder
#
#     full -> per-machine quarantine -> off
#
# so the host workload always completes, at worst unchecked.  No rung
# samples: a machine either sees every event or none, because a machine
# that misses an acquire would report the matching release or use.


class ContainmentPolicy:
    """Degradation-ladder configuration.

    ``quarantine_after`` internal faults in one machine quarantine that
    machine (its encoding is swapped for an inert stand-in).  If faults
    keep flowing, ``off_after`` total faults switch checking off
    entirely.  With ``enabled=False`` internal errors propagate
    unchanged (the debugging escape hatch).
    """

    __slots__ = ("enabled", "quarantine_after", "off_after")

    def __init__(
        self,
        *,
        enabled: bool = True,
        quarantine_after: int = 3,
        off_after: int = 256,
    ):
        if quarantine_after < 1 or off_after < 1:
            raise ValueError("ladder thresholds must be positive")
        self.enabled = enabled
        self.quarantine_after = quarantine_after
        self.off_after = off_after


#: Ladder levels, in escalation order.
LEVEL_FULL = "full"
LEVEL_QUARANTINE = "quarantine"
LEVEL_OFF = "off"


class CheckerHealth:
    """Internal-fault bookkeeping behind the degradation ladder.

    Everything here is deterministic for a deterministic workload: no
    timestamps, insertion-ordered fault counts, and first-fault
    diagnostics keyed by machine — two same-seed chaos runs produce
    byte-identical :meth:`report` output.
    """

    def __init__(self, policy: ContainmentPolicy):
        self.policy = policy
        self.level = LEVEL_FULL
        self.total_faults = 0
        #: machine -> internal fault count (insertion order = first-fault order).
        self.fault_counts: Dict[str, int] = {}
        #: machine -> (error type name, message, function, site) of its first fault.
        self.first_faults: Dict[str, tuple] = {}
        #: machines quarantined, in quarantine order.
        self.quarantined: List[str] = []

    def record(self, machine: str, exc: BaseException, function: str, site: str) -> List[str]:
        """Count one internal fault; returns the ladder actions it triggers.

        Actions are a subset of ``["quarantine", "off"]`` (the runtime
        applies them — health only decides).
        """
        self.total_faults += 1
        count = self.fault_counts.get(machine, 0) + 1
        self.fault_counts[machine] = count
        if machine not in self.first_faults:
            self.first_faults[machine] = (
                type(exc).__name__,
                str(exc),
                function,
                site,
            )
        actions: List[str] = []
        if (
            count >= self.policy.quarantine_after
            and machine not in self.quarantined
        ):
            self.quarantined.append(machine)
            actions.append("quarantine")
            if self.level == LEVEL_FULL:
                self.level = LEVEL_QUARANTINE
        if (
            self.total_faults >= self.policy.off_after
            and self.level != LEVEL_OFF
        ):
            self.level = LEVEL_OFF
            actions.append("off")
        return actions

    def reset(self) -> None:
        self.level = LEVEL_FULL
        self.total_faults = 0
        self.fault_counts.clear()
        self.first_faults.clear()
        self.quarantined.clear()

    def report(self) -> Dict[str, object]:
        """Deterministic health snapshot (no timing, sorted machines)."""
        machines = {}
        for machine in sorted(self.fault_counts):
            error, message, function, site = self.first_faults[machine]
            machines[machine] = {
                "faults": self.fault_counts[machine],
                "quarantined": machine in self.quarantined,
                "first": {
                    "error": error,
                    "message": message,
                    "function": function,
                    "site": site,
                },
            }
        return {
            "level": self.level,
            "total_faults": self.total_faults,
            "machines": machines,
            "quarantine_order": list(self.quarantined),
        }

    def diagnostics(self) -> List[str]:
        """One deterministic line per quarantined machine, in order."""
        lines = []
        for machine in self.quarantined:
            error, message, function, site = self.first_faults[machine]
            lines.append(
                "containment: machine {} quarantined after {} internal "
                "fault(s); first: {} at {}:{}: {}".format(
                    machine,
                    self.fault_counts[machine],
                    error,
                    function,
                    site,
                    message,
                )
            )
        if self.level == LEVEL_OFF:
            lines.append(
                "containment: degraded to level {} after {} internal "
                "faults".format(self.level, self.total_faults)
            )
        return lines


class _InertEncoding:
    """Quarantine stand-in: swallows every semantic call.

    Generated wrappers reach machines through ``rt.<name>.<method>``
    attribute lookups at event time, so swapping the runtime attribute
    (and the ``encodings`` entry) for an inert instance makes a
    quarantined machine cost one cached no-op call — healthy machines
    pay nothing.
    """

    def __init__(self, spec):
        self.spec = spec

    def at_termination(self) -> List[str]:
        return []

    def reset(self) -> None:
        return None

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)

        def _inert(*args, **kwargs):
            return None

        # Cache on the instance so later lookups skip __getattr__.
        self.__dict__[name] = _inert
        return _inert


class CheckerRuntime:
    """Encodings + violation bookkeeping shared by every substrate.

    Subclasses provide a :class:`FailurePolicy`, a ``log`` sink, and the
    two substrate-specific strings (``log_prefix`` for diagnostics and
    ``termination_site`` for the ``function`` recorded on leak
    violations found by the termination sweep).
    """

    #: Prefix on diagnostic log lines, e.g. ``"jinn"``.
    log_prefix = "checker"
    #: ``function`` recorded on termination-sweep leak violations.
    termination_site = "termination"

    def __init__(
        self,
        host,
        registry: SpecRegistry,
        policy: FailurePolicy,
        containment: Optional[ContainmentPolicy] = None,
    ):
        #: The substrate the encodings observe (a JavaVM, a
        #: PythonInterpreter, ...).
        self.host = host
        self.registry = registry
        self.policy = policy
        self.encodings: Dict[str, object] = {}
        for spec in registry:
            encoding = spec.make_encoding(host)
            self.encodings[spec.name] = encoding
            setattr(self, spec.name, encoding)
        #: The pristine encodings, for degradation rollback on reset().
        self._original_encodings: Dict[str, object] = dict(self.encodings)
        #: Internal-fault bookkeeping and the degradation ladder.
        self.health = CheckerHealth(
            containment if containment is not None else ContainmentPolicy()
        )
        #: Every violation detected, in order (including termination leaks).
        self.violations: List[FFIViolation] = []
        #: Optional event-stream observer (e.g. a trace recorder).  When
        #: None — the common case — the runtime pays a single identity
        #: check on the rare failure path and nothing anywhere else:
        #: interposition layers consult this attribute once, at
        #: table-install time, and install untapped wrappers when it is
        #: unset (guard, don't wrap).
        self.observer = None
        #: Optional telemetry sink (a ``repro.obs.ObsHub``), wired by
        #: the pipeline plan when a TelemetryTap stage is attached.
        #: Same guard-don't-wrap contract as ``observer``: one None
        #: check on the failure path, nothing anywhere else.
        self.telemetry = None

    # -- substrate hook --------------------------------------------------

    def log(self, message: str) -> None:
        """Append one line to the substrate's diagnostics stream."""
        raise NotImplementedError

    # -- the shared protocol ---------------------------------------------

    def fail(self, env, violation: FFIViolation, default=None):
        """Record a violation and apply the substrate's failure policy.

        Wrappers call this instead of the raw function when a pre-check
        fails; whatever the policy returns (the type's zero value, for
        Jinn) is handed back so the undefined behaviour never executes.
        """
        self.violations.append(violation)
        if self.observer is not None:
            self.observer.on_violation(violation)
        if self.telemetry is not None:
            self.telemetry.on_violation(violation)
        self.log("{}: {}".format(self.log_prefix, violation.report()))
        return self.policy.handle(self, env, violation, default)

    # -- checker fault containment ---------------------------------------

    def contain(self, machine: str, exc: BaseException, function: str, site: str):
        """Swallow one internal checker error; walk the degradation ladder.

        Every check site calls this from an ``except Exception`` arm
        that has already re-raised :class:`FFIViolation` — a violation
        reaching here is a wrapper bug, so it propagates.  With
        containment disabled the original error propagates unchanged.
        """
        if isinstance(exc, FFIViolation):
            raise exc
        health = self.health
        if not health.policy.enabled:
            raise exc
        self.log(
            "{}: containment: internal {} in machine {} at {}:{}: {}".format(
                self.log_prefix, type(exc).__name__, machine, function, site, exc
            )
        )
        for action in health.record(machine, exc, function, site):
            if action == "quarantine":
                self._quarantine(machine)
            elif action == "off":
                self._degrade_off()

    def _neutralize(self, name: str, stand_in) -> None:
        """Swap one machine for a stand-in.

        Generated entries resolve ``rt.<name>`` per event, so the
        attribute and ``encodings`` swap covers every check site.
        """
        self.encodings[name] = stand_in
        setattr(self, name, stand_in)

    def _quarantine(self, name: str) -> None:
        original = self._original_encodings.get(name)
        spec = getattr(original, "spec", None)
        self._neutralize(name, _InertEncoding(spec))

    def _degrade_off(self) -> None:
        for name, original in self._original_encodings.items():
            spec = getattr(original, "spec", None)
            self._neutralize(name, _InertEncoding(spec))

    def at_termination(self) -> List[FFIViolation]:
        """Collect leak violations from every encoding at host death.

        A machine whose sweep itself fails internally is contained like
        any other check site; quarantine diagnostics are then logged in
        quarantine order so the termination report is deterministic.
        """
        found: List[FFIViolation] = []
        for spec in self.registry:
            encoding = self.encodings[spec.name]
            try:
                messages = list(encoding.at_termination())
            except FFIViolation:
                raise
            except Exception as exc:
                self.contain(spec.name, exc, self.termination_site, "termination")
                messages = []
            for message in messages:
                leak = FFIViolation(
                    message,
                    machine=spec.name,
                    error_state="Error: leak",
                    function=self.termination_site,
                )
                self.violations.append(leak)
                if self.observer is not None:
                    self.observer.on_violation(leak)
                if self.telemetry is not None:
                    self.telemetry.on_violation(leak)
                self.log("{}: {}".format(self.log_prefix, leak.report()))
                found.append(leak)
        for line in self.health.diagnostics():
            self.log("{}: {}".format(self.log_prefix, line))
        return found

    def reset(self) -> None:
        """Drop all per-entity machine state and the violation log.

        Degradation rolls back too: quarantined machines are restored to
        their pristine encodings before being reset.
        """
        for name, original in self._original_encodings.items():
            if self.encodings[name] is not original:
                self.encodings[name] = original
                setattr(self, name, original)
        self.health.reset()
        for encoding in self.encodings.values():
            encoding.reset()
        self.violations.clear()
