"""Jinn's runtime: the JNI failure protocol over the shared checker core.

The generated wrappers call semantic methods on ``rt.<machine_name>``;
when a machine reaches an error state it raises
:class:`~repro.fsm.errors.FFIViolation`, and the wrapper hands it to
:meth:`CheckerRuntime.fail`.  Everything up to that point — encoding
instantiation, the violation log, the termination leak sweep, reset — is
substrate-neutral and lives in :class:`repro.core.CheckerRuntime`; this
module contributes only Jinn's failure *policy*: convert the violation
into a pending Java ``jinn/JNIAssertionFailure`` — cause-chained onto
whatever exception was already pending, which is how Figure 9's
``Caused by:`` chain arises — and return the type's zero value so the
unsafe raw call never executes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.runtime import CheckerRuntime, ContainmentPolicy, FailurePolicy
from repro.fsm.errors import FFIViolation
from repro.fsm.registry import SpecRegistry

#: Internal class name of Jinn's custom exception.
ASSERTION_FAILURE_CLASS = "jinn/JNIAssertionFailure"

#: Field slot used to attach the FFIViolation to the Java throwable.
VIOLATION_SLOT = ("jinn$violation", "X")


class PendJavaExceptionPolicy(FailurePolicy):
    """Pend a ``JNIAssertionFailure`` and return the zero value.

    Returning ``default`` lets a generated wrapper skip the raw call and
    hand back the type's zero value — Jinn prevents the undefined
    behaviour instead of merely observing it.
    """

    def handle(self, runtime, env, violation, default):
        vm = runtime.vm
        thread = vm.current_thread
        cause = thread.pending_exception
        throwable = vm.new_throwable(
            ASSERTION_FAILURE_CLASS, violation.args[0], cause
        )
        throwable.fill_in_stack_trace(thread.stack_snapshot())
        throwable.fields[VIOLATION_SLOT] = violation
        thread.pending_exception = throwable
        return default


class JinnRuntime(CheckerRuntime):
    """The shared checker core bound to a JavaVM with Jinn's policy."""

    log_prefix = "jinn"
    termination_site = "VM shutdown"

    def __init__(
        self,
        vm,
        registry: SpecRegistry,
        containment: Optional[ContainmentPolicy] = None,
    ):
        self.vm = vm
        super().__init__(
            vm, registry, PendJavaExceptionPolicy(), containment=containment
        )

    def log(self, message: str) -> None:
        self.vm.log(message)


def violation_of(throwable) -> Optional[FFIViolation]:
    """Extract the FFIViolation attached to a JNIAssertionFailure."""
    if throwable is None:
        return None
    return throwable.fields.get(VIOLATION_SLOT)
