"""Resilient checking sessions: the robustness layer.

Four cooperating pieces keep long unattended checking runs alive and
honest:

- **containment** (:mod:`repro.core.runtime`): internal checker errors
  are caught at the wrapper boundary and degrade the offending machine
  through a ladder (full -> quarantine -> sampling -> off) instead of
  killing the host workload;
- **chaos** (:mod:`repro.resilience.chaos`): fault injectors aimed at
  the checker itself prove containment works;
- **journaling + recovery** (:mod:`repro.trace.recorder`,
  :mod:`repro.resilience.recover`): crash-safe trace journals
  recoverable up to the last complete record;
- **governing** (:mod:`repro.resilience.governor`): an adaptive
  overhead governor keeps the checking share of boundary time inside a
  budget by sampling hot pairs.

Watched work — a child process under a wall-clock watchdog, with
classified exits and deterministic retry backoff — runs on the fleet
(:class:`repro.fleet.scheduler.FleetScheduler`).
"""

from repro.resilience.chaos import (
    InternalFaultInjector,
    chaos_gate,
    chaos_run,
    injector_plan,
)
from repro.resilience.governor import (
    GovernorPolicy,
    OverheadGovernor,
    governed_run,
)
from repro.resilience.recover import (
    RecoveryReport,
    journaled_fuzz_record,
    parse_journal,
    recover_journal,
)

__all__ = [
    "InternalFaultInjector",
    "chaos_gate",
    "chaos_run",
    "injector_plan",
    "GovernorPolicy",
    "OverheadGovernor",
    "governed_run",
    "RecoveryReport",
    "journaled_fuzz_record",
    "parse_journal",
    "recover_journal",
]
