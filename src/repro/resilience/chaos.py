"""Checker-internal chaos: fault injectors aimed at the checker itself.

PR 3's fault injectors corrupt the *workload* so the checker must
detect FFI bugs.  Chaos inverts the direction: it corrupts the
*checker* — a machine encoding's own methods start raising internal
errors — so the containment ladder in
:class:`repro.core.runtime.CheckerRuntime` must keep the host workload
alive.  The plumbing mirrors the fuzz layer: injectors are registered
per machine, installed through the ``setup`` hook of
:func:`repro.fuzz.ops.run_jni_ops` / ``run_pyc_ops``, and every run is
a pure function of a single integer seed, so two same-seed chaos runs
produce byte-identical reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.runtime import ContainmentPolicy
from repro.fuzz.engine import _substrates, task_rng
from repro.fuzz.gen import generate_sequence
from repro.fuzz.ops import run_jni_ops, run_pyc_ops

#: Internal-error types chaos picks from — none of them FFIViolation,
#: so a detected violation can never be mistaken for an injected fault.
ERROR_TYPES = (
    RuntimeError,
    KeyError,
    ZeroDivisionError,
    TypeError,
    IndexError,
)

#: Check surfaces chaos never touches: ``record_thread`` is called from
#: the agent outside any containment arm, and dunder/private methods
#: are not check sites.
_EXEMPT = frozenset(("record_thread",))


class InternalFaultInjector:
    """Makes one machine's check methods raise from a start ordinal on.

    Every public callable of the encoding (the semantic methods the
    generated entries call, live or in replay) shares one call counter;
    from call ``start`` onward each call raises ``error_type``.
    Installation patches the *instance*, so quarantine — which swaps
    the runtime attribute the entries read — silences the injector
    exactly as it silences the real machine.
    """

    def __init__(
        self,
        machine: str,
        error_type: type = RuntimeError,
        start: int = 1,
        *,
        include_termination: bool = False,
    ):
        self.machine = machine
        self.error_type = error_type
        self.start = start
        self.include_termination = include_termination
        #: Injected-fault count (shared cell so closures can bump it).
        self._fired = [0]
        self._calls = [0]

    @property
    def fired(self) -> int:
        return self._fired[0]

    @property
    def calls(self) -> int:
        return self._calls[0]

    def install(self, rt) -> None:
        encoding = rt.encodings.get(self.machine)
        if encoding is None:
            raise ValueError("no machine named {!r}".format(self.machine))
        calls = self._calls
        fired = self._fired
        start = self.start
        error_type = self.error_type
        message = "chaos: injected internal fault in {}".format(self.machine)
        for name in dir(type(encoding)):
            if name.startswith("_") or name in _EXEMPT:
                continue
            if name == "at_termination" and not self.include_termination:
                continue
            if name == "reset":
                continue
            attr = getattr(encoding, name)
            if not callable(attr):
                continue

            def chaotic(*args, _inner=attr, **kwargs):
                calls[0] += 1
                if calls[0] >= start:
                    fired[0] += 1
                    raise error_type(message)
                return _inner(*args, **kwargs)

            encoding.__dict__[name] = chaotic

    def install_on_agent(self, agent_or_checker) -> None:
        """The ``setup=`` hook shape used by the fuzz op runners."""
        self.install(agent_or_checker.rt)


def injector_plan(
    seed: int, machine: str
) -> InternalFaultInjector:
    """The deterministic injector a seed assigns to one machine."""
    rng = task_rng(seed, "chaos", machine)
    return InternalFaultInjector(
        machine,
        error_type=ERROR_TYPES[rng.randrange(len(ERROR_TYPES))],
        start=rng.randrange(1, 4),
    )


def _registry_machines(substrate: str) -> List[str]:
    if substrate == "pyc":
        from repro.pyc.machines import build_pyc_registry

        return build_pyc_registry().names()
    from repro.jinn.machines import build_registry

    return build_registry().names()


def _run(substrate: str, ops, injectors, policy: ContainmentPolicy):
    def setup(agent_or_checker):
        for injector in injectors:
            injector.install(agent_or_checker.rt)

    runner = run_pyc_ops if substrate == "pyc" else run_jni_ops
    return runner(ops, setup=setup, containment=policy)


def chaos_run(
    seed: int,
    *,
    substrate: str = "both",
    rounds: int = 1,
    policy: Optional[ContainmentPolicy] = None,
) -> Dict[str, object]:
    """Inject internal faults into every machine; report containment.

    Per round and substrate, every registry machine gets one run of a
    valid generated workload with that machine's deterministic injector
    installed, plus one "all machines at once" run.  The report is a
    pure function of the arguments: no timestamps, sorted keys, and
    deterministic workloads.

    A machine *survives* a run when the host workload completes (the
    run outcome is ``completed`` or ``violation``, never a propagated
    internal error) and every injected fault was answered — the machine
    was quarantined, or the run still detected violations.
    """
    if policy is None:
        # Chaos wants the ladder to act on the first fault so every
        # faulted machine yields a quarantine diagnostic.
        policy = ContainmentPolicy(quarantine_after=1)
    report: Dict[str, object] = {
        "seed": seed,
        "substrate": substrate,
        "rounds": rounds,
        "policy": {
            "quarantine_after": policy.quarantine_after,
            "off_after": policy.off_after,
        },
        "runs": [],
        "host_crashes": 0,
        "unanswered_faults": 0,
        "machines_faulted": 0,
        "machines_quarantined": 0,
    }
    runs: List[dict] = report["runs"]  # type: ignore[assignment]
    for sub in _substrates(substrate):
        machines = _registry_machines(sub)
        for round_no in range(rounds):
            sequence = generate_sequence(
                task_rng(seed, "chaos-workload", sub, round_no), sub
            )
            targets = [[m] for m in machines] + [machines]
            for target in targets:
                injectors = [injector_plan(seed, m) for m in target]
                outcome = _run(sub, sequence.ops, injectors, policy)
                entry = _summarize(sub, round_no, target, injectors, outcome)
                runs.append(entry)
                report["host_crashes"] += 0 if entry["survived"] else 1
                report["unanswered_faults"] += entry["unanswered"]
    _finalize_report(report, substrate)
    return report


def _finalize_report(report: Dict[str, object], substrate: str) -> None:
    """Compute the machine-level aggregates from ``report["runs"]``."""
    faulted = set()
    quarantined = set()
    for entry in report["runs"]:
        for machine, stats in entry["machines"].items():
            if stats["faults"]:
                faulted.add(machine)
            if stats["quarantined"]:
                quarantined.add(machine)
    report["machines_faulted"] = len(faulted)
    report["machines_quarantined"] = len(quarantined)
    report["machines_never_faulted"] = sorted(
        set().union(
            *(set(_registry_machines(s)) for s in _substrates(substrate))
        )
        - faulted
    )


def _summarize(sub, round_no, target, injectors, outcome) -> dict:
    health = outcome.health or {}
    health_machines = health.get("machines", {})
    quarantined = set(health.get("quarantine_order", []))
    machines = {}
    unanswered = 0
    for injector in injectors:
        m = injector.machine
        counted = health_machines.get(m, {}).get("faults", 0)
        answered = (
            injector.fired == 0
            or m in quarantined
            or bool(outcome.reports)
        )
        if not answered:
            unanswered += 1
        machines[m] = {
            "injected": injector.fired,
            "faults": counted,
            "quarantined": m in quarantined,
            "error": injector.error_type.__name__,
            "start": injector.start,
        }
    survived = outcome.outcome in ("completed", "violation")
    return {
        "substrate": sub,
        "round": round_no,
        "targets": list(target),
        "outcome": outcome.outcome,
        "survived": survived,
        "violations": len(outcome.reports),
        "level": health.get("level"),
        "machines": machines,
        "unanswered": unanswered,
    }


def chaos_gate(report: Dict[str, object]) -> Dict[str, bool]:
    """The pass/fail booleans the bench and CI check."""
    return {
        "no_host_crashes": report["host_crashes"] == 0,
        "all_faults_answered": report["unanswered_faults"] == 0,
        "faults_landed": report["machines_faulted"] > 0,
    }
