"""The known-answer oracle.

Expected verdicts come only from answers the workloads declare:
``Scenario.machine``, ``CaseStudy.machine``, ``PyScenario.machine`` and
``FaultClass.machine``.  A declared answer that names no machine of the
substrate (``UnicodeString``'s "(beyond boundary)": C memory safety, not
a language-boundary rule) expects no violation, as does every valid
sequence and every ``table3``, ``pyc-ext`` and ``record-replay`` program.

A program's verdict is wrong when any of these holds:

- a checked configuration (``jinn``, ``stack``, ``record``) misses the
  expected machine, reports another machine first, or reports anything
  on a bug-free program;
- an unchecked configuration (``production``, ``interpose``) reports a
  violation;
- the checked configurations disagree on the violation stream;
- transition counts differ among checked runs, among unchecked runs, or,
  on a bug-free program, between the two;
- the replayed violation stream or event count differs from the live
  record run's;
- the checker swallowed an internal fault, or any run crashed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

CHECKED = ("jinn", "stack", "record")
UNCHECKED = ("production", "interpose")

_MACHINES: Dict[str, frozenset] = {}


def machine_names(substrate: str) -> frozenset:
    """The substrate's machine names, from its registry."""
    names = _MACHINES.get(substrate)
    if names is None:
        if substrate == "jni":
            from repro.jinn.machines import build_registry

            names = frozenset(build_registry().names())
        else:
            from repro.pyc.machines import build_pyc_registry

            names = frozenset(build_pyc_registry().names())
        _MACHINES[substrate] = names
    return names


def expected_machine(declared: str, substrate: str) -> Optional[str]:
    """The machine a declared answer expects, or None for no violation."""
    return declared if declared in machine_names(substrate) else None


def check_program(expect: Optional[str], runs: List[Tuple[str, object]],
                  replay=None) -> List[str]:
    """Problems with one program's runs in one round (empty: correct).

    ``runs`` holds ``(config, Run)`` for every run made, the production
    twin once per pair; ``replay`` is the ``ReplayResult`` of the record
    run's trace.
    """
    problems: List[str] = []
    checked = [(c, r) for c, r in runs if c in CHECKED]
    unchecked = [(c, r) for c, r in runs if c in UNCHECKED]
    for config, run in checked:
        if expect is None:
            if run.machines:
                problems.append(
                    "{}: violation on a bug-free program: {}".format(
                        config, run.reports[0]
                    )
                )
        elif not run.machines:
            problems.append("{}: missed {}".format(config, expect))
        elif run.machines[0] != expect:
            problems.append(
                "{}: expected {}, first report is {}".format(
                    config, expect, run.machines[0]
                )
            )
        if run.faults:
            problems.append(
                "{}: {} contained internal checker fault(s)".format(
                    config, run.faults
                )
            )
    for config, run in unchecked:
        if run.reports:
            problems.append(
                "{}: an unchecked run reported {}".format(config, run.reports[0])
            )
    if len({tuple(r.reports) for _, r in checked}) > 1:
        problems.append("checked configurations report different streams")
    checked_counts = {r.transitions for _, r in checked}
    unchecked_counts = {r.transitions for _, r in unchecked}
    if len(checked_counts) > 1 or len(unchecked_counts) > 1 or (
        expect is None and checked_counts and unchecked_counts
        and checked_counts != unchecked_counts
    ):
        problems.append(
            "transition counts differ: checked {} unchecked {}".format(
                sorted(checked_counts), sorted(unchecked_counts)
            )
        )
    record = [r for c, r in runs if c == "record"]
    if replay is not None and record:
        live = record[-1]
        if replay.violations != live.reports:
            problems.append("replay drift: replayed stream differs from live")
        if replay.event_count != live.events:
            problems.append(
                "replay drift: {} events replayed, {} recorded".format(
                    replay.event_count, live.events
                )
            )
    return problems


def detected(expect: Optional[str], runs: List[Tuple[str, object]]) -> bool:
    """Every checked run reported ``expect`` first."""
    return expect is not None and all(
        run.machines[:1] == [expect] for c, run in runs if c in CHECKED
    )


def check_fault_campaign(part: Dict[str, object]) -> List[str]:
    """Problems with one ``fault_campaign`` result."""
    stats = part["stats"]
    problems = []
    if stats["detected"] != stats["runs"]:
        problems.append(
            "fuzz {}: {} missed".format(part["fault"], stats["machine"])
        )
    if stats["divergences"]:
        problems.append("fuzz {}: live-vs-replay drift".format(part["fault"]))
    return problems


def check_valid_campaign(part: Dict[str, object], substrate: str) -> List[str]:
    """Problems with one ``valid_campaign`` result."""
    valid = part["valid"]
    problems = []
    if valid["violations"]:
        problems.append(
            "fuzz valid {}: {} violation(s) on a valid sequence".format(
                substrate, valid["violations"]
            )
        )
    if valid["divergences"]:
        problems.append("fuzz valid {}: live-vs-replay drift".format(substrate))
    return problems


class Verdicts:
    """Running tally of program verdicts for one benchmark run."""

    def __init__(self, overrides: Optional[Dict[str, str]] = None):
        #: Program name -> machine: replaces a declared answer (the
        #: oracle's self-test; see ``--expect``).
        self.overrides = dict(overrides or {})
        self.attempted = 0
        self.wrong = 0
        self.faulty = 0
        self.detected = 0
        #: machine -> faulty programs it caught, counted in round 0.
        self.detections: Dict[str, int] = {}
        self.problems: List[str] = []

    def expectation(self, name: str, declared: Optional[str]) -> Optional[str]:
        return self.overrides.get(name, declared)

    def add(self, pid: str, expect: Optional[str], problems: List[str],
            caught: bool, count_detection: bool) -> None:
        self.attempted += 1
        if expect is not None:
            self.faulty += 1
            if caught:
                self.detected += 1
                if count_detection:
                    self.detections[expect] = self.detections.get(expect, 0) + 1
        if problems:
            self.wrong += 1
            if len(self.problems) < 50:
                self.problems.extend(
                    "{}: {}".format(pid, problem) for problem in problems
                )

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def detect_rate(self) -> float:
        """Caught over faulty; 1.0 when the workload has no faulty program."""
        return self.detected / self.faulty if self.faulty else 1.0

    def wrong_share(self) -> float:
        return self.wrong / self.attempted if self.attempted else 0.0
