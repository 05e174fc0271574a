"""The overhead meter: where a governed run's checking time went.

Checking cost rides on every boundary crossing, and the paper's
deployment target is a production VM, so an operator needs to know
which FFI functions pay for it.  The governor meters each *pair* — one
entry, i.e. one ``(function, call+return)`` site — as the synthesizer
inlines it into the fused entry: the entry counts the call and adds the
time from just before its call checks to just after its return checks
(the raw call included) to the pair's ``checked_ns``.

The governor never skips a check.  Machines indexed by entity, such as
local references and pinned buffers, are defined only over the
complete event sequence: a skipped acquire makes the matching release
or use a false report.  So every crossing of a governed run is checked
exactly as in an ungoverned one, and the meter only reports.

:meth:`OverheadGovernor.report` lists each pair's calls and checked
time.  A native method's pair (``native:<name>``) times the whole
native, so its checked time includes that of the crossings the native
makes.  The report therefore ranks function pairs only: as
``over_budget`` it lists each function pair whose checked time is more
than ``budget`` times the function pairs' total, the pairs that
dominate checking cost.  A native pair stays in ``pairs`` but never
enters ``over_budget``, and its time never enters the total, which
would count its crossings twice.  At budget 1.0 no pair can exceed
the total, so the list is empty.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.clock import SYSTEM_CLOCK, Clock


class GovernorPolicy:
    """The share of a run's checked time one pair may take."""

    __slots__ = ("budget",)

    def __init__(self, *, budget: float = 0.3):
        if not 0.0 <= budget <= 1.0:
            raise ValueError("budget must be a share in [0, 1]")
        self.budget = budget


class PairState:
    """One governed entry's meter."""

    __slots__ = ("name", "calls", "checked_ns")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.checked_ns = 0


def function_pairs(pairs: dict) -> dict:
    """``pairs`` without the native-method pairs, whose checked time
    includes that of the crossings each native makes."""
    return {
        name: pair for name, pair in pairs.items()
        if not name.startswith("native:")
    }


class OverheadGovernor:
    """Meters the checked time of every governed entry, per pair."""

    def __init__(
        self,
        policy: Optional[GovernorPolicy] = None,
        *,
        clock: Optional[Clock] = None,
    ):
        self.policy = policy or GovernorPolicy()
        self.pairs: Dict[str, PairState] = {}
        #: The injectable time source; ``clock_ns`` pre-binds its
        #: ``monotonic_ns`` (the raw platform builtin on a SystemClock)
        #: for the metered path.
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.clock_ns = self.clock.monotonic_ns

    def fused_binding(self, name: str) -> PairState:
        """The (created-on-demand) pair state one fused entry pre-binds."""
        state = self.pairs.get(name)
        if state is None:
            state = PairState(name)
            self.pairs[name] = state
        return state

    def report(self) -> Dict[str, object]:
        functions = function_pairs(self.pairs)
        limit = self.policy.budget * sum(
            state.checked_ns for state in functions.values()
        )
        return {
            "budget": self.policy.budget,
            "over_budget": sorted(
                name for name, state in functions.items()
                if state.checked_ns > limit
            ),
            "pairs": {
                name: {
                    "calls": self.pairs[name].calls,
                    "checked_ns": self.pairs[name].checked_ns,
                }
                for name in sorted(self.pairs)
            },
        }


def governed_run(
    seed: int,
    *,
    substrate: str = "pyc",
    policy: Optional[GovernorPolicy] = None,
    repeats: int = 8,
) -> Dict[str, object]:
    """Run one generated workload under a fresh governor; report both.

    The valid generated sequence is repeated ``repeats`` times inside a
    single checked host.  Call counts in the governor report are a pure
    function of the arguments; checked times vary run to run.
    """
    from repro.fuzz.engine import task_rng
    from repro.fuzz.gen import generate_sequence
    from repro.fuzz.ops import run_jni_ops, run_pyc_ops

    governor = OverheadGovernor(policy)
    sequence = generate_sequence(
        task_rng(seed, "governed", substrate), substrate
    )
    ops = [tuple(op) for op in sequence.ops] * max(1, repeats)
    runner = run_pyc_ops if substrate == "pyc" else run_jni_ops
    outcome = runner(ops, governor=governor)
    return {
        "seed": seed,
        "substrate": substrate,
        "ops": len(ops),
        "outcome": outcome.outcome,
        "violations": len(outcome.reports),
        "governor": governor.report(),
    }
