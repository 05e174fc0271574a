"""The adaptive overhead governor.

Checking cost rides on every boundary crossing, and the paper's
deployment target is a production VM: when the workload hammers a hot
FFI function, full checking on that one pair can dominate the run.  The
governor meters per-pair checking cost — a *pair* is one entry, i.e.
one ``(function, call+return)`` site; the two directions degrade
jointly so a sampled-out call never runs its return checks against
skipped call checks — and keeps the *checking share* of boundary time
inside a configured budget by moving hot pairs to 1-in-``period`` call
sampling, doubling the period while the budget is exceeded and halving
it back as load drops.

Two structural guarantees matter more than the (timing-dependent)
control law and are what the bench gates:

- only pairs *hot in the current window* (``hot_min`` calls or more)
  are ever degraded — a cold pair, e.g. the one rare call that carries
  the bug, is always fully checked;
- a sampled-in call runs exactly the checks the synthesizer generated,
  so detection on sampled-in transitions is the full checker's.

Degraded checking is knowingly unsound for *stateful* machines: a
sampled-out call also skips its state updates, so resource counts drift
on pairs under sampling.  That is the price of bounded overhead; the
report says exactly which pairs paid it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.clock import SYSTEM_CLOCK, Clock


class GovernorPolicy:
    """Budget and control-law configuration."""

    __slots__ = (
        "budget",
        "window",
        "sample_period",
        "max_period",
        "hot_min",
        "restore_headroom",
    )

    def __init__(
        self,
        *,
        budget: float = 0.3,
        window: int = 256,
        sample_period: int = 8,
        max_period: int = 128,
        hot_min: int = 32,
        restore_headroom: float = 0.5,
    ):
        if not 0.0 <= budget <= 1.0:
            raise ValueError("budget must be a share in [0, 1]")
        if window < 16:
            raise ValueError("window must be at least 16 calls")
        if sample_period < 2 or max_period < sample_period:
            raise ValueError("need 2 <= sample_period <= max_period")
        if hot_min < 1:
            raise ValueError("hot_min must be positive")
        if not 0.0 < restore_headroom <= 1.0:
            raise ValueError("restore_headroom must be in (0, 1]")
        self.budget = budget
        self.window = window
        self.sample_period = sample_period
        self.max_period = max_period
        self.hot_min = hot_min
        self.restore_headroom = restore_headroom


class PairState:
    """Per-wrapper metering and sampling state."""

    __slots__ = (
        "name",
        "period",
        "slot",
        "window_calls",
        "checked_ns",
        "checked_calls",
        "raw_ns",
        "raw_calls",
        "total_calls",
        "total_sampled_out",
        "degraded_windows",
    )

    def __init__(self, name: str):
        self.name = name
        self.period = 1  # 1 = full checking
        self.slot = 0
        self.window_calls = 0
        self.checked_ns = 0
        self.checked_calls = 0
        self.raw_ns = 0
        self.raw_calls = 0
        self.total_calls = 0
        self.total_sampled_out = 0
        self.degraded_windows = 0

    def new_window(self) -> None:
        self.window_calls = 0
        self.checked_ns = 0
        self.checked_calls = 0
        self.raw_ns = 0
        self.raw_calls = 0

    def overhead_ns(self) -> float:
        """Estimated checking overhead this pair added this window.

        With raw samples available the per-call raw cost is subtracted;
        a pair still at full checking has no raw baseline, so its whole
        checked time counts as overhead — the conservative direction
        (overestimating pushes toward degradation, never past budget).
        """
        if not self.checked_calls:
            return 0.0
        mean_checked = self.checked_ns / self.checked_calls
        if self.raw_calls:
            mean_raw = self.raw_ns / self.raw_calls
            per_call = max(0.0, mean_checked - mean_raw)
        else:
            per_call = mean_checked
        # Never above the checked time: ``(c / n) * n`` can round past
        # ``c``, and a share over 1.0 would degrade a pair at budget 1.0.
        return min(per_call * self.checked_calls, float(self.checked_ns))


class OverheadGovernor:
    """Meters fused entries and degrades hot pairs to call sampling."""

    def __init__(
        self,
        policy: Optional[GovernorPolicy] = None,
        *,
        clock: Optional[Clock] = None,
    ):
        self.policy = policy or GovernorPolicy()
        self.pairs: Dict[str, PairState] = {}
        self._tick = [0]
        self._rebalances = 0
        #: The injectable time source; ``_clock`` pre-binds its
        #: ``monotonic_ns`` (the raw platform builtin on a SystemClock)
        #: for the metered path.
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self._clock = self.clock.monotonic_ns

    # -- fused-pipeline surface ------------------------------------------
    #
    # Every fused entry inlines the governor's bookkeeping: it counts the
    # call, rebalances at each window boundary, skips the checks of a
    # sampled-out call (timing the raw call alone), and times the checked
    # path otherwise.  These two accessors hand an entry the state it
    # pre-binds.

    def fused_binding(self, name: str) -> PairState:
        """The (created-on-demand) pair state one fused entry pre-binds."""
        state = self.pairs.get(name)
        if state is None:
            state = PairState(name)
            self.pairs[name] = state
        return state

    def fused_shared(self):
        """``(clock, tick cell, window size, rebalance)`` for entries."""
        return self._clock, self._tick, self.policy.window, self._rebalance

    # -- the control law -------------------------------------------------

    def _window_pairs(self) -> List[PairState]:
        """The pairs with any window counter set, in binding order.

        Every pair is bound at attach but a window touches few; the
        rest add nothing to the share, the hot scan or the reset.
        """
        return [
            s
            for s in self.pairs.values()
            if s.window_calls or s.checked_calls or s.raw_calls
        ]

    @staticmethod
    def _share(states) -> float:
        overhead = 0.0
        total = 0.0
        for state in states:
            overhead += state.overhead_ns()
            total += state.checked_ns + state.raw_ns
        return overhead / total if total else 0.0

    def share(self) -> float:
        """Estimated checking share of boundary time this window."""
        return self._share(self._window_pairs())

    def _rebalance(self) -> None:
        self._tick[0] = 0
        self._rebalances += 1
        policy = self.policy
        # Not window_calls alone: the trigger meters its call after the reset.
        touched = self._window_pairs()
        share = self._share(touched)
        hot = [s for s in touched if s.window_calls >= policy.hot_min]
        if share > policy.budget and hot:
            # Degrade the hottest pair by estimated overhead; name is
            # the tiebreak so equal measurements stay deterministic.
            victim = max(hot, key=lambda s: (s.overhead_ns(), s.name))
            if victim.period == 1:
                victim.period = policy.sample_period
            elif victim.period < policy.max_period:
                victim.period *= 2
            victim.degraded_windows += 1
        elif share < policy.budget * policy.restore_headroom:
            degraded = [s for s in self.pairs.values() if s.period > 1]
            if degraded:
                # Restore the least-costly degraded pair first.
                lucky = min(degraded, key=lambda s: (s.overhead_ns(), s.name))
                lucky.period //= 2
                if lucky.period < policy.sample_period:
                    lucky.period = 1
        for state in touched:
            state.new_window()

    # -- reporting -------------------------------------------------------

    def degraded_pairs(self) -> List[str]:
        return sorted(s.name for s in self.pairs.values() if s.period > 1)

    def report(self) -> Dict[str, object]:
        pairs = {}
        for name in sorted(self.pairs):
            state = self.pairs[name]
            pairs[name] = {
                "calls": state.total_calls,
                "sampled_out": state.total_sampled_out,
                "period": state.period,
                "degraded_windows": state.degraded_windows,
            }
        return {
            "budget": self.policy.budget,
            "window": self.policy.window,
            "rebalances": self._rebalances,
            "share": round(self.share(), 4),
            "degraded": self.degraded_pairs(),
            "pairs": pairs,
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
    single checked host so pairs actually get hot — one pass rarely
    crosses ``hot_min``.  Timing fields in the governor report vary run
    to run; the structural fields (periods, call counts, degraded set)
    are what tests and the bench look at.
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
