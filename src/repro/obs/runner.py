"""One observed workload run: the CLI's and bench's shared harness.

Mirrors :func:`repro.resilience.governor.governed_run` but attaches the
full observability stack — a telemetry-tapped fused pipeline, an
overhead governor metering on the hub's clock and publishing into the
hub, and wrapper-cache gauges — and returns both the workload outcome
and the hub snapshot.

With a :class:`~repro.core.clock.FakeClock` the whole snapshot is a
pure function of ``(seed, substrate, repeats, budget)``: two same-seed
runs produce byte-identical canonical JSON, which is exactly what the
``bench_obs.py`` determinism gate asserts.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.clock import Clock
from repro.obs.hub import ObsHub


def observed_run(
    seed: int,
    *,
    substrate: str = "pyc",
    repeats: int = 8,
    budget: float = 0.3,
    clock: Optional[Clock] = None,
    span_capacity: int = 256,
    govern: bool = True,
) -> Dict[str, object]:
    """Run one generated workload with telemetry on; report everything.

    The generated valid sequence is repeated ``repeats`` times in one
    checked host, so each pair's meter sees repeated crossings (and
    triage sees duplicate violations when a fault is present).
    """
    from repro.fuzz.engine import task_rng
    from repro.fuzz.gen import generate_sequence
    from repro.fuzz.ops import run_jni_ops, run_pyc_ops
    from repro.resilience.governor import GovernorPolicy, OverheadGovernor

    hub = ObsHub(clock=clock, span_capacity=span_capacity)
    governor = None
    if govern:
        governor = OverheadGovernor(
            GovernorPolicy(budget=budget), clock=hub.clock
        )
    sequence = generate_sequence(
        task_rng(seed, "observed", substrate), substrate
    )
    ops = [tuple(op) for op in sequence.ops] * max(1, repeats)
    runner = run_pyc_ops if substrate == "pyc" else run_jni_ops
    outcome = runner(ops, governor=governor, telemetry=hub)
    if governor is not None:
        hub.publish_governor(governor)
    hub.publish_cache()
    report: Dict[str, object] = {
        "seed": seed,
        "substrate": substrate,
        "ops": len(ops),
        "outcome": outcome.outcome,
        "violations": len(outcome.reports),
        "summary": hub.summary(),
        "snapshot": hub.snapshot(),
    }
    if governor is not None:
        report["governor"] = governor.report()
    return report
