"""The observability hub: one place every subsystem publishes into.

Each subsystem historically kept its numbers privately — the governor's
per-pair meters and ``WrapperCache.stats()``.  An :class:`ObsHub`
unifies them: the hot path (the pipeline's
:class:`~repro.obs.tap.TelemetryTap`) streams counters, durations, and
spans in; the cold paths publish their own reports as gauges; violations
stream through :class:`~repro.obs.triage.ViolationTriage`; and
:meth:`snapshot` emits one deterministic document the exporters and the
CLI consume.

Publish conventions: every series carries a ``subsystem`` label
(``pipeline``, ``checker``, ``governor``, ``cache``) so one scrape
tells the whole story and dashboards can group by layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.clock import SYSTEM_CLOCK, Clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanBuffer
from repro.obs.triage import ViolationTriage

#: Cap on the violation-reference backlog kept for span attribution;
#: trimmed in halves so steady-state violation storms stay O(1) memory.
_VIOL_REF_CAP = 4096


class ObsHub:
    """Metrics + spans + triage behind one attach point."""

    def __init__(
        self,
        *,
        clock: Optional[Clock] = None,
        span_capacity: int = 256,
        sample_period: int = 16,
    ):
        if sample_period < 1 or sample_period & (sample_period - 1):
            raise ValueError(
                "sample_period must be a power of two, not {}".format(
                    sample_period
                )
            )
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        #: Pre-bound for hot paths (the raw builtin on a SystemClock).
        self.clock_ns = self.clock.monotonic_ns
        #: Timing-capture period: 1 in ``sample_period`` checked
        #: crossings per site pays the two clock reads and records a
        #: histogram sample plus a span.  Counters and violation triage
        #: see *every* crossing regardless — only duration capture is
        #: sampled.  Power of two so the hot path tests one mask.
        self.sample_period = sample_period
        self._sample_mask = sample_period - 1
        self.metrics = MetricsRegistry()
        self.spans = SpanBuffer(span_capacity)
        self.triage = ViolationTriage()
        #: Recent violation cluster IDs, for span attribution.  A list
        #: plus a base offset so trimming never invalidates marks; the
        #: lifetime count lives in a cell so fused hooks can compare it
        #: against a mark without a method call.
        self._viol_refs: List[str] = []
        self._viol_base = 0
        self._viol_count = [0]

    # -- violation stream (streamed by CheckerRuntime.fail) --------------

    def on_violation(self, violation) -> str:
        """Triage one violation; count it; remember its cluster ref."""
        cid = self.triage.ingest_violation(violation)
        self.metrics.counter(
            "ffi_violations_total",
            subsystem="checker",
            machine=violation.machine,
        ).inc()
        refs = self._viol_refs
        refs.append(cid)
        self._viol_count[0] += 1
        if len(refs) > _VIOL_REF_CAP:
            drop = len(refs) // 2
            del refs[:drop]
            self._viol_base += drop
        return cid

    def violation_mark(self) -> int:
        """An opaque mark for :meth:`violations_since`."""
        return self._viol_count[0]

    def violations_since(self, mark: int) -> Tuple[str, ...]:
        """Cluster IDs of violations recorded since ``mark``."""
        start = mark - self._viol_base
        if start < 0:
            start = 0
        return tuple(self._viol_refs[start:])

    # -- cold-path publishers --------------------------------------------

    def publish_governor(self, governor) -> None:
        """Mirror the governor's budget and each pair's call count.

        Each pair's checked time is in the governor's own report.
        """
        metrics = self.metrics
        metrics.gauge("governor_budget", subsystem="governor").set(
            governor.policy.budget
        )
        for name in sorted(governor.pairs):
            metrics.gauge(
                "governor_pair_calls", subsystem="governor", pair=name
            ).set(governor.pairs[name].calls)

    def publish_cache(self, cache=None) -> None:
        """Mirror :meth:`repro.core.cache.WrapperCache.stats`."""
        if cache is None:
            from repro.core.cache import WRAPPER_CACHE as cache
        for key, value in cache.stats().items():
            self.metrics.gauge(
                "wrapper_cache_" + key, subsystem="cache"
            ).set(value)

    # -- snapshot --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """One deterministic document: metrics + spans + triage.

        Cluster sizes are mirrored into the metrics section
        (``obs_triage_cluster_total``) right before merging, so scrape
        output carries incident counts without a second endpoint.
        """
        self.metrics.gauge("obs_sample_period", subsystem="obs").set(
            self.sample_period
        )
        for cluster in self.triage.clusters.values():
            self.metrics.gauge(
                "obs_triage_cluster_total",
                subsystem="triage",
                cluster=cluster.id,
                machine=cluster.machine,
            ).set(cluster.count)
        return {
            "schema": 1,
            "metrics": self.metrics.snapshot(),
            "spans": self.spans.snapshot(),
            "triage": self.triage.snapshot(),
        }

    def summary(self) -> Dict[str, object]:
        """The roll-up block for ``repro status``: totals only, no series."""
        metrics = self.metrics.snapshot()
        calls = sum(
            value
            for flat, value in metrics["counters"].items()
            if flat.startswith("ffi_calls_total")
        )
        violations = sum(
            value
            for flat, value in metrics["counters"].items()
            if flat.startswith("ffi_violations_total")
        )
        return {
            "crossings": calls,
            "violations": violations,
            "violation_clusters": len(self.triage.clusters),
            "spans_recorded": self.spans.recorded,
            "spans_kept": len(self.spans.spans()),
            "series": (
                len(metrics["counters"])
                + len(metrics["gauges"])
                + len(metrics["histograms"])
            ),
        }

    def reset(self) -> None:
        self.metrics.reset()
        self.spans.reset()
        self.triage.reset()
        self._viol_refs.clear()
        self._viol_base = 0
        self._viol_count[0] = 0
