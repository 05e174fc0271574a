"""repro.obs — fleet-grade observability for checked FFI runs.

The paper reports each violation at the exact failing call; operating a
checker at production scale additionally needs aggregate visibility
over millions of crossings.  Four cooperating pieces, all deterministic
and bounded:

- **metrics** (:mod:`repro.obs.metrics`): counters, gauges, and fixed
  log-spaced-bin histograms with per-thread shards merged at snapshot
  time — hot-path increments are allocation-free cell bumps;
- **spans** (:mod:`repro.obs.spans`): boundary-crossing spans in a
  bounded ring buffer, captured in lockstep with the governor's
  sampling decisions;
- **triage** (:mod:`repro.obs.triage`): violation deduplication keyed
  on (machine, error state, transition fingerprint) with stable
  content-hash cluster IDs — dozens of incidents, not thousands of raw
  reports;
- **export** (:mod:`repro.obs.export`): Prometheus-text and canonical
  JSON snapshots, plus snapshot diffing.

The :class:`ObsHub` ties them together and receives publishes from the
governor, the wrapper cache and the fleet; the :class:`TelemetryTap` is
the hub as a fused pipeline stage (default off, byte-identical
violation streams when on).
"""

from repro.obs.export import (
    canonical_json,
    diff_snapshots,
    to_prometheus,
    top_sites,
)
from repro.obs.hub import ObsHub
from repro.obs.metrics import (
    HISTOGRAM_BINS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runner import observed_run
from repro.obs.spans import Span, SpanBuffer
from repro.obs.tap import TelemetryTap, as_tap
from repro.obs.triage import (
    Cluster,
    ViolationTriage,
    cluster_id,
    fingerprint_message,
)

__all__ = [
    "Cluster",
    "Counter",
    "Gauge",
    "HISTOGRAM_BINS",
    "Histogram",
    "MetricsRegistry",
    "ObsHub",
    "Span",
    "SpanBuffer",
    "TelemetryTap",
    "ViolationTriage",
    "as_tap",
    "canonical_json",
    "cluster_id",
    "diff_snapshots",
    "fingerprint_message",
    "observed_run",
    "to_prometheus",
    "top_sites",
]
