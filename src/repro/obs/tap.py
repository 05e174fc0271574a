"""The telemetry tap: the pipeline's outermost stage.

Default off.  When attached (``telemetry=`` on the agent or checker),
the :class:`~repro.pipeline.plan.PipelinePlan` binds it as the fused
entry's *outermost* stage, so a crossing's span covers everything the
crossing paid for (recording, metering, checks, the raw call).  The
synthesizer emits the tap's bookkeeping as source;
:meth:`TelemetryTap.fused_shared`, :meth:`TelemetryTap.fused_block` and
:meth:`TelemetryTap.fused_site` hand the emitted code its lists.

The tap is a pure observer: it never branches the entry's control flow
and never touches arguments or results, so violation and trace streams
are byte-identical with the stage on or off (gated by the pipeline
parity suite).  Span capture runs in lockstep with the governor: on
the sampled-out raw path the entry bumps only a counter — span
overhead rides the governor's existing budget instead of adding a knob
of its own.

Cost discipline: the per-crossing mandatory work is one list-cell
increment and one mask test.  Duration capture — the two clock reads,
the histogram update, and the span write — runs on 1 in
``hub.sample_period`` checked crossings per site, decided by the site's
own call counter so the choice is deterministic and seed-stable.
Violation *triage* is never sampled (it rides ``CheckerRuntime.fail``,
not the tap), so cluster counts stay exact; only span attribution and
duration histograms are sampled views.

Attaching allocates one block of series for the whole function table:
the table sites' series keys are prepared once per process as a
:class:`~repro.obs.metrics.BlockLayout` in site order, the hub's
registry hands each attach that layout's block (the hub's shards hold
keyed cells and such blocks), and the emitted entry for site ``i``
counts into ``calls[i]``.  A site's machine count is a literal in the
emitted source.  Only a native, named when the program binds it, gets
keyed cells of its own.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.hub import ObsHub
from repro.obs.metrics import (
    HISTOGRAM_BINS,
    BlockLayout,
    counter_key,
    histogram_key,
)

#: Direction label per site kind: JNI/API functions are crossed by
#: native code calling into the managed runtime; natives (and bound
#: extensions) by managed code calling out.
_DIR_FUNCTION = "native_to_managed"
_DIR_NATIVE = "managed_to_native"

#: ``(substrate, function names)`` -> the table sites' series layout.
#: It depends only on the labels, so every attach after the first in a
#: process reuses it.  Native and extension sites are named at bind
#: time and are not kept, so a long-lived worker binding ever new
#: natives does not grow this map.
_TABLE_LAYOUTS: Dict[Tuple[str, Tuple[str, ...]], BlockLayout] = {}


def _site_keys(substrate: str, function: str, native: bool):
    """``(calls, crossing histogram, sampled-out)`` keys of one site."""
    labels = {
        "subsystem": "pipeline",
        "substrate": substrate,
        "function": function,
        "direction": _DIR_NATIVE if native else _DIR_FUNCTION,
    }
    return (
        counter_key("ffi_calls_total", **labels),
        histogram_key("ffi_crossing_ns", **labels),
        counter_key("ffi_sampled_out_total", **labels),
    )


def _table_layout(substrate: str, functions: Tuple[str, ...]) -> BlockLayout:
    """Calls and sampled-out counters, crossing histograms, in site order."""
    layout = _TABLE_LAYOUTS.get((substrate, functions))
    if layout is None:
        keys = [_site_keys(substrate, name, False) for name in functions]
        layout = _TABLE_LAYOUTS[(substrate, functions)] = BlockLayout(
            counters=(
                [calls for calls, _, _ in keys],
                [sampled for _, _, sampled in keys],
            ),
            histograms=([crossing for _, crossing, _ in keys],),
        )
    return layout


class TelemetryTap:
    """The observability hub as the fused entry's outermost stage."""

    name = "telemetry"

    def __init__(self, hub: ObsHub, *, substrate: str = "jni"):
        self.hub = hub
        self.substrate = substrate
        #: function -> eligible machine-check count, taken by
        #: :meth:`configure` from the dispatch index; -1 when unknown.
        self._machines: Dict[str, int] = {}
        self._native_machines = -1
        #: The table sites' series in site order, set by :meth:`configure`.
        self._layout: Optional[BlockLayout] = None

    # -- plan wiring -----------------------------------------------------

    def configure(self, registry, function_table=None) -> None:
        """Take the site order and machine counts from the index.

        The shared :data:`~repro.core.cache.WRAPPER_CACHE` dispatch
        index carries both, so configuring a tap costs one cache hit
        after the first plan for a spec set.
        """
        from repro.core.cache import WRAPPER_CACHE

        index = WRAPPER_CACHE.dispatch_for(registry, function_table)
        self._machines = index.site_machines
        self._native_machines = index.native_site_machines
        self._layout = _table_layout(self.substrate, index.function_names)

    def machines_at(self, function: str, native: bool) -> int:
        if native:
            return self._native_machines
        return self._machines.get(function, -1)

    # -- fused-codegen surface -------------------------------------------
    #
    # Generated modules inline the tap's bookkeeping as source; these
    # accessors hand the emitted code the hub's lists.

    def fused_shared(self):
        """``(clock, viol cell, viols_since, ring, cap, span cell, mask)``."""
        hub = self.hub
        ring, capacity, span_count = hub.spans.ring_parts()
        return (
            hub.clock_ns, hub._viol_count, hub.violations_since,
            ring, capacity, span_count, hub._sample_mask,
        )

    def fused_block(self):
        """``(calls, sampled-out, hist counts, hist sums, bins, nbins)``.

        The hub's block for the table sites (see
        :meth:`~repro.obs.metrics.MetricsRegistry.block`): the entry for
        the function at position ``i`` of the table counts into
        ``calls[i]`` and bins into ``bins[i * nbins + b]``.
        """
        return (*self.hub.metrics.block(self._layout), HISTOGRAM_BINS)

    def fused_site(self, function: str, native: bool):
        """``(calls cell, hist cell, bins, sampled cell, machines)``."""
        calls, crossing, sampled = _site_keys(self.substrate, function, native)
        cell = self.hub.metrics.cell
        hist = cell(crossing)
        return (
            cell(calls),
            hist,
            hist[2],
            cell(sampled),
            self.machines_at(function, native),
        )

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "substrate": self.substrate,
            "span_capacity": self.hub.spans.capacity,
            "sites": len(self._machines) + (
                1 if self._native_machines >= 0 else 0
            ),
        }


def as_tap(telemetry, *, substrate: str) -> Optional[TelemetryTap]:
    """Normalize a user-supplied ``telemetry=`` value to a tap.

    Accepts an :class:`ObsHub` (the common case), an existing
    :class:`TelemetryTap`, or None.
    """
    if telemetry is None:
        return None
    if isinstance(telemetry, TelemetryTap):
        return telemetry
    if isinstance(telemetry, ObsHub):
        return TelemetryTap(telemetry, substrate=substrate)
    raise TypeError(
        "telemetry must be an ObsHub or TelemetryTap, not {!r}".format(
            type(telemetry).__name__
        )
    )
