"""Process-wide caches keyed on full specification identity.

Synthesis is deterministic: the same specs against the same function
table and stage flags always generate the same plan module, so agents
for the same specification reuse one compiled module instead of
re-synthesizing at every VM start — and the Python/C checker reuses one
instead of re-synthesizing at every interpreter construction.

Correctness hinges on the key.  The historic cache keyed on *machine
names*, so a custom registry reusing a builtin machine name silently got
the builtin's generated checks.  :class:`WrapperCache` keys on
:meth:`repro.fsm.registry.SpecRegistry.fingerprint` — a hash of every
spec's transitions, mappings, and emit-plan identity — plus the function
table and stage flags, so behaviourally different registries never
collide.

Plans additionally warm-start across *processes*: when a
:class:`repro.core.plancache.PlanDiskCache` is attached (the
process-wide instance enables it from ``REPRO_PLAN_CACHE``), an
in-memory plan miss first consults the on-disk cache and, on a hit,
``exec``\\ s the cached compiled code object instead of re-running the
synthesizer cross-product — turning a ~200ms cold synthesis into a
~1ms warm bind for every fleet worker and repeat CLI invocation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.core.dispatch import DispatchIndex
from repro.core.plancache import PlanDiskCache, default_disk_cache, plan_digest
from repro.fsm.registry import SpecRegistry

#: Default entry cap per cache map.  Long-lived processes that sweep
#: many perturbed registries (ablation studies, spec fuzzing) would
#: otherwise retain every compiled module forever.
DEFAULT_MAX_ENTRIES = 64


def _table_key(function_table) -> Tuple[str, ...]:
    """Identity of a static function table: its ordered name tuple."""
    if function_table is None:
        return ("<jni>",)
    return tuple(function_table)


class WrapperCache:
    """Compiled plan modules and dispatch indexes by spec identity.

    Both maps are bounded LRU caches: a hit refreshes the entry, an
    insert past ``max_entries`` evicts the least recently used one.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        *,
        disk: Optional[PlanDiskCache] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.disk = disk
        self._plans: "OrderedDict[tuple, Callable]" = OrderedDict()
        self._indexes: "OrderedDict[tuple, DispatchIndex]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _get(self, cache: OrderedDict, key: tuple):
        entry = cache.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._hits += 1
        cache.move_to_end(key)
        return entry

    def _put(self, cache: OrderedDict, key: tuple, entry) -> None:
        cache[key] = entry
        if len(cache) > self.max_entries:
            cache.popitem(last=False)
            self._evictions += 1

    def plans_for(
        self,
        registry: SpecRegistry,
        *,
        function_table=None,
        checking: bool = True,
        record: bool = False,
        govern: bool = False,
        telemetry: bool = False,
    ) -> Callable:
        """The compiled fused-pipeline ``build_entries`` for one spec set.

        Synthesizes on first use; every later request with a
        fingerprint-identical registry, the same table and the same
        stage flags reuses the compiled module.  A plan with the
        recorder tap (or the telemetry tap) fused in is a different
        module than one without it.
        """
        key = (
            registry.fingerprint(),
            _table_key(function_table),
            checking,
            record,
            govern,
            telemetry,
        )
        built = self._get(self._plans, key)
        if built is None:
            # Imported lazily: the synthesizer sits one layer above the
            # core in the dependency order (specs -> synthesizer -> core
            # consumers), so the core package must not import it at load
            # time.
            from repro.jinn.synthesizer import (
                Synthesizer,
                bind_pipeline,
                compile_pipeline_source,
            )

            flags = {
                "checking": checking,
                "record": record,
                "govern": govern,
                "telemetry": telemetry,
            }
            code = None
            digest = None
            if self.disk is not None:
                digest = plan_digest(registry, function_table, flags)
                code = self.disk.load(digest)
            if code is None:
                synthesizer = Synthesizer(
                    registry, function_table=function_table
                )
                source = synthesizer.generate_pipeline_source(**flags)
                code = compile_pipeline_source(source)
                if self.disk is not None:
                    self.disk.store(digest, source, code)
            built = bind_pipeline(code)
            self._put(self._plans, key, built)
        return built

    def dispatch_for(
        self, registry: SpecRegistry, function_table=None
    ) -> DispatchIndex:
        """The (function, direction) dispatch index for one spec set."""
        if function_table is None:
            from repro.jni import functions

            function_table = functions.FUNCTIONS
            key = (registry.fingerprint(), ("<jni>",))
        else:
            key = (registry.fingerprint(), _table_key(function_table))
        index = self._get(self._indexes, key)
        if index is None:
            index = DispatchIndex.build(registry, function_table)
            self._put(self._indexes, key, index)
        return index

    def clear(self) -> None:
        self._plans.clear()
        self._indexes.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        if self.disk is not None:
            self.disk.reset_counters()

    def stats(self) -> Dict[str, int]:
        disk = self.disk.stats() if self.disk is not None else {}
        return {
            "plan_modules": len(self._plans),
            "dispatch_indexes": len(self._indexes),
            "max_entries": self.max_entries,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            # The cross-process plan cache: numeric so every key can
            # export as an ObsHub gauge.
            "disk_enabled": 1 if self.disk is not None else 0,
            "disk_hits": disk.get("hits", 0),
            "disk_misses": disk.get("misses", 0),
            "disk_writes": disk.get("writes", 0),
            "disk_errors": disk.get("errors", 0),
        }


#: The process-wide shared instance, used by the Jinn agent and the
#: Python/C checker alike.  The on-disk plan cache is enabled from the
#: environment (``REPRO_PLAN_CACHE``), so fleet workers — which inherit
#: the environment — warm-start from the same directory.
WRAPPER_CACHE: WrapperCache = WrapperCache(disk=default_disk_cache())


def dispatch_for(
    registry: SpecRegistry, function_table=None
) -> DispatchIndex:
    return WRAPPER_CACHE.dispatch_for(registry, function_table)
