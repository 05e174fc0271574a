"""The pipeline plan: bind the one emitted module to a runtime's stages.

A :class:`PipelinePlan` takes one checker runtime, the attached stages
(trace recorder, overhead governor and telemetry tap, each optional),
and the static function table, and produces the one fused entry per
``(function, direction)`` that the agents install — the only live
checked call path.

The synthesizer emits the *entire* fused entry as source (checks,
containment arms, governor counters, recorder hooks and telemetry
bookkeeping all inline — see ``Synthesizer.generate_pipeline_source``)
and the plan binds the compiled module to this runtime's stages.
Compiled modules are shared process-wide through
``WrapperCache.plans_for``.  ``mode="interpose"`` binds the same shape
with no checks (Table 3's framework-overhead column).

A fully instrumented crossing is one entry frame plus the two recorder
hook calls — no nested wrapper closures, no per-call list building, and
one containment arm per contributing machine owned by the entry body
itself.  Walking the machines' ``on_event`` handlers is replay's job
(:mod:`repro.trace.replay`), not a live mode.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.cache import WRAPPER_CACHE
from repro.core.dispatch import NATIVE_KEY
from repro.fsm.events import Site

_MODES = ("generated", "interpose")


def _raw_stub(function_table) -> Dict[str, Callable]:
    """A placeholder raw table for native-factory-only builds."""

    def missing(env, *args):
        raise RuntimeError("raw stub called")

    return {name: missing for name in function_table}


class PipelinePlan:
    """One compiled, fused call path for one runtime and stage set."""

    def __init__(
        self,
        rt,
        registry,
        function_table=None,
        *,
        mode: str = "generated",
        recorder=None,
        governor=None,
        telemetry=None,
        cache=None,
    ):
        if mode not in _MODES:
            raise ValueError("mode must be one of {}".format(_MODES))
        self.rt = rt
        self.registry = registry
        self.mode = mode
        self.recorder = recorder
        self.governor = governor
        cache = cache if cache is not None else WRAPPER_CACHE
        # The cache keys JNI's default table as None; resolve the real
        # table only for local metadata lookups.
        self._table_arg = function_table
        if function_table is None:
            from repro.jni import functions

            function_table = functions.FUNCTIONS
        self.function_table = function_table
        self._telemetry = None
        if telemetry is not None:
            from repro.obs.tap import as_tap

            self._telemetry = as_tap(
                telemetry, substrate=self._infer_substrate()
            )
            self._telemetry.configure(registry, self._table_arg)
            # The runtime forwards violations straight to the hub so
            # triage sees every failure, not just sampled spans.
            rt.telemetry = self._telemetry.hub
        self._build = cache.plans_for(
            registry,
            function_table=self._table_arg,
            checking=(mode == "generated"),
            record=recorder is not None,
            govern=governor is not None,
            telemetry=self._telemetry is not None,
        )
        self._native_factory: Optional[Callable] = None

    def _infer_substrate(self) -> str:
        """Label telemetry series by the table this plan compiles for."""
        if self._table_arg is None:
            return "jni"
        try:
            from repro.pyc.spec import PY_FUNCTIONS

            if self._table_arg is PY_FUNCTIONS:
                return "pyc"
        except ImportError:
            pass
        return "custom"

    # -- entry binding ---------------------------------------------------

    def entries(self, raw: Dict[str, Callable]) -> Dict[str, Callable]:
        """The fused entry table for one raw function table."""
        entries, native_factory = self._build(
            self.rt, raw, self.recorder, self.governor, self._telemetry
        )
        self._native_factory = native_factory
        return entries

    def native_entry(self, method_name: str, impl: Callable) -> Callable:
        """The fused entry for one bound native method (or extension)."""
        if self._native_factory is None:
            # No table installed yet: bind the factory against a stub
            # raw table; the factory itself never touches it.
            _, self._native_factory = self._build(
                self.rt,
                _raw_stub(self.function_table),
                self.recorder,
                self.governor,
                self._telemetry,
            )
        return self._native_factory(method_name, impl)

    # -- introspection ---------------------------------------------------

    def _stages(self) -> List[Dict[str, object]]:
        """Each stage the entries inline, outermost first."""
        stages: List[Dict[str, object]] = []
        if self._telemetry is not None:
            stages.append(self._telemetry.describe())
        if self.recorder is not None:
            journal = getattr(self.recorder, "_journal", None)
            stages.append({"name": "recorder", "journal": journal is not None})
        if self.governor is not None:
            policy = self.governor.policy
            stages.append({
                "name": "governor",
                "budget": policy.budget,
                "window": policy.window,
            })
        stages.append({
            "name": "machines",
            "machines": list(self.registry.names()),
            "checking": self.mode == "generated",
        })
        health = self.rt.health
        stages.append({
            "name": "containment",
            "enabled": health.policy.enabled,
            "level": health.level,
        })
        return stages

    def describe(self) -> Dict[str, object]:
        """A deterministic, JSON-safe picture of the compiled plan."""
        record = self.recorder is not None
        govern = self.governor is not None
        observe = self._telemetry is not None

        def ops(sites) -> List[str]:
            steps: List[str] = []
            if observe:
                steps.append("obs:call")
            if record:
                steps.append("record:call")
            if govern:
                steps.append("govern:sample")
            steps.extend("check:{}:pre".format(m) for m, _ in sites[Site.PRE])
            steps.append("raw")
            steps.extend(
                "check:{}:post".format(m) for m, _ in sites[Site.POST]
            )
            if govern:
                steps.append("govern:meter")
            if record:
                steps.append("record:return")
            if observe:
                steps.append("obs:return")
            return steps

        plan = None
        if self.mode == "generated":
            from repro.jinn.synthesizer import Synthesizer

            plan = Synthesizer(
                self.registry, function_table=self._table_arg
            ).machine_plan()
        unchecked = {Site.PRE: [], Site.POST: []}
        per_function: Dict[str, List[str]] = {
            name: ops(plan[name] if plan else unchecked)
            for name in list(self.function_table) + [NATIVE_KEY]
        }
        checked = sum(
            1
            for steps in per_function.values()
            if any(step.startswith("check:") for step in steps)
        )
        return {
            "mode": self.mode,
            "interceptors": self._stages(),
            "functions": len(self.function_table),
            "checked_sites": checked,
            "per_function": per_function,
        }
