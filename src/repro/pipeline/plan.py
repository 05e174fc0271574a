"""The pipeline plan compiler: fuse interceptors into flat entries.

A :class:`PipelinePlan` takes one checker runtime, the active
interceptor stages (machine dispatch always; recorder tap, governor
meter and telemetry tap as attached), and the static function table,
and produces the one fused entry per ``(function, direction)`` that
the agents install — the only checked call path.

Two compilation strategies, matching the agent's modes:

- ``generated`` / ``interpose``: the synthesizer emits the *entire*
  fused entry as source (checks, governor counters, recorder hooks all
  inline — see ``Synthesizer.generate_pipeline_source``) and the plan
  binds the compiled module to this runtime's stages.  Compiled modules
  are shared process-wide through ``WrapperCache.plans_for``.
- ``interpretive``: no code generation — a closure template closes over
  the pre-resolved :class:`~repro.core.dispatch.DispatchIndex` handler
  list per site, plus the same pre-bound recorder hooks and governor
  cells the generated entries use.

Either way a fully instrumented crossing is one entry frame plus the
two recorder hook calls — no nested wrapper closures, no per-call list
building, and one containment arm per contributing machine owned by
the entry body itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.cache import WRAPPER_CACHE
from repro.core.defaults import default_value
from repro.core.dispatch import NATIVE_KEY
from repro.fsm.errors import FFIViolation
from repro.fsm.events import Direction, EventContext, LanguageEvent, Site
from repro.pipeline.interceptors import (
    CallSite,
    ContainmentGuard,
    GovernorMeter,
    MachineDispatchStage,
    RecorderTap,
)

_MODES = ("generated", "interpose", "interpretive")


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
        self._cache = cache if cache is not None else WRAPPER_CACHE
        # The cache keys JNI's default table as None; resolve the real
        # table only for local metadata lookups.
        self._table_arg = function_table
        if function_table is None:
            from repro.jni import functions

            function_table = functions.FUNCTIONS
        self.function_table = function_table
        # -- the interceptor stack, outermost first --------------------
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
        self._tap = RecorderTap(recorder) if recorder is not None else None
        self._meter = GovernorMeter(governor) if governor is not None else None
        index = None
        if mode == "interpretive":
            index = self._cache.dispatch_for(registry, self._table_arg)
        self._machines = MachineDispatchStage(
            rt, registry, index=index, checking=(mode != "interpose")
        )
        self._guard = ContainmentGuard(rt)
        self._build = None
        if mode in ("generated", "interpose"):
            self._build = self._cache.plans_for(
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

    def interceptors(self) -> List:
        """The active stages, outermost first."""
        stack = []
        if self._telemetry is not None:
            stack.append(self._telemetry)
        if self._tap is not None:
            stack.append(self._tap)
        if self._meter is not None:
            stack.append(self._meter)
        stack.append(self._machines)
        stack.append(self._guard)
        return stack

    # -- entry compilation ----------------------------------------------

    def entries(self, raw: Dict[str, Callable]) -> Dict[str, Callable]:
        """The fused entry table for one raw function table."""
        if self._build is not None:
            entries, native_factory = self._build(
                self.rt, raw, self.recorder, self.governor, self._telemetry
            )
            self._native_factory = native_factory
            return entries
        return self._interpretive_entries(raw)

    def native_entry(self, method_name: str, impl: Callable) -> Callable:
        """The fused entry for one bound native method (or extension)."""
        if self._build is not None:
            if self._native_factory is None:
                # No table installed yet: bind the factory against a
                # stub raw table; the factory itself never touches it.
                _, self._native_factory = self._build(
                    self.rt,
                    _raw_stub(self.function_table),
                    self.recorder,
                    self.governor,
                    self._telemetry,
                )
            return self._native_factory(method_name, impl)
        return self._interpretive_native(method_name, impl)

    # -- interpretive templates ------------------------------------------

    def _site_hooks(self, site: CallSite):
        tap = self._telemetry
        tc = tap.call_hook(site.function, site.native) if tap is not None else None
        tr = tap.return_hook(site.function, site.native) if tap is not None else None
        rc = self._tap.on_call(site) if self._tap is not None else None
        rr = self._tap.on_return(site) if self._tap is not None else None
        state = self._meter.binding(site) if self._meter is not None else None
        return tc, tr, rc, rr, state

    def _interpretive_entries(self, raw: Dict[str, Callable]) -> Dict[str, Callable]:
        shared = self._meter.shared() if self._meter is not None else None
        machines = self._machines
        table: Dict[str, Callable] = {}
        for name, raw_fn in raw.items():
            meta = self.function_table[name]
            pre = machines.encodings(name, Direction.CALL_NATIVE_TO_MANAGED)
            post = machines.encodings(name, Direction.RETURN_MANAGED_TO_NATIVE)
            tc, tr, rc, rr, state = self._site_hooks(CallSite(name, False, meta))
            table[name] = _fused_interp_entry(
                self.rt, name, meta, raw_fn, pre, post,
                tc, tr, rc, rr, state, shared,
            )
        return table

    def _interpretive_native(self, method_name: str, impl: Callable) -> Callable:
        shared = self._meter.shared() if self._meter is not None else None
        machines = self._machines
        pre = machines.native_encodings(Direction.CALL_MANAGED_TO_NATIVE)
        post = machines.native_encodings(Direction.RETURN_NATIVE_TO_MANAGED)
        tc, tr, rc, rr, state = self._site_hooks(CallSite(method_name, True))
        return _fused_interp_native(
            self.rt, method_name, impl, pre, post, tc, tr, rc, rr, state, shared
        )

    # -- introspection ---------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """A deterministic, JSON-safe picture of the compiled plan."""
        per_function: Dict[str, List[str]] = {}
        record = self._tap is not None
        govern = self._meter is not None
        observe = self._telemetry is not None

        def ops(pre_machines, post_machines) -> List[str]:
            steps: List[str] = []
            if observe:
                steps.append("obs:call")
            if record:
                steps.append("record:call")
            if govern:
                steps.append("govern:sample")
            steps.extend("check:{}:pre".format(m) for m in pre_machines)
            steps.append("raw")
            steps.extend("check:{}:post".format(m) for m in post_machines)
            if govern:
                steps.append("govern:meter")
            if record:
                steps.append("record:return")
            if observe:
                steps.append("obs:return")
            return steps

        if self.mode in ("generated", "interpose"):
            from repro.jinn.synthesizer import Synthesizer

            plan = None
            if self.mode == "generated":
                plan = Synthesizer(
                    self.registry, function_table=self._table_arg
                ).machine_plan()
            for name in self.function_table:
                sites = plan[name] if plan else {Site.PRE: [], Site.POST: []}
                per_function[name] = ops(
                    [m for m, _ in sites[Site.PRE]],
                    [m for m, _ in sites[Site.POST]],
                )
            native_sites = (
                plan[NATIVE_KEY] if plan else {Site.PRE: [], Site.POST: []}
            )
            per_function[NATIVE_KEY] = ops(
                [m for m, _ in native_sites[Site.PRE]],
                [m for m, _ in native_sites[Site.POST]],
            )
        else:
            index = self._machines.index
            for name in self.function_table:
                per_function[name] = ops(
                    index.machines(name, Direction.CALL_NATIVE_TO_MANAGED),
                    index.machines(name, Direction.RETURN_MANAGED_TO_NATIVE),
                )
            per_function[NATIVE_KEY] = ops(
                index.native_machines(Direction.CALL_MANAGED_TO_NATIVE),
                index.native_machines(Direction.RETURN_NATIVE_TO_MANAGED),
            )

        checked = sum(
            1
            for steps in per_function.values()
            if any(step.startswith("check:") for step in steps)
        )
        return {
            "mode": self.mode,
            "interceptors": [s.describe() for s in self.interceptors()],
            "functions": len(self.function_table),
            "checked_sites": checked,
            "per_function": per_function,
        }


def _fused_interp_entry(
    rt, name, meta, raw_fn, pre_encodings, post_encodings,
    tc, tr, rc, rr, state, shared,
):
    """The interpretive fused entry: one closure, stages inlined.

    Encodings are pre-resolved; quarantine stays effective because the
    containment ladder patches the pristine instance's ``on_event`` in
    place rather than rebinding the encodings table.
    """
    default = default_value(meta.returns)
    contain = rt.contain
    fail = rt.fail
    call_event = LanguageEvent(Direction.CALL_NATIVE_TO_MANAGED, name)
    ret_event = LanguageEvent(Direction.RETURN_MANAGED_TO_NATIVE, name)
    if shared is not None:
        clock, tick, window, rebalance = shared

    def entry(env, *args):
        if tc is not None:
            tt = tc()
        if rc is not None:
            callseq = rc(env, args)
        if state is not None:
            state.total_calls += 1
            state.window_calls += 1
            tick[0] += 1
            if tick[0] >= window:
                rebalance()
            if state.period > 1:
                state.slot += 1
                if state.slot % state.period:
                    state.total_sampled_out += 1
                    t0 = clock()
                    result = raw_fn(env, *args)
                    state.raw_ns += clock() - t0
                    state.raw_calls += 1
                    if rr is not None:
                        rr(env, args, result, callseq)
                    if tr is not None:
                        tr(tt, False)
                    return result
            t0 = clock()
        thread = rt.vm.current_thread
        if pre_encodings:
            ctx = EventContext(call_event, env, thread, args=args, meta=meta)
            try:
                for encoding in pre_encodings:
                    try:
                        encoding.on_event(ctx)
                    except FFIViolation:
                        raise
                    except Exception as exc:
                        contain(encoding.spec.name, exc, name, "pre")
            except FFIViolation as v:
                result = fail(env, v, default)
                if state is not None:
                    state.checked_ns += clock() - t0
                    state.checked_calls += 1
                if rr is not None:
                    rr(env, args, result, callseq)
                if tr is not None:
                    tr(tt, True)
                return result
        result = raw_fn(env, *args)
        if post_encodings:
            ctx = EventContext(
                ret_event, env, thread, args=args, result=result, meta=meta
            )
            try:
                for encoding in post_encodings:
                    try:
                        encoding.on_event(ctx)
                    except FFIViolation:
                        raise
                    except Exception as exc:
                        contain(encoding.spec.name, exc, name, "post")
            except FFIViolation as v:
                fail(env, v)
        if state is not None:
            state.checked_ns += clock() - t0
            state.checked_calls += 1
        if rr is not None:
            rr(env, args, result, callseq)
        if tr is not None:
            tr(tt, True)
        return result

    entry.__name__ = "entry_" + name
    return entry


def _fused_interp_native(
    rt, method_name, impl, pre_encodings, post_encodings,
    tc, tr, rc, rr, state, shared,
):
    contain = rt.contain
    fail = rt.fail
    call_event = LanguageEvent(Direction.CALL_MANAGED_TO_NATIVE, method_name, True)
    ret_event = LanguageEvent(
        Direction.RETURN_NATIVE_TO_MANAGED, method_name, True
    )
    if shared is not None:
        clock, tick, window, rebalance = shared

    def native_entry(env, this, *args):
        handles = (this,) + args
        if tc is not None:
            tt = tc()
        if rc is not None:
            callseq = rc(env, handles)
        if state is not None:
            state.total_calls += 1
            state.window_calls += 1
            tick[0] += 1
            if tick[0] >= window:
                rebalance()
            if state.period > 1:
                state.slot += 1
                if state.slot % state.period:
                    state.total_sampled_out += 1
                    t0 = clock()
                    result = impl(env, this, *args)
                    state.raw_ns += clock() - t0
                    state.raw_calls += 1
                    if rr is not None:
                        rr(env, handles, result, callseq)
                    if tr is not None:
                        tr(tt, False)
                    return result
            t0 = clock()
        thread = rt.vm.current_thread
        if pre_encodings:
            ctx = EventContext(call_event, env, thread, args=handles)
            try:
                for encoding in pre_encodings:
                    try:
                        encoding.on_event(ctx)
                    except FFIViolation:
                        raise
                    except Exception as exc:
                        contain(encoding.spec.name, exc, method_name, "pre")
            except FFIViolation as v:
                # No early return: a native pre-violation pends and the
                # implementation still runs (or raises out, on pyc).
                fail(env, v)
        result = impl(env, this, *args)
        if post_encodings:
            ctx = EventContext(
                ret_event, env, thread, args=handles, result=result
            )
            try:
                for encoding in post_encodings:
                    try:
                        encoding.on_event(ctx)
                    except FFIViolation:
                        raise
                    except Exception as exc:
                        contain(encoding.spec.name, exc, method_name, "post")
            except FFIViolation as v:
                fail(env, v)
        if state is not None:
            state.checked_ns += clock() - t0
            state.checked_calls += 1
        if rr is not None:
            rr(env, handles, result, callseq)
        if tr is not None:
            tr(tt, True)
        return result

    native_entry.__name__ = "entry_" + method_name
    return native_entry
