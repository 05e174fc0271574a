"""The interceptor protocol for the unified FFI call path.

The reproduction historically grew four independent wrapping mechanisms
around every boundary crossing: the synthesized machine guards (the
checks themselves), the trace recorder's observer tap, the overhead
governor's metering proxy, and the containment guard's degradation
arms.  Each nested its own closure and its own try/except, so a fully
instrumented call crossed four Python frames before reaching the raw
function.

This module names those mechanisms as *interceptors* — small objects
with a common surface — so the :class:`repro.pipeline.plan.PipelinePlan`
compiler can fuse the active ones into a single flat entry per
``(function, direction)`` site:

``on_call(site)`` / ``on_return(site)`` return a pre-bound hook
callable for one :class:`CallSite` (or None when the stage has nothing
to do there); the compiler inlines the non-None hooks into the site's
fused entry instead of stacking wrapper closures.  Violations do not
pass through the stages: ``CheckerRuntime.fail`` forwards them straight
to ``rt.observer`` and ``rt.telemetry``.

The machine-dispatch stage and the containment guard do not hand out
hooks: their work *is* the fused entry body (the checks and their
per-machine containment arms), emitted by the synthesizer or closed
over by the interpretive entry template.  They still implement the
protocol so the plan can describe the full stack uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class CallSite:
    """One fused dispatch point: an FFI function or a bound native."""

    function: str
    native: bool = False
    meta: Any = None

    def governor_key(self) -> str:
        """The governor's pair name for this site (natives prefixed)."""
        return "native:" + self.function if self.native else self.function


class Interceptor:
    """Base protocol; stages override what they participate in."""

    name = "interceptor"

    def on_call(self, site: CallSite):
        """A ``fn(env, args)`` hook for the call crossing, or None."""
        return None

    def on_return(self, site: CallSite):
        """A ``fn(env, args, result, token)`` hook, or None."""
        return None

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name}


class RecorderTap(Interceptor):
    """The trace recorder as an interceptor (outermost stage).

    The hooks are the recorder's own capture closures: the call hook
    appends the call record and returns its sequence number, which the
    fused entry threads to the return hook to pair call and return.
    """

    name = "recorder"

    def __init__(self, recorder):
        self.recorder = recorder

    def on_call(self, site: CallSite):
        return self.recorder.call_hook(site.function, site.native)

    def on_return(self, site: CallSite):
        return self.recorder.return_hook(site.function, site.native)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "journal": getattr(self.recorder, "_journal", None) is not None,
        }


class GovernorMeter(Interceptor):
    """The overhead governor as an interceptor (middle stage).

    The governor's bookkeeping is too entangled with control flow for a
    hook pair (the sampling branch decides whether the checks run at
    all), so the fused entries inline it; this stage hands the compiler
    the shared cells (:meth:`shared`) and per-site pair state
    (:meth:`binding`) the entries close over.
    """

    name = "governor"

    def __init__(self, governor):
        self.governor = governor

    def shared(self):
        return self.governor.fused_shared()

    def binding(self, site: CallSite):
        return self.governor.fused_binding(site.governor_key())

    def describe(self) -> Dict[str, Any]:
        policy = self.governor.policy
        return {
            "name": self.name,
            "budget": policy.budget,
            "window": policy.window,
        }


class MachineDispatchStage(Interceptor):
    """The synthesized machine guards as an interceptor (inner stage).

    Generated modes compile the checks straight into the fused entry;
    interpretive mode resolves the :class:`~repro.core.dispatch.
    DispatchIndex` handler list per site.  Either way the work happens
    inside the entry body, so this stage exposes encodings and
    description, not hooks.
    """

    name = "machines"

    def __init__(self, rt, registry, *, index=None, checking: bool = True):
        self.rt = rt
        self.registry = registry
        self.index = index
        self.checking = checking

    def encodings(self, function: str, direction):
        if not self.checking:
            return []
        return self.index.encodings(self.rt, function, direction)

    def native_encodings(self, direction):
        if not self.checking:
            return []
        return self.index.native_encodings(self.rt, direction)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "machines": list(self.registry.names()),
            "checking": self.checking,
            "indexed": self.index is not None,
        }


class ContainmentGuard(Interceptor):
    """The containment ladder as an interceptor (the shared boundary).

    The fused entry owns one try/except per contributing machine and
    routes internal checker faults to ``rt.contain`` — the same ladder
    the four ad-hoc wrappers shared.  The stage itself only reports.
    """

    name = "containment"

    def __init__(self, rt):
        self.rt = rt

    def describe(self) -> Dict[str, Any]:
        health = self.rt.health
        return {
            "name": self.name,
            "enabled": health.policy.enabled,
            "level": health.level,
        }
