"""Language-neutral checker core (specs -> synthesizer -> *core* -> substrates).

One synthesizer plus per-language specifications yields checkers for any
FFI (paper §7); this package holds the parts of the checker that are the
same for every FFI, so the JNI and Python/C substrates are thin policy
layers:

- :class:`CheckerRuntime` / :class:`FailurePolicy` — encodings,
  violation log, termination leak sweep, reset; the substrate plugs in
  only its failure protocol (pend a Java exception vs. raise).
- :class:`DispatchIndex` — the (function, direction) -> machines index
  from Algorithm 1's cross product, which targets the synthesizer's
  emitted checks and the telemetry tap's per-site machine counts.
- :class:`WrapperCache` — compiled plan modules keyed on full spec
  identity (:meth:`~repro.fsm.registry.SpecRegistry.fingerprint`),
  shared by every agent and checker in the process.
- The return-kind defaults table the synthesizer's failure literals
  derive from.
"""

from repro.core.cache import (
    WRAPPER_CACHE,
    WrapperCache,
    dispatch_for,
)
from repro.core.clock import SYSTEM_CLOCK, Clock, FakeClock, SystemClock
from repro.core.defaults import (
    RETURN_DEFAULT_LITERALS,
    RETURN_DEFAULTS,
    default_literal,
)
from repro.core.dispatch import NATIVE_KEY, DispatchIndex
from repro.core.runtime import (
    CheckerRuntime,
    FailurePolicy,
    RaiseViolationPolicy,
)

__all__ = [
    "CheckerRuntime",
    "Clock",
    "DispatchIndex",
    "FailurePolicy",
    "FakeClock",
    "SYSTEM_CLOCK",
    "SystemClock",
    "NATIVE_KEY",
    "RETURN_DEFAULTS",
    "RETURN_DEFAULT_LITERALS",
    "RaiseViolationPolicy",
    "WRAPPER_CACHE",
    "WrapperCache",
    "default_literal",
    "dispatch_for",
]
