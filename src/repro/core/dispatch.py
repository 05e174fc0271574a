"""The (function, direction) dispatch index.

Algorithm 1's cross product of state transitions and FFI functions tells
the synthesizer which machines instrument which wrapper, so each
generated entry contains only the checks that apply to its function.
:class:`DispatchIndex` computes that cross product once: the
synthesizer targets each machine's ``emit`` with it, and the telemetry
tap reads its per-site machine counts from it.

The index is substrate-neutral: it is built from a
:class:`~repro.fsm.registry.SpecRegistry` and a static function table
(JNI's 229 functions, the Python/C API subset, ...) and maps
``(function name, direction)`` to the matching machine names in registry
order.  Native methods — unknown until bind time — share the single
:data:`NATIVE_KEY` bucket, exactly as in the synthesizer's plan.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.fsm.events import Direction
from repro.fsm.registry import SpecRegistry

#: Key used for the native-method bucket (and the native wrapper plan
#: entry — the synthesizer re-exports this name for compatibility).
NATIVE_KEY = "<native method>"


class DispatchIndex:
    """Maps ``(function, direction)`` to the machines that observe it."""

    def __init__(
        self,
        buckets: Dict[Tuple[str, Direction], Tuple[str, ...]],
        machine_names: Tuple[str, ...],
        function_names: Tuple[str, ...],
    ):
        self._buckets = buckets
        self.machine_names = machine_names
        self.function_names = function_names
        #: Machines observing each table function's site, both
        #: directions summed, and the native-method site's count: what
        #: the telemetry tap's spans carry.  Computed here because the
        #: shared cache holds one index per spec identity.
        self.site_machines: Dict[str, int] = {
            name: len(self.machines(name, Direction.CALL_NATIVE_TO_MANAGED))
            + len(self.machines(name, Direction.RETURN_MANAGED_TO_NATIVE))
            for name in function_names
        }
        self.native_site_machines = len(
            self.native_machines(Direction.CALL_MANAGED_TO_NATIVE)
        ) + len(self.native_machines(Direction.RETURN_NATIVE_TO_MANAGED))

    @classmethod
    def build(cls, registry: SpecRegistry, function_table) -> "DispatchIndex":
        """Compute the index: Algorithm 1's cross product, lines 1-5.

        ``function_table`` maps names to static metadata records the
        specs' :class:`~repro.fsm.machine.FunctionSelector` predicates
        understand.
        """
        buckets: Dict[Tuple[str, Direction], List[str]] = {}
        for spec in registry:  # Algorithm 1, line 1
            seen = set()
            for st in spec.state_transitions():  # line 2
                for lt in spec.language_transitions_for(st):  # lines 3-4
                    if lt.functions.matches(None):
                        keys: List[str] = [NATIVE_KEY]
                    else:
                        keys = [
                            meta.name
                            for meta in function_table.values()
                            if lt.functions.matches(meta)
                        ]
                    for key in keys:  # line 5
                        bucket = (key, lt.direction)
                        if bucket in seen:
                            continue
                        seen.add(bucket)
                        buckets.setdefault(bucket, []).append(spec.name)
        return cls(
            {key: tuple(names) for key, names in buckets.items()},
            tuple(registry.names()),
            tuple(function_table),
        )

    def machines(self, function: str, direction: Direction) -> Tuple[str, ...]:
        """Machine names observing one crossing, in registry order."""
        return self._buckets.get((function, direction), ())

    def native_machines(self, direction: Direction) -> Tuple[str, ...]:
        """Machines observing native-method crossings for a direction."""
        return self._buckets.get((NATIVE_KEY, direction), ())

    # -- introspection (CLI, tests) -------------------------------------

    def bucket_count(self) -> int:
        return len(self._buckets)

    def handler_count(self) -> int:
        """Total (function, direction, machine) handler registrations."""
        return sum(len(names) for names in self._buckets.values())

    def fanout_handler_count(self) -> int:
        """Handler registrations a naive fan-out would perform: every
        machine at every function in both FFI-function directions, plus
        the native-method bucket in both native directions."""
        machines = len(self.machine_names)
        return machines * 2 * (len(self.function_names) + 1)

    def sparsity(self) -> float:
        """Fraction of fan-out work the index avoids (0.0 .. 1.0)."""
        fanout = self.fanout_handler_count()
        if not fanout:
            return 0.0
        return 1.0 - (self.handler_count() / fanout)

    def per_machine_counts(self) -> Dict[str, int]:
        """Number of (function, direction) buckets each machine observes."""
        counts = {name: 0 for name in self.machine_names}
        for names in self._buckets.values():
            for name in names:
                counts[name] += 1
        return counts
