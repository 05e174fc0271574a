"""Registry of state machine specifications.

The synthesizer and the replay engine both operate on a registry: an
ordered collection of validated :class:`StateMachineSpec` instances.  Order
matters — machines are applied in registration order, which the Jinn specs
use to check JVM-state constraints (env pointer, exceptions, critical
sections) before type and resource constraints, as the paper's example in
Section 4 lists them.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional

from repro.fsm.errors import SpecificationError
from repro.fsm.machine import StateMachineSpec


class SpecRegistry:
    """Ordered, name-indexed collection of state machine specs.

    A registry holds its specs by reference: :meth:`copy` and
    :meth:`without` share the spec instances, and ``build_registry()``
    and ``build_pyc_registry()`` hand every caller a copy over one
    process-wide set.  Specs are immutable once registered.
    """

    def __init__(self, specs: Optional[List[StateMachineSpec]] = None):
        self._specs: List[StateMachineSpec] = []
        self._by_name: Dict[str, StateMachineSpec] = {}
        #: :meth:`fingerprint`'s digest for the current spec list; reset
        #: by :meth:`register`.
        self._fingerprint: Optional[str] = None
        for spec in specs or []:
            self.register(spec)

    def register(self, spec: StateMachineSpec) -> StateMachineSpec:
        if spec.name in self._by_name:
            raise SpecificationError("duplicate machine name: " + spec.name)
        spec.validate()
        self._specs.append(spec)
        self._by_name[spec.name] = spec
        self._fingerprint = None
        return spec

    def __iter__(self) -> Iterator[StateMachineSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> StateMachineSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpecificationError("no machine named " + name) from None

    def names(self) -> List[str]:
        return [spec.name for spec in self._specs]

    def by_class(self, constraint_class: str) -> List[StateMachineSpec]:
        """Machines in one of the paper's three constraint classes."""
        return [s for s in self._specs if s.constraint_class == constraint_class]

    def fingerprint(self) -> str:
        """Hash of the full specification identity, in registration order.

        Covers, per machine: its name, its constraint class, every state
        transition, every language-transition mapping (direction,
        function-selector description, entity selector), and the
        identity of the class providing the runtime encoding and the
        emit plan.  Two registries with the same machine *names* but
        different specifications therefore fingerprint differently —
        the property the shared wrapper cache keys on.

        Computed once per registry state: every plan, dispatch index and
        trace header of one attach asks for it, and only
        :meth:`register` changes it.  Specs must not change after
        registration.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        digest = hashlib.sha256()
        for spec in self._specs:
            cls = type(spec)
            digest.update(
                "\x1f".join(
                    (
                        spec.name,
                        spec.constraint_class,
                        cls.__module__,
                        cls.__qualname__,
                    )
                ).encode()
            )
            for st in spec.state_transitions():
                digest.update(str(st).encode())
                for lt in spec.language_transitions_for(st):
                    digest.update(str(lt).encode())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def copy(self) -> "SpecRegistry":
        """A new registry over the same spec instances and fingerprint.

        Registering on the copy changes only the copy.  Costs no
        validation and, once this registry is fingerprinted, no hashing.
        """
        clone = SpecRegistry()
        clone._specs = list(self._specs)
        clone._by_name = dict(self._by_name)
        clone._fingerprint = self.fingerprint()
        return clone

    def without(self, *names: str) -> "SpecRegistry":
        """A new registry excluding the named machines (for ablations)."""
        missing = [n for n in names if n not in self._by_name]
        if missing:
            raise SpecificationError("unknown machines: {}".format(missing))
        return SpecRegistry([s for s in self._specs if s.name not in names])
