"""Core state machine specification classes.

A :class:`StateMachineSpec` is the unit of specification in the paper: it
declares the machine's states and transitions, maps each state transition to
the language transitions that may trigger it, provides a runtime *encoding*
(the mutable data structure holding the machine's state for every observed
entity), and exposes a code-generation hook for the synthesizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

from repro.fsm.errors import SpecificationError
from repro.fsm.events import Direction


@dataclass(frozen=True)
class State:
    """A named state; ``is_error`` marks states that signal a violation."""

    name: str
    is_error: bool = False

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class StateTransition:
    """A directed edge ``source -> target`` in a state machine."""

    source: State
    target: State
    label: str = ""

    def __str__(self):
        label = " [{}]".format(self.label) if self.label else ""
        return "{} -> {}{}".format(self.source, self.target, label)


class EntitySelector(enum.Enum):
    """Which program entities a language transition binds the machine to.

    The paper attaches machines to threads, reference parameters, return
    values, and entity IDs (method/field IDs); the selector tells the
    synthesizer which of a function's operands participate.
    """

    THREAD = "thread"
    REFERENCE_PARAMETERS = "reference parameters"
    REFERENCE_RETURN = "reference return value"
    ID_PARAMETERS = "entity-ID parameters"
    ALL_PARAMETERS = "all parameters"
    NONE = "no entity"


class FunctionSelector:
    """Selects the FFI functions a language transition applies to.

    Selection is by predicate over the function's static metadata so that a
    single mapping line can cover whole families (e.g. "any JNI function
    taking a reference" covers 150+ functions).  ``NATIVE_METHOD`` is the
    wildcard for user-defined native methods, which are not known until the
    program binds them.
    """

    def __init__(self, description: str, predicate: Callable[[object], bool]):
        self.description = description
        self._predicate = predicate

    def matches(self, meta) -> bool:
        return self._predicate(meta)

    def __repr__(self):
        return "FunctionSelector({!r})".format(self.description)

    @classmethod
    def named(cls, *names: str) -> "FunctionSelector":
        """Select specific FFI functions by exact name."""
        name_set = frozenset(names)
        return cls("one of {}".format(sorted(name_set)), lambda m: m.name in name_set)

    @classmethod
    def all_functions(cls) -> "FunctionSelector":
        return cls("any FFI function", lambda m: True)


#: Wildcard selector for native methods (used by machines whose transitions
#: trigger on native-method calls/returns, e.g. the local-reference machine).
NATIVE_METHOD = FunctionSelector("any native method", lambda m: m is None)


@dataclass(frozen=True)
class LanguageTransition:
    """Where (statically) a state transition may occur.

    This is the record ``e`` of Algorithm 1, with fields *function*
    (a selector), *direction*, and *entities*.
    """

    direction: Direction
    functions: FunctionSelector
    entities: EntitySelector

    def __str__(self):
        return "{} at {} (observing {})".format(
            self.direction.value, self.functions.description, self.entities.value
        )


class Encoding:
    """Runtime state-machine encoding.

    One instance exists per checker runtime (it internally keys its data
    structures by entity: thread, reference, resource, ...).  Concrete
    machines define the semantic methods their :meth:`StateMachineSpec.emit`
    lines call; the generated entries are the only code that drives
    them, live and in replay (:mod:`repro.trace.replay`).
    """

    def __init__(self, spec: "StateMachineSpec"):
        self.spec = spec

    def at_termination(self) -> List[str]:
        """Return diagnostics for the VM-death JVMTI callback (leaks)."""
        return []

    def reset(self) -> None:
        """Drop all per-entity state (between independent program runs)."""


class StateMachineSpec:
    """One FFI constraint: shape, mapping, encoding, and codegen hook.

    Subclasses (the eleven JNI machines and the Python/C machines) define:

    - :meth:`states` and :meth:`state_transitions` — the machine's shape;
    - :meth:`language_transitions_for` — the mapping consumed by
      Algorithm 1;
    - :meth:`make_encoding` — the runtime data structure;
    - :meth:`emit` — per-function instrumentation source for the
      synthesizer's generated wrappers.
    """

    #: Short identifier, e.g. ``"local_ref"``.
    name: str = ""
    #: Human description of the observed entity, e.g. "a local JNI reference".
    observed_entity: str = ""
    #: Errors the machine discovers, e.g. ("overflow", "dangling").
    errors_discovered: Tuple[str, ...] = ()
    #: The constraint class from Table 2: "jvm-state", "type", or "resource".
    constraint_class: str = ""
    #: Do the emitted lines read the crossing's thread as ``thread``?
    reads_thread: bool = False

    def states(self) -> Sequence[State]:
        raise NotImplementedError

    def state_transitions(self) -> Sequence[StateTransition]:
        raise NotImplementedError

    def language_transitions_for(
        self, transition: StateTransition
    ) -> Sequence[LanguageTransition]:
        """The mapping ``Mi.languageTransitionsFor`` of Algorithm 1."""
        raise NotImplementedError

    def make_encoding(self, vm) -> Encoding:
        raise NotImplementedError

    def emit(self, meta, direction: Direction) -> List[str]:
        """Generate instrumentation lines for one function and direction.

        Args:
            meta: static metadata of the FFI function being wrapped, or
                None when wrapping a native method.
            direction: the language transition the wrapper site observes.

        Returns:
            Python source lines (no indentation) referring to the runtime
            names ``rt`` (the agent's runtime), ``env``, ``args``, and
            ``result`` — plus ``thread``, the crossing's thread, when the
            spec sets :attr:`reads_thread`; an empty list when the machine
            has nothing to check at this site.
        """
        return []

    # -- Derived helpers -------------------------------------------------

    def error_states(self) -> List[State]:
        return [s for s in self.states() if s.is_error]

    def validate(self) -> None:
        """Check internal consistency; raises SpecificationError."""
        states = set(self.states())
        if not states:
            raise SpecificationError("{}: no states".format(self.name))
        for st in self.state_transitions():
            if st.source not in states or st.target not in states:
                raise SpecificationError(
                    "{}: transition {} uses undeclared state".format(self.name, st)
                )
            for lt in self.language_transitions_for(st):
                if not isinstance(lt, LanguageTransition):
                    raise SpecificationError(
                        "{}: mapping for {} yielded {!r}".format(self.name, st, lt)
                    )

    def transition_graph(self):
        """An adjacency view of this machine's shape.

        Returns a :class:`repro.fsm.graph.TransitionGraph`; the fuzz
        generators walk it to derive valid call sequences and the fault
        injectors consult its error profile for targeting.
        """
        from repro.fsm.graph import TransitionGraph

        return TransitionGraph(self)

    def transitions_by_label(self) -> dict:
        """Index state transitions by label (labels need not be unique)."""
        index = {}
        for st in self.state_transitions():
            index.setdefault(st.label, []).append(st)
        return index

    def describe(self) -> str:
        """Multi-line summary in the style of the paper's Figures 6-8."""
        lines = [
            "{} ({} constraint)".format(self.name, self.constraint_class),
            "Observed entity: {}".format(self.observed_entity),
            "Error(s) discovered: {}".format(", ".join(self.errors_discovered)),
            "State transitions:",
        ]
        for st in self.state_transitions():
            lines.append("  {}".format(st))
            for lt in self.language_transitions_for(st):
                lines.append("    at {}".format(lt))
        return "\n".join(lines)


def functions_matching(
    specs: Iterable[StateMachineSpec], meta, direction: Direction
) -> List[StateMachineSpec]:
    """Machines with at least one mapping that applies to (meta, direction).

    ``meta`` is an FFI function metadata record, or None for a native
    method: one cell of Algorithm 1's cross product, which
    :class:`repro.core.dispatch.DispatchIndex` computes for a whole
    function table at once.
    """
    hits: List[StateMachineSpec] = []
    for spec in specs:
        applies = False
        for st in spec.state_transitions():
            for lt in spec.language_transitions_for(st):
                if lt.direction is direction and lt.functions.matches(meta):
                    applies = True
                    break
            if applies:
                break
        if applies:
            hits.append(spec)
    return hits
