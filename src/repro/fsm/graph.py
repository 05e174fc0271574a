"""Transition-graph introspection over state machine specifications.

A :class:`StateMachineSpec` declares its shape as a flat sequence of
directed edges; everything that wants to *navigate* that shape — the
fuzz sequence generators walking machines to produce valid call
sequences, the fault injectors aiming at a particular error state, and
diagnostic tooling — needs a graph view: which edges leave a state and
which label, fired from which state, reaches which error.

The view is read-only and computed once per spec; it never mutates the
specification.  Per the registration convention used throughout the
machine catalog, the *first* declared state is the machine's initial
state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fsm.errors import SpecificationError
from repro.fsm.machine import State, StateMachineSpec, StateTransition


class TransitionGraph:
    """Read-only adjacency view of one machine's state transitions."""

    def __init__(self, spec: StateMachineSpec):
        self.spec = spec
        self._states: Tuple[State, ...] = tuple(spec.states())
        if not self._states:
            raise SpecificationError("{}: no states".format(spec.name))
        self._transitions: Tuple[StateTransition, ...] = tuple(
            spec.state_transitions()
        )
        self._out: Dict[State, List[StateTransition]] = {}
        for st in self._transitions:
            self._out.setdefault(st.source, []).append(st)

    # -- shape -----------------------------------------------------------

    @property
    def initial(self) -> State:
        """The machine's initial state (first declared, by convention)."""
        return self._states[0]

    @property
    def states(self) -> Tuple[State, ...]:
        return self._states

    @property
    def transitions(self) -> Tuple[StateTransition, ...]:
        return self._transitions

    def out_edges(
        self, state: State, *, include_errors: bool = True
    ) -> List[StateTransition]:
        """Edges leaving ``state``, optionally hiding error edges."""
        edges = self._out.get(state, [])
        if include_errors:
            return list(edges)
        return [st for st in edges if not st.target.is_error]

    def error_edges(self) -> List[StateTransition]:
        """Every edge whose target is an error state."""
        return [st for st in self._transitions if st.target.is_error]

    def labels(self, *, include_errors: bool = True) -> List[str]:
        """Distinct edge labels, in declaration order."""
        seen: List[str] = []
        for st in self._transitions:
            if not include_errors and st.target.is_error:
                continue
            if st.label not in seen:
                seen.append(st.label)
        return seen

    def error_profile(self) -> Dict[str, List[str]]:
        """Map each error state's name to the labels that reach it.

        This is the fault injector's targeting table: to aim a mutation
        at ``Error: overflow``, fire one of the returned labels from a
        context where the benign edge cannot be taken.
        """
        profile: Dict[str, List[str]] = {}
        for st in self.error_edges():
            labels = profile.setdefault(st.target.name, [])
            if st.label not in labels:
                labels.append(st.label)
        return profile

    # -- navigation ------------------------------------------------------

    def random_walk(
        self,
        rng,
        steps: int,
        *,
        start: Optional[State] = None,
    ) -> List[StateTransition]:
        """A random path of up to ``steps`` edges avoiding error states.

        The walk stops early when the current state has no non-error
        successor.  ``rng`` is any object with ``choice`` (a seeded
        ``random.Random`` in the fuzz loop), so walks are reproducible.
        """
        state = start if start is not None else self.initial
        path: List[StateTransition] = []
        for _ in range(steps):
            candidates = self.out_edges(state, include_errors=False)
            if not candidates:
                break
            edge = rng.choice(candidates)
            path.append(edge)
            state = edge.target
        return path

    def describe(self) -> str:
        """Multi-line adjacency dump (diagnostics and the CLI)."""
        lines = ["{}: {} states, {} transitions".format(
            self.spec.name, len(self._states), len(self._transitions)
        )]
        for state in self._states:
            marker = " [error]" if state.is_error else ""
            lines.append("  {}{}".format(state, marker))
            for edge in self._out.get(state, []):
                lines.append("    --[{}]--> {}".format(edge.label, edge.target))
        return "\n".join(lines)


def transition_graph(spec: StateMachineSpec) -> TransitionGraph:
    """Functional spelling of :meth:`StateMachineSpec.transition_graph`."""
    return TransitionGraph(spec)
