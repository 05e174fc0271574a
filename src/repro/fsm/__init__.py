"""State-machine specification framework for FFI constraint checking.

This package implements the specification formalism of Section 4 of the
paper: each FFI constraint is a state machine whose *state transitions* are
mapped onto *language transitions* (calls and returns that cross the foreign
function interface).  A synthesizer (see :mod:`repro.synthesis`) consumes
these specifications and generates wrapper functions that transition the
machines and report violations.

The central classes are:

- :class:`~repro.fsm.machine.State` and
  :class:`~repro.fsm.machine.StateTransition` — the machine's shape.
- :class:`~repro.fsm.events.LanguageEvent` — a dynamic occurrence of a
  language transition (a call or return crossing the FFI).
- :class:`~repro.fsm.machine.LanguageTransition` — the static description of
  where a state transition may occur (function selector, direction,
  observed entities).
- :class:`~repro.fsm.machine.StateMachineSpec` — one constraint: states,
  transitions, the ``language_transitions_for`` mapping, an encoding
  factory, and a code-generation hook used by the synthesizer.
- :class:`~repro.fsm.machine.Encoding` — the runtime representation of the
  machine's state ("state machine encoding" in the paper), with a generic
  interpretive entry point ``on_event`` that offline replay drives (live
  runs call the generated checks instead).
"""

from repro.fsm.errors import FFIViolation, SpecificationError
from repro.fsm.events import Direction, EventContext, LanguageEvent, Site
from repro.fsm.graph import TransitionGraph
from repro.fsm.machine import (
    Encoding,
    EntitySelector,
    FunctionSelector,
    LanguageTransition,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.fsm.registry import SpecRegistry

__all__ = [
    "Direction",
    "Encoding",
    "EntitySelector",
    "EventContext",
    "FFIViolation",
    "FunctionSelector",
    "LanguageEvent",
    "LanguageTransition",
    "Site",
    "SpecRegistry",
    "SpecificationError",
    "State",
    "StateMachineSpec",
    "StateTransition",
    "TransitionGraph",
]
