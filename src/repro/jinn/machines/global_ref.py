"""Resource machine 10: global and weak-global references.

Paper Figure 8, second machine.  Observed entity: a global or weak-global
JNI reference.  Errors discovered: leak and dangling reference (double
free is a special case of dangling).  State machine encoding: a list of
acquired global references.  Acquire on return from ``NewGlobalRef`` /
``NewWeakGlobalRef``; release on ``Delete(Weak)GlobalRef``; use on any
JNI function taking a reference, and on native methods returning a
reference; anything still acquired at termination is a leak.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    LanguageTransition,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.fsm.machine import NATIVE_METHOD
from repro.jinn.machines.common import REF_TAKING, selector, violation
from repro.jni.types import JRef

BEFORE = State("Before acquire")
ACQUIRED = State("Acquired")
RELEASED = State("Released")
ERROR_DANGLING = State("Error: dangling", is_error=True)
ERROR_LEAK = State("Error: leak", is_error=True)

ACQUIRERS = selector(
    "NewGlobalRef or NewWeakGlobalRef", lambda m: m.acquires in ("global", "weak")
)
RELEASERS = selector(
    "DeleteGlobalRef or DeleteWeakGlobalRef",
    lambda m: m.releases in ("global", "weak"),
)


class GlobalRefEncoding(Encoding):
    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        #: ref serial -> JRef, the Acquired set.
        self.live: Dict[int, JRef] = {}
        #: Function name -> its reference parameter indices, for ``on_event``.
        self._ref_params: Dict[str, Tuple[int, ...]] = {}

    def acquire(self, env, function: str, result) -> None:
        if isinstance(result, JRef):
            self.live[result.serial] = result

    def release(self, env, function: str, handle, expected_kind=None) -> None:
        if handle is None or not isinstance(handle, JRef):
            return
        wanted = (expected_kind,) if expected_kind else ("global", "weak")
        if handle.kind not in wanted:
            raise violation(
                "{} called on a {} reference (expects a {} reference).".format(
                    function, handle.kind, expected_kind or "global/weak"
                ),
                machine=self.spec.name,
                error_state=ERROR_DANGLING.name,
                function=function,
                entity=handle.describe(),
            )
        if handle.serial not in self.live:
            raise violation(
                "{} deletes a {} reference that is not live "
                "(double free / dangling).".format(function, handle.kind),
                machine=self.spec.name,
                error_state=ERROR_DANGLING.name,
                function=function,
                entity=handle.describe(),
            )
        del self.live[handle.serial]

    def check_use(self, env, function: str, args, indices) -> None:
        for index in indices:
            handle = args[index] if index < len(args) else None
            self.check_use_single(env, function, handle)

    def check_use_single(self, env, function: str, handle) -> None:
        if not self.is_live(env, handle):
            self.report_dangling(env, function, handle)

    def is_live(self, env, handle) -> bool:
        """Is this handle a live (weak-)global reference?

        Handles of other kinds are not this machine's business and count
        as live.
        """
        if not isinstance(handle, JRef) or handle.kind not in ("global", "weak"):
            return True
        return handle.serial in self.live

    def report_dangling(self, env, function: str, handle) -> None:
        raise violation(
            "Error: dangling {} reference used in {}.".format(
                handle.kind, function
            ),
            machine=self.spec.name,
            error_state=ERROR_DANGLING.name,
            function=function,
            entity=handle.describe(),
        )

    def at_termination(self) -> List[str]:
        return [
            "{} reference never deleted: {}".format(ref.kind, ref.describe())
            for ref in self.live.values()
        ]

    def live_count(self) -> int:
        return len(self.live)

    def on_event(self, ctx) -> None:
        meta = ctx.meta
        if meta is None:
            if ctx.event.direction is Direction.RETURN_NATIVE_TO_MANAGED:
                self.check_use_single(ctx.env, ctx.event.function, ctx.result)
            return
        if ctx.event.direction is Direction.RETURN_MANAGED_TO_NATIVE:
            if meta.acquires in ("global", "weak"):
                self.acquire(ctx.env, meta.name, ctx.result)
        elif ctx.event.direction is Direction.CALL_NATIVE_TO_MANAGED:
            if meta.releases in ("global", "weak"):
                self.release(ctx.env, meta.name, ctx.args[0], meta.releases)
                return
            indices = self._ref_params.get(meta.name)
            if indices is None:
                indices = meta.reference_param_indices
                self._ref_params[meta.name] = indices
            if indices:
                self.check_use(ctx.env, meta.name, ctx.args, indices)

    def reset(self) -> None:
        self.live.clear()


class GlobalRefSpec(StateMachineSpec):
    name = "global_ref"
    observed_entity = "a global or weak global JNI reference"
    errors_discovered = ("leak", "dangling reference")
    constraint_class = "resource"

    def states(self):
        return (BEFORE, ACQUIRED, RELEASED, ERROR_DANGLING, ERROR_LEAK)

    def state_transitions(self):
        return (
            StateTransition(BEFORE, ACQUIRED, "acquire"),
            StateTransition(ACQUIRED, RELEASED, "release"),
            StateTransition(RELEASED, ERROR_DANGLING, "use"),
            StateTransition(RELEASED, ERROR_DANGLING, "release"),
            StateTransition(ACQUIRED, ERROR_LEAK, "program termination"),
        )

    def language_transitions_for(self, transition):
        refs = EntitySelector.REFERENCE_PARAMETERS
        if transition.label == "acquire":
            return (
                LanguageTransition(
                    Direction.RETURN_MANAGED_TO_NATIVE, ACQUIRERS, refs
                ),
            )
        if transition.label == "release":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, RELEASERS, refs
                ),
            )
        if transition.label == "use":
            return (
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED, REF_TAKING, refs
                ),
                LanguageTransition(
                    Direction.RETURN_NATIVE_TO_MANAGED,
                    NATIVE_METHOD,
                    EntitySelector.REFERENCE_RETURN,
                ),
            )
        return ()

    def make_encoding(self, vm):
        return GlobalRefEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None:
            if direction is Direction.RETURN_NATIVE_TO_MANAGED:
                return [
                    "rt.global_ref.check_use_single(env, method_name, result)"
                ]
            return []
        lines = []
        if direction is Direction.RETURN_MANAGED_TO_NATIVE:
            if meta.acquires in ("global", "weak"):
                lines.append(
                    'rt.global_ref.acquire(env, "{}", result)'.format(meta.name)
                )
        elif direction is Direction.CALL_NATIVE_TO_MANAGED:
            if meta.releases in ("global", "weak"):
                lines.append(
                    'rt.global_ref.release(env, "{}", args[0], "{}")'.format(
                        meta.name, meta.releases
                    )
                )
            else:
                for index in meta.reference_param_indices:
                    lines.append(
                        "if args[{0}] is not None and not "
                        "rt.global_ref.is_live(env, args[{0}]):".format(index)
                    )
                    lines.append(
                        '    rt.global_ref.report_dangling(env, "{}", '
                        "args[{}])".format(meta.name, index)
                    )
        return lines
