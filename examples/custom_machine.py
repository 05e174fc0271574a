"""Extending Jinn: write your own state machine, synthesize, detect.

The paper's specification framework is open: a constraint is just a state
machine plus a mapping to language transitions.  This example adds a
*twelfth* machine — "monitor balance per native method": a native method
should exit every monitor it entered before returning to Java (a stricter
house rule than the JNI spec's termination-only check) — and lets the
unmodified synthesizer generate the checking code for it.  The machine
writes only its ``emit`` lines and the semantic methods they call; a
replay of a recorded trace runs the same generated checks.

Run:  python examples/custom_machine.py
"""

from repro import JavaException, JavaVM, JinnAgent, render_uncaught
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
from repro.jinn import build_registry
from repro.jinn.machines.common import peek, selector, violation

BALANCED = State("Balanced")
HOLDING = State("Holding")
ERROR_UNBALANCED = State("Error: monitor held across native return", is_error=True)

ENTER = selector("MonitorEnter", lambda m: m.name == "MonitorEnter")
EXIT = selector("MonitorExit", lambda m: m.name == "MonitorExit")


class MonitorBalanceEncoding(Encoding):
    """Per-native-invocation tally of monitors entered through JNI."""

    def __init__(self, spec, vm):
        super().__init__(spec)
        self.vm = vm
        self.depth_stack = []  # one counter per active native invocation

    def enter_native(self, env, method_name, handles):
        self.depth_stack.append(0)

    def entered(self, env, function, handle, result):
        if result == 0 and self.depth_stack:
            self.depth_stack[-1] += 1

    def exited(self, env, function, handle, result):
        if result == 0 and self.depth_stack and self.depth_stack[-1] > 0:
            self.depth_stack[-1] -= 1

    def exit_native(self, env, method_name, result):
        held = self.depth_stack.pop() if self.depth_stack else 0
        if held:
            raise violation(
                "{} returned to Java still holding {} monitor(s).".format(
                    method_name, held
                ),
                machine=self.spec.name,
                error_state=ERROR_UNBALANCED.name,
                function=method_name,
            )


class MonitorBalanceSpec(StateMachineSpec):
    name = "monitor_balance"
    observed_entity = "a native method invocation"
    errors_discovered = ("monitor held across native return",)
    constraint_class = "resource"

    def states(self):
        return (BALANCED, HOLDING, ERROR_UNBALANCED)

    def state_transitions(self):
        return (
            StateTransition(BALANCED, HOLDING, "enter"),
            StateTransition(HOLDING, BALANCED, "exit"),
            StateTransition(HOLDING, ERROR_UNBALANCED, "native return"),
        )

    def language_transitions_for(self, transition):
        thread = EntitySelector.THREAD
        if transition.label == "enter":
            return (
                LanguageTransition(Direction.RETURN_MANAGED_TO_NATIVE, ENTER, thread),
                LanguageTransition(
                    Direction.CALL_MANAGED_TO_NATIVE, NATIVE_METHOD, thread
                ),
            )
        if transition.label == "exit":
            return (
                LanguageTransition(Direction.RETURN_MANAGED_TO_NATIVE, EXIT, thread),
            )
        return (
            LanguageTransition(
                Direction.RETURN_NATIVE_TO_MANAGED, NATIVE_METHOD, thread
            ),
        )

    def make_encoding(self, vm):
        return MonitorBalanceEncoding(self, vm)

    def emit(self, meta, direction):
        if meta is None:
            if direction is Direction.CALL_MANAGED_TO_NATIVE:
                return ["rt.monitor_balance.enter_native(env, method_name, handles)"]
            if direction is Direction.RETURN_NATIVE_TO_MANAGED:
                return ["rt.monitor_balance.exit_native(env, method_name, result)"]
            return []
        if direction is Direction.RETURN_MANAGED_TO_NATIVE:
            if meta.name == "MonitorEnter":
                return [
                    'rt.monitor_balance.entered(env, "MonitorEnter", args[0], result)'
                ]
            if meta.name == "MonitorExit":
                return [
                    'rt.monitor_balance.exited(env, "MonitorExit", args[0], result)'
                ]
        return []


def build_extended_registry():
    registry = build_registry()
    registry.register(MonitorBalanceSpec())
    return registry


def main():
    registry = build_extended_registry()
    print(
        "registry now holds {} machines: {}".format(
            len(registry), ", ".join(registry.names())
        )
    )

    vm = JavaVM(agents=[JinnAgent(registry=registry)])
    vm.define_class("Locky")
    vm.add_method("Locky", "hold", "()V", is_static=True, is_native=True)

    def native_hold(env, clazz):
        obj = env.AllocObject(env.FindClass("java/lang/Object"))
        g = env.NewGlobalRef(obj)  # keep it reachable
        env.MonitorEnter(g)
        # BUG (by our house rule): returns while still holding the monitor.

    vm.register_native("Locky", "hold", "()V", native_hold)
    try:
        vm.call_static("Locky", "hold", "()V")
        print("no violation?!")
    except JavaException as je:
        print(render_uncaught(je.throwable))
    vm.shutdown()


if __name__ == "__main__":
    main()
