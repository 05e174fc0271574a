"""The Jinn synthesizer: Algorithm 1 of the paper, with code generation.

The synthesizer consumes state machine specifications — state
transitions, the mapping from state transitions to language transitions,
and the state machine encodings — and computes the cross product of state
transitions and FFI functions (Algorithm 1) once, as the core's
:class:`~repro.core.dispatch.DispatchIndex`.  For every FFI function it
then *generates source code* for one fused entry that performs exactly
the checks that apply to that function, at the right site (before the
raw call for Call transitions, after it for Return transitions), plus
one parametric entry factory for native methods, which are not known
until the program binds them.

The generated module is real Python source: ``repro generate`` prints it
for inspection (and for the spec-vs-generated line-count experiment,
E8), and :class:`repro.pipeline.PipelinePlan` compiles it in memory and
binds it to a checker runtime.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.core.defaults import default_literal
# NATIVE_KEY moved to the language-neutral core with the dispatch index;
# re-imported here so existing ``synthesizer.NATIVE_KEY`` users keep
# working.
from repro.core.dispatch import NATIVE_KEY, DispatchIndex
from repro.fsm.events import Direction, Site
from repro.fsm.registry import SpecRegistry
from repro.jni import functions

_SITE_FOR_DIRECTION = {
    Direction.CALL_NATIVE_TO_MANAGED: Site.PRE,
    Direction.RETURN_MANAGED_TO_NATIVE: Site.POST,
    Direction.CALL_MANAGED_TO_NATIVE: Site.PRE,
    Direction.RETURN_NATIVE_TO_MANAGED: Site.POST,
}


#: Lines of a spec with ``reads_thread`` name the crossing's thread
#: ``thread``; an entry binds it once, from ``vm = rt.host``, when one of
#: its contributing machines is such a spec.
_BIND_VM = "    vm = rt.host"
_BIND_THREAD = "thread = vm.current_thread"

#: A machine line or recorder hook that reads the crossing's argument
#: tuple names it ``args``; a fixed-arity entry builds it only then.
_READS_ARGS = re.compile(r"\bargs\b")

#: A native site's telemetry series: the cells ``telemetry.fused_site``
#: hands its entry when the native is bound.
_TEL_NATIVE = {
    "calls": "tel_c[0]",
    "count": "tel_h[0]",
    "sum": "tel_h[1]",
    "bin": "tel_b[tel_i if tel_i < tel_bc else tel_bc]",
    "machines": "tel_m",
}


def _tel_table_site(position: int, machines: int) -> Dict[str, str]:
    """A table site's telemetry series: its position in the site block."""
    return {
        "calls": "tel_calls[{}]".format(position),
        "count": "tel_hn[{}]".format(position),
        "sum": "tel_hs[{}]".format(position),
        "bin": "tel_bins[{} * tel_nb + (tel_i if tel_i < tel_nb else"
        " tel_nb - 1)]".format(position),
        "machines": str(machines),
    }


class Synthesizer:
    """Algorithm 1: specifications in, instrumented entry module out.

    Every machine line is already specialised to its site: the function
    name, parameter indices, fixed types, call modes and field flags are
    literals, so a check does per crossing only the work that depends on
    that crossing's values.  Per-thread machines take the crossing's
    thread as an argument, read once per entry.
    """

    def __init__(
        self,
        registry: SpecRegistry,
        function_table: Optional[Dict[str, functions.FunctionMeta]] = None,
    ):
        self.registry = registry
        self.function_table = function_table or functions.FUNCTIONS
        self._thread_readers = frozenset(
            spec.name for spec in registry if spec.reads_thread
        )
        self._index: Optional[DispatchIndex] = None

    def _uses_thread(self, *sites: List[tuple]) -> bool:
        """Does a machine contributing at these sites read the thread?"""
        return any(
            machine in self._thread_readers
            for groups in sites
            for machine, _ in groups
        )

    @staticmethod
    def _reads_args(*sites: List[tuple]) -> bool:
        """Does a machine line at these sites read ``args``?"""
        return any(
            _READS_ARGS.search(line)
            for groups in sites
            for _, lines in groups
            for line in lines
        )

    def _plan_uses_thread(self, plan) -> bool:
        return plan is not None and any(
            self._uses_thread(sites[Site.PRE], sites[Site.POST])
            for sites in plan.values()
        )

    # ------------------------------------------------------------------
    # Algorithm 1: compute the instrumentation plan
    # ------------------------------------------------------------------

    def plan(self) -> Dict[str, Dict[Site, List[str]]]:
        """Instrumentation lines per entry and site.

        Keys are FFI function names plus :data:`NATIVE_KEY`; values map
        each site to the source lines the machines contribute there, in
        machine registration order.
        """
        grouped = self.machine_plan()
        return {
            key: {
                site: [line for _, lines in groups for line in lines]
                for site, groups in sites.items()
            }
            for key, sites in grouped.items()
        }

    def machine_plan(self) -> Dict[str, Dict[Site, List[tuple]]]:
        """:meth:`plan` with machine attribution preserved.

        Values map each site to ``(machine name, lines)`` groups in
        machine registration order — what the code generator needs to
        emit one containment boundary per contributing machine.  The
        targeting is the dispatch index's; each indexed machine then
        emits its lines for the site (Algorithm 1, lines 6-9) and a
        machine with nothing to check there contributes no group.
        """
        index = self.dispatch_index()
        specs = {spec.name: spec for spec in self.registry}
        targets = list(self.function_table.items()) + [(NATIVE_KEY, None)]
        plan: Dict[str, Dict[Site, List[tuple]]] = {}
        for key, meta in targets:
            sites: Dict[Site, List[tuple]] = {Site.PRE: [], Site.POST: []}
            for direction in Direction:
                for name in index.machines(key, direction):
                    lines = specs[name].emit(meta, direction)  # lines 6-9
                    if lines:
                        sites[_SITE_FOR_DIRECTION[direction]].append(
                            (name, lines)
                        )
            plan[key] = sites
        return plan

    def dispatch_index(self) -> DispatchIndex:
        """The (function, direction) -> machines index of Algorithm 1.

        Algorithm 1's cross product (lines 1-5), computed once: the
        interpretive engine and replay dispatch each crossing through
        it, and :meth:`machine_plan` targets the generated checks with
        it.
        """
        if self._index is None:
            self._index = DispatchIndex.build(
                self.registry, self.function_table
            )
        return self._index

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------

    @staticmethod
    def _emit_contained_groups(
        groups: List[tuple], indent: str, function_expr: str, site: str
    ) -> List[str]:
        """One containment arm per contributing machine.

        A check raising ``FFIViolation`` is a *detected* bug and
        propagates to the wrapper's failure policy; anything else is an
        *internal* checker fault and is routed to ``rt.contain`` so the
        degradation ladder quarantines only the offending machine while
        the remaining machines (and the host workload) keep running.
        """
        lines: List[str] = []
        for machine, checks in groups:
            lines.append(indent + "try:")
            lines.extend(indent + "    " + check for check in checks)
            lines.append(indent + "except FFIViolation:")
            lines.append(indent + "    raise")
            lines.append(indent + "except Exception as exc:")
            lines.append(
                indent
                + "    rt.contain({!r}, exc, {}, {!r})".format(
                    machine, function_expr, site
                )
            )
        return lines

    def generate_pipeline_source(
        self,
        *,
        checking: bool = True,
        record: bool = False,
        govern: bool = False,
        telemetry: bool = False,
    ) -> str:
        """The fused pipeline module: one flat entry per FFI function.

        Each entry holds the *whole* per-call path in a single function
        body: the telemetry tap's span hooks, the trace tap's
        call/return hooks, the governor's meter, the machine checks
        with their containment arms, and the raw call.  One entry frame
        per crossing, no nested proxies.  An entry takes its function's
        parameters by position and passes them straight to the raw
        call; it builds the ``args`` tuple only when a machine line or
        the recorder reads it.  Only a C ``...`` function (``varargs``)
        takes ``*args``.

        With ``checking=False`` the entries contain no instrumentation —
        pure interposition, the "Interposing" configuration of Table 3
        that isolates framework overhead from analysis cost.  The stage
        order is fixed (telemetry outermost, then recorder, governor
        inside it, checks innermost); the telemetry hooks only observe,
        they never branch the entry's control flow.
        """
        plan = self.machine_plan() if checking else None
        stages = [s for s, on in (
            ("telemetry", telemetry), ("record", record), ("govern", govern),
            ("check", checking), ("contain", checking),
        ) if on]
        out: List[str] = [
            '"""Fused pipeline entries generated by the Jinn synthesizer.',
            "",
            "Machines: {}.".format(", ".join(self.registry.names())),
            "Stages: {}.".format(", ".join(stages) or "interpose only"),
            "DO NOT EDIT: regenerate from the state machine specifications.",
            '"""',
            "",
            "from repro.fsm.errors import FFIViolation",
            "",
            "",
            "def build_entries(rt, raw, recorder, governor, telemetry=None):",
            '    """Bind fused entries to one runtime, raw table, and stages.',
            "",
            "    Returns (entries, make_native_entry).",
            '    """',
        ]
        if govern:
            out.append("    gov_clock = governor.clock_ns")
        if telemetry:
            out.append(
                "    (tel_clock, tel_vc, tel_vs, tel_ring, tel_cap, tel_sc,"
                " tel_mask) = telemetry.fused_shared()"
            )
            out.append("    tel_smp = 1 & tel_mask")
            out.append(
                "    tel_calls, tel_hn, tel_hs, tel_bins, tel_nb"
                " = telemetry.fused_block()"
            )
            site_machines = self.dispatch_index().site_machines
        if self._plan_uses_thread(plan):
            out.append(_BIND_VM)
        out.append("    entries = {}")
        for position, (name, meta) in enumerate(self.function_table.items()):
            pre = plan[name][Site.PRE] if plan else []
            post = plan[name][Site.POST] if plan else []
            tel = (
                _tel_table_site(position, site_machines[name])
                if telemetry else None
            )
            out.extend(
                self._emit_fused_entry(
                    name, meta, pre, post, record, govern, tel
                )
            )
        native_pre = plan[NATIVE_KEY][Site.PRE] if plan else []
        native_post = plan[NATIVE_KEY][Site.POST] if plan else []
        out.extend(
            self._emit_fused_native_factory(
                native_pre, native_post, record, govern,
                _TEL_NATIVE if telemetry else None,
            )
        )
        out.append("    return entries, make_native_entry")
        out.append("")
        return "\n".join(out)

    @staticmethod
    def _tel_prologue_lines(tel: Dict[str, str]) -> List[str]:
        """Count the call; open duration capture on sampled crossings."""
        return [
            "tel_n = {} + 1".format(tel["calls"]),
            "{} = tel_n".format(tel["calls"]),
            "tel_do = tel_n & tel_mask == tel_smp",
            "if tel_do:",
            "    tel_t0 = tel_clock()",
            "    tel_mark = tel_vc[0]",
        ]

    @staticmethod
    def _tel_epilogue_lines(
        tel: Dict[str, str], label: str, native: str
    ) -> List[str]:
        """Close a sampled checked crossing: histogram + span write."""
        return [
            "if tel_do:",
            "    tel_now = tel_clock()",
            "    tel_el = tel_now - tel_t0",
            "    {} += 1".format(tel["count"]),
            "    {} += tel_el".format(tel["sum"]),
            "    tel_i = tel_el.bit_length()",
            "    {} += 1".format(tel["bin"]),
            "    tel_seq = tel_sc[0]",
            "    tel_ring[tel_seq % tel_cap] = (tel_seq, {}, {}, tel_t0, "
            "tel_now, {}, tel_vs(tel_mark) if tel_vc[0] != tel_mark "
            "else ())".format(label, native, tel["machines"]),
            "    tel_sc[0] = tel_seq + 1",
        ]

    def _emit_fused_entry(
        self,
        name: str,
        meta: functions.FunctionMeta,
        pre: List[tuple],
        post: List[tuple],
        record: bool,
        govern: bool,
        tel: Optional[Dict[str, str]],
    ) -> List[str]:
        default = default_literal(meta.returns)
        # A fixed-arity entry takes its parameters by position; a wrong
        # arity raises TypeError before any stage runs.
        bind_args = None
        if meta.varargs:
            call = "env, *args"
        else:
            params = ["a{}".format(i) for i in range(len(meta.params))]
            call = ", ".join(["env"] + params)
            if record or self._reads_args(pre, post):
                bind_args = "args = ({}{})".format(
                    ", ".join(params), "," if len(params) == 1 else ""
                )
        lines = ["", "    raw_{} = raw[{!r}]".format(name, name)]
        if record:
            lines.append(
                "    rc_{} = recorder.call_hook({!r}, False)".format(name, name)
            )
            lines.append(
                "    rr_{} = recorder.return_hook({!r}, False)".format(name, name)
            )
        if govern:
            lines.append(
                "    st_{} = governor.fused_binding({!r})".format(name, name)
            )
        lines.append("    def entry_{}({}):".format(name, call))
        body = "        "
        if tel:
            lines.extend(body + step for step in self._tel_prologue_lines(tel))
        if record:
            if bind_args:
                lines.append(body + bind_args)
            lines.append(body + "callseq = rc_{}(env, args)".format(name))
        if govern:
            lines.append(body + "st_{}.calls += 1".format(name))
            lines.append(body + "t0 = gov_clock()")
        epilogue: List[str] = []
        if govern:
            epilogue.append("st_{}.checked_ns += gov_clock() - t0".format(name))
        if record:
            epilogue.append("rr_{}(env, args, result, callseq)".format(name))
        if tel:
            epilogue.extend(self._tel_epilogue_lines(tel, repr(name), "False"))
        if bind_args and not record:
            lines.append(body + bind_args)
        if self._uses_thread(pre, post):
            lines.append(body + _BIND_THREAD)
        if pre:
            lines.append(body + "try:")
            lines.extend(
                self._emit_contained_groups(pre, body + "    ", repr(name), "pre")
            )
            lines.append(body + "except FFIViolation as v:")
            if epilogue:
                # The failure policy decides whether the epilogue runs:
                # JNI pends the exception and returns the default (so
                # the governor meters and the recorder logs the return);
                # pyc raises, leaving an unmatched call record and no
                # checked time for the call.
                lines.append(
                    body + "    result = rt.fail(env, v, {})".format(default)
                )
                lines.extend(body + "    " + step for step in epilogue)
                lines.append(body + "    return result")
            else:
                lines.append(
                    body + "    return rt.fail(env, v, {})".format(default)
                )
        lines.append(body + "result = raw_{}({})".format(name, call))
        if post:
            lines.append(body + "try:")
            lines.extend(
                self._emit_contained_groups(post, body + "    ", repr(name), "post")
            )
            lines.append(body + "except FFIViolation as v:")
            lines.append(body + "    rt.fail(env, v)")
        lines.extend(body + step for step in epilogue)
        lines.append(body + "return result")
        lines.append("    entries[{!r}] = entry_{}".format(name, name))
        return lines

    def _emit_fused_native_factory(
        self,
        pre: List[tuple],
        post: List[tuple],
        record: bool,
        govern: bool,
        tel: Optional[Dict[str, str]],
    ) -> List[str]:
        lines = [
            "",
            "    def make_native_entry(method_name, impl):",
            '        """Fused entry factory applied at NativeMethodBind time."""',
        ]
        if tel:
            lines.append(
                "        tel_c, tel_h, tel_b, tel_m"
                " = telemetry.fused_site(method_name, True)"
            )
            lines.append("        tel_bc = len(tel_b) - 1")
        if record:
            lines.append("        rc = recorder.call_hook(method_name, True)")
            lines.append("        rr = recorder.return_hook(method_name, True)")
        if govern:
            lines.append(
                "        st = governor.fused_binding('native:' + method_name)"
            )
        lines.append("        def native_entry(env, this, *args):")
        body = "            "
        if tel:
            lines.extend(body + step for step in self._tel_prologue_lines(tel))
        lines.append(body + "handles = (this,) + args")
        if record:
            lines.append(body + "callseq = rc(env, handles)")
        if govern:
            lines.append(body + "st.calls += 1")
            lines.append(body + "t0 = gov_clock()")
        epilogue: List[str] = []
        if govern:
            epilogue.append("st.checked_ns += gov_clock() - t0")
        if record:
            epilogue.append("rr(env, handles, result, callseq)")
        if tel:
            epilogue.extend(
                self._tel_epilogue_lines(tel, "method_name", "True")
            )
        if self._uses_thread(pre, post):
            lines.append(body + _BIND_THREAD)
        if pre:
            lines.append(body + "try:")
            lines.extend(
                self._emit_contained_groups(
                    pre, body + "    ", "method_name", "pre"
                )
            )
            lines.append(body + "except FFIViolation as v:")
            # No early return: a native pre-violation pends (JNI) and
            # the implementation still runs, or raises out (pyc).
            lines.append(body + "    rt.fail(env, v)")
        lines.append(body + "result = impl(env, this, *args)")
        if post:
            lines.append(body + "try:")
            lines.extend(
                self._emit_contained_groups(
                    post, body + "    ", "method_name", "post"
                )
            )
            lines.append(body + "except FFIViolation as v:")
            lines.append(body + "    rt.fail(env, v)")
        lines.extend(body + step for step in epilogue)
        lines.append(body + "return result")
        lines.append("        return native_entry")
        return lines

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def build_pipeline(
        self,
        *,
        checking: bool = True,
        record: bool = False,
        govern: bool = False,
        telemetry: bool = False,
    ):
        """Compile the fused module; returns its ``build_entries``."""
        source = self.generate_pipeline_source(
            checking=checking, record=record, govern=govern,
            telemetry=telemetry,
        )
        return bind_pipeline(compile_pipeline_source(source))


#: The co_filename every fused plan compiles under — cached and fresh
#: plans must match so diagnostics and tracebacks are byte-identical.
PIPELINE_FILENAME = "<jinn-pipeline>"


def compile_pipeline_source(source: str):
    """Compile generated pipeline source to a (marshalable) code object."""
    return compile(source, PIPELINE_FILENAME, "exec")


def bind_pipeline(code):
    """Exec a compiled plan and return its ``build_entries``.

    This is the warm-start half of :meth:`Synthesizer.build_pipeline`:
    the disk cache hands back the code object and skips the generate +
    compile cost entirely.
    """
    namespace: Dict[str, object] = {"__name__": "repro.pipeline._generated"}
    exec(code, namespace)
    return namespace["build_entries"]


def count_noncomment_lines(source: str) -> int:
    """Non-blank, non-comment physical lines (the paper's LoC metric)."""
    count = 0
    in_docstring = False
    for raw_line in source.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if in_docstring:
            if line.endswith('"""') or line.endswith("'''"):
                in_docstring = False
            continue
        if line.startswith(('"""', "'''")):
            quote = line[:3]
            if not (len(line) > 3 and line.endswith(quote)):
                in_docstring = True
            continue
        if line.startswith("#"):
            continue
        count += 1
    return count
