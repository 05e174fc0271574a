"""Child process: warm start timing and plan-cache prefill.

``python3 bench/probe.py setup <workload>`` prints one JSON line,
``{"import_s": ..., "first_call_s": ...}``: the time from before the
first ``import repro`` to the end of the imports the workload's first
program needs, and from there to the return of its first checked kernel
call.  The plan cache (``REPRO_PLAN_CACHE``) is expected to be filled,
so this is the warm start every user pays per process.

``python3 bench/probe.py prefill <workload>`` runs a tiny program in
every configuration the workload times, so the compiled plans land in
the plan cache.  It runs in a child because compiling a JNI plan peaks
at about 100 MB, more than twice what a warm run of any workload uses; in
the measuring process that peak would be all ``peak_rss_mb`` saw.

The parent (``bench/run.py``) sets ``PYTHONPATH`` to the checkout's
``src`` and ``REPRO_PLAN_CACHE`` to a directory it owns.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _first_call(workload: str) -> dict:
    """Import what the workload's first program needs, then run it."""
    if workload == "pyc-ext":
        from bench import pycext
        from repro.pyc import PyCChecker, PythonInterpreter

        t1 = time.perf_counter()
        kernel = pycext.make_kernel(pycext.reference_mixes()[0], 1)
        interp = PythonInterpreter(agents=[PyCChecker()])
        interp.register_extension("first", kernel)
        interp.call_extension("first")
    elif workload == "bugs":
        from repro.jinn.agent import JinnAgent
        from repro.jvm import JavaException, JavaVM
        from repro.workloads.microbench import exception_state

        t1 = time.perf_counter()
        vm = JavaVM(agents=[JinnAgent()])
        try:
            exception_state(vm)
        except JavaException:
            pass  # Jinn's JNIAssertionFailure: the expected report
    else:
        from repro.jinn.agent import JinnAgent
        from repro.jvm import JavaVM
        from repro.workloads.dacapo import build_workload

        observer = None
        if workload == "record-replay":
            from repro.trace.recorder import TraceRecorder

            observer = TraceRecorder()
        t1 = time.perf_counter()
        vm = JavaVM(agents=[JinnAgent(observer=observer)])
        build_workload(vm, "luindex")
        vm.call_static("dacapo/luindex", "kernel", "(I)V", 1)
    t2 = time.perf_counter()
    return {"import_s": t1 - T0, "first_call_s": t2 - t1}


def _prefill(workload: str) -> None:
    from bench import programs

    for substrate in programs.WORKLOADS[workload].substrates:
        program = programs.tiny_program(substrate)
        for config in programs.PAIRED:
            programs.run_config(program, config, None)


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ("setup", "prefill"):
        print("usage: probe.py setup|prefill <workload>", file=sys.stderr)
        return 2
    if argv[0] == "setup":
        print(json.dumps(_first_call(argv[1])))
    else:
        _prefill(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
