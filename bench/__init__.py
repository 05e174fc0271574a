"""The repository benchmark: checker cost and verdicts, end to end.

Four seeded workloads (``table3``, ``pyc-ext``, ``bugs``,
``record-replay``) run the checker the way a user runs it and check its
verdicts against known answers; a traced run adds spans and a per-layer
ledger.  ``BENCHMARK.json`` at the repository root names every metric.
See ``bench/README.md``.

Entry points: ``python3 bench/run.py`` (one workload, one run) and
``python -m bench run|compare`` (all workloads; two sets of runs).
"""
