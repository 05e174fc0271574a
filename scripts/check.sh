#!/usr/bin/env bash
# Tier-1 gate: tests, the benchmark's own tests and its known-answer
# smoke run (exit 1 on any wrong verdict), bytecode compilation, the
# fixed-seed fuzz smoke,
# the resilience smoke (chaos containment + crash recovery), the obs
# CLI smoke, the fleet smoke (work-stealing replay of the regression
# corpus on 2 workers, gated on stream identity), the fleet storage
# chaos smoke (fault-injected queue journals, gated on zero lost acks
# and every corruption detected — run in both ack durability modes),
# and the quick
# benchmark gates (write BENCH_interpretive_dispatch.json,
# BENCH_trace_replay.json, BENCH_fuzz.json, BENCH_resilience.json,
# BENCH_pipeline.json, BENCH_obs.json, and BENCH_fleet.json).
#
# Usage: scripts/check.sh [--no-bench]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src:."

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark tests + known-answer smoke run =="
python -m pytest bench/tests -q
python -m bench run --smoke

echo "== trace round-trip parity =="
python -m pytest -q tests/test_trace_replay.py

echo "== compileall =="
python -m compileall -q src

echo "== fuzz smoke (fixed seed) =="
python -m repro.cli fuzz run --smoke
python -m repro.cli fuzz corpus -o tests/data/fuzz_corpus --check

echo "== resilience smoke (fixed-seed chaos + crash recovery) =="
timeout 300 python -m repro.cli resilience chaos --seed 2026 --substrate pyc
timeout 300 python -m pytest -q tests/test_trace_journal.py

echo "== obs smoke (deterministic snapshot + status roll-up) =="
timeout 300 python -m repro.cli obs snapshot --fake-clock --repeats 2 \
    -o /tmp/obs_smoke.json
timeout 300 python -m repro.cli obs top --input /tmp/obs_smoke.json
timeout 300 python -m repro.cli obs export --input /tmp/obs_smoke.json \
    --format prometheus > /dev/null
timeout 300 python -m repro.cli status --repeats 2

echo "== fleet smoke (2 workers, regression corpus, stream identity) =="
timeout 300 python -m repro.cli fleet run --smoke --workers 2

echo "== fleet storage chaos smoke (fault-injected queue journals) =="
timeout 300 python -m repro.cli fleet chaos --smoke

echo "== fleet storage chaos smoke (group-commit durability window) =="
timeout 300 python -m repro.cli fleet chaos --smoke --sync group

if [[ "${1:-}" != "--no-bench" ]]; then
    echo "== dispatch-index bench gate (quick) =="
    python benchmarks/bench_table3_overhead.py --quick

    echo "== trace replay bench gate (quick) =="
    python benchmarks/bench_trace_replay.py --quick

    echo "== fuzz bench gate (quick) =="
    python benchmarks/bench_fuzz.py --quick

    echo "== resilience bench gate (quick) =="
    timeout 600 python benchmarks/bench_resilience.py --quick

    echo "== fused pipeline bench gate (quick) =="
    timeout 600 python benchmarks/bench_pipeline.py --quick

    echo "== observability bench gate (quick) =="
    timeout 600 python benchmarks/bench_obs.py --quick

    echo "== fleet fabric bench gate (quick, incl. throughput + plan cache) =="
    timeout 600 python benchmarks/bench_fleet.py --quick
fi

echo "OK"
