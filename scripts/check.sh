#!/usr/bin/env bash
# Tier-1 gate: tests, the benchmark's own tests and its known-answer
# smoke run (exit 1 on any wrong verdict), bytecode compilation, the
# regression corpus replayed by `trace replay` in process, on 2 fleet
# workers, and as watched jobs under the fleet's watchdog (`--timeout`)
# (exit 1 on drift from the recorded streams; the three reports must
# be the same bytes), a journal
# round trip (a DaCapo kernel recorded with a one-record-per-sync
# journal must recover to the very bytes its close wrote, and both
# files replay), the fixed-seed fuzz smoke (its JSON report in process
# and on 2 fleet workers must be the same bytes), the regression corpus check,
# the resilience smoke (chaos containment + crash recovery, and the
# trace journal under injected storage faults), the obs
# CLI smoke on both substrates, the fleet smoke (the regression corpus
# replayed on 2 fleet workers, gated on stream identity),
# the ablation bench (the none, interpose and generated configurations
# end to end, per-machine costs from interleaved kernel pairs, the
# local-frame capacity sweep), and the quick
# benchmark gates (write BENCH_trace_replay.json, BENCH_fuzz.json,
# BENCH_resilience.json, BENCH_obs.json, and BENCH_fleet.json).
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

echo "== corpus trace replay (recorded-stream drift check live) =="
replay_dir="$(mktemp -d)"
timeout 300 python -m repro.cli trace replay tests/data/fuzz_corpus/*.trace \
    > "$replay_dir/inline.txt"
timeout 300 python -m repro.cli trace replay --workers 2 \
    tests/data/fuzz_corpus/*.trace > "$replay_dir/workers.txt"
timeout 300 python -m repro.cli trace replay --timeout 60 \
    tests/data/fuzz_corpus/*.trace > "$replay_dir/timeout.txt"
cmp "$replay_dir/inline.txt" "$replay_dir/workers.txt"
cmp "$replay_dir/inline.txt" "$replay_dir/timeout.txt"
rm -rf "$replay_dir"

echo "== trace journal round trip (recovered journal == close-time trace) =="
journal_dir="$(mktemp -d)"
timeout 300 python -m repro.cli trace record dacapo/luindex \
    -o "$journal_dir/a.trace" --journal "$journal_dir/a.journal" --sync-every 1
timeout 300 python -m repro.cli trace recover "$journal_dir/a.journal" \
    -o "$journal_dir/b.trace"
cmp "$journal_dir/a.trace" "$journal_dir/b.trace"
timeout 300 python -m repro.cli trace replay "$journal_dir/a.trace" \
    "$journal_dir/b.trace"
rm -rf "$journal_dir"

echo "== compileall =="
python -m compileall -q src

echo "== fuzz smoke (fixed seed; same report in process and on 2 workers) =="
python -m repro.cli fuzz run --smoke
cmp <(python -m repro.cli fuzz run --smoke --json) \
    <(python -m repro.cli fuzz run --smoke --json --workers 2)
python -m repro.cli fuzz corpus -o tests/data/fuzz_corpus --check

echo "== resilience smoke (fixed-seed chaos + crash recovery) =="
timeout 300 python -m repro.cli resilience chaos --seed 2026 --substrate pyc
timeout 300 python -m pytest -q tests/test_trace_journal.py

echo "== obs smoke (deterministic snapshot + status roll-up) =="
obs_dir="$(mktemp -d)"
timeout 300 python -m repro.cli obs snapshot --fake-clock --repeats 2 \
    -o "$obs_dir/pyc.json"
timeout 300 python -m repro.cli obs top --input "$obs_dir/pyc.json"
timeout 300 python -m repro.cli obs export --input "$obs_dir/pyc.json" \
    --format prometheus > /dev/null
timeout 300 python -m repro.cli status --repeats 2
# The same on JNI: the 229-site telemetry + governor attach path.
timeout 300 python -m repro.cli obs snapshot --fake-clock --repeats 2 \
    --substrate jni -o "$obs_dir/jni.json"
timeout 300 python -m repro.cli status --repeats 2 --substrate jni
rm -rf "$obs_dir"

echo "== fleet smoke (2 workers, regression corpus, stream identity) =="
timeout 300 python -m repro.cli fleet run --smoke --workers 2

if [[ "${1:-}" != "--no-bench" ]]; then
    echo "== ablation bench (configurations, per-machine pairs, capacity) =="
    timeout 600 python -m pytest -q benchmarks/bench_ablation.py \
        --benchmark-disable

    echo "== trace replay bench gate (quick) =="
    python benchmarks/bench_trace_replay.py --quick

    echo "== fuzz bench gate (quick) =="
    python benchmarks/bench_fuzz.py --quick

    echo "== resilience bench gate (quick) =="
    timeout 600 python benchmarks/bench_resilience.py --quick

    echo "== observability bench gate (quick) =="
    timeout 600 python benchmarks/bench_obs.py --quick

    echo "== fleet fabric bench gate (quick: scaling, stream identity, plan cache) =="
    timeout 600 python benchmarks/bench_fleet.py --quick
fi

echo "OK"
