"""Smoke test: every CLI subcommand runs, exits 0, and prints output.

Parametrized over the full command surface so adding a subcommand
without exercising it here fails the suite (the ``_COMMANDS`` /
``_TRACE_COMMANDS`` completeness checks below).
"""

import pytest

from repro.cli import (
    _COMMANDS,
    _FLEET_COMMANDS,
    _FUZZ_COMMANDS,
    _OBS_COMMANDS,
    _PIPELINE_COMMANDS,
    _RESILIENCE_COMMANDS,
    _TRACE_COMMANDS,
    build_parser,
    main,
)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """A directory with two small recorded traces for replay/diff."""
    directory = tmp_path_factory.mktemp("traces")
    for name, target in (
        ("micro.trace", "ExceptionState"),
        ("pyc.trace", "pyc/DanglingBorrow"),
    ):
        assert main(
            ["trace", "record", target, "-o", str(directory / name)]
        ) == 0
    return directory


SIMPLE_COMMANDS = [
    ["table1"],
    ["table2"],
    ["coverage"],
    ["machines"],
    ["generate"],
    ["fig9"],
    ["fig10"],
    ["fig11"],
    ["demo", "ExceptionState"],
    ["demo", "Nullness", "--checker", "xcheck", "--vendor", "J9"],
    ["dispatch"],
    ["dispatch", "--substrate", "pyc"],
    ["dispatch", "--json"],
    ["pipeline", "show"],
    ["pipeline", "show", "--substrate", "pyc"],
    ["pipeline", "show", "--json"],
    ["pipeline", "show", "--function", "DeleteLocalRef"],
]


@pytest.mark.parametrize("argv", SIMPLE_COMMANDS, ids=lambda a: " ".join(a))
def test_simple_subcommand_smoke(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()


class TestTraceSubcommands:
    def test_record_micro(self, tmp_path, capsys):
        out = str(tmp_path / "t.trace")
        assert main(["trace", "record", "ExceptionState", "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "recorded" in printed and "live violations" in printed

    def test_record_dacapo(self, tmp_path, capsys):
        out = str(tmp_path / "t.trace")
        assert main(["trace", "record", "dacapo/compress", "-o", out]) == 0
        assert "recorded" in capsys.readouterr().out

    def test_replay_single(self, trace_dir, capsys):
        path = str(trace_dir / "micro.trace")
        assert main(["trace", "replay", path]) == 0
        printed = capsys.readouterr().out
        assert "replayed" in printed
        assert "match" in printed  # replay vs recorded stream

    def test_replay_multi_file(self, trace_dir, capsys):
        paths = [
            str(trace_dir / "micro.trace"),
            str(trace_dir / "pyc.trace"),
        ]
        assert main(["trace", "replay"] + paths) == 0
        printed = capsys.readouterr().out
        assert "2 trace(s)" in printed
        assert "recorded stream: match" in printed

    def test_diff_identical_traces(self, trace_dir, capsys):
        path = str(trace_dir / "micro.trace")
        assert main(["trace", "diff", path, path]) == 0
        assert "zero drift" in capsys.readouterr().out

    def test_diff_divergent_traces_exits_nonzero(self, trace_dir, capsys):
        old = str(trace_dir / "micro.trace")
        new = str(trace_dir / "pyc.trace")
        assert main(["trace", "diff", old, new]) == 1
        assert "zero drift" not in capsys.readouterr().out

    def test_replay_recorded_drift_exits_nonzero(
        self, trace_dir, tmp_path, capsys
    ):
        # Tamper with one recorded violation so the live stream stored
        # in the trace no longer matches what replay re-detects.
        import json

        lines = (trace_dir / "micro.trace").read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            record = json.loads(line)
            if record[0] == "v":
                record[1] = "tampered report"
                lines[i] = json.dumps(record)
                break
        else:
            pytest.fail("trace has no recorded violation to tamper with")
        tampered = tmp_path / "tampered.trace"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["trace", "replay", str(tampered)]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_corpus(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        assert main(
            ["trace", "corpus", "-o", out, "--benchmarks", "compress"]
        ) == 0
        assert "recorded" in capsys.readouterr().out

    def test_record_with_journal_then_recover(self, tmp_path, capsys):
        trace = str(tmp_path / "j.trace")
        journal = str(tmp_path / "j.journal")
        assert main(
            ["trace", "record", "pyc/DanglingBorrow", "-o", trace,
             "--journal", journal, "--sync-every", "4"]
        ) == 0
        assert "journal" in capsys.readouterr().out
        recovered = str(tmp_path / "rec.trace")
        assert main(["trace", "recover", journal, "-o", recovered]) == 0
        assert '"recovered_records"' in capsys.readouterr().out
        assert main(["trace", "replay", recovered]) == 0
        assert "replayed" in capsys.readouterr().out

    def test_replay_on_fleet_workers(self, trace_dir, capsys):
        paths = [
            str(trace_dir / "micro.trace"),
            str(trace_dir / "pyc.trace"),
        ]
        assert main(["trace", "replay", "--workers", "2"] + paths) == 0
        assert "2 trace(s)" in capsys.readouterr().out

    def test_replay_with_timeout_completes(self, trace_dir, capsys):
        # The recorded pyc trace carries a violation that replay
        # re-detects: a watched run prints the same report and exits 0.
        path = str(trace_dir / "pyc.trace")
        assert main(["trace", "replay", path, "--timeout", "120"]) == 0
        printed = capsys.readouterr().out
        assert "replayed" in printed
        assert "recorded stream: match" in printed


class TestFuzzSubcommands:
    def test_run_smoke_gate_passes(self, capsys):
        assert main(["fuzz", "run", "--smoke", "--substrate", "pyc"]) == 0
        printed = capsys.readouterr().out
        assert "gate: PASS" in printed

    def test_run_json_report(self, capsys):
        import json

        assert main(
            ["fuzz", "run", "--smoke", "--substrate", "pyc", "--json"]
        ) == 0
        report = json.loads(
            capsys.readouterr().out.split("gate: PASS")[0]
        )
        assert report["valid"]["violations"] == 0

    def test_shrink(self, capsys):
        assert main(["fuzz", "shrink", "ignored_py_exception"]) == 0
        printed = capsys.readouterr().out
        assert "fingerprint: machine=py_exception_state" in printed

    def test_shrink_unknown_fault(self, capsys):
        assert main(["fuzz", "shrink", "no_such_fault"]) == 2

    def test_corpus_build_and_check(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        assert main(
            ["fuzz", "corpus", "-o", out, "--substrate", "pyc"]
        ) == 0
        assert "minimized traces" in capsys.readouterr().out
        assert main(["fuzz", "corpus", "-o", out, "--check"]) == 0
        assert "replays clean" in capsys.readouterr().out

    def test_faults(self, capsys):
        assert main(["fuzz", "faults"]) == 0
        assert "drop_delete_local" in capsys.readouterr().out

    def test_graph(self, capsys):
        assert main(["fuzz", "graph", "local_ref"]) == 0
        assert "Error: overflow" in capsys.readouterr().out

    def test_graph_all_pyc(self, capsys):
        assert main(["fuzz", "graph", "--substrate", "pyc"]) == 0
        assert "owned_ref" in capsys.readouterr().out

    def test_run_with_timeout_completes(self, capsys):
        assert main(
            ["fuzz", "run", "--smoke", "--substrate", "pyc",
             "--seed", "3", "--timeout", "120"]
        ) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_run_on_fleet_workers(self, capsys):
        assert main(
            ["fuzz", "run", "--smoke", "--substrate", "pyc",
             "--workers", "2"]
        ) == 0
        assert "gate: PASS" in capsys.readouterr().out


class TestResilienceSubcommands:
    def test_chaos_gate_passes(self, capsys):
        assert main(
            ["resilience", "chaos", "--seed", "3", "--substrate", "pyc"]
        ) == 0
        printed = capsys.readouterr().out
        assert "gate: PASS" in printed
        assert "quarantined" in printed

    def test_supervise_fuzz_shard(self, capsys):
        # `resilience supervise fuzz:3` is now the watched one-round
        # campaign `fuzz run --seed 3 --rounds 1 --timeout T`: a fleet
        # job under the watchdog that prints what an unwatched run does.
        import json

        argv = ["fuzz", "run", "--seed", "3", "--rounds", "1",
                "--substrate", "pyc", "--json"]
        gate = "gate: PASS\n"
        assert main(argv + ["--timeout", "120"]) == 0
        watched = capsys.readouterr().out
        assert watched.endswith(gate)
        assert main(argv) == 0
        assert capsys.readouterr().out == watched
        report = json.loads(watched[: -len(gate)])
        assert report["totals"]["runs"] > 0

    def test_supervise_rejects_unknown_spec(self, capsys):
        # The command is gone, so every spec is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["resilience", "supervise", "bogus:thing"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_status_governed_run(self, capsys):
        assert main(
            ["resilience", "status", "--seed", "5", "--substrate", "pyc",
             "--repeats", "2"]
        ) == 0
        printed = capsys.readouterr().out
        assert '"governor"' in printed
        assert '"budget"' in printed


class TestFleetSubcommands:
    def test_run_smoke_gate(self, capsys):
        assert main(["fleet", "run", "--smoke", "--workers", "2"]) == 0
        printed = capsys.readouterr().out
        assert "stream identical" in printed
        assert "gate: PASS" in printed

    def test_run_needs_kind_or_smoke(self, capsys):
        # `--smoke` is required: `fleet run` is only the CI smoke.
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "run"])
        assert exc.value.code == 2
        assert "usage: repro fleet run" in capsys.readouterr().err

    def test_workers_inline(self, capsys):
        assert main(
            ["fleet", "workers", "--workers", "0", "--trials", "2"]
        ) == 0
        printed = capsys.readouterr().out
        assert "trial job(s)" in printed
        assert "busy" in printed
        assert "dead_letter" not in printed


class TestObsSubcommands:
    OBS_RUN = ["--substrate", "pyc", "--repeats", "2", "--fake-clock"]

    @pytest.fixture(scope="class")
    def snapshot_files(self, tmp_path_factory):
        """Two snapshot files from runs of different sizes, for diff."""
        directory = tmp_path_factory.mktemp("obs")
        paths = []
        for name, repeats in (("before.json", "2"), ("after.json", "3")):
            path = str(directory / name)
            assert main(
                ["obs", "snapshot", "--substrate", "pyc", "--fake-clock",
                 "--repeats", repeats, "-o", path]
            ) == 0
            paths.append(path)
        return paths

    def test_snapshot_prints_document(self, capsys):
        import json

        assert main(["obs", "snapshot"] + self.OBS_RUN) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema"] == 1
        assert set(snapshot) == {"schema", "metrics", "spans", "triage"}

    def test_snapshot_writes_file(self, snapshot_files, capsys):
        # The fixture already exercised -o; assert the summary line.
        assert main(
            ["obs", "snapshot", "-o", snapshot_files[0]] + self.OBS_RUN
        ) == 0
        printed = capsys.readouterr().out
        assert "wrote" in printed and "crossings" in printed

    @pytest.mark.parametrize("by", ["time", "calls"])
    def test_top_ranks_sites(self, by, capsys):
        assert main(["obs", "top", "--by", by, "-n", "3"] + self.OBS_RUN) == 0
        printed = capsys.readouterr().out
        assert "function" in printed and "calls" in printed

    def test_top_from_input_file(self, snapshot_files, capsys):
        assert main(["obs", "top", "--input", snapshot_files[0]]) == 0
        assert "function" in capsys.readouterr().out

    def test_diff_between_snapshot_files(self, snapshot_files, capsys):
        import json

        before, after = snapshot_files
        assert main(["obs", "diff", before, after]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert set(diff) >= {"counters", "gauges", "histograms", "triage"}

    @pytest.mark.parametrize("fmt", ["prometheus", "json"])
    def test_export_formats(self, fmt, capsys):
        assert main(["obs", "export", "--format", fmt] + self.OBS_RUN) == 0
        printed = capsys.readouterr().out
        if fmt == "prometheus":
            assert "# TYPE ffi_calls_total counter" in printed
        else:
            import json

            assert json.loads(printed)["schema"] == 1


class TestStatusCommand:
    STATUS_RUN = ["--substrate", "pyc", "--repeats", "2"]

    def test_status_text_rollup(self, capsys):
        assert main(["status"] + self.STATUS_RUN) == 0
        printed = capsys.readouterr().out
        for section in (
            "workload", "pipeline", "governor", "cache", "obs", "fleet",
        ):
            assert section in printed

    def test_status_json(self, capsys):
        import json

        assert main(["status", "--json"] + self.STATUS_RUN) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["schema"] == 1
        assert status["workload"]["substrate"] == "pyc"
        assert status["pipeline"]["pipeline"] == "fused"
        assert status["obs"]["crossings"] > 0
        assert status["fleet"]["ok"] is True
        assert not any(key.startswith("queue_") for key in status["fleet"])


class TestJsonSurfaces:
    """--json outputs parse and carry the fields tooling reads."""

    def test_dispatch_json(self, capsys):
        import json

        assert main(["dispatch", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["substrate"] == "jni"
        assert stats["indexed_handlers"] < stats["fanout_handlers"]
        assert "hits" in stats["wrapper_cache"]

    def test_pipeline_show_json(self, capsys):
        import json

        assert main(["pipeline", "show", "--substrate", "pyc", "--json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["mode"] == "generated"
        assert plan["substrate"] == "pyc"
        assert [s["name"] for s in plan["interceptors"]] == [
            "machines", "containment",
        ]
        assert plan["functions"] == len(plan["per_function"]) - 1
        assert "plan_modules" in plan["wrapper_cache"]
        # Every fused op list brackets the raw call.
        for steps in plan["per_function"].values():
            assert "raw" in steps


#: The exact subcommand surface from before the cli package split; every
#: argv here must still parse against the assembled parser.
PRE_SPLIT_ARGVS = [
    ["table1"],
    ["table2"],
    ["coverage"],
    ["machines"],
    ["generate", "-o", "out.py", "--interpose-only"],
    ["fig9"],
    ["fig10", "--entries", "5"],
    ["fig11"],
    ["demo", "ExceptionState", "--checker", "xcheck", "--vendor", "J9"],
    ["dispatch", "--substrate", "pyc"],
    ["trace", "record", "t", "-o", "x", "--journal", "j", "--sync-every", "4"],
    ["trace", "replay", "a", "--timeout", "5"],
    ["trace", "diff", "old", "new", "--force"],
    ["trace", "corpus", "-o", "d", "--scale", "10", "--benchmarks", "x"],
    ["trace", "recover", "j", "-o", "t"],
    ["fuzz", "run", "--seed", "1", "--rounds", "2", "--substrate", "pyc",
     "--smoke", "--json", "--timeout", "5"],
    ["fuzz", "shrink", "f", "--seed", "1"],
    ["fuzz", "corpus", "-o", "d", "--seed", "1", "--substrate", "jni",
     "--check"],
    ["fuzz", "faults"],
    ["fuzz", "graph", "local_ref", "--substrate", "jni"],
    ["fuzz", "graph"],
    ["resilience", "chaos", "--seed", "1", "--rounds", "2",
     "--substrate", "both", "--json"],
    ["resilience", "status", "--seed", "1", "--substrate", "jni",
     "--budget", "0.5", "--window", "32", "--repeats", "2"],
]


@pytest.mark.parametrize("argv", PRE_SPLIT_ARGVS, ids=lambda a: " ".join(a))
def test_pre_split_surface_still_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


#: The fleet-era additions: the fleet group plus the --workers flags
#: grafted onto the pre-existing commands.
FLEET_ERA_ARGVS = [
    ["fleet", "run", "--smoke", "--workers", "2", "--batch", "4", "--json"],
    ["fleet", "workers", "--workers", "0", "--trials", "2",
     "--substrate", "jni", "--seed", "1"],
    ["trace", "replay", "a", "b", "--workers", "2", "--force"],
    ["fuzz", "run", "--workers", "2", "--substrate", "pyc"],
]


@pytest.mark.parametrize("argv", FLEET_ERA_ARGVS, ids=lambda a: " ".join(a))
def test_fleet_era_surface_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


#: Watchdog seconds and journal sync intervals must be above zero.
NON_POSITIVE_ARGVS = [
    (["trace", "replay", "a", "--timeout", "0"], "--timeout"),
    (["trace", "replay", "a", "--timeout", "-1"], "--timeout"),
    (["fuzz", "run", "--smoke", "--timeout", "0"], "--timeout"),
    (["fuzz", "run", "--smoke", "--timeout", "-1"], "--timeout"),
    (["trace", "record", "t", "-o", "x", "--sync-every", "0"],
     "--sync-every"),
    (["trace", "record", "t", "-o", "x", "--sync-every", "-4"],
     "--sync-every"),
]


@pytest.mark.parametrize(
    "argv,flag", NON_POSITIVE_ARGVS,
    ids=[" ".join(argv) for argv, _ in NON_POSITIVE_ARGVS],
)
def test_non_positive_values_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "argument {}: must be greater than 0".format(flag) in (
        capsys.readouterr().err
    )


#: Parallel runners other than the fleet are gone: `trace replay
#: --workers N` and `fuzz run --workers N` replace these flags, and
#: `fleet run` is only the smoke.  Chaos and corpus builds run in one
#: process (`resilience chaos`, `fuzz corpus`).  Each argv comes with
#: the error argparse rejects it with.
REMOVED_ARGVS = [
    (["trace", "replay", "a", "b", "--shards", "2"],
     "unrecognized arguments"),
    # The command went with its flag.
    (["resilience", "supervise", "fuzz:1", "--parallel", "4"],
     "invalid choice"),
    (["fleet", "run", "--kind", "fuzz", "--seed", "1", "--rounds", "2",
      "--substrate", "pyc"],
     "required: --smoke"),
    (["fleet", "run", "--kind", "chaos", "--substrate", "both"],
     "required: --smoke"),
    (["fleet", "run", "--kind", "corpus", "-o", "d", "--seed", "1"],
     "required: --smoke"),
    (["fleet", "run", "--kind", "replay", "a"], "required: --smoke"),
    (["fleet", "run", "--smoke", "--kind", "fuzz"],
     "unrecognized arguments"),
    # A fleet run keeps no state on disk: no queue to mirror into.
    (["fleet", "run", "--smoke", "--queue", "q"], "unrecognized arguments"),
    (["fleet", "run", "--smoke", "--sync", "group"],
     "unrecognized arguments"),
]

#: Watched work runs on the fleet: `fuzz run --timeout T` and `trace
#: replay --timeout T` replace the first command.  `trace recover`
#: replaces `resilience recover`, and interpretive checking is replay's,
#: not a live `--mode`.  The job queue went with the five commands that
#: inspected, drained, fault-injected, compacted and dead-lettered it.
REMOVED_COMMANDS = [
    ["resilience", "supervise", "fuzz:1"],
    ["resilience", "recover", "j", "-o", "t"],
    ["pipeline", "show", "--mode", "interpretive"],
    ["fleet", "status", "--queue", "q"],
    ["fleet", "drain", "--queue", "q"],
    ["fleet", "chaos", "--smoke"],
    ["fleet", "compact", "--queue", "q"],
    ["fleet", "dlq", "list", "--queue", "q"],
]


@pytest.mark.parametrize(
    "argv,error", REMOVED_ARGVS,
    ids=[" ".join(argv) for argv, _ in REMOVED_ARGVS],
)
def test_removed_parallel_flags_are_rejected(argv, error, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("argv", REMOVED_COMMANDS, ids=lambda a: " ".join(a))
def test_removed_commands_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestCommandSurfaceIsCovered:
    def test_every_top_level_command_is_smoked(self):
        smoked = {argv[0] for argv in SIMPLE_COMMANDS} | {
            "trace", "fuzz", "resilience", "fleet", "obs", "status",
        }
        assert smoked == set(_COMMANDS)

    def test_every_trace_subcommand_is_smoked(self):
        smoked = {"record", "replay", "diff", "corpus", "recover"}
        assert smoked == set(_TRACE_COMMANDS)

    def test_every_fuzz_subcommand_is_smoked(self):
        smoked = {"run", "shrink", "corpus", "faults", "graph"}
        assert smoked == set(_FUZZ_COMMANDS)

    def test_every_resilience_subcommand_is_smoked(self):
        smoked = {"chaos", "status"}
        assert smoked == set(_RESILIENCE_COMMANDS)

    def test_every_fleet_subcommand_is_smoked(self):
        smoked = {"run", "workers"}
        assert smoked == set(_FLEET_COMMANDS)

    def test_every_pipeline_subcommand_is_smoked(self):
        smoked = {"show"}
        assert smoked == set(_PIPELINE_COMMANDS)

    def test_every_obs_subcommand_is_smoked(self):
        smoked = {"snapshot", "top", "diff", "export"}
        assert smoked == set(_OBS_COMMANDS)
