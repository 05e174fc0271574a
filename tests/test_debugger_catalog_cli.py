"""Tests for the debugger integration, the machine catalog, and the CLI."""

import pytest

from repro.jinn import DebuggerAgent, interposition_count, render_catalog
from repro.jinn.machines import build_registry
from repro.jvm import JavaException, JavaVM
from repro.cli import main


class TestDebuggerAgent:
    def _buggy_vm(self):
        agent = DebuggerAgent()
        vm = JavaVM(agents=[agent])
        vm.define_class("dbg/C")
        vm.add_method("dbg/C", "nat", "()V", is_static=True, is_native=True)

        def nat(env, this):
            s = env.NewStringUTF("x")
            env.DeleteLocalRef(s)
            env.GetStringLength(s)

        vm.register_native("dbg/C", "nat", "()V", nat)
        return vm, agent

    def test_snapshot_captured_on_violation(self):
        vm, agent = self._buggy_vm()
        with pytest.raises(JavaException):
            vm.call_static("dbg/C", "nat", "()V")
        assert agent.snapshots
        snapshot = agent.last_snapshot()
        assert snapshot.violation.machine == "local_ref"
        assert snapshot.thread.startswith("Thread[main")
        vm.shutdown()

    def test_snapshot_has_mixed_stack(self):
        vm, agent = self._buggy_vm()
        with pytest.raises(JavaException):
            vm.call_static("dbg/C", "nat", "()V")
        snapshot = agent.last_snapshot()
        # Innermost: the faulting JNI function as a C frame, then the
        # native method, exactly the Blink presentation.
        assert "[C] GetStringLength" in snapshot.frames[0]
        assert any("Native Method" in f for f in snapshot.frames)
        vm.shutdown()

    def test_snapshot_render_mentions_everything(self):
        vm, agent = self._buggy_vm()
        with pytest.raises(JavaException):
            vm.call_static("dbg/C", "nat", "()V")
        text = agent.last_snapshot().render()
        assert "Jinn failure snapshot" in text
        assert "mixed Java/C calling context" in text
        assert "heap:" in text
        vm.shutdown()

    def test_clean_run_captures_nothing(self):
        agent = DebuggerAgent()
        vm = JavaVM(agents=[agent])
        vm.define_class("dbg/Clean")
        vm.register_native(
            "dbg/Clean", "ok", "()I", lambda env, this: env.GetVersion()
        )
        vm.call_static("dbg/Clean", "ok", "()I")
        assert agent.snapshots == []
        assert agent.last_snapshot() is None
        vm.shutdown()

    def test_detection_still_works_like_plain_jinn(self):
        vm, agent = self._buggy_vm()
        with pytest.raises(JavaException):
            vm.call_static("dbg/C", "nat", "()V")
        assert agent.rt.violations
        vm.shutdown()


class TestCatalog:
    def test_catalog_covers_all_machines(self):
        text = render_catalog()
        for name in build_registry().names():
            assert name in text

    def test_catalog_groups_by_figures(self):
        text = render_catalog()
        assert "JVM state constraints (Figure 6)" in text
        assert "Type constraints (Figure 7)" in text
        assert "Resource constraints (Figure 8)" in text

    def test_interposition_counts_match_table2(self):
        registry = build_registry()
        assert interposition_count(registry.get("jnienv_state")) == 229
        assert interposition_count(registry.get("exception_state")) == 229
        assert interposition_count(registry.get("access_control")) == 18
        assert interposition_count(registry.get("entity_typing")) == 131

    def test_catalog_mentions_interposition(self):
        assert "Interposes on 229 JNI function(s)." in render_catalog()


class TestCLI:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "jnienv_state" in out
        assert "229" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        assert "local_ref" in capsys.readouterr().out

    def test_generate_to_file(self, tmp_path, capsys):
        path = tmp_path / "gen.py"
        assert main(["generate", "-o", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "def entry_FindClass" in path.read_text()

    def test_generate_interpose_only(self, capsys):
        assert main(["generate", "--interpose-only"]) == 0
        out = capsys.readouterr().out
        assert "def entry_FindClass" in out
        assert "rt.nullness" not in out

    def test_demo_jinn(self, capsys):
        assert main(["demo", "ExceptionState"]) == 0
        out = capsys.readouterr().out
        assert "outcome:   exception" in out

    def test_demo_production_j9(self, capsys):
        assert main(["demo", "ExceptionState", "--checker", "none", "--vendor", "J9"]) == 0
        assert "outcome:   crash" in capsys.readouterr().out

    def test_fig10(self, capsys):
        assert main(["fig10", "--entries", "6"]) == 0
        out = capsys.readouterr().out
        assert "original" in out
        assert "fixed" in out

    def test_fig11(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "CHECKER" in out
        assert "garbage" in out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "WARNING in native method" in out
        assert "JVMJNCK028E" in out
        assert "JNIAssertionFailure" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Bad critical region" in out
        assert "deadlock" in out
        assert "exception" in out

    def test_coverage(self, capsys):
        assert main(["coverage"]) == 0
        out = capsys.readouterr().out
        assert "coverage: Jinn 16/16  HotSpot 9/16  J9 8/16" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
