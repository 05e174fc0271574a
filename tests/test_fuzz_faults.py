"""Fault injection: every fault class fires its tagged machine, live
detection agrees with trace replay, and the seeded loop is reproducible."""

import json

import pytest

from repro.fleet import fleet_fuzz
from repro.fuzz import (
    FAULTS,
    fault_by_name,
    faults_for,
    fuzz_gate,
    generate_sequence,
    run_ops,
    task_rng,
)


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
class TestEveryFaultClass:
    def test_detected_by_tagged_machine_with_replay_parity(self, fault):
        for round_no in range(2):
            base = generate_sequence(
                task_rng(11, "gen", fault.name, round_no), fault.substrate
            )
            injected = fault.inject(
                task_rng(11, "inject", fault.name, round_no), base
            )
            result = run_ops(fault.substrate, injected.ops)
            fired = {v.machine for v in result.live.violations}
            assert fault.machine in fired, (
                fault.name, result.live.outcome, result.live.reports
            )
            assert not result.divergent, result.diff

    def test_injection_does_not_mutate_the_base_sequence(self, fault):
        base = generate_sequence(
            task_rng(11, "gen", fault.name, 0), fault.substrate
        )
        before = base.ops
        fault.inject(task_rng(11, "inject", fault.name, 0), base)
        assert base.ops == before


class TestCatalog:
    def test_lookup_by_name(self):
        assert fault_by_name("cross_thread_env").machine == "jnienv_state"
        with pytest.raises(KeyError):
            fault_by_name("bogus")

    def test_catalog_partitions_by_substrate(self):
        assert set(faults_for("jni")) | set(faults_for("pyc")) == set(FAULTS)
        assert not set(faults_for("jni")) & set(faults_for("pyc"))

    def test_jni_faults_cover_every_jni_resource_machine(self):
        covered = {f.machine for f in faults_for("jni")}
        assert covered == {
            "local_ref", "global_ref", "pinned_resource", "monitor",
            "critical_section", "exception_state", "jnienv_state",
            "fixed_typing", "entity_typing", "nullness", "access_control",
        }

    def test_pyc_faults_cover_every_pyc_machine(self):
        covered = {f.machine for f in faults_for("pyc")}
        assert covered == {
            "owned_ref", "borrowed_ref", "gil_state",
            "py_exception_state", "py_fixed_typing",
        }


def _fuzz_report(seed, **kwargs):
    report, _ = fleet_fuzz(seed, workers=0, **kwargs)
    return report


class TestFuzzLoop:
    def test_report_is_bit_reproducible_and_gate_passes(self):
        first = _fuzz_report(2026, rounds=1, substrate="pyc")
        second = _fuzz_report(2026, rounds=1, substrate="pyc")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert fuzz_gate(first) == []

    def test_gate_flags_missed_detection_and_divergence(self):
        report = _fuzz_report(2026, rounds=1, substrate="pyc")
        report["faults"]["over_decref"]["detected"] = 0
        report["faults"]["under_decref"]["divergences"] = 1
        report["valid"]["violations"] = 2
        failures = fuzz_gate(report)
        assert any("over_decref" in f for f in failures)
        assert any("under_decref" in f for f in failures)
        assert any("valid sequences produced" in f for f in failures)

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError):
            _fuzz_report(1, substrate="jvm")
