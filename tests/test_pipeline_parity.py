"""The one checked call path against pinned golden output.

``JinnAgent`` and ``PyCChecker`` install one fused entry per crossing.
Every test here runs fixed inputs through that path and compares the
violation streams, replay results and recorded trace lines with data
pinned on disk:

- the fuzz corpus cases compare with ``tests/data/fuzz_corpus/``: the
  manifest's ``violations`` and the bodies of the shipped ``.trace``
  files;
- every other case compares with ``tests/data/pipeline_golden.json``.

The golden file was written by :func:`write_golden` while the historic
nested closure stack (recorder proxy over governor proxy over wrapper
over raw) still existed, after checking that the nested stack produced
the same output for every case.  Traces are pinned as SHA-256 digests
of their normalized lines; reports and chaos reports are stored
verbatim so a failure shows a readable diff.

Trace lines need one normalization on JNI: the recorded ``env_token``
is ``id(env)``, a memory address that differs between runs.  Tokens are
remapped first-seen → ordinal before comparing or hashing; everything
else must match byte for byte.
"""

import hashlib
import json
import os

import pytest

from repro.core.runtime import ContainmentPolicy
from repro.fuzz import FAULTS
from repro.fuzz.engine import run_ops, task_rng
from repro.fuzz.gen import generate_sequence
from repro.fuzz.ops import run_jni_ops, run_pyc_ops
from repro.resilience import GovernorPolicy, OverheadGovernor, chaos_run
from repro.trace import TraceRecorder, diff_reports, replay_lines

DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS_DIR = os.path.join(DATA, "fuzz_corpus")
GOLDEN_PATH = os.path.join(DATA, "pipeline_golden.json")
SUBSTRATES = ("jni", "pyc")


def normalized_lines(lines, substrate):
    """Trace lines with JNI env address tokens remapped to ordinals."""
    if substrate != "jni":
        return list(lines)
    env_ids = {}

    def remap(token):
        if token not in env_ids:
            env_ids[token] = len(env_ids)
        return env_ids[token]

    out = []
    for line in lines:
        record = json.loads(line)
        if not isinstance(record, list):
            out.append(line)  # the header object
            continue
        kind = record[0]
        if kind == "t":
            record[3] = remap(record[3])
        elif kind == "c":
            record[4][1] = remap(record[4][1])
        elif kind == "r":
            record[5][1] = remap(record[5][1])
        out.append(json.dumps(record))
    return out


def trace_digest(lines, substrate):
    """SHA-256 of a trace's normalized lines."""
    text = "\n".join(normalized_lines(lines, substrate))
    return hashlib.sha256(text.encode()).hexdigest()


def _runner(substrate):
    return run_pyc_ops if substrate == "pyc" else run_jni_ops


def _first_fault_ops(substrate, tag):
    fault = next(f for f in FAULTS if f.substrate == substrate)
    base = generate_sequence(task_rng(2026, tag, substrate), substrate)
    return fault.inject(task_rng(2026, tag), base).ops


def _execution(substrate, ops, governor=None):
    """Live run under a recorder (and ``governor``), then replay of its
    own trace."""
    recorder = TraceRecorder()
    live = _runner(substrate)(ops, observer=recorder, governor=governor)
    recorder.close()
    replay = replay_lines(recorder.lines)
    return {
        "outcome": live.outcome,
        "reports": live.reports,
        "diff": diff_reports(live.reports, replay.violations),
        "event_count": replay.event_count,
        "trace_sha256": trace_digest(recorder.lines, substrate),
    }


def _valid_case(substrate):
    sequence = generate_sequence(
        task_rng(2026, "pipeline-parity", substrate), substrate
    )
    return _execution(substrate, sequence.ops)


def _fault_case(fault, governor=None):
    base = generate_sequence(
        task_rng(2026, "pipeline-fault", fault.name), fault.substrate
    )
    injected = fault.inject(task_rng(2026, "pipeline-inject", fault.name), base)
    return _execution(fault.substrate, injected.ops, governor)


def _full_stack_case(substrate):
    """Recorder + governor + containment all attached at once."""
    recorder = TraceRecorder()
    outcome = _runner(substrate)(
        _first_fault_ops(substrate, "pipeline-stack"),
        observer=recorder,
        governor=OverheadGovernor(GovernorPolicy(budget=1.0)),
        containment=ContainmentPolicy(),
    )
    recorder.close()
    return {
        "outcome": outcome.outcome,
        "reports": outcome.reports,
        "trace_sha256": trace_digest(recorder.lines, substrate),
    }


def _fault_id(fault):
    return "{}-{}".format(fault.substrate, fault.name)


def golden_cases():
    """Every pinned case: golden key -> zero-argument producer."""
    cases = {}
    for substrate in SUBSTRATES:
        cases["valid/" + substrate] = lambda s=substrate: _valid_case(s)
        cases["chaos/" + substrate] = lambda s=substrate: chaos_run(
            3, substrate=s
        )
        cases["stack/" + substrate] = lambda s=substrate: _full_stack_case(s)
    for fault in FAULTS:
        cases["fault/" + _fault_id(fault)] = lambda f=fault: _fault_case(f)
    return cases


def plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def golden_outputs():
    """The current output of every pinned case, keyed like the file."""
    return {
        key: plain(produce()) for key, produce in sorted(golden_cases().items())
    }


def write_golden(path=GOLDEN_PATH):
    """Regenerate the golden file from the current call path.

    Only for a deliberate change of checked behaviour; review the diff
    of the written file like any other behaviour change.
    """
    with open(path, "w") as f:
        json.dump(golden_outputs(), f, indent=1, sort_keys=True)
        f.write("\n")


with open(GOLDEN_PATH) as _f:
    GOLDEN = json.load(_f)


def _golden_reports(value):
    """Every report string pinned anywhere in a golden entry."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "reports":
                yield from item
            else:
                yield from _golden_reports(item)
    elif isinstance(value, list):
        for item in value:
            yield from _golden_reports(item)


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_golden_reports_cover_every_error_state(substrate):
    """Each spec error state is reached by some pinned case.

    The golden file is the emitter's cross-check: a checker whose
    generated code stopped reaching an error state fails the case that
    pins it.  A spec that gains an error state needs a case here.
    """
    from repro.jinn.machines import build_registry
    from repro.pyc.machines import build_pyc_registry

    registry = build_pyc_registry() if substrate == "pyc" else build_registry()
    reports = "\n".join(_golden_reports(GOLDEN))
    missing = [
        (spec.name, state.name)
        for spec in registry
        for state in spec.error_states()
        if "[machine={}, state={}]".format(spec.name, state.name)
        not in reports
    ]
    assert missing == []


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_valid_sequence_parity(substrate):
    result = plain(_valid_case(substrate))
    assert result == GOLDEN["valid/" + substrate]
    assert result["reports"] == []  # valid sequences stay clean


def _corpus_entries():
    with open(os.path.join(CORPUS_DIR, "manifest.json")) as f:
        return json.load(f)["entries"]


@pytest.mark.parametrize("entry", _corpus_entries(), ids=lambda e: e["name"])
def test_fuzz_corpus_parity(entry):
    """Every minimized corpus slice reproduces its pinned stream and trace."""
    substrate = entry["substrate"]
    result = run_ops(substrate, [tuple(op) for op in entry["ops"]])
    assert result.live.reports == entry["violations"]
    assert result.replay_reports == entry["violations"]
    assert result.event_count == entry["events"]
    with open(os.path.join(CORPUS_DIR, entry["trace"])) as f:
        shipped = normalized_lines(f.read().splitlines(), substrate)
    live = normalized_lines(result.trace_lines, substrate)
    # The header names the recording workload; everything else matches.
    header, shipped_header = json.loads(live[0]), json.loads(shipped[0])
    header.pop("workload", None)
    shipped_header.pop("workload", None)
    assert header == shipped_header
    assert live[1:] == shipped[1:]


@pytest.mark.parametrize("fault,governed", [
    pytest.param(fault, governed, id=_fault_id(fault) + suffix)
    for fault in FAULTS
    for governed, suffix in ((False, ""), (True, "-governed"))
])
def test_injected_fault_parity(fault, governed):
    """Freshly injected fault sequences, not just the frozen corpus.

    A governed run meters every crossing and checks every one, so it
    matches the same pinned entry as the plain run.
    """
    governor = OverheadGovernor() if governed else None
    result = plain(_fault_case(fault, governor))
    assert result == GOLDEN["fault/" + _fault_id(fault)]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_chaos_report_parity(substrate):
    """Internal checker faults contain exactly as pinned."""
    report = plain(chaos_run(3, substrate=substrate))
    assert report == GOLDEN["chaos/" + substrate]
    assert report["machines_quarantined"] > 0  # the scenario bites


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_full_stack_parity(substrate):
    assert plain(_full_stack_case(substrate)) == GOLDEN["stack/" + substrate]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_telemetry_tap_parity(substrate):
    """Fusing the telemetry tap in changes no violation or trace byte.

    Same fault-injected sequence through the fused pipeline with a full
    :class:`~repro.obs.hub.ObsHub` attached and with telemetry off; the
    tap may only *watch* — outcomes, reports, and recorded trace lines
    must match byte for byte, while the hub itself must have seen every
    crossing and clustered the violations.
    """
    from repro.obs import ObsHub

    ops = _first_fault_ops(substrate, "pipeline-telemetry")
    hub = ObsHub()
    lines = {}
    outcomes = {}
    for label, telemetry in (("off", None), ("on", hub)):
        recorder = TraceRecorder()
        outcomes[label] = _runner(substrate)(
            ops, observer=recorder, telemetry=telemetry
        )
        recorder.close()
        lines[label] = normalized_lines(recorder.lines, substrate)
    assert outcomes["on"].outcome == outcomes["off"].outcome
    assert outcomes["on"].reports == outcomes["off"].reports
    assert lines["on"] == lines["off"]
    # The tap was not inert: every crossing counted, violations triaged.
    summary = hub.summary()
    assert summary["crossings"] > 0
    assert len(outcomes["on"].reports) >= 1  # the fault still detects
    assert summary["violation_clusters"] >= 1
