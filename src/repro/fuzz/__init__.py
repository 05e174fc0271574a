"""Spec-driven FFI fuzzing, fault injection, and repro minimization.

The eleven JNI machines and five Python/C machines are passive oracles:
they judge whatever a program does at the FFI boundary.  This package
turns them into *active* test generators, closing the loop the paper
leaves open (it evaluates Jinn only against hand-seeded bugs):

- :mod:`repro.fuzz.gen` derives random-but-valid call-sequence
  generators from the registered state-machine specs, walking each
  machine's :class:`repro.fsm.TransitionGraph`;
- :mod:`repro.fuzz.ops` gives sequences a portable representation (flat
  JSON-serializable op tuples) and interprets them over the real
  ``repro.jvm`` and ``repro.pyc`` substrates;
- :mod:`repro.fuzz.faults` injects bugs via mutation operators (drop a
  ``DeleteLocalRef``, swap a jclass for a jobject, call across threads,
  leak a pinned buffer, over/under-decref, ...), each tagged with the
  machine expected to fire;
- :mod:`repro.fuzz.engine` holds the seeded, reproducible campaign
  slices that cross-check live detection against :mod:`repro.trace`
  replay — any divergence between the two checkers is itself a bug —
  and the report they fold into; :func:`repro.fleet.fleet_fuzz` runs
  them;
- :mod:`repro.fuzz.shrink` reduces a failing sequence to a minimal
  failure slice with delta debugging, preserving the violation
  fingerprint;
- :mod:`repro.fuzz.corpus` persists minimized slices as replayable
  traces in a regression corpus.
"""

from repro.fuzz.engine import fuzz_gate, run_ops, task_rng
from repro.fuzz.faults import FAULTS, fault_by_name, faults_for
from repro.fuzz.gen import generate_sequence, generator_machines
from repro.fuzz.ops import FuzzSequence, run_jni_ops, run_pyc_ops
from repro.fuzz.shrink import (
    failure_fingerprint,
    fingerprint_of_report,
    shrink,
    shrink_fault,
)

__all__ = [
    "FAULTS",
    "FuzzSequence",
    "failure_fingerprint",
    "fault_by_name",
    "faults_for",
    "fingerprint_of_report",
    "fuzz_gate",
    "generate_sequence",
    "generator_machines",
    "run_jni_ops",
    "run_ops",
    "run_pyc_ops",
    "shrink",
    "shrink_fault",
    "task_rng",
]
