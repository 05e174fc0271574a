"""Violation triage: deduplication and clustering with stable IDs.

A million-crossing run that trips one buggy call site reports the same
violation thousands of times.  Operators need *incidents*, not a raw
stream: this module folds violations into clusters keyed on

    (machine, error state, transition fingerprint)

where the transition fingerprint is the violation's message template —
entity identifiers (decimal runs, hex addresses) scrubbed — plus the
function at whose boundary it fired.  The cluster ID is a content hash
of that key, so it is stable across runs, processes, and ingestion
order: the same bug always lands in the same cluster, which is what
makes "duplicate of a known bug" a set-membership test.

First-seen/last-seen are ingestion sequence numbers (never wall-clock),
so triage output stays deterministic for deterministic workloads.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional

from repro.fsm.errors import FFIViolation

#: Entity identifiers scrubbed from messages before fingerprinting.
#: One pass with hex first in the alternation, so hex digits never
#: scrub as decimal runs and the ``0x#`` placeholder is never rescanned.
_ENTITY = re.compile(r"0x[0-9a-fA-F]+|\d+")

#: ``FFIViolation.report()`` shape, for ingesting report *lines* (fleet
#: workers ship violations as strings across the process boundary).
_REPORT = re.compile(
    r"^(?P<message>.*) \[machine=(?P<machine>[^,\]]+), "
    r"state=(?P<state>[^\]]+)\](?: in (?P<function>.+))?$"
)


def fingerprint_message(message: str) -> str:
    """The violation message with entity identities scrubbed."""
    return _ENTITY.sub(
        lambda m: "0x#" if m.group().startswith("0x") else "#", message
    )


def cluster_id(machine: str, error_state: str, fingerprint: str) -> str:
    """Stable content-hash ID for one (machine, state, template) key."""
    digest = hashlib.sha1(
        "{}|{}|{}".format(machine, error_state, fingerprint).encode("utf-8")
    )
    return digest.hexdigest()[:12]


class Cluster:
    """One deduplicated incident."""

    __slots__ = (
        "id",
        "machine",
        "error_state",
        "fingerprint",
        "example",
        "functions",
        "count",
        "first_seen",
        "last_seen",
    )

    def __init__(
        self,
        cid: str,
        machine: str,
        error_state: str,
        fingerprint: str,
        example: str,
        seq: int,
    ):
        self.id = cid
        self.machine = machine
        self.error_state = error_state
        self.fingerprint = fingerprint
        #: The first raw message seen — one concrete instance per cluster.
        self.example = example
        self.functions: Dict[str, int] = {}
        self.count = 0
        self.first_seen = seq
        self.last_seen = seq

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "machine": self.machine,
            "error_state": self.error_state,
            "fingerprint": self.fingerprint,
            "example": self.example,
            "functions": {k: self.functions[k] for k in sorted(self.functions)},
            "count": self.count,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }


class ViolationTriage:
    """Streaming violation deduplicator."""

    def __init__(self):
        self.clusters: Dict[str, Cluster] = {}
        self._seq = 0

    # -- ingestion -------------------------------------------------------

    def ingest(
        self,
        *,
        machine: str,
        error_state: str,
        message: str,
        function: Optional[str] = None,
    ) -> str:
        """Fold one violation into its cluster; returns the cluster ID."""
        seq = self._seq
        self._seq += 1
        fingerprint = fingerprint_message(message)
        cid = cluster_id(machine, error_state, fingerprint)
        cluster = self.clusters.get(cid)
        if cluster is None:
            cluster = Cluster(
                cid, machine, error_state, fingerprint, message, seq
            )
            self.clusters[cid] = cluster
        cluster.count += 1
        cluster.last_seen = seq
        key = function if function else "<unknown>"
        cluster.functions[key] = cluster.functions.get(key, 0) + 1
        return cid

    def ingest_violation(self, violation: FFIViolation) -> str:
        return self.ingest(
            machine=violation.machine,
            error_state=violation.error_state,
            message=str(violation.args[0]),
            function=violation.function,
        )

    def ingest_report_line(self, line: str) -> str:
        """Ingest one ``FFIViolation.report()``-shaped string.

        Lines that do not parse still cluster (machine ``<unparsed>``),
        so merged incident counts always add up.
        """
        match = _REPORT.match(line)
        if match is None:
            return self.ingest(
                machine="<unparsed>", error_state="<unparsed>", message=line
            )
        return self.ingest(
            machine=match.group("machine"),
            error_state=match.group("state"),
            message=match.group("message"),
            function=match.group("function"),
        )

    # -- reporting -------------------------------------------------------

    @property
    def total(self) -> int:
        return self._seq

    def top(self, n: int = 10) -> List[Cluster]:
        """The ``n`` largest clusters (count desc, ID as tiebreak)."""
        ranked = sorted(
            self.clusters.values(), key=lambda c: (-c.count, c.id)
        )
        return ranked[:n]

    def snapshot(self) -> Dict[str, object]:
        """Deterministic cluster table, sorted by cluster ID."""
        return {
            "total": self._seq,
            "unique": len(self.clusters),
            "clusters": [
                self.clusters[cid].to_json()
                for cid in sorted(self.clusters)
            ],
        }

    def reset(self) -> None:
        self.clusters.clear()
        self._seq = 0
