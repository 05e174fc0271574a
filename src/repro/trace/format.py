"""The versioned JSONL trace schema and its value codec.

A trace file is one JSON object per line.  The first line is the
header; every following line is a compact JSON array whose first
element is the record kind:

``["k", name, super, ifaces, methods, fields, class_object_id]``
    a class known to the recorded VM, in definition order (methods are
    ``[name, descriptor, is_static, is_native]``, fields are
    ``[name, descriptor, is_static, is_final]``);
``["t", thread_id, name, env_token]``
    a thread attach (JNI only);
``["c", seq, function, is_native, ctx, args]``
    a call crossing (``Call:C->Java`` for FFI functions,
    ``Call:Java->C`` when ``is_native``);
``["r", seq, call_seq, function, is_native, ctx, args, result]``
    the matching return crossing (``call_seq`` pairs it with its call);
``["v", report]``
    a violation the live checker reported (metadata — replay re-detects
    violations, it never trusts these);
``["e", sync]``
    host termination: ``sync`` lists each interned object's final
    mutable state, so the leak sweep sees end-of-run truth.

``ctx`` is the host state the machines may consult at the crossing:
``[thread_id, env_token, pending_exception]`` for JNI,
``[current_thread, gil_holder, exc_info]`` for Python/C.

Values use a tagged encoding.  Scalars are themselves; containers are
``["T"|"L", items]`` (tuple/list); an opaque host value is
``["X", type_name]``.  A model object is interned: its first occurrence
is ``["O", token, kind, static, mut]`` carrying the immutable fields
and the event-time mutable fields; every later occurrence is
``["U", token, mut]``, refreshing only the mutable fields.  The decoder
rebuilds *real* model instances (``JRef``, ``JObject``, ``PyObj``, ...)
so the machine encodings run unchanged against replayed events.

The header pins the trace to a specification: it records
:meth:`repro.fsm.registry.SpecRegistry.fingerprint`, and
:func:`require_fingerprint` refuses to replay against a registry with a
different fingerprint unless forced.
"""

from __future__ import annotations

import json
import json.encoder
from typing import Dict, Iterator, List, Optional, Tuple

#: Bump on any incompatible schema change.
TRACE_VERSION = 1

#: Object-snapshot kinds.
KIND_REF = "ref"
KIND_OBJ = "obj"
KIND_STR = "str"
KIND_ARR = "arr"
KIND_THR = "thr"
KIND_MID = "mid"
KIND_FID = "fid"
KIND_BUF = "buf"
KIND_PYO = "pyo"


class TraceFormatError(Exception):
    """The trace file is not a readable trace of this version."""


class TraceFingerprintError(TraceFormatError):
    """The trace was recorded against a different specification."""


def make_header(
    *,
    substrate: str,
    fingerprint: str,
    termination_site: str,
    local_frame_capacity: Optional[int] = None,
    workload: Optional[str] = None,
) -> Dict[str, object]:
    header: Dict[str, object] = {
        "jinn_trace": TRACE_VERSION,
        "substrate": substrate,
        "fingerprint": fingerprint,
        "termination_site": termination_site,
    }
    if local_frame_capacity is not None:
        header["local_frame_capacity"] = local_frame_capacity
    if workload is not None:
        header["workload"] = workload
    return header


def parse_header(line: str) -> Dict[str, object]:
    try:
        header = json.loads(line)
    except ValueError:
        raise TraceFormatError("trace header is not valid JSON")
    if not isinstance(header, dict) or "jinn_trace" not in header:
        raise TraceFormatError("not a trace file (missing header)")
    if header["jinn_trace"] != TRACE_VERSION:
        raise TraceFormatError(
            "trace version {} is not the supported version {}".format(
                header["jinn_trace"], TRACE_VERSION
            )
        )
    return header


def require_fingerprint(header: Dict[str, object], registry, force: bool = False) -> None:
    """Refuse to replay a trace against a mismatched specification.

    The machines' behaviour is a function of the full spec identity; a
    trace recorded under different specs has no parity guarantee.
    ``force`` overrides — useful when diffing checker versions, which is
    precisely a deliberate spec mismatch.
    """
    recorded = header.get("fingerprint")
    current = registry.fingerprint()
    if recorded != current and not force:
        raise TraceFingerprintError(
            "trace was recorded against specification fingerprint {} but "
            "the replay registry has fingerprint {}; pass force=True "
            "(--force) to replay anyway".format(recorded, current)
        )


def _record_dumper(make_encoder):
    """``record -> compact JSON``, with one encoder bound for good.

    ``json.dumps(record, separators=(",", ":"))`` builds a new encoder
    per call.  This binds one C encoder (``make_encoder`` is
    ``json.encoder.c_make_encoder``) with the arguments that call would
    pass it, less the circular-reference check (records are trees), or
    falls back to one shared :class:`json.JSONEncoder` when the C
    accelerator is missing.  Same bytes either way.
    """
    shared = json.JSONEncoder(separators=(",", ":"))
    if make_encoder is None:
        return shared.encode
    encode = make_encoder(
        None,  # markers: no circular-reference check
        shared.default,
        json.encoder.encode_basestring_ascii,
        None,  # indent
        ":",
        ",",
        False,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )

    def dump_record(record) -> str:
        return "".join(encode(record, 0))

    return dump_record


#: One trace record (or header) as one compact JSON line.
dump_record = _record_dumper(json.encoder.c_make_encoder)


def write_trace(path: str, header: Dict[str, object], records) -> int:
    """Write a complete trace file; returns the record count."""
    count = 0
    with open(path, "w") as f:
        f.write(dump_record(header))
        f.write("\n")
        for record in records:
            f.write(dump_record(record))
            f.write("\n")
            count += 1
    return count


def _parse_batch(batch, is_tail, on_torn) -> List[list]:
    """Parse a batch of (line_no, line) pairs, torn-tail tolerant.

    The fast path joins the lines into one JSON array.  When that
    fails the batch is re-parsed line by line to locate the damage: an
    unparsable *final* line of the file is a torn write — an interpreter
    died mid-``write`` — and is reported through ``on_torn`` and
    dropped; an unparsable line with records after it is mid-file
    corruption and raises :class:`TraceFormatError`.
    """
    loads = json.loads
    try:
        return loads("[" + ",".join(line for _, line in batch) + "]")
    except ValueError:
        out: List[list] = []
        last = len(batch) - 1
        for i, (line_no, line) in enumerate(batch):
            try:
                out.append(loads(line))
            except ValueError:
                if is_tail and i == last:
                    if on_torn is not None:
                        on_torn(line_no, line)
                    return out
                raise TraceFormatError(
                    "corrupt trace record at line {}".format(line_no)
                )
        return out


def read_trace(path: str, *, on_torn=None) -> Tuple[Dict[str, object], List[list]]:
    """Read a whole trace into memory: (header, records).

    A torn final line (truncated by a crash mid-write) is dropped after
    notifying ``on_torn(line_no, line)``; corruption anywhere else
    raises :class:`TraceFormatError`.
    """
    with open(path) as f:
        first = f.readline()
        if not first:
            raise TraceFormatError("empty trace file: " + path)
        header = parse_header(first)
        raw = [
            (line_no, line)
            for line_no, line in enumerate(f, start=2)
            if line.strip()
        ]
    records = _parse_batch(raw, True, on_torn) if raw else []
    return header, records


def iter_batches(
    path: str, batch_size: int = 4096, *, on_torn=None
) -> Iterator[List[list]]:
    """Decode a trace's records in batches (header line skipped).

    Each batch is parsed with *one* ``json.loads`` call — the lines are
    joined into a JSON array — so large corpus traces pay C-level parse
    cost per batch, not per line, without holding the whole file.
    Torn-tail handling matches :func:`read_trace`: the reader keeps a
    one-line lookahead so only the file's true final line may be
    forgiven.
    """
    with open(path) as f:
        first = f.readline()
        if not first:
            raise TraceFormatError("empty trace file: " + path)
        parse_header(first)
        lines: List[Tuple[int, str]] = []
        held: Optional[Tuple[int, str]] = None
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            if held is not None:
                lines.append(held)
                if len(lines) >= batch_size:
                    # More lines follow, so this batch cannot hold the
                    # file's final line: is_tail is False.
                    yield _parse_batch(lines, False, on_torn)
                    lines = []
            held = (line_no, line)
        if held is not None:
            lines.append(held)
        if lines:
            yield _parse_batch(lines, True, on_torn)
