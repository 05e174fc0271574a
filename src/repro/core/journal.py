"""The shared length-prefixed journal format.

The repo's one crash-safe append-only file, the trace journal
(:class:`repro.trace.recorder.JournalWriter`), writes this record
framing, and recovery decodes it through :func:`scan_journal` here.

Every record is ``"<byte_len> <crc32:08x> <json>\\n"``: the CRC32 of
the payload bytes sits between the length prefix and the payload, so a
bit flipped anywhere in a record is *detected* instead of silently
decoded.  A record without that checksum token fails to parse like any
other damaged record.

Damage classification (the part callers differ on) is mechanical: when
a record fails to parse, the scanner resynchronises on newlines and
looks for any later valid record.

- none found → **torn tail**: an append was cut mid-record (SIGKILL,
  short write, power loss).  Callers warn and truncate — everything
  before the tear is exactly what a clean close would have written.
- found → **mid-file corruption**: bytes *between* valid records were
  damaged in place (bit rot, bad sector).  That is not truncation and
  no prefix of the file is trustworthy past the damage; callers must
  fail loudly (quarantine the file, raise), never silently skip.

A checksum mismatch on the *final* record with nothing valid after it
is indistinguishable from a torn write and classified torn: truncating
it loses at most one unsynced record, which is the journal contract.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Longest plausible "<digits> " length prefix (matches the historic
#: scanner's bound; a journal record is never petabytes).
_PREFIX_SPAN = 20


def crc32_hex(payload: bytes) -> str:
    """Lowercase 8-hex-digit CRC32 of ``payload``."""
    return "{:08x}".format(zlib.crc32(payload) & 0xFFFFFFFF)


def encode_record(json_line: str) -> str:
    """Frame one JSON line as a checksummed journal record."""
    payload = json_line.encode("utf-8")
    return "{} {} {}\n".format(len(payload), crc32_hex(payload), json_line)


@dataclass
class JournalScan:
    """Everything :func:`scan_journal` learned about one file."""

    #: Decoded record payloads, in file order, up to the first damage.
    lines: List[str] = field(default_factory=list)
    #: Bytes from the first damaged record to end of file (0 = clean).
    dropped_bytes: int = 0
    #: Byte offset of mid-file damage, or None for clean/torn files.
    corrupt_offset: Optional[int] = None
    #: Human-readable reason the damaged record failed to parse.
    corrupt_detail: Optional[str] = None

    @property
    def corrupt(self) -> bool:
        """True when the damage is mid-file corruption, not a torn tail."""
        return self.corrupt_offset is not None


def _parse_record_at(
    data: bytes, pos: int, size: int
) -> Tuple[Optional[str], int, str]:
    """Try to decode one record at ``pos``.

    Returns ``(text, next_pos, "")`` on success or ``(None, pos,
    reason)`` on failure.
    """
    space = data.find(b" ", pos, pos + _PREFIX_SPAN)
    if space < 0:
        return None, pos, "no length prefix"
    try:
        length = int(data[pos:space])
    except ValueError:
        return None, pos, "invalid length prefix"
    if length < 0:
        return None, pos, "negative length prefix"
    start = space + 1
    token = data[start : start + 8]
    if data[start + 8 : start + 9] != b" " or not all(
        c in b"0123456789abcdef" for c in token
    ):
        return None, pos, "missing checksum"
    crc = int(token, 16)
    start += 9
    end = start + length
    if end + 1 > size:
        return None, pos, "record extends past end of file"
    if data[end : end + 1] != b"\n":
        return None, pos, "missing record terminator"
    payload = data[start:end]
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        return None, pos, "checksum mismatch"
    try:
        text = payload.decode("utf-8")
        json.loads(text)
    except (UnicodeDecodeError, ValueError):
        return None, pos, "payload is not valid JSON"
    return text, end + 1, ""


def _valid_record_after(data: bytes, pos: int, size: int) -> bool:
    """Resync on newlines past ``pos``: does any later record parse?"""
    nl = data.find(b"\n", pos)
    while 0 <= nl < size - 1:
        text, _, _ = _parse_record_at(data, nl + 1, size)
        if text is not None:
            return True
        nl = data.find(b"\n", nl + 1)
    return False


def scan_journal(data: bytes) -> JournalScan:
    """Byte-exact scan of journal bytes with damage classification.

    A record is kept only when its length prefix parses, its checksum
    token is present and matches the CRC32 of the payload, the payload
    is exactly that many bytes of valid JSON, and the terminator is
    present.  The scan stops at the first damage and classifies it (see
    module docstring): torn tail (``dropped_bytes`` > 0,
    ``corrupt_offset`` None) versus mid-file corruption
    (``corrupt_offset`` set).
    """
    scan = JournalScan()
    pos = 0
    size = len(data)
    while pos < size:
        text, next_pos, reason = _parse_record_at(data, pos, size)
        if text is None:
            scan.dropped_bytes = size - pos
            if _valid_record_after(data, pos, size):
                scan.corrupt_offset = pos
                scan.corrupt_detail = reason
            return scan
        scan.lines.append(text)
        pos = next_pos
    return scan
