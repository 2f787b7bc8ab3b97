"""Snapshot / journal-shipping frame codec.

Everything replication moves between systems — full snapshots, delta
snapshots, shipped journal batches, acks — travels as a *framed byte
stream*: a sequence of self-describing, individually-checksummed chunks.
The framing is deliberately paranoid because the replica's contract is
"refuse and re-fetch, never apply silently": a single flipped bit or a
stream cut short anywhere must surface as a typed
:class:`~repro.common.errors.SnapshotFrameError` before *any* frame past
the damage is applied.

Frame layout (all integers big-endian)::

    magic   4 bytes   b"CKIN"
    version 2 bytes   FRAME_VERSION
    kind    1 byte    frame kind (see KIND_*)
    seq     4 bytes   frame index within the stream (0-based)
    length  4 bytes   payload length in bytes
    crc     4 bytes   CRC-32 of the payload
    payload N bytes   canonical JSON (sorted keys, no whitespace)

A stream is ``BEGIN`` + zero or more ``CHUNK`` frames + ``END``.  The
``BEGIN`` payload describes the stream (snapshot kind, epoch, base
epoch for deltas, record count); the ``END`` payload carries the total
record count and a CRC-32 over every chunk payload, so a stream with a
*whole frame* chopped off is caught even though each surviving frame
verifies individually.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, Tuple

from repro.common.errors import CorruptFrameError, TruncatedFrameError

MAGIC = b"CKIN"
FRAME_VERSION = 1

KIND_BEGIN = 0
KIND_CHUNK = 1
KIND_END = 2

_HEADER = struct.Struct(">4sHBII I".replace(" ", ""))
HEADER_BYTES = _HEADER.size

DEFAULT_CHUNK_RECORDS = 256
"""Records per CHUNK frame when encoding a snapshot stream."""


def _canon(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


def encode_frame(kind: int, seq: int, payload: Any) -> bytes:
    """One framed payload: header + canonical-JSON body."""
    body = _canon(payload)
    return _HEADER.pack(MAGIC, FRAME_VERSION, kind, seq, len(body),
                        zlib.crc32(body)) + body


def decode_frame(data: bytes, offset: int = 0) -> Tuple[int, int, Any, int]:
    """Decode one frame at ``offset``; returns (kind, seq, payload, next).

    Raises :class:`TruncatedFrameError` when the buffer ends inside the
    header or the body, :class:`CorruptFrameError` when the magic,
    version or CRC does not verify.
    """
    if offset + HEADER_BYTES > len(data):
        raise TruncatedFrameError(
            f"stream ends inside a frame header at byte {offset} "
            f"({len(data) - offset} of {HEADER_BYTES} header bytes)")
    magic, version, kind, seq, length, crc = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise CorruptFrameError(
            f"bad frame magic {magic!r} at byte {offset}")
    if version != FRAME_VERSION:
        raise CorruptFrameError(
            f"unsupported frame version {version} at byte {offset}")
    if kind not in (KIND_BEGIN, KIND_CHUNK, KIND_END):
        raise CorruptFrameError(f"unknown frame kind {kind} at byte {offset}")
    body_start = offset + HEADER_BYTES
    body_end = body_start + length
    if body_end > len(data):
        raise TruncatedFrameError(
            f"stream ends inside frame {seq}'s body at byte {len(data)} "
            f"(frame needs {body_end})")
    body = data[body_start:body_end]
    if zlib.crc32(body) != crc:
        raise CorruptFrameError(
            f"CRC mismatch in frame {seq} (kind {kind}) at byte {offset}")
    try:
        payload = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFrameError(
            f"frame {seq} payload is not canonical JSON: {exc}") from exc
    return kind, seq, payload, body_end


def encode_stream(meta: Dict[str, Any], records: List[Any],
                  chunk_records: int = DEFAULT_CHUNK_RECORDS) -> bytes:
    """Frame ``records`` as BEGIN(meta) + CHUNKs + END."""
    if chunk_records < 1:
        chunk_records = 1
    frames = [encode_frame(KIND_BEGIN, 0, dict(meta, records=len(records)))]
    seq = 1
    body_crc = 0
    for start in range(0, len(records), chunk_records):
        chunk = records[start:start + chunk_records]
        body = _canon(chunk)
        body_crc = zlib.crc32(body, body_crc)
        frames.append(_HEADER.pack(MAGIC, FRAME_VERSION, KIND_CHUNK, seq,
                                   len(body), zlib.crc32(body)) + body)
        seq += 1
    frames.append(encode_frame(KIND_END, seq,
                               {"records": len(records),
                                "stream_crc": body_crc}))
    return b"".join(frames)


def decode_stream(data: bytes) -> Tuple[Dict[str, Any], List[Any]]:
    """Validate a whole stream; returns (meta, records).

    Every frame must verify, sequence numbers must be contiguous, the
    stream must terminate with an END frame whose record count and
    running CRC match what was actually decoded.
    """
    offset = 0
    meta: Dict[str, Any] = {}
    records: List[Any] = []
    expected_seq = 0
    body_crc = 0
    saw_begin = False
    while True:
        if offset == len(data):
            raise TruncatedFrameError(
                "stream ended without an END frame")
        kind, seq, payload, next_offset = decode_frame(data, offset)
        if seq != expected_seq:
            raise CorruptFrameError(
                f"frame sequence break: expected {expected_seq}, got {seq}")
        if expected_seq == 0:
            if kind != KIND_BEGIN:
                raise CorruptFrameError(
                    f"stream does not start with a BEGIN frame (kind {kind})")
            meta = payload
            saw_begin = True
        elif kind == KIND_CHUNK:
            body_crc = zlib.crc32(data[offset + HEADER_BYTES:next_offset],
                                  body_crc)
            records.extend(payload)
        elif kind == KIND_END:
            if payload.get("records") != len(records):
                raise CorruptFrameError(
                    f"END frame promises {payload.get('records')} records, "
                    f"stream carried {len(records)}")
            if payload.get("stream_crc") != body_crc:
                raise CorruptFrameError(
                    "stream CRC mismatch: a chunk frame is missing or "
                    "reordered")
            if next_offset != len(data):
                raise CorruptFrameError(
                    f"{len(data) - next_offset} trailing bytes after the "
                    "END frame")
            break
        else:
            raise CorruptFrameError(
                f"unexpected BEGIN frame at sequence {seq}")
        expected_seq += 1
        offset = next_offset
    if not saw_begin or meta.get("records") != len(records):
        raise CorruptFrameError(
            f"BEGIN frame promises {meta.get('records')} records, "
            f"stream carried {len(records)}")
    return meta, records


def flip_bit(data: bytes, bit_index: int) -> bytes:
    """Return ``data`` with one bit flipped (corruption-injection helper)."""
    byte_index = (bit_index // 8) % max(1, len(data))
    mask = 1 << (bit_index % 8)
    mutated = bytearray(data)
    mutated[byte_index] ^= mask
    return bytes(mutated)
