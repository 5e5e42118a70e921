"""Durable wire format: canonical value encoding, CRC frames,
fingerprints.

The journal's :class:`~repro.durability.journal.StorageMedium` stores
*bytes*, not Python objects, so a journal entry survives exactly what a
real fsync'd log file would survive — and is damaged by exactly what
damages one (torn tails, flipped bits).  This module owns the format:

- **Canonical value encoding** (``encode_value``/``decode_value``): a
  tagged, length-prefixed binary encoding of the JSON-ish values the
  docstore holds, plus tuples and bytes.  It is *canonical*: the same
  value always encodes to the same bytes (dicts keep insertion order,
  ints are minimal big-endian, floats are raw IEEE-754), so a byte
  digest of an encoding is a usable state fingerprint.  It is *exact*:
  decode(encode(v)) reproduces types and order bit-for-bit — tuples
  stay tuples, which JSON would silently listify and thereby change
  replayed state.
- **Framing** (``frame``/``read_frame``): ``MAGIC | length | crc32 |
  body``.  ``read_frame`` never raises on bad bytes — it classifies
  them (:data:`FRAME_OK`, :data:`FRAME_TORN`, :data:`FRAME_CORRUPT`)
  so the recovery scan in :mod:`repro.durability.recovery` can decide
  policy per damage class.
- **Fingerprints** (``fingerprint``): blake2b over the canonical
  encoding — the divergence oracle ``repro replay --verify`` compares
  between a live store and an offline re-derivation.  The encoding is
  fed to the digest as it is produced, never built whole.
- **Spliced snapshots** (``Encoded``/``encode_documents``): a
  checkpoint reuses each document's encoding, cached on its collection
  until the document changes, so it encodes only what was written
  since the last one — and its frame is byte-identical to encoding the
  store afresh.
"""

from __future__ import annotations

import struct
import zlib
from hashlib import blake2b
from typing import Any

from repro.durability.errors import CodecError

#: Frame marker: lets the scanner resync after damaged length fields.
MAGIC = b"\xd7j"
#: ``MAGIC | body length (u32 BE) | crc32(body) (u32 BE)``.
FRAME_HEADER = struct.Struct(">2sII")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
#: Encoded bytes a fingerprint buffers before feeding its digest.
_FEED_BYTES = 1 << 16

#: ``read_frame`` statuses.
FRAME_OK = "ok"
#: The buffer ends before the frame does (a crash mid-append).
FRAME_TORN = "torn"
#: Complete frame whose body fails its CRC, or a broken header.
FRAME_CORRUPT = "corrupt"


# -- canonical value encoding -----------------------------------------

class Encoded(tuple):
    """Byte strings whose concatenation is a canonical encoding.

    :func:`encode_value` copies the parts verbatim, so values encoded
    once can be spliced into larger encodings without re-encoding them
    or joining them first.  Encoding-only: decoding yields plain values.
    """


def encode_value(value: Any, out: bytearray) -> None:
    """Append the canonical encoding of ``value`` to ``out``."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int:
        body = value.to_bytes((value.bit_length() + 8) // 8 or 1,
                              "big", signed=True)
        out += b"I"
        out += _U32.pack(len(body))
        out += body
    elif type(value) is float:
        out += b"f"
        out += _F64.pack(value)
    elif type(value) is str:
        body = value.encode("utf-8")
        out += b"s"
        out += _U32.pack(len(body))
        out += body
    elif type(value) is bytes:
        out += b"b"
        out += _U32.pack(len(value))
        out += value
    elif type(value) is list:
        out += b"l"
        out += _U32.pack(len(value))
        # Inlined str case: container elements are overwhelmingly
        # strings (journal batch columns, document keys), and the
        # recursive call per element dominates their encode cost.
        for item in value:
            if type(item) is str:
                body = item.encode("utf-8")
                out += b"s"
                out += _U32.pack(len(body))
                out += body
            else:
                encode_value(item, out)
    elif type(value) is tuple:
        out += b"t"
        out += _U32.pack(len(value))
        for item in value:
            if type(item) is str:
                body = item.encode("utf-8")
                out += b"s"
                out += _U32.pack(len(body))
                out += body
            else:
                encode_value(item, out)
    elif type(value) is dict:
        out += b"d"
        out += _U32.pack(len(value))
        # Stored documents are flat records: keys are strings and most
        # items strings, floats or None, so those are inlined too.
        for key, item in value.items():
            if type(key) is str:
                body = key.encode("utf-8")
                out += b"s"
                out += _U32.pack(len(body))
                out += body
            else:
                encode_value(key, out)
            cls = type(item)
            if cls is str:
                body = item.encode("utf-8")
                out += b"s"
                out += _U32.pack(len(body))
                out += body
            elif cls is float:
                out += b"f"
                out += _F64.pack(item)
            elif item is None:
                out += b"N"
            else:
                encode_value(item, out)
    elif type(value) is Encoded:
        for part in value:
            out += part
    else:
        raise CodecError(
            f"cannot durably encode {type(value).__name__}: {value!r}")


def dumps(value: Any) -> bytes:
    """Canonical encoding of ``value`` as bytes."""
    out = bytearray()
    encode_value(value, out)
    return bytes(out)


def decode_value(data: bytes, offset: int) -> tuple[Any, int]:
    """Decode one value at ``offset``; return ``(value, next_offset)``."""
    try:
        tag = data[offset:offset + 1]
        offset += 1
        if tag == b"N":
            return None, offset
        if tag == b"T":
            return True, offset
        if tag == b"F":
            return False, offset
        if tag == b"I":
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            body = data[offset:offset + length]
            if len(body) != length:
                raise CodecError("truncated int")
            return int.from_bytes(body, "big", signed=True), offset + length
        if tag == b"f":
            (value,) = _F64.unpack_from(data, offset)
            return value, offset + 8
        if tag == b"s":
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            body = data[offset:offset + length]
            if len(body) != length:
                raise CodecError("truncated str")
            return body.decode("utf-8"), offset + length
        if tag == b"b":
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            body = data[offset:offset + length]
            if len(body) != length:
                raise CodecError("truncated bytes")
            return bytes(body), offset + length
        if tag in (b"l", b"t"):
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = decode_value(data, offset)
                items.append(item)
            return (tuple(items) if tag == b"t" else items), offset
        if tag == b"d":
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
            doc: dict[Any, Any] = {}
            for _ in range(count):
                key, offset = decode_value(data, offset)
                item, offset = decode_value(data, offset)
                doc[key] = item
            return doc, offset
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed encoding at offset {offset}: "
                         f"{exc}") from exc
    raise CodecError(f"unknown type tag {tag!r} at offset {offset - 1}")


def loads(data: bytes) -> Any:
    """Decode one canonical value; the bytes must contain exactly one."""
    value, end = decode_value(data, 0)
    if end != len(data):
        raise CodecError(
            f"{len(data) - end} trailing bytes after decoded value")
    return value


# -- framing ----------------------------------------------------------

def frame(body: bytes | bytearray) -> bytes:
    """Wrap ``body`` as ``MAGIC | length | crc32 | body``."""
    return FRAME_HEADER.pack(MAGIC, len(body), zlib.crc32(body)) + body


def read_frame(data: bytes, offset: int) -> tuple[str, bytes, int]:
    """Classify and read the frame at ``offset``.

    Returns ``(status, body, next_offset)``.  ``FRAME_OK`` yields the
    verified body and the offset just past the frame.  ``FRAME_TORN``
    means the buffer ends mid-frame (body is the partial bytes;
    next_offset is the buffer end).  ``FRAME_CORRUPT`` means the frame
    is complete but fails its CRC or has a broken header; next_offset
    skips the frame when the header was parseable, else the buffer end.
    """
    remaining = len(data) - offset
    if remaining < FRAME_HEADER.size:
        return FRAME_TORN, bytes(data[offset:]), len(data)
    magic, length, crc = FRAME_HEADER.unpack_from(data, offset)
    body_start = offset + FRAME_HEADER.size
    if magic != MAGIC:
        return FRAME_CORRUPT, b"", len(data)
    if len(data) - body_start < length:
        return FRAME_TORN, bytes(data[body_start:]), len(data)
    body = bytes(data[body_start:body_start + length])
    if zlib.crc32(body) != crc:
        return FRAME_CORRUPT, body, body_start + length
    return FRAME_OK, body, body_start + length


# -- entries and snapshots --------------------------------------------

def encode_entry(entry) -> bytes:
    """One :class:`JournalEntry` as a durable frame."""
    return frame(dumps(entry.to_dict()))


def decode_entry(body: bytes):
    """Rebuild a :class:`JournalEntry` from a verified frame body."""
    from repro.durability.journal import JournalEntry
    return JournalEntry.from_dict(loads(body))


def encode_snapshot(state: dict[str, Any]) -> bytes:
    """One checkpoint state dict as a durable frame: ``frame(dumps(
    state))``, framing the encode buffer without copying it to bytes
    first (a snapshot is the largest value the codec encodes)."""
    out = bytearray()
    encode_value(state, out)
    return frame(out)


def encode_documents(collection) -> tuple[Encoded, int]:
    """The encoding of ``collection.snapshot()["documents"]``, spliced
    from the per-document encodings the collection caches.

    A list encodes as its tag, a u32 count and its items back to back,
    so the spliced bytes equal encoding the list afresh.  Only the
    documents written since the last call are encoded.  Returns the
    encoding and how many documents this call encoded.
    """
    items, encoded = collection.cached_encodings(dumps)
    return Encoded((b"l" + _U32.pack(len(items)), *items)), encoded


def decode_snapshot(body: bytes) -> dict[str, Any]:
    return loads(body)


# -- fingerprints -----------------------------------------------------

def fingerprint(value: Any) -> str:
    """Canonical digest of ``value`` — equal iff the values are equal
    including types, dict insertion order and document order.

    The digest is blake2b over ``dumps(value)``, fed a list item at a
    time, so a whole store is never held encoded in memory.
    """
    digest = blake2b(digest_size=16)
    out = bytearray()
    _feed(value, out, digest)
    digest.update(out)
    return digest.hexdigest()


def _feed(value: Any, out: bytearray, digest) -> None:
    """``encode_value(value, out)``, opening dicts and lists here and
    handing ``out`` to ``digest`` whenever it passes :data:`_FEED_BYTES`
    (between list items, so a stored document is encoded whole)."""
    if type(value) is dict:
        out += b"d"
        out += _U32.pack(len(value))
        for key, item in value.items():
            encode_value(key, out)
            _feed(item, out, digest)
    elif type(value) is list:
        out += b"l"
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
            if len(out) >= _FEED_BYTES:
                digest.update(out)
                out.clear()
    else:
        encode_value(value, out)


def fingerprint_store(store) -> str:
    """The divergence-oracle digest of a document store's full state.

    It encodes the live documents and never reads the checkpoint cache,
    so ``replay --verify`` also catches a stale cached encoding.
    """
    return fingerprint(store.snapshot())
