"""Durable wire-format tests: canonical value round-trips, frame
classification, and fingerprint behaviour."""

import struct
import zlib
from hashlib import blake2b

import pytest
from hypothesis import given, strategies as st

from repro.durability import codec
from repro.durability.errors import CodecError
from repro.durability.journal import JournalEntry


ROUND_TRIP_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    127,
    128,
    -128,
    -129,
    2 ** 80,            # arbitrary precision survives
    -(2 ** 80),
    0.0,
    -0.0,
    3.141592653589793,
    float("inf"),
    float("-inf"),
    "",
    "hello",
    "naïve café ☕",
    b"",
    b"\x00\xff\xd7j",
    [],
    [1, "two", None],
    (),
    (1, 2.5),
    {},
    {"a": 1, "b": [True, {"nested": (1, 2)}]},
]


def _reference_encode(value, out):
    """The canonical encoding, one recursive call per container item."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int:
        body = value.to_bytes((value.bit_length() + 8) // 8 or 1,
                              "big", signed=True)
        out += b"I" + struct.pack(">I", len(body)) + body
    elif type(value) is float:
        out += b"f" + struct.pack(">d", value)
    elif type(value) is str:
        body = value.encode("utf-8")
        out += b"s" + struct.pack(">I", len(body)) + body
    elif type(value) is bytes:
        out += b"b" + struct.pack(">I", len(value)) + value
    elif type(value) in (list, tuple):
        out += (b"l" if type(value) is list else b"t")
        out += struct.pack(">I", len(value))
        for item in value:
            _reference_encode(item, out)
    elif type(value) is dict:
        out += b"d" + struct.pack(">I", len(value))
        for key, item in value.items():
            _reference_encode(key, out)
            _reference_encode(item, out)
    elif type(value) is codec.Encoded:
        for part in value:
            out += part
    else:
        raise CodecError(f"cannot durably encode {type(value).__name__}")


def _split_encoding(value, cut):
    """``value`` encoded once and spliced back in as two parts."""
    blob = codec.dumps(value)
    cut %= len(blob) + 1
    return codec.Encoded((blob[:cut], blob[cut:]))


_SCALARS = st.one_of(
    st.sampled_from(ROUND_TRIP_VALUES),
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=8),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers()),
                        children, max_size=4),
    ),
    max_leaves=16)
#: Stored-document shapes: string keys over every kind of item the
#: encoder inlines or recurses into, spliced encodings included.
_DOCUMENTS = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.text(max_size=12), st.floats(), st.none(), st.booleans(),
              st.integers(), _VALUES,
              st.builds(_split_encoding, _VALUES, st.integers(0, 64))),
    max_size=8)


class TestValueCodec:
    @given(st.one_of(_VALUES, _DOCUMENTS, st.lists(_DOCUMENTS, max_size=3)))
    def test_encoding_equals_the_recursive_reference(self, value):
        """Inlined items encode to the bytes the plain recursive
        encoder gives, so every fingerprint stays put."""
        reference = bytearray()
        _reference_encode(value, reference)
        assert codec.dumps(value) == bytes(reference)

    @pytest.mark.parametrize("value", ROUND_TRIP_VALUES,
                             ids=[repr(v)[:40] for v in ROUND_TRIP_VALUES])
    def test_round_trip_exact(self, value):
        decoded = codec.loads(codec.dumps(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_tuples_stay_tuples_inside_containers(self):
        value = {"point": (48.85, 2.35), "path": [(0, 0), (1, 1)]}
        decoded = codec.loads(codec.dumps(value))
        assert decoded["point"] == (48.85, 2.35)
        assert all(type(p) is tuple for p in decoded["path"])

    def test_dict_insertion_order_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(codec.loads(codec.dumps(value))) == ["z", "a", "m"]

    def test_bools_do_not_collapse_to_ints(self):
        decoded = codec.loads(codec.dumps([True, 1, False, 0]))
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_negative_zero_float_preserved(self):
        import math
        assert math.copysign(1.0, codec.loads(codec.dumps(-0.0))) == -1.0

    def test_unsupported_type_raises(self):
        with pytest.raises(CodecError, match="object"):
            codec.dumps({"bad": object()})

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            codec.loads(codec.dumps(1) + b"x")

    def test_truncated_encoding_rejected(self):
        data = codec.dumps("hello world")
        with pytest.raises(CodecError):
            codec.loads(data[:-3])

    def test_canonical_same_value_same_bytes(self):
        value = {"user": "a", "v": [1, 2.5, ("x", None)]}
        assert codec.dumps(value) == codec.dumps(dict(value))


class TestFraming:
    def test_frame_round_trip(self):
        body = codec.dumps({"n": 42})
        status, out, end = codec.read_frame(codec.frame(body), 0)
        assert status == codec.FRAME_OK
        assert out == body
        assert end == codec.FRAME_HEADER.size + len(body)

    def test_torn_frame_classified(self):
        data = codec.frame(codec.dumps({"n": 42}))
        for cut in (1, codec.FRAME_HEADER.size + 1, len(data) - 1):
            status, _, end = codec.read_frame(data[:cut], 0)
            assert status == codec.FRAME_TORN
            assert end == cut

    def test_flipped_bit_classified_corrupt(self):
        data = bytearray(codec.frame(codec.dumps({"n": 42})))
        data[codec.FRAME_HEADER.size + 2] ^= 0xFF
        status, _, end = codec.read_frame(data, 0)
        assert status == codec.FRAME_CORRUPT
        assert end == len(data)  # frame boundary still known: resyncable

    def test_bad_magic_classified_corrupt(self):
        data = bytearray(codec.frame(b"body"))
        data[0] ^= 0xFF
        status, _, _ = codec.read_frame(data, 0)
        assert status == codec.FRAME_CORRUPT

    def test_crc_actually_covers_body(self):
        body = codec.dumps({"n": 42})
        framed = codec.frame(body)
        _, _, crc = codec.FRAME_HEADER.unpack_from(framed, 0)
        assert crc == zlib.crc32(body)

    def test_consecutive_frames_scan(self):
        log = b"".join(codec.frame(codec.dumps(i)) for i in range(5))
        offset, seen = 0, []
        while offset < len(log):
            status, body, offset = codec.read_frame(log, offset)
            assert status == codec.FRAME_OK
            seen.append(codec.loads(body))
        assert seen == [0, 1, 2, 3, 4]


class TestEntryCodec:
    def test_entry_round_trip(self):
        entry = JournalEntry(seq=7, op="ingest", collection="records",
                             payload={"document": {"v": (1, 2)},
                                      "record_id": "r1"})
        decoded = codec.decode_entry(
            codec.read_frame(codec.encode_entry(entry), 0)[1])
        assert decoded == entry

    def test_from_dict_pairs_to_dict(self):
        entry = JournalEntry(seq=1, op="drop", collection="x")
        assert JournalEntry.from_dict(entry.to_dict()) == entry


def _sample_batch(n: int, offset: int = 0):
    """A RecordBatch of ``n`` wire documents (ISSUE 9 envelope)."""
    from repro.core.common.batch import RecordBatch
    return RecordBatch.from_documents([
        {"stream_id": "s1", "user_id": "u1", "device_id": "d1",
         "modality": "accelerometer", "granularity": "classified",
         "timestamp": float(offset + i), "value": {"x": offset + i},
         "details": {}, "osn_action": None,
         "record_id": f"r{offset + i}"}
        for i in range(n)])


class TestBatchFrames:
    """The ``ingest_batch`` journal frame: one columnar envelope whose
    replay is record-for-record identical to N singleton frames."""

    def test_batch_envelope_round_trips_canonically(self):
        batch = _sample_batch(5)
        decoded = type(batch).decode(batch.encode())
        assert decoded.to_payload() == batch.to_payload()
        assert decoded.store_documents() == batch.store_documents()
        # Canonical: same batch, same bytes (usable as a fingerprint).
        assert _sample_batch(5).encode() == batch.encode()

    def test_ingest_batch_entry_round_trip(self):
        batch = _sample_batch(3)
        entry = JournalEntry(seq=9, op="ingest_batch",
                             collection="records",
                             payload={"batch": batch.to_payload()})
        decoded = codec.decode_entry(
            codec.read_frame(codec.encode_entry(entry), 0)[1])
        assert decoded == entry
        from repro.core.common.batch import RecordBatch
        replayed = RecordBatch.from_payload(decoded.payload["batch"])
        assert replayed.store_documents() == batch.store_documents()
        assert replayed.record_ids == batch.record_ids

    def test_torn_tail_truncates_on_batch_boundary(self):
        """A crash mid-append tears the *last* frame only: the scan
        keeps every whole batch before it and classifies the partial
        one torn — a batch is atomic on the medium, never half-kept."""
        entries = [
            JournalEntry(seq=seq, op="ingest_batch", collection="records",
                         payload={"batch": _sample_batch(
                             4, offset=4 * seq).to_payload()})
            for seq in range(3)
        ]
        frames = [codec.encode_entry(entry) for entry in entries]
        log = b"".join(frames)
        for cut in (len(log) - 1,                       # tail ragged
                    len(frames[0]) + len(frames[1]) + 5):  # mid-header
            data, offset, recovered = log[:cut], 0, []
            statuses = []
            while offset < len(data):
                status, body, offset = codec.read_frame(data, offset)
                statuses.append(status)
                if status == codec.FRAME_OK:
                    recovered.append(codec.decode_entry(body))
            # Every complete frame survives; the torn one vanishes
            # whole — recovery resumes exactly at a batch boundary.
            assert statuses[:-1] == [codec.FRAME_OK] * (len(statuses) - 1)
            assert statuses[-1] == codec.FRAME_TORN
            assert recovered == entries[:len(recovered)]
            assert all(entry.payload["batch"]["n"] == 4
                       for entry in recovered)


class TestFingerprint:
    def test_equal_values_equal_fingerprints(self):
        a = {"users": [{"_id": 1, "name": "a"}]}
        assert codec.fingerprint(a) == codec.fingerprint(dict(a))

    def test_any_difference_changes_fingerprint(self):
        base = {"users": [{"_id": 1, "n": 1}]}
        for other in ({"users": [{"_id": 1, "n": 2}]},
                      {"users": [{"_id": 2, "n": 1}]},
                      {"users": [{"_id": 1, "n": 1.0}]},  # type change
                      {"users": [{"n": 1, "_id": 1}]}):   # key order
            assert codec.fingerprint(base) != codec.fingerprint(other)

    @pytest.mark.parametrize("value", ROUND_TRIP_VALUES + [
        {"name": "s", "collections": {"records": {
            "documents": [{"_id": index, "pad": "x" * 300, "v": [index]}
                          for index in range(600)],
            "next_id": 601, "indexes": [["pad", False]]}}}])
    def test_streamed_digest_equals_digest_of_whole_encoding(self, value):
        # The fingerprint feeds the digest piecewise; the last value is
        # big enough (~200 KB) to flush the buffer several times.
        reference = blake2b(codec.dumps(value), digest_size=16).hexdigest()
        assert codec.fingerprint(value) == reference

    def test_encoded_parts_splice_verbatim(self):
        document = {"_id": 1, "tags": ["a", (1, 2.5)]}
        blob = codec.dumps(document)
        spliced = codec.Encoded((blob[:5], blob[5:]))
        assert codec.dumps([spliced, 7]) == codec.dumps([document, 7])

    def test_store_fingerprint_tracks_state(self):
        from repro.docstore import DocumentStore
        store, twin = DocumentStore(), DocumentStore()
        for target in (store, twin):
            target["users"].insert_one({"user_id": "a"})
        assert (codec.fingerprint_store(store)
                == codec.fingerprint_store(twin))
        store["users"].insert_one({"user_id": "b"})
        assert (codec.fingerprint_store(store)
                != codec.fingerprint_store(twin))