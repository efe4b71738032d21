"""Framing edge cases: the decoder must survive hostile byte streams."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FrameTooLargeError, ProtocolError
from repro.net.protocol import (
    FLAG_SEGMENTS,
    HEADER_BYTES,
    KIND_ERROR,
    KIND_EVENT,
    KIND_GOAWAY,
    KIND_REQUEST,
    KIND_RESPONSE,
    PROTOCOL_VERSION,
    Frame,
    FrameDecoder,
    FrameError,
    encode_frame,
)


def decode_all(data, **kwargs):
    return FrameDecoder(**kwargs).feed(data)


class TestRoundTrip:
    def test_encode_decode(self):
        payload = {"op": "stats", "nested": {"a": [1, 2.5, None, "x"]}}
        events = decode_all(encode_frame(KIND_REQUEST, 7, payload))
        assert len(events) == 1
        frame = events[0]
        assert isinstance(frame, Frame)
        assert frame.kind == KIND_REQUEST
        assert frame.request_id == 7
        assert frame.payload == payload

    @pytest.mark.parametrize("kind", [
        KIND_REQUEST, KIND_RESPONSE, KIND_ERROR, KIND_EVENT, KIND_GOAWAY,
    ])
    def test_all_kinds(self, kind):
        (frame,) = decode_all(encode_frame(kind, 1, {}))
        assert frame.kind == kind

    def test_float_payloads_round_trip_bit_exactly(self):
        values = [0.1, 1e-300, 1e300, 2.0 ** -1074, 3.141592653589793]
        (frame,) = decode_all(encode_frame(KIND_RESPONSE, 1,
                                           {"v": values}))
        assert frame.payload["v"] == values
        assert [v.hex() for v in frame.payload["v"]] == [
            v.hex() for v in values
        ]

    def test_numpy_scalars_serialize(self):
        import numpy as np

        (frame,) = decode_all(encode_frame(KIND_RESPONSE, 1, {
            "i": np.int64(7), "f": np.float64(2.5), "b": np.bool_(True),
        }))
        assert frame.payload == {"i": 7, "f": 2.5, "b": True}

    def test_unserializable_payload_raises_typed(self):
        with pytest.raises(ProtocolError):
            encode_frame(KIND_REQUEST, 1, {"bad": object()})


class TestPartialFrames:
    """A frame may arrive split across arbitrary TCP segment bounds."""

    def test_byte_at_a_time(self):
        data = encode_frame(KIND_REQUEST, 42, {"op": "poll", "job_id": 3})
        decoder = FrameDecoder()
        events = []
        for i in range(len(data)):
            events.extend(decoder.feed(data[i:i + 1]))
            if i < len(data) - 1:
                assert not events, "frame completed early at byte %d" % i
        assert len(events) == 1
        assert events[0].payload["job_id"] == 3

    def test_split_inside_header(self):
        data = encode_frame(KIND_REQUEST, 1, {"x": 1})
        decoder = FrameDecoder()
        assert decoder.feed(data[:HEADER_BYTES - 3]) == []
        (frame,) = decoder.feed(data[HEADER_BYTES - 3:])
        assert frame.payload == {"x": 1}

    def test_many_frames_in_one_chunk(self):
        chunk = b"".join(
            encode_frame(KIND_REQUEST, i, {"i": i}) for i in range(5)
        )
        events = decode_all(chunk)
        assert [f.request_id for f in events] == list(range(5))

    def test_frame_boundary_straddles_chunks(self):
        a = encode_frame(KIND_REQUEST, 1, {"i": 1})
        b = encode_frame(KIND_REQUEST, 2, {"i": 2})
        decoder = FrameDecoder()
        events = decoder.feed(a + b[:5])
        assert len(events) == 1
        events.extend(decoder.feed(b[5:]))
        assert [f.request_id for f in events] == [1, 2]


class TestOversizedFrames:
    def test_encode_refuses_oversized(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame(KIND_REQUEST, 1, {"x": "y" * 100},
                         max_frame_bytes=32)

    def test_decoder_skips_and_survives(self):
        """Oversized frame: typed error, then later frames still parse."""
        big = encode_frame(KIND_REQUEST, 9, {"x": "y" * 1000})
        after = encode_frame(KIND_REQUEST, 10, {"ok": True})
        decoder = FrameDecoder(max_frame_bytes=64)
        events = decoder.feed(big + after)
        assert len(events) == 2
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 9
        assert isinstance(events[0].exception, FrameTooLargeError)
        assert isinstance(events[1], Frame)
        assert events[1].payload == {"ok": True}

    def test_oversized_payload_drained_incrementally(self):
        big = encode_frame(KIND_REQUEST, 9, {"x": "y" * 1000})
        decoder = FrameDecoder(max_frame_bytes=64)
        events = []
        for i in range(0, len(big), 17):
            events.extend(decoder.feed(big[i:i + 17]))
        assert len(events) == 1
        assert isinstance(events[0], FrameError)
        # The decoder never buffered the oversized payload.
        assert len(decoder._buffer) == 0


class TestMalformedFrames:
    def test_unknown_version_is_fatal(self):
        data = bytearray(encode_frame(KIND_REQUEST, 1, {}))
        data[0] = PROTOCOL_VERSION + 1
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="version"):
            decoder.feed(bytes(data))
        # Fatal means fatal: the stream stays poisoned.
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame(KIND_REQUEST, 2, {}))

    def test_unknown_kind_is_recoverable(self):
        body = b"{}"
        header = struct.pack(">BBHII", PROTOCOL_VERSION, 99, 0, 5,
                             len(body))
        events = decode_all(header + body
                            + encode_frame(KIND_REQUEST, 6, {}))
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 5
        assert isinstance(events[1], Frame)

    def test_nonzero_flags_rejected(self):
        body = b"{}"
        header = struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                             0xBEEF, 5, len(body))
        (event,) = decode_all(header + body)
        assert isinstance(event, FrameError)

    def test_malformed_json_is_recoverable(self):
        body = b"{not json"
        header = struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                             0, 3, len(body))
        events = decode_all(header + body
                            + encode_frame(KIND_REQUEST, 4, {"ok": 1}))
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 3
        assert events[1].payload == {"ok": 1}


def _segmented(json_text, lengths, data=b"", kind=KIND_REQUEST,
               request_id=1):
    """A hand-built FLAG_SEGMENTS frame: header, table, JSON, data."""
    body = (struct.pack(">II", len(json_text), len(lengths))
            + struct.pack(">%dI" % len(lengths), *lengths)
            + json_text + data)
    header = struct.pack(">BBHII", PROTOCOL_VERSION, kind, FLAG_SEGMENTS,
                         request_id, len(body))
    return header + body


#: A well-formed frame fed after every corruption: it must still decode.
_SENTINEL = encode_frame(KIND_REQUEST, 77, {"after": b"\x00ok"})


def _assert_sentinel_survives(decoder):
    events = decoder.feed(_SENTINEL)
    assert len(events) == 1
    assert isinstance(events[0], Frame)
    assert events[0].payload == {"after": b"\x00ok"}


class TestSegments:
    """Bulk ``bytes`` values ride as raw segments after the JSON."""

    def test_bytes_round_trip_as_segments(self):
        payload = {"blob": b"\x00\xff" * 100, "nested": [{"b": b""}],
                   "text": "plain"}
        data = encode_frame(KIND_RESPONSE, 3, payload)
        assert struct.unpack(">H", data[2:4])[0] == FLAG_SEGMENTS
        (frame,) = decode_all(data)
        assert frame.payload == payload
        assert type(frame.payload["blob"]) is bytes

    def test_bytearray_decodes_as_bytes(self):
        (frame,) = decode_all(encode_frame(KIND_RESPONSE, 1,
                                           {"b": bytearray(b"abc")}))
        assert frame.payload == {"b": b"abc"}

    def test_frame_without_bytes_is_plain_json(self):
        payload = {"op": "stats", "n": [1, 2.5, None]}
        data = encode_frame(KIND_REQUEST, 9, payload)
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        assert data == struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                                   0, 9, len(body)) + body

    def test_segments_are_raw_not_text_encoded(self):
        blob = bytes(range(256)) * 64
        data = encode_frame(KIND_RESPONSE, 1, {"b": blob})
        assert blob in data
        assert len(data) < len(blob) + 64

    def test_placeholder_without_flag_stays_an_object(self):
        (frame,) = decode_all(encode_frame(KIND_REQUEST, 1,
                                           {"x": {"$seg": 0}}))
        assert frame.payload == {"x": {"$seg": 0}}

    def test_cap_covers_segments(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame(KIND_RESPONSE, 1, {"b": b"x" * 100},
                         max_frame_bytes=64)
        big = encode_frame(KIND_REQUEST, 4, {"b": b"x" * 1000})
        decoder = FrameDecoder(max_frame_bytes=512)
        (event,) = decoder.feed(big)
        assert isinstance(event.exception, FrameTooLargeError)
        assert event.request_id == 4
        _assert_sentinel_survives(decoder)

    @pytest.mark.parametrize("lengths, data", [
        ([3], b"ab"),            # table claims more than the body holds
        ([1], b"abc"),           # body has bytes the table does not name
        ([0xFFFFFFFF], b""),     # absurd length
    ])
    def test_table_must_cover_the_body_exactly(self, lengths, data):
        decoder = FrameDecoder()
        (event,) = decoder.feed(_segmented(b'{"b":{"$seg":0}}', lengths,
                                           data, request_id=5))
        assert isinstance(event, FrameError)
        assert event.request_id == 5
        assert isinstance(event.exception, ProtocolError)
        _assert_sentinel_survives(decoder)

    def test_table_count_overrunning_the_body(self):
        body = struct.pack(">II", 0, 0x7FFFFFFF)
        header = struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                             FLAG_SEGMENTS, 6, len(body))
        decoder = FrameDecoder()
        (event,) = decoder.feed(header + body)
        assert isinstance(event, FrameError)
        _assert_sentinel_survives(decoder)

    def test_truncated_table(self):
        header = struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                             FLAG_SEGMENTS, 6, 3)
        decoder = FrameDecoder()
        (event,) = decoder.feed(header + b"\x00\x00\x00")
        assert isinstance(event, FrameError)
        _assert_sentinel_survives(decoder)

    @pytest.mark.parametrize("index", [
        "5", "-1", "1.0", "true", '"0"', "null", "[0]", "2",
    ])
    def test_bad_placeholder_index(self, index):
        text = ('{"b":{"$seg":%s}}' % index).encode()
        decoder = FrameDecoder()
        (event,) = decoder.feed(_segmented(text, [1, 1], b"ab"))
        assert isinstance(event, FrameError)
        assert isinstance(event.exception, ProtocolError)
        _assert_sentinel_survives(decoder)

    def test_placeholder_with_extra_keys_stays_an_object(self):
        text = b'{"b":{"$seg":0,"x":1}}'
        (frame,) = decode_all(_segmented(text, [1], b"a"))
        assert frame.payload == {"b": {"$seg": 0, "x": 1}}

    def test_unknown_flag_bits_rejected_even_with_segments(self):
        data = bytearray(encode_frame(KIND_REQUEST, 1, {"b": b"x"}))
        data[2:4] = struct.pack(">H", FLAG_SEGMENTS | 0x8000)
        decoder = FrameDecoder()
        (event,) = decoder.feed(bytes(data))
        assert isinstance(event, FrameError)
        _assert_sentinel_survives(decoder)


# -- property and fuzz tests -------------------------------------------

_keys = st.text(max_size=8).filter(lambda k: k != "$seg")
_leaves = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=16)
           | st.binary(max_size=64))
_payloads = st.dictionaries(_keys, st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=16,
), max_size=6)


def _split(data, cuts):
    bounds = sorted({min(c, len(data)) for c in cuts} | {0, len(data)})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


class TestSegmentProperties:
    @settings(max_examples=200, deadline=None)
    @given(payload=_payloads, request_id=st.integers(0, 2 ** 32 - 1),
           cuts=st.lists(st.integers(0, 4096), max_size=8))
    def test_round_trip_across_arbitrary_chunks(self, payload, request_id,
                                                cuts):
        data = encode_frame(KIND_RESPONSE, request_id, payload,
                            max_frame_bytes=None)
        decoder = FrameDecoder(max_frame_bytes=len(data) + len(_SENTINEL))
        events = []
        for chunk in _split(data + _SENTINEL, cuts):
            events.extend(decoder.feed(chunk))
        assert len(events) == 2
        frame, sentinel = events
        assert isinstance(frame, Frame)
        assert frame.request_id == request_id
        assert frame.payload == payload
        assert sentinel.payload == {"after": b"\x00ok"}

    @settings(max_examples=200, deadline=None)
    @given(payload=_payloads, data=st.data())
    def test_corrupted_bodies_fail_typed_and_recover(self, payload, data):
        frame = bytearray(encode_frame(KIND_REQUEST, 8, payload))
        body_len = len(frame) - HEADER_BYTES
        if body_len:
            for _ in range(data.draw(st.integers(1, 4))):
                at = HEADER_BYTES + data.draw(st.integers(0, body_len - 1))
                frame[at] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            # Or claim segments the body may not have.
            frame[2:4] = struct.pack(">H", FLAG_SEGMENTS)
        decoder = FrameDecoder()
        (event,) = decoder.feed(bytes(frame))
        if isinstance(event, FrameError):
            assert isinstance(event.exception, ProtocolError)
            assert event.request_id == 8
        else:
            assert isinstance(event, Frame)
        _assert_sentinel_survives(decoder)

    @settings(max_examples=200, deadline=None)
    @given(json_length=st.integers(0, 64),
           lengths=st.lists(st.integers(0, 2 ** 32 - 1) | st.integers(0, 8),
                            max_size=6),
           tail=st.binary(max_size=128))
    def test_random_segment_tables_fail_typed(self, json_length, lengths,
                                              tail):
        body = (struct.pack(">II", json_length, len(lengths))
                + struct.pack(">%dI" % len(lengths), *lengths) + tail)
        header = struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                             FLAG_SEGMENTS, 2, len(body))
        decoder = FrameDecoder()
        (event,) = decoder.feed(header + body)
        if isinstance(event, FrameError):
            assert isinstance(event.exception, ProtocolError)
        else:
            assert isinstance(event.payload, (dict, list, str, int, float,
                                              bool, type(None)))
        _assert_sentinel_survives(decoder)

    @settings(max_examples=200, deadline=None)
    @given(index=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=2), max_leaves=4),
        segments=st.lists(st.binary(max_size=4), max_size=3))
    def test_placeholder_indices(self, index, segments):
        text = json.dumps({"v": {"$seg": index}}).encode()
        decoder = FrameDecoder()
        (event,) = decoder.feed(_segmented(
            text, [len(s) for s in segments], b"".join(segments)))
        valid = (type(index) is int and 0 <= index < len(segments))
        if valid:
            assert event.payload == {"v": segments[index]}
        else:
            assert isinstance(event, FrameError)
            assert isinstance(event.exception, ProtocolError)
        _assert_sentinel_survives(decoder)

    @settings(max_examples=300, deadline=None)
    @given(header=st.binary(min_size=HEADER_BYTES, max_size=HEADER_BYTES),
           keep_version=st.booleans(), length=st.integers(0, 8192),
           cuts=st.lists(st.integers(0, 9000), max_size=4))
    def test_random_headers_never_raise_untyped(self, header, keep_version,
                                                length, cuts):
        header = bytearray(header)
        if keep_version:
            header[0] = PROTOCOL_VERSION
            header[8:12] = struct.pack(">I", length)
        decoder = FrameDecoder(max_frame_bytes=4096)
        declared = struct.unpack(">I", bytes(header[8:12]))[0]
        stream = bytes(header) + bytes(min(declared, 8192))
        events = []
        try:
            for chunk in _split(stream, cuts):
                events.extend(decoder.feed(chunk))
        except ProtocolError:
            assert header[0] != PROTOCOL_VERSION  # only a version is fatal
            return
        assert all(isinstance(e, (Frame, FrameError)) for e in events)
        for event in events:
            if isinstance(event, FrameError):
                assert isinstance(event.exception, ProtocolError)
        if declared <= 8192:
            # The frame completed (or was skipped): the stream is still
            # delimited and the next frame decodes.
            assert len(events) == 1
            _assert_sentinel_survives(decoder)
