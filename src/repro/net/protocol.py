"""The wire protocol: length-prefixed frames with JSON payloads.

Every frame is a fixed 12-byte header followed by a body of ``length``
bytes::

    >B  version    protocol version (PROTOCOL_VERSION)
    >B  kind       frame kind (KIND_*)
    >H  flags      FLAG_* bits; all other bits must be zero
    >I  request_id caller-chosen id echoed on the response
    >I  length     body byte length

Frames are self-delimiting, so any number may share a TCP segment and
one may span many segments; :class:`FrameDecoder` reassembles them from
arbitrary chunks.  Payloads are compact JSON (msgpack is not in the
container's dependency set; JSON round-trips Python floats bit-exactly
via repr, which the result codec in :mod:`repro.net.wire` relies on).

Bulk bytes — pickled stage records, shipped colfile blocks, result
arrays — do not go through JSON.  Any ``bytes``/``bytearray`` value in
a payload travels as a raw *segment* after the JSON text, and the
JSON holds the placeholder ``{"$seg": i}`` in its place.  A frame with
segments sets ``FLAG_SEGMENTS`` and its body is laid out as::

    >I  json_length
    >I  segment_count
    >I  segment_length     (segment_count times, in index order)
    json_length bytes of JSON text
    the segments, concatenated in index order

The table must cover the body exactly.  Decoding turns each
placeholder back into the ``bytes`` of its segment; a placeholder in a
frame *without* the flag is just a JSON object.  A frame carrying no
``bytes`` value is encoded without the flag, byte for byte as before
segments existed.

Error containment is per-frame where the header allows it: an
oversized-but-well-formed frame is *skipped* (its body drained and
discarded) and surfaced as a :class:`FrameError` carrying the request
id, so the server can answer with a typed error and keep the
connection.  The same holds for a bad kind, unknown flag bits,
malformed JSON, a segment table that does not cover the body, and a
placeholder naming a missing segment.  The frame cap bounds the whole
body, segments included.  An unknown protocol version is fatal —
later versions may change the header layout, so nothing after the
version byte can be trusted — and raises
:class:`~repro.common.errors.ProtocolError`.

The frame layer is direction-agnostic: on the shard-worker connection
(:mod:`repro.net.worker`) the *worker* also initiates ``KIND_REQUEST``
frames back at the driver (``block_fetch``, for colfile block
shipping), using request ids at or above ``WORKER_CALLBACK_ID_BASE``
so the two id spaces on the shared socket never collide.  The
normative wire spec — header layout, op tables for both directions,
error-code registry and bit-identity encoding rules — lives in
``docs/protocol.md``.
"""

import json
import struct

import numpy as np

from repro.common.errors import FrameTooLargeError, ProtocolError

PROTOCOL_VERSION = 1

#: Frame kinds.
KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3
KIND_EVENT = 4
KIND_GOAWAY = 5

_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR, KIND_EVENT, KIND_GOAWAY)

_HEADER = struct.Struct(">BBHII")
HEADER_BYTES = _HEADER.size

#: Header flag bit: the body carries raw byte segments after its JSON.
FLAG_SEGMENTS = 0x0001

#: ``json_length, segment_count`` — the head of a segmented body.
_SEGMENT_HEAD = struct.Struct(">II")
_SEGMENT_KEY = "$seg"

#: Default cap on one frame's body.  Large enough for any result the
#: test/bench datasets produce, small enough that a hostile length
#: field cannot balloon the reassembly buffer.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024


def _json_default(value, segments):
    if isinstance(value, (bytes, bytearray)):
        segments.append(value)
        return {_SEGMENT_KEY: len(segments) - 1}
    # Numpy scalars leak into payloads (counts, measures); their Python
    # equivalents round-trip bit-exactly for int64/float64.
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(
        "payload value %r of type %s is not wire-serializable"
        % (value, type(value).__name__)
    )


def dumps(payload, segments):
    """Encode one payload as compact UTF-8 JSON bytes.

    Every ``bytes``/``bytearray`` value is appended to ``segments`` and
    replaced by its ``{"$seg": index}`` placeholder.
    """
    try:
        return json.dumps(
            payload, separators=(",", ":"),
            default=lambda value: _json_default(value, segments),
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from None


def loads(data, segments=None):
    """Decode payload bytes; raises ProtocolError on malformed JSON.

    With ``segments`` (a segmented frame), each ``{"$seg": index}``
    placeholder becomes ``segments[index]``; without, it stays a dict.
    """
    hook = None
    if segments is not None:
        def hook(obj):
            if len(obj) != 1 or _SEGMENT_KEY not in obj:
                return obj
            index = obj[_SEGMENT_KEY]
            if type(index) is not int or not 0 <= index < len(segments):
                raise ProtocolError(
                    "placeholder names segment %r of %d"
                    % (index, len(segments))
                )
            return segments[index]
    try:
        return json.loads(data.decode("utf-8"), object_hook=hook)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("malformed frame payload: %s" % exc) from None


def _decode_body(body, flags):
    """The payload of one complete body (a ``bytes``/``bytearray``)."""
    if not flags & FLAG_SEGMENTS:
        return loads(body)
    if len(body) < _SEGMENT_HEAD.size:
        raise ProtocolError("segmented body is shorter than its table")
    json_length, count = _SEGMENT_HEAD.unpack_from(body)
    table_end = _SEGMENT_HEAD.size + 4 * count
    if table_end > len(body):
        raise ProtocolError(
            "segment table of %d entries overruns a %d-byte body"
            % (count, len(body))
        )
    lengths = struct.unpack_from(">%dI" % count, body, _SEGMENT_HEAD.size)
    offset = table_end + json_length
    if offset + sum(lengths) != len(body):
        raise ProtocolError(
            "segment table covers %d bytes of a %d-byte body"
            % (offset + sum(lengths), len(body))
        )
    view = memoryview(body)
    segments = []
    for length in lengths:
        segments.append(bytes(view[offset:offset + length]))
        offset += length
    return loads(body[table_end:table_end + json_length], segments)


class Frame:
    """One decoded frame."""

    __slots__ = ("kind", "request_id", "payload")

    def __init__(self, kind, request_id, payload):
        self.kind = kind
        self.request_id = request_id
        self.payload = payload

    def __repr__(self):
        return "Frame(kind=%d, request_id=%d)" % (self.kind, self.request_id)


class FrameError:
    """A recoverable per-frame decode failure (connection survives).

    Yielded by :meth:`FrameDecoder.feed` in place of a frame when the
    header was valid (so the stream stays delimited and the request id
    is known) but the frame itself must be rejected — oversized
    body, unknown kind or flag bits, malformed JSON, a segment table
    that does not cover the body, a placeholder naming no segment.
    """

    __slots__ = ("request_id", "exception")

    def __init__(self, request_id, exception):
        self.request_id = request_id
        self.exception = exception

    def __repr__(self):
        return "FrameError(request_id=%d, %r)" % (
            self.request_id, self.exception,
        )


def encode_frame(kind, request_id, payload,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
    """Serialize one frame; raises FrameTooLargeError over the cap.

    ``bytes`` values in ``payload`` travel as raw segments (see the
    module docstring); a payload without any is a plain JSON frame.
    """
    segments = []
    text = dumps(payload, segments)
    flags = 0
    parts = [text]
    if segments:
        flags = FLAG_SEGMENTS
        lengths = [len(segment) for segment in segments]
        parts = [
            _SEGMENT_HEAD.pack(len(text), len(segments)),
            struct.pack(">%dI" % len(lengths), *lengths),
            text,
        ]
        parts.extend(segments)
    length = sum(len(part) for part in parts)
    if max_frame_bytes is not None and length > max_frame_bytes:
        raise FrameTooLargeError(
            "frame payload is %d bytes, over the %d-byte cap"
            % (length, max_frame_bytes)
        )
    header = _HEADER.pack(PROTOCOL_VERSION, kind, flags, request_id, length)
    return b"".join([header] + parts)


class FrameDecoder:
    """Incremental frame reassembly from arbitrary byte chunks.

    ``feed(data)`` returns the list of :class:`Frame` /
    :class:`FrameError` events completed by ``data`` — possibly empty
    (mid-frame), possibly several (coalesced segments).  The decoder
    never buffers more than one header plus ``max_frame_bytes``:
    oversized frames are drained chunk-by-chunk and reported as a
    :class:`FrameError` once fully skipped.
    """

    def __init__(self, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._header = None       # parsed (kind, request_id, length)
        self._skip_remaining = 0  # bytes of an oversized payload left
        self._skip_request_id = 0
        self._skip_length = 0

    def feed(self, data):
        """Consume ``data``; returns completed Frame/FrameError events."""
        self._buffer.extend(data)
        events = []
        while True:
            if self._skip_remaining:
                drained = min(self._skip_remaining, len(self._buffer))
                del self._buffer[:drained]
                self._skip_remaining -= drained
                if self._skip_remaining:
                    return events  # oversized payload still arriving
                events.append(FrameError(
                    self._skip_request_id,
                    FrameTooLargeError(
                        "frame payload is %d bytes, over the %d-byte cap"
                        % (self._skip_length, self.max_frame_bytes)
                    ),
                ))
                continue
            if self._header is None:
                if len(self._buffer) < HEADER_BYTES:
                    return events
                version, kind, flags, request_id, length = _HEADER.unpack(
                    bytes(self._buffer[:HEADER_BYTES])
                )
                if version != PROTOCOL_VERSION:
                    # Fatal: a different version may not even share
                    # this header layout, so resynchronization is
                    # impossible.  Leave the buffer untouched for
                    # diagnostics and make every later feed fail too.
                    raise ProtocolError(
                        "unsupported protocol version %d (this end "
                        "speaks %d)" % (version, PROTOCOL_VERSION)
                    )
                del self._buffer[:HEADER_BYTES]
                if length > self.max_frame_bytes:
                    self._skip_remaining = length
                    self._skip_request_id = request_id
                    self._skip_length = length
                    continue
                self._header = (kind, request_id, length, flags)
            kind, request_id, length, flags = self._header
            if len(self._buffer) < length:
                return events
            # A private copy: segment views never pin ``_buffer``,
            # which must stay resizable.
            body = self._buffer[:length]
            del self._buffer[:length]
            self._header = None
            if kind not in _KINDS:
                events.append(FrameError(request_id, ProtocolError(
                    "unknown frame kind %d" % kind
                )))
                continue
            if flags & ~FLAG_SEGMENTS:
                events.append(FrameError(request_id, ProtocolError(
                    "reserved flags must be zero, got %#x" % flags
                )))
                continue
            try:
                payload = _decode_body(body, flags)
            except ProtocolError as exc:
                events.append(FrameError(request_id, exc))
                continue
            events.append(Frame(kind, request_id, payload))
