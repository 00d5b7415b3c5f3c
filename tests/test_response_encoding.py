"""Differential tests: the zero-copy wire paths vs a reference encoder.

The serve fast path writes responses as unconcatenated buffer tuples
(``Response.parts``, ``Precomputed``, ``PinnedSegment``) instead of one
joined ``bytes``. These tests pin the invariant that makes that safe:
joining the parts of *any* response reproduces :func:`encode` — an
independently written single-buffer encoder that shares no code with
``repro.serve.wire.Response.head`` — byte for byte, across every status /
keep-alive / error / retry-after / body combination the server can emit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.storage import checksum_hex
from repro.serve.hotset import PinnedSegment
from repro.serve.wire import REASONS, Precomputed, Response


def encode(response: Response, keep_alive: bool) -> bytes:
    """The single-buffer wire form, written out longhand: the oracle."""
    reason = REASONS.get(response.status, "Unknown")
    wire = b"HTTP/1.1 %d %s\r\n" % (response.status, reason.encode("ascii"))
    wire += b"Content-Type: " + response.content_type.encode("ascii") + b"\r\n"
    wire += b"Content-Length: %d\r\n" % len(response.body)
    if response.checksum:
        wire += b"X-Checksum: " + response.checksum.encode("ascii") + b"\r\n"
    wire += b"Connection: keep-alive\r\n" if keep_alive else b"Connection: close\r\n"
    if response.error:
        wire += b"X-Error: " + response.error.encode("ascii") + b"\r\n"
    if response.retry_after is not None:
        wire += b"Retry-After: " + format(response.retry_after, "g").encode("ascii")
        wire += b"\r\n"
    return wire + b"\r\n" + response.body


# Header fields are encoded as ASCII and terminated by CRLF; the server
# only ever inserts exception class names and MIME types there.
_header_text = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=40
)

_responses = st.builds(
    Response,
    status=st.one_of(st.sampled_from(sorted(REASONS)), st.integers(100, 599)),
    body=st.binary(max_size=4096),
    content_type=st.sampled_from(
        ["application/octet-stream", "application/json", "text/plain"]
    ),
    error=_header_text,
    retry_after=st.one_of(
        st.none(), st.floats(min_value=0.001, max_value=3600.0, allow_nan=False)
    ),
    checksum=st.one_of(st.just(""), st.from_regex(r"[0-9a-f]{8}", fullmatch=True)),
)


class TestPartsMatchEncode:
    @settings(max_examples=200, deadline=None)
    @given(response=_responses, keep_alive=st.booleans())
    def test_joined_parts_equal_encode(self, response, keep_alive):
        assert b"".join(response.parts(keep_alive)) == encode(response, keep_alive)

    @settings(max_examples=100, deadline=None)
    @given(response=_responses, keep_alive=st.booleans())
    def test_precomputed_freezes_the_same_bytes(self, response, keep_alive):
        frozen = Precomputed(response)
        assert b"".join(frozen.parts(keep_alive)) == encode(response, keep_alive)
        assert frozen.status == response.status
        assert frozen.body_length == response.body_length

    @given(response=_responses, keep_alive=st.booleans())
    def test_empty_body_emits_a_single_buffer(self, response, keep_alive):
        parts = response.parts(keep_alive)
        if response.body:
            assert len(parts) == 2
        else:
            assert len(parts) == 1

    @given(body=st.binary(max_size=4096), keep_alive=st.booleans())
    def test_segment_hit_shape_is_exact(self, body, keep_alive):
        """The exact response class the cold segment path emits."""
        response = Response(200, body, checksum=checksum_hex(body))
        wire = b"".join(response.parts(keep_alive))
        assert wire == encode(response, keep_alive)
        connection = b"keep-alive" if keep_alive else b"close"
        assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: " + connection + b"\r\n" in wire
        assert ("X-Checksum: %s\r\n" % checksum_hex(body)).encode("ascii") in wire
        assert wire.endswith(body)


class TestPinnedSegmentWireIdentity:
    @settings(max_examples=200, deadline=None)
    @given(body=st.binary(max_size=4096), keep_alive=st.booleans())
    def test_pinned_bytes_equal_cold_path_bytes(self, body, keep_alive):
        """A pin hit and a cold read must be indistinguishable on the wire."""
        pinned = PinnedSegment("/segment/clip/0/0/0/high", body)
        reference = Response(200, body, checksum=checksum_hex(body))
        assert b"".join(pinned.parts(keep_alive)) == encode(reference, keep_alive)

    def test_pinned_body_is_shared_not_copied(self):
        body = b"payload" * 100
        pinned = PinnedSegment("/segment/x", body)
        head, view = pinned.parts(True)
        assert isinstance(view, memoryview)
        assert view.obj is pinned.body
        assert bytes(view) == body
