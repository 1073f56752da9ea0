"""SSE wire framing, replay buffer and parser round-trips."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.sse import (
    EventBuffer,
    ParsedEvent,
    SSEParser,
    encode_comment,
    encode_event,
)


class TestEncodeEvent:
    def test_minimal_event(self):
        assert encode_event("hi") == b"data: hi\n\n"

    def test_full_frame_field_order(self):
        wire = encode_event("x", event="metrics", id=7, retry=1500)
        assert wire == b"id: 7\nevent: metrics\nretry: 1500\ndata: x\n\n"

    def test_empty_payload_still_dispatches(self):
        # A block with no data: line never dispatches client-side; the
        # encoder must emit one empty data: line.
        assert encode_event("", event="ping") == b"event: ping\ndata: \n\n"

    def test_multiline_data_splits_into_repeated_lines(self):
        wire = encode_event("a\nb\nc")
        assert wire == b"data: a\ndata: b\ndata: c\n\n"

    def test_comment(self):
        assert encode_comment("keep-alive") == b": keep-alive\n\n"


class TestEventBuffer:
    def test_ids_increase_from_one(self):
        buf = EventBuffer()
        ids = [buf.append("e", str(i)).id for i in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert buf.last_id == 5

    def test_events_after_replays_suffix(self):
        buf = EventBuffer()
        for i in range(10):
            buf.append("e", str(i))
        replay = buf.events_after(7)
        assert [e.id for e in replay] == [8, 9, 10]
        assert buf.events_after(0)[0].id == 1
        assert buf.events_after(10) == []

    def test_bounded_buffer_drops_oldest(self):
        buf = EventBuffer(max_events=3)
        for i in range(10):
            buf.append("e", str(i))
        assert len(buf) == 3
        # Ids keep counting even after the drop: Last-Event-ID stays
        # unambiguous.
        assert buf.last_id == 10
        assert [e.id for e in buf.events_after(0)] == [8, 9, 10]

    def test_listeners_see_appends_and_unsubscribe(self):
        buf = EventBuffer()
        seen = []
        buf.subscribe(seen.append)
        buf.append("e", "1")
        buf.unsubscribe(seen.append)
        buf.append("e", "2")
        assert [e.data for e in seen] == ["1"]
        buf.unsubscribe(seen.append)  # double-unsubscribe is a no-op

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            EventBuffer(max_events=0)


class TestSSEParser:
    def test_round_trip(self):
        parser = SSEParser()
        wire = encode_event("payload", event="metrics", id=3)
        events = parser.feed(wire)
        assert len(events) == 1
        assert events[0].event == "metrics"
        assert events[0].data == "payload"
        assert events[0].id == 3
        assert parser.last_event_id == 3

    def test_chunk_boundaries_anywhere(self):
        wire = encode_event("alpha\nbeta", event="decision", id=42)
        for chunk_size in (1, 2, 3, 7):
            parser = SSEParser()
            events = []
            for i in range(0, len(wire), chunk_size):
                events.extend(parser.feed(wire[i:i + chunk_size]))
            assert len(events) == 1, f"chunk_size={chunk_size}"
            assert events[0].data == "alpha\nbeta"
            assert events[0].id == 42

    def test_crlf_line_endings(self):
        wire = b"id: 5\r\nevent: e\r\ndata: x\r\n\r\n"
        events = SSEParser().feed(wire)
        assert len(events) == 1
        assert events[0].data == "x"
        assert events[0].id == 5

    def test_comments_and_stray_blanks_ignored(self):
        parser = SSEParser()
        assert parser.feed(b": keep-alive\n\n") == []
        assert parser.feed(b"\n\n") == []
        events = parser.feed(encode_event("x"))
        assert [e.data for e in events] == ["x"]

    def test_default_event_type_is_message(self):
        events = SSEParser().feed(b"data: x\n\n")
        assert events[0].event == "message"

    def test_resume_replays_only_after_last_id(self):
        # The server half of Last-Event-ID: replay from the buffer, then
        # parse on the client — end-to-end through both codecs.
        buf = EventBuffer()
        for i in range(6):
            buf.append("tick", f"payload-{i}")
        parser = SSEParser()
        wire = b"".join(e.encode() for e in buf.events_after(4))
        events = parser.feed(wire)
        assert [e.id for e in events] == [5, 6]
        assert [e.data for e in events] == ["payload-4", "payload-5"]

    def test_invalid_utf8_becomes_replacement_character(self):
        parser = SSEParser()
        assert parser.feed(b"data: a\x80b\n\n") == [ParsedEvent(data="a\ufffdb")]
        # The stream goes on: the next event parses as usual.
        assert parser.feed(encode_event("x", id=2)) == [ParsedEvent(data="x", id=2)]


# ----------------------------------------------------------------------
# Fuzz: the parser is the client's only view of a byte stream it does
# not control.
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(chunks=st.lists(st.binary(max_size=64), max_size=16))
@example(chunks=[b"\x80\n"])
@example(chunks=[b"data: \xe2\x82", b"\n\n"])
def test_feed_never_raises(chunks):
    parser = SSEParser()
    for chunk in chunks:
        for event in parser.feed(chunk):
            assert isinstance(event.data, str)


_PAYLOADS = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\r"), max_size=40)


@settings(max_examples=200, deadline=None)
@given(payloads=st.lists(_PAYLOADS, min_size=1, max_size=4),
       cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=8))
def test_valid_streams_decode_unchanged_at_any_split(payloads, cuts):
    wire = b"".join(encode_event(data, event="e", id=i + 1)
                    for i, data in enumerate(payloads))
    bounds = sorted({0, len(wire), *(c for c in cuts if c < len(wire))})
    parser = SSEParser()
    events = []
    for start, end in zip(bounds, bounds[1:]):
        events.extend(parser.feed(wire[start:end]))
    assert events == [ParsedEvent(data=data, event="e", id=i + 1)
                      for i, data in enumerate(payloads)]
