"""Server-Sent Events: wire framing, replay buffer, incremental parser.

SSE is the simplest streaming transport that works through every HTTP
stack: a ``text/event-stream`` response body made of blank-line-separated
event blocks, each block a run of ``field: value`` lines.  This module
implements the three pieces the daemon and its clients need:

* :func:`encode_event` — one event block, bytes on the wire;
* :class:`EventBuffer` — a bounded per-session replay buffer assigning
  monotonically increasing event ids, so a reconnecting client resumes
  from ``Last-Event-ID`` without losing (buffered) history;
* :class:`SSEParser` — an incremental byte-stream parser (the client
  half), tolerant of chunk boundaries anywhere, CRLF line endings and
  comment keep-alives.

Framing rules implemented per the WHATWG EventSource spec: multi-line
data is split across repeated ``data:`` lines and re-joined with ``\\n``
on parse; an event block without ``data`` is dispatched with an empty
payload; lines starting with ``:`` are comments (used as heartbeats).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable


def encode_event(
    data: str,
    event: str | None = None,
    id: int | str | None = None,
    retry: int | None = None,
) -> bytes:
    """Render one SSE event block (terminated by the blank line)."""
    lines: list[str] = []
    if id is not None:
        lines.append(f"id: {id}")
    if event is not None:
        lines.append(f"event: {event}")
    if retry is not None:
        lines.append(f"retry: {int(retry)}")
    # An empty payload still emits one "data:" line so every block
    # dispatches on the client; embedded newlines become repeated lines.
    for part in (data.split("\n") if data else [""]):
        lines.append(f"data: {part}")
    return ("\n".join(lines) + "\n\n").encode()


def encode_comment(text: str = "") -> bytes:
    """A comment line (client-ignored; serves as a keep-alive)."""
    return f": {text}\n\n".encode()


@dataclass(frozen=True)
class BufferedEvent:
    """One event held in a session's replay buffer."""

    id: int
    event: str
    data: str

    def encode(self) -> bytes:
        return encode_event(self.data, event=self.event, id=self.id)


class EventBuffer:
    """Bounded append-only event store with id-based replay.

    Ids increase monotonically from 1 and never reset, so a client's
    ``Last-Event-ID`` is unambiguous even after the buffer has dropped
    old events.  ``listeners`` receive each appended event synchronously
    — the daemon registers queue-pushing callbacks per subscriber; unit
    tests register plain list appends.
    """

    def __init__(self, max_events: int = 4096) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = int(max_events)
        self._events: list[BufferedEvent] = []
        self._next_id = 1
        self._listeners: list[Callable[[BufferedEvent], None]] = []

    def __len__(self) -> int:
        return len(self._events)

    @property
    def last_id(self) -> int:
        """Id of the most recently appended event (0 = none yet)."""
        return self._next_id - 1

    def append(self, event: str, data: str) -> BufferedEvent:
        """Store an event, assign its id, and notify listeners."""
        buffered = BufferedEvent(id=self._next_id, event=event, data=data)
        self._next_id += 1
        self._events.append(buffered)
        if len(self._events) > self.max_events:
            del self._events[: len(self._events) - self.max_events]
        for listener in list(self._listeners):
            listener(buffered)
        return buffered

    def events_after(self, last_id: int) -> list[BufferedEvent]:
        """Buffered events with id > ``last_id`` (replay on reconnect).

        ``last_id=0`` replays everything still buffered.  Ids below the
        buffer's oldest entry replay from the oldest — the client lost
        whatever was dropped, which is the standard SSE contract for a
        bounded buffer.
        """
        # Events are id-ordered and dense; binary search is overkill at
        # the buffer sizes sessions use.
        return [e for e in self._events if e.id > last_id]

    def subscribe(self, listener: Callable[[BufferedEvent], None]) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[BufferedEvent], None]) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass


@dataclass
class ParsedEvent:
    """One event decoded from a ``text/event-stream`` byte stream."""

    data: str
    event: str = "message"
    id: int | None = None


class SSEParser:
    """Incremental ``text/event-stream`` decoder.

    Feed it raw bytes as they arrive; it yields completed events.  State
    carries across :meth:`feed` calls, so chunk boundaries may fall
    anywhere — mid-line, mid-UTF-8 sequence, or between the lines of one
    block.  Each complete line is decoded as UTF-8 with invalid bytes
    replaced by U+FFFD, as the EventSource spec's decode step does, so a
    corrupt byte garbles one field instead of ending the stream.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self._data_lines: list[str] = []
        self._event_type = ""
        self._event_id: int | None = None
        self.last_event_id: int | None = None

    def feed(self, chunk: bytes) -> list[ParsedEvent]:
        """Consume ``chunk``; return every event completed by it."""
        self._buffer += chunk
        events: list[ParsedEvent] = []
        while True:
            line, sep, rest = self._buffer.partition(b"\n")
            if not sep:
                break
            self._buffer = rest
            events.extend(self._feed_line(
                line.rstrip(b"\r").decode("utf-8", errors="replace")))
        return events

    def _feed_line(self, line: str) -> Iterable[ParsedEvent]:
        if line == "":
            if not self._data_lines and not self._event_type:
                return []  # stray blank line / comment terminator
            event = ParsedEvent(
                data="\n".join(self._data_lines),
                event=self._event_type or "message",
                id=self._event_id,
            )
            self._data_lines = []
            self._event_type = ""
            self._event_id = None
            return [event]
        if line.startswith(":"):
            return []  # comment / keep-alive
        name, sep, value = line.partition(":")
        if not sep:
            name, value = line, ""
        if value.startswith(" "):
            value = value[1:]
        if name == "data":
            self._data_lines.append(value)
        elif name == "event":
            self._event_type = value
        elif name == "id":
            try:
                self._event_id = int(value)
            except ValueError:
                self._event_id = None
            else:
                self.last_event_id = self._event_id
        return []
