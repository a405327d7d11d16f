"""References for the trace front end, and the row view of packets.

``reference_parse_events`` parses packet field exports with one helper
call per field.  ``ltenergy.traces.parse_events`` converts the integer
fields of a line in one pass and resolves flag sets and senders once per
distinct text and endpoint pair.  This is the per-field parser it
replaced, plus the rules that a timestamp must be finite and that a packet
must involve the client and be on the one connection that the first
packet fixes, kept as the oracle the property tests hold it to.  Each
line's sender comes from one uncached call after its fields, so the first
bad line in file order is the one reported, be it a bad field or a packet
of another connection.  It carries its own copies of the flag, integer,
port, sender and connection rules, so a change to any of them in the
library shows as a difference.  A number that breaks the number rule of
``ltenergy.cli`` is a bad field.

``ltenergy.traces.Packets`` holds packets as columns and the two endpoints
once; the tests compare them as rows, one :class:`PacketEvent` per packet,
through :func:`rows`, which rebuilds each row's endpoint fields.
:func:`reference_coverage` is the per-packet modular byte span and
acknowledgment search that ``traces._coverage`` replaced.
"""

import math
from typing import NamedTuple

from ltenergy.traces import (SEQ_SPACE, IncompleteExchangeError,
                             TraceParseError)

_HALF_SPACE = SEQ_SPACE // 2


class PacketEvent(NamedTuple):
    """One timestamped packet record from a trace export."""

    timestamp: float  # epoch seconds, microsecond precision
    src_addr: str
    src_port: int
    dst_addr: str
    dst_port: int
    payload_len: int  # transport payload bytes
    flags: frozenset[str]  # subset of {SYN, FIN, RST, ACK, PSH}
    seq: int
    ack: int
    from_client: bool  # sent by the client endpoint, else by the server


def rows(packets):
    """The :class:`PacketEvent` rows of ``ltenergy.traces.Packets``, each
    one's endpoint fields rebuilt from the client, the server and
    ``from_client``."""
    client, server = packets.client, packets.server
    return [PacketEvent(timestamp, *(client + server if sent
                                     else server + client),
                        size, flags, seq, ack, sent)
            for timestamp, size, flags, seq, ack, sent in zip(
                packets.timestamp, packets.payload_len, packets.flags,
                packets.seq, packets.ack, packets.from_client)]


_FLAG_LETTERS = {"S": "SYN", "F": "FIN", "R": "RST", "P": "PSH", "A": "ACK"}
_FLAG_BITS = (("FIN", 0x01), ("SYN", 0x02), ("RST", 0x04),
              ("PSH", 0x08), ("ACK", 0x10))
_IGNORED_FLAG_CHARS = set(".*-·ECUW")


def ascii_digits(text):
    """``text``, unless it holds non-ASCII text, ``_`` or ``+``, with which
    ``int`` and ``float`` read numbers: then a ``ValueError``."""
    if not text.isascii() or "_" in text or "+" in text:
        raise ValueError(f"not ASCII digits: {text!r}")
    return text


def parse_flags(field, line_no):
    text = field.strip()
    if text in ("", "-"):
        return frozenset()
    if text.lower().startswith("0x") or text.isdigit():
        try:
            text = ascii_digits(text)
            bits = int(text, 16) if text.lower().startswith("0x") else int(text)
        except ValueError:
            raise TraceParseError(line_no, f"bad flags field {field!r}") from None
        return frozenset(name for name, bit in _FLAG_BITS if bits & bit)
    out = set()
    for ch in text:
        upper = ch.upper()
        if upper in _FLAG_LETTERS:
            out.add(_FLAG_LETTERS[upper])
        elif ch in _IGNORED_FLAG_CHARS or upper in _IGNORED_FLAG_CHARS:
            continue
        else:
            raise TraceParseError(line_no, f"bad flags field {field!r}")
    return frozenset(out)


def parse_int(field, what, line_no):
    text = field.strip()
    if text in ("", "-"):
        return 0
    try:
        return int(ascii_digits(text))
    except ValueError:
        raise TraceParseError(line_no, f"bad {what} {field!r}") from None


def parse_port(field, what, line_no):
    port = parse_int(field, what, line_no)
    if not 0 <= port <= 65535:
        raise TraceParseError(line_no, f"bad {what} {field!r}")
    return port


def from_client(src, dst, client, line_no, connection):
    """Whether ``src`` is the client; the first packet of a parse puts its
    peer in ``connection["server"]``, and each later one must have it."""
    if src == client:
        peer = dst
    elif dst == client:
        peer = src
    else:
        raise TraceParseError(
            line_no, f"packet {src} -> {dst} does not involve client {client}")
    server = connection.setdefault("server", peer)
    if peer != server:
        raise TraceParseError(line_no, f"packet {src} -> {dst} is not on the "
                              f"connection with {server}")
    return src == client


def reference_parse_events(lines, client):
    """What :func:`ltenergy.traces.parse_events` returns or raises."""
    if isinstance(lines, str):  # universal newlines, as in a text file
        lines = lines.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    events, connection = [], {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 9:
            raise TraceParseError(
                line_no, f"expected 9 tab-separated fields, got {len(parts)}")
        ts_text = parts[0].strip()
        try:
            timestamp = float(ascii_digits(ts_text))
        except ValueError:
            raise TraceParseError(
                line_no, f"bad timestamp {ts_text!r}") from None
        if not math.isfinite(timestamp):
            raise TraceParseError(line_no, f"bad timestamp {ts_text!r}")
        src_addr = parts[1].strip()
        dst_addr = parts[2].strip()
        src_port = parse_port(parts[3], "source port", line_no)
        dst_port = parse_port(parts[4], "destination port", line_no)
        payload = parse_int(parts[5], "payload length", line_no)
        if payload < 0:
            raise TraceParseError(line_no, "payload length must be >= 0")
        if payload >= 2 ** 31:
            raise TraceParseError(line_no, "payload length must be < 2^31")
        flags = parse_flags(parts[6], line_no)
        seq = parse_int(parts[7], "sequence number", line_no)
        ack = parse_int(parts[8], "acknowledgment number", line_no)
        if not (0 <= seq < SEQ_SPACE and 0 <= ack < SEQ_SPACE):
            raise TraceParseError(line_no, "sequence and acknowledgment "
                                  f"numbers must lie in [0, 2^32), got "
                                  f"{seq} and {ack}")
        events.append(PacketEvent(
            timestamp, src_addr, src_port, dst_addr, dst_port, payload,
            flags, seq, ack, from_client(f"{src_addr}:{src_port}",
                                         f"{dst_addr}:{dst_port}", client,
                                         line_no, connection)))

    events.sort(key=lambda event: event.timestamp)
    return events


def reference_coverage(what, stream, candidates, seqs, sizes, acks):
    """What ``ltenergy.traces._coverage`` returns or raises: the byte span
    of the payload packets at indices ``stream``, each start offset taken
    modulo 2^32 into [-2^31, 2^31) from the first packet's sequence number
    and each end that offset plus the packet's size, and the first of
    ``candidates`` whose acknowledgment reaches the span's end.  A span of
    2^31 bytes or more is an ``IncompleteExchangeError`` naming ``what``."""
    shift = _HALF_SPACE - seqs[stream[0]]
    offsets = [(seqs[i] + shift) % SEQ_SPACE - _HALF_SPACE for i in stream]
    first = min(offsets)
    end = max(offset + sizes[i] for offset, i in zip(offsets, stream))
    if end - first >= _HALF_SPACE:
        raise IncompleteExchangeError(
            f"the {what} spans {end - first} bytes; no stream of 2^31 bytes "
            "or more has unambiguous sequence numbers")
    end_seq = seqs[stream[0]] + end
    return end - first, next((i for i in candidates if (
        acks[i] - end_seq) % SEQ_SPACE < _HALF_SPACE), None)
