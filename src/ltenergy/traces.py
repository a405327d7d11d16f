"""Trace-driven energy evaluation for connection-oriented workloads.

Transport protocols with rate control tie transfer times to the round-trip
time, which defeats the closed-form model.  This module instead ingests
per-packet timing exports (one tab-separated line per packet, as produced
by standard analyzer field exports), extracts the per-cycle phase durations
of one request-response exchange, and feeds the measured phases into the
same energy accounting as the analytic path.  An export is one TCP
connection: the caller names the client endpoint, and the first packet
fixes the server.  A parse returns :class:`Packets`, one list per packet
field and the two endpoints once, and builds no object per packet.
Extraction finds its landmarks over the columns.  One landmark rule serves
upload-style (POST) and download-style (GET) exchanges alike; the bulk
direction only decides which stream's bytes count as the file size.

A deterministic synthetic trace generator stands in for a live testbed: it
emulates a window-growth transfer whose completion time grows with the
round-trip time, so placement comparisons can be exercised end to end.

``aggregate`` prices each repetition of one placement once, and
``rho_from_traces`` takes the edge/cloud ratio rho of two such aggregates.
"""

from __future__ import annotations

import io
import math
import sys
from bisect import bisect_left
from itertools import compress, count, filterfalse, islice, repeat
from operator import add, le
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .analytic import EnergyBreakdown, PhaseTiming, energy_ratio, price_cycle
from .power_model import PowerProfile, _checked

__all__ = [
    "Packets",
    "TraceIteration",
    "AggregateResult",
    "TraceParseError",
    "IncompleteExchangeError",
    "parse_endpoint",
    "parse_events",
    "events_to_lines",
    "extract_post_phases",
    "extract_get_phases",
    "aggregate",
    "rho_from_traces",
    "synthesize_trace",
    "scheduled_phases",
]

MSS_BYTES = 1448
# TCP sequence numbers wrap at 2^32 and compare in serial-number arithmetic
# (RFC 1982; RFC 9293, section 3.4): ``a`` reaches ``b`` when ``(a - b) %
# SEQ_SPACE < _HALF_SPACE``.
SEQ_SPACE = 2 ** 32
_HALF_SPACE = SEQ_SPACE // 2

# Synthetic generator conventions.  The client endpoint is fixed so traces
# can be analysed without out-of-band metadata; seeds vary the sequence
# number space only.
SYNTH_CLIENT = "198.51.100.10:52000"
SYNTH_SERVER = "203.0.113.5:80"
GET_REQUEST_BYTES = 150
POST_HEADER_BYTES = 160
POST_STATUS_BYTES = 100
_INIT_WINDOW_SEGMENTS = 10
_TURNAROUND_US = 200
_ACK_DELAY_US = 100
_SERVER_THINK_US = 2000
# Most packets a synthetic trace may have, checked before any is built: a
# GET of about 1.9 GB, whose packets peak near 0.75 GB in memory (about 370
# bytes per packet, measured on a GET of 10^8 bytes).
MAX_TRACE_PACKETS = 2_000_000
# Export lines that ``parse_events`` converts at a time: its memory grows
# with the packets, not with the export's bytes, and larger chunks were
# slower.
_CHUNK_LINES = 1024


class TraceParseError(ValueError):
    """A trace line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class IncompleteExchangeError(ValueError):
    """The events do not form one complete request-response exchange."""


class Packets:
    """The packets of one TCP connection, stably sorted by timestamp: one
    list per field in ``COLUMNS``, and the ``client`` and ``server``
    ``(addr, port)``, ``None`` without packets.  ``len()`` counts packets."""

    COLUMNS = ("timestamp",  # epoch seconds, microsecond precision
               "payload_len",  # transport payload bytes
               "flags",  # frozenset, a subset of {SYN, FIN, RST, ACK, PSH}
               "seq", "ack",
               "from_client")  # sent by the client endpoint, else server
    __slots__ = (*COLUMNS, "client", "server")

    def __init__(self, columns: Sequence[list], client: tuple | None,
                 server: tuple | None):
        stamps = columns[0]
        if not all(map(le, stamps, islice(stamps, 1, None))):
            order = sorted(range(len(stamps)), key=stamps.__getitem__)
            columns = [list(map(col.__getitem__, order)) for col in columns]
        for name, column in zip(self.COLUMNS, columns, strict=True):
            setattr(self, name, column)
        self.client, self.server = client, server

    def __len__(self) -> int:
        return len(self.timestamp)


@_checked
class TraceIteration(NamedTuple):
    """Measured phases (ms) of one request-response exchange.

    The residual quiet time is not a property of the trace: it is derived
    from the application period when the exchange is priced.
    """

    t_tx: float
    t_w: float
    t_rx: float
    app_kind: str  # "post" or "get"
    file_size: int  # application bytes moved in the bulk direction
    other_size: int = 0  # bytes moved the other way, 0 when not measured

    def _check(self) -> None:
        for name in ("t_tx", "t_w", "t_rx"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.app_kind not in ("post", "get"):
            raise ValueError("app_kind must be 'post' or 'get'")


# The tracked TCP flags as (name, letter, header bit), in the order that
# exports write their letters.
_FLAGS = (("SYN", "S", 0x02), ("FIN", "F", 0x01), ("RST", "R", 0x04),
          ("PSH", "P", 0x08), ("ACK", "A", 0x10))
_FLAG_NAMES = {letter: name for name, letter, _ in _FLAGS}
# Letters tolerated in analyzer exports but not tracked by the model.
_IGNORED_FLAG_CHARS = set(".*-·ECUW")
# Flags of handshake and teardown packets, which carry no exchange phase.
_ADMIN_FLAGS = frozenset({"SYN", "FIN", "RST"})


def _parse_flags(field: str, line_no: int) -> frozenset[str]:
    text = field.strip()
    if text in ("", "-"):
        return frozenset()
    if text.lower().startswith("0x") or text.isdigit():
        try:
            bits = int(text, 16) if text.lower().startswith("0x") else int(text)
        except ValueError:
            raise TraceParseError(line_no, f"bad flags field {field!r}") from None
        return frozenset(name for name, _, bit in _FLAGS if bits & bit)
    names = {_FLAG_NAMES.get(ch.upper()) for ch in text
             if ch not in _IGNORED_FLAG_CHARS
             and ch.upper() not in _IGNORED_FLAG_CHARS}
    if None in names:  # a letter neither tracked nor ignored
        raise TraceParseError(line_no, f"bad flags field {field!r}")
    return frozenset(names)


def _parse_int(field: str, what: str, line_no: int) -> int:
    text = field.strip()
    if text in ("", "-"):
        return 0
    try:
        return int(text)
    except ValueError:
        raise TraceParseError(line_no, f"bad {what} {field!r}") from None


def parse_endpoint(text: str, what: str = "endpoint") -> tuple[str, int]:
    """``(addr, port)`` of ``addr:port``, each stripped; port 0 to 65535."""
    addr, colon, port = text.rpartition(":")
    if colon and port.strip().isdecimal() and int(port) < 65536:
        return addr.strip(), int(port)
    raise ValueError(f"{what} {text!r} is not addr:port with port 0-65535")


def parse_events(lines: str | Iterable[str], client: tuple) -> Packets:
    """Parse a packet field export into time-ordered packet columns.

    Line format (tab-separated): epoch timestamp with six decimals, source
    address, destination address, source port, destination port, transport
    payload length, flags (hex value or letter set), sequence number,
    acknowledgment number.  An export is one TCP connection: ``client``,
    the ``(addr, port)`` where it was captured, fixes each packet's
    ``from_client``, and the first packet in file order fixes the server.
    The first bad line in file order raises a :class:`TraceParseError`
    naming it: its first bad field in column order, a non-finite timestamp
    included, else a packet that is not on the connection.  It reads chunks
    of ``_CHUNK_LINES`` lines.  A chunk of plain packet lines, as
    :func:`events_to_lines` writes them, is converted by column, each
    distinct flags text and endpoint resolved once per call; any other is
    read line by line, where blank and ``#`` lines are skipped, an empty or
    ``-`` integer field reads as 0 and a padded timestamp is stripped.
    """
    if isinstance(lines, str):  # split at line ends only, as a text file
        lines = io.StringIO(lines, newline=None)
    lines, line_no = iter(lines), 1
    columns: list[list] = [[] for _ in Packets.COLUMNS]
    state = _ParseState(client)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        try:
            converted = _convert_chunk(chunk, state)
        except ValueError:
            converted = zip(*filter(None, map(
                _parse_line, chunk, count(line_no), repeat(state))))
        for column, values in zip(columns, converted):
            column.extend(values)
        line_no += len(chunk)
    return Packets(columns, *state.ends)


class _ParseState:
    """What both line readers of a parse share: the ``client`` that the
    caller names, ``ends``, the client and server that :meth:`sender` fixes
    from the first packet, each an ``(addr, port)``, and two caches."""

    def __init__(self, client: tuple[str, int]):
        self.client, self.ends = client, (None, None)
        self.flag_sets: dict[str, frozenset[str]] = {}  # by raw field text
        self.senders: dict[tuple, bool] = {}  # by raw endpoint field texts

    def sender(self, pair: tuple, line_no: int) -> bool:
        """Whether the client sent the packets between ``(src_addr,
        src_port, dst_addr, dst_port)``, which must be on the connection."""
        from_client = pair[:2] == self.client
        ends = (pair[:2], pair[2:]) if from_client else (pair[2:], pair[:2])
        if ends[0] != self.client:
            why = "does not involve client %s:%s" % self.client
        elif self.ends[1] in (None, ends[1]):
            self.ends = ends
            return from_client
        else:
            why = "is not on the connection with %s:%s" % self.ends[1]
        raise TraceParseError(line_no, "packet %s:%s -> %s:%s " % pair + why)


def _convert_chunk(chunk: list[str], state: _ParseState) -> tuple:
    """The :class:`Packets` columns of ``chunk``, filling the caches, when
    each line is a plain packet line: nine tab-separated fields with
    decimal integers; else a ``ValueError`` for ``_parse_line`` to read."""
    # Every line has nine fields when the form feed that ends each line but
    # the last ends slot 9k + 8; ``int`` ignores it, and no line may hold one.
    fields = "\f\t".join(chunk).split("\t")
    if ("\f" in "".join(chunk) or len(fields) != 9 * len(chunk)
            or "".join(fields[8::9]).count("\f") != len(chunk) - 1):
        raise ValueError
    stamps = list(map(float, fields[0::9]))
    sizes, seqs, acks = (list(map(int, fields[k::9])) for k in (5, 7, 8))
    if not (math.isfinite(sum(stamps))
            and 0 <= min(sizes) <= max(sizes) < _HALF_SPACE
            and 0 <= min(seqs) <= max(seqs) < SEQ_SPACE
            and 0 <= min(acks) <= max(acks) < SEQ_SPACE):
        raise ValueError
    flag_sets, senders = state.flag_sets, state.senders
    for text in set(fields[6::9]).difference(flag_sets):
        flag_sets[text] = _parse_flags(text, 0)
    keys = list(zip(fields[1::9], fields[3::9], fields[2::9], fields[4::9]))
    # Line 1 first, so that no packet of another connection fixes the server.
    for key in (keys[0], *set(keys).difference(senders)):
        src_addr, sport, dst_addr, dport = key
        senders[key] = state.sender(
            (src_addr.strip(), int(sport), dst_addr.strip(), int(dport)), 0)
    return (stamps, sizes, list(map(flag_sets.__getitem__, fields[6::9])),
            seqs, acks, list(map(senders.__getitem__, keys)))


def _parse_line(raw: str, line_no: int, state: _ParseState) -> tuple | None:
    """The :class:`Packets` fields of one export line, ``None`` for a blank
    or comment line; its first bad field in column order raises, else a
    packet that is not on the connection."""
    if raw.lstrip()[:1] in ("", "#"):
        return None
    parts = raw.rstrip("\n").split("\t")
    if len(parts) != 9:
        raise TraceParseError(
            line_no, f"expected 9 tab-separated fields, got {len(parts)}")
    ts, src_addr, dst_addr, sport, dport, size, flag_text, sq, ak = parts
    ts = ts.strip()  # float keeps \x1c-\x1f, which str.strip drops
    try:
        timestamp = float(ts)
    except ValueError:
        timestamp = math.nan
    if not math.isfinite(timestamp):
        raise TraceParseError(line_no, f"bad timestamp {ts!r}")
    src_port = _parse_int(sport, "source port", line_no)
    dst_port = _parse_int(dport, "destination port", line_no)
    payload = _parse_int(size, "payload length", line_no)
    if payload < 0:
        raise TraceParseError(line_no, "payload length must be >= 0")
    if payload >= _HALF_SPACE:  # more than one stream's serial window holds
        raise TraceParseError(line_no, "payload length must be < 2^31")
    flags = _parse_flags(flag_text, line_no)
    seq = _parse_int(sq, "sequence number", line_no)
    ack = _parse_int(ak, "acknowledgment number", line_no)
    if not (0 <= seq < SEQ_SPACE and 0 <= ack < SEQ_SPACE):
        raise TraceParseError(line_no, "sequence and acknowledgment "
                              f"numbers must lie in [0, 2^32), got "
                              f"{seq} and {ack}")
    return (timestamp, payload, flags, seq, ack, state.sender(
        (src_addr.strip(), src_port, dst_addr.strip(), dst_port), line_no))


def events_to_lines(packets: Packets) -> list[str]:
    """Serialise packets back into the ingestion line format."""
    if not len(packets):
        return []
    letters = {flags: "".join(letter for name, letter, _ in _FLAGS
                              if name in flags) or "-"
               for flags in set(packets.flags)}
    (c_addr, c_port), (s_addr, s_port) = packets.client, packets.server
    ends = {True: f"{c_addr}\t{s_addr}\t{c_port}\t{s_port}",  # by sender
            False: f"{s_addr}\t{c_addr}\t{s_port}\t{c_port}"}
    return list(map("\t".join, zip(
        map(format, packets.timestamp, repeat(".6f")),
        map(ends.__getitem__, packets.from_client),
        map(str, packets.payload_len), map(letters.__getitem__, packets.flags),
        map(str, packets.seq), map(str, packets.ack))))


def _coverage(what: str, stream: list[int], candidates: Iterable[int],
              seqs: list[int], sizes: list[int],
              acks: list[int]) -> tuple[int, int | None]:
    """The bytes that the payload packets at indices ``stream`` cover, and
    the first packet of ``candidates`` whose acknowledgment reaches the
    stream's end, ``None`` if none does.

    Sequence numbers count from ``first``, the first packet's, in
    [first - 2^31, first + 2^31), shifted there modulo 2^32 if they wrap;
    each packet ends at its mapped number plus its size.  A stream of 2^31
    bytes or more fits in no window: an :class:`IncompleteExchangeError`.
    """
    first = seqs[stream[0]]
    starts = list(map(seqs.__getitem__, stream))
    lengths = list(map(sizes.__getitem__, stream))
    low, high = min(starts), max(map(add, starts, lengths))
    if not (first - _HALF_SPACE <= low and high < first + _HALF_SPACE):
        shift = _HALF_SPACE - first
        starts = [(seq + shift) % SEQ_SPACE - shift for seq in starts]
        low, high = min(starts), max(map(add, starts, lengths))
    if high - low >= _HALF_SPACE:
        raise IncompleteExchangeError(
            f"the {what} spans {high - low} bytes; no stream of 2^31 bytes "
            "or more has unambiguous sequence numbers")
    return high - low, next((i for i in candidates if (
        acks[i] - high) % SEQ_SPACE < _HALF_SPACE), None)


def _extract_phases(kind: str, packets: Packets) -> TraceIteration:
    """Phase durations of one request-response exchange.

    One landmark rule serves both bulk directions.  The request (the upload
    of a POST) spans the first client payload packet through the first
    server packet with no payload whose acknowledgment covers the last
    request byte; retransmissions extend it, since the covering
    acknowledgment arrives after them.  The response (the download of a
    GET) spans the first server payload packet through the first later
    client packet acknowledging all of it, so it includes that final
    acknowledgment's send time.  The wait is the gap in between.  ``kind``
    only decides whose byte count is the file size: the request's for
    "post", the response's for "get"; the other is ``other_size``, which
    lets a caller check ``kind``.  :func:`_coverage` measures both streams.
    """
    stamps, sizes, seqs, acks, senders = (
        packets.timestamp, packets.payload_len, packets.seq, packets.ack,
        packets.from_client)
    exchange = {flags for flags in set(packets.flags)
                if flags.isdisjoint(_ADMIN_FLAGS)}
    # Indices, in time order, of the packets that are not handshake or
    # teardown: the client's, the server's, then those with payload.
    kept = list(compress(count(), map(exchange.__contains__, packets.flags)))
    c2s = list(compress(kept, map(senders.__getitem__, kept)))
    s2c = list(filterfalse(senders.__getitem__, kept))
    request = list(compress(c2s, map(sizes.__getitem__, c2s)))
    response = list(compress(s2c, map(sizes.__getitem__, s2c)))

    if not request:
        raise IncompleteExchangeError("no request payload from the client")
    request_size, request_ack = _coverage(
        "request", request, filterfalse(sizes.__getitem__, s2c), seqs, sizes,
        acks)
    if request_ack is None:
        raise IncompleteExchangeError(
            "missing the server acknowledgment that covers the request")

    if not response:
        raise IncompleteExchangeError("zero-length response from the server")
    response_start = stamps[response[0]]
    if response_start < stamps[request_ack]:
        raise IncompleteExchangeError(
            "server response precedes the request acknowledgment")
    later = c2s[bisect_left(c2s, bisect_left(stamps, response_start)):]
    response_size, final_ack = _coverage("response", response, later, seqs,
                                         sizes, acks)
    if final_ack is None:
        raise IncompleteExchangeError(
            "missing the client acknowledgment of the response")

    return TraceIteration(
        t_tx=(stamps[request_ack] - stamps[request[0]]) * 1000.0,
        t_w=(response_start - stamps[request_ack]) * 1000.0,
        t_rx=(stamps[final_ack] - response_start) * 1000.0,
        app_kind=kind,
        file_size=request_size if kind == "post" else response_size,
        other_size=response_size if kind == "post" else request_size,
    )


def extract_post_phases(packets: Packets) -> TraceIteration:
    """Phases of an upload-style exchange; see :func:`_extract_phases`."""
    return _extract_phases("post", packets)


def extract_get_phases(packets: Packets) -> TraceIteration:
    """Phases of a download-style exchange; see :func:`_extract_phases`."""
    return _extract_phases("get", packets)


def _segment_sizes(total: int) -> list[int]:
    full, rem = divmod(total, MSS_BYTES)
    return [MSS_BYTES] * full + ([rem] if rem else [])


def _bulk_packets(total: int) -> int:
    """Packets of a bulk transfer of ``total`` bytes: its segments and an
    acknowledgment of each second one but the last."""
    segments = -(-total // MSS_BYTES)
    return segments + (segments - 1) // 2


# (addr, port) of the synthetic client and server.
_SYNTH_PAIR = tuple(map(parse_endpoint, (SYNTH_CLIENT, SYNTH_SERVER)))


def _synthetic_event(isn: dict[bool, int], t_us: int, from_client: bool,
                     payload: int, flags: frozenset[str], seq_rel: int,
                     ack_rel: int) -> tuple:
    """One planned packet as ``(t_us, from_client, payload, flags, seq,
    ack)``: ``seq_rel`` is an offset into the sender's stream, ``ack_rel``
    into the peer's, from the initial sequence numbers ``isn``."""
    ack = isn[not from_client] + ack_rel if "ACK" in flags else 0
    return (t_us, from_client, payload, flags, isn[from_client] + seq_rel,
            ack)


def _transfer_arrivals(n_segments: int, start_us: int, rtt_us: int,
                       seg_gap_us: float) -> list[float]:
    """Per-segment times of a window-growth transfer seen at one endpoint.

    The window starts at ``_INIT_WINDOW_SEGMENTS`` and doubles every round
    trip; segments within a round are spaced at the bottleneck serialisation
    time.  Once the window covers the round-trip time the rounds merge into
    a continuous stream.
    """
    times: list[float] = []
    cursor, sent, window = float(start_us), 0, _INIT_WINDOW_SEGMENTS
    while sent < n_segments:
        count = min(n_segments - sent, window)
        times.extend(cursor + j * seg_gap_us for j in range(count))
        cursor = max(cursor + rtt_us, times[-1] + seg_gap_us)
        sent += count
        window *= 2
    return times


def _plan_trace(kind: str, file_size: int, rtt_ms: float,
                bottleneck_bps: float, isn_client: int,
                isn_server: int) -> tuple[Packets, tuple]:
    """The packets of one exchange, with the given initial sequence
    numbers, and the microsecond times of the landmarks that extraction
    recovers: the request, its acknowledgment, the response and its final
    acknowledgment.  The model's cycle has a response, so a file is at least
    one byte."""
    if kind not in ("post", "get"):
        raise ValueError("kind must be 'post' or 'get'")
    if file_size < 1:
        raise ValueError("file_size must be at least 1 byte")
    for name, value in (("rtt", rtt_ms), ("bottleneck", bottleneck_bps)):
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"{name} must be finite and strictly positive, got {value!r}")

    def finite_us(t_us):
        """``t_us`` in whole microseconds, which a float still holds."""
        if not t_us < sys.float_info.max:
            raise ValueError(
                f"rtt {rtt_ms!r} ms gives trace times that are not finite")
        return round(t_us)

    # The file is the response of a GET and the request body of a POST.
    if kind == "get":
        request_bytes, response_bytes = GET_REQUEST_BYTES, file_size
    else:
        request_bytes = POST_HEADER_BYTES + file_size
        response_bytes = POST_STATUS_BYTES
    # Handshake, request, its acknowledgment, response, the final
    # acknowledgment and teardown.
    count = (3 + _bulk_packets(request_bytes) + 1
             + _bulk_packets(response_bytes) + 1 + 3)
    if count > MAX_TRACE_PACKETS:
        raise ValueError(f"file_size {file_size} needs {count} packets, "
                         f"more than {MAX_TRACE_PACKETS}")

    rtt_us = finite_us(rtt_ms * 1000.0)
    seg_gap_us = 8.0 * MSS_BYTES / bottleneck_bps * 1e6
    packets: list[tuple] = []
    isn = {True: isn_client, False: isn_server}  # by from_client

    def pkt(t_us, from_client, payload, flags, seq_rel, ack_rel):
        packets.append(_synthetic_event(isn, finite_us(t_us), from_client,
                                        payload, frozenset(flags), seq_rel,
                                        ack_rel))

    def bulk(from_client, size, start_us, peer_next):
        """Segments of ``size`` bytes from ``start_us`` on, each second one
        but the last acknowledged as seen at the client; returns the first
        and last segment times."""
        sizes = _segment_sizes(size)
        times = _transfer_arrivals(len(sizes), start_us, rtt_us, seg_gap_us)
        if not math.isfinite(times[-1]):
            raise ValueError(
                f"bottleneck {bottleneck_bps!r} bit/s with rtt {rtt_ms!r} ms "
                "gives segment times that are not finite")
        ack_delay_us = rtt_us if from_client else _ACK_DELAY_US
        offset = 0
        ack, last = frozenset({"ACK"}), frozenset({"PSH", "ACK"})  # shared
        for i, (t, seg) in enumerate(zip(times, sizes)):
            is_last = i == len(sizes) - 1
            pkt(round(t), from_client, seg, last if is_last else ack,
                1 + offset, peer_next)
            offset += seg
            if i % 2 == 1 and not is_last:
                pkt(round(t) + ack_delay_us, not from_client, 0, ack,
                    peer_next, 1 + offset)
        return round(times[0]), round(times[-1])

    # Three-way handshake; the SYN consumes one sequence number.
    pkt(0, True, 0, {"SYN"}, 0, 0)
    pkt(rtt_us, False, 0, {"SYN", "ACK"}, 0, 1)
    pkt(rtt_us + _TURNAROUND_US, True, 0, {"ACK"}, 1, 1)
    request_us = rtt_us + 2 * _TURNAROUND_US

    client_next, server_next = 1 + request_bytes, 1 + response_bytes
    request_ack_us = bulk(True, request_bytes, request_us, 1)[1] + rtt_us
    pkt(request_ack_us, False, 0, {"ACK"}, 1, client_next)

    response_us, response_end_us = bulk(
        False, response_bytes, request_ack_us + _SERVER_THINK_US, client_next)
    final_ack_us = response_end_us + _TURNAROUND_US
    pkt(final_ack_us, True, 0, {"ACK"}, client_next, server_next)

    # Teardown: client closes, server closes back.
    fin_us = final_ack_us + 2 * _TURNAROUND_US
    pkt(fin_us, True, 0, {"FIN", "ACK"}, client_next, server_next)
    pkt(fin_us + rtt_us, False, 0, {"FIN", "ACK"},
        server_next, client_next + 1)
    pkt(fin_us + rtt_us + _TURNAROUND_US, True, 0, {"ACK"},
        client_next + 1, server_next + 1)

    packets.sort(key=lambda p: p[0])
    t_us, senders, sizes, flags, seqs, acks = map(list, zip(*packets))
    return (Packets([[t / 1e6 for t in t_us], sizes, flags, seqs, acks,
                     senders], *_SYNTH_PAIR),
            (request_us, request_ack_us, response_us, final_ack_us))


def synthesize_trace(kind: str, file_size: int, rtt_ms: float,
                     bottleneck_bps: float, seed: int = 0) -> Packets:
    """Deterministic synthetic exchange between a fixed client and server.

    Emulates a window-growth transfer bottlenecked at ``bottleneck_bps``:
    completion time strictly increases with the round-trip time.  Payload
    streams are segmented at ``MSS_BYTES``; handshake and teardown packets
    are included so exclusion logic can be exercised.  Upload exchanges
    prepend a ``POST_HEADER_BYTES`` request header to the file bytes; a
    ``file_size`` below one byte, an exchange without a response, raises.
    The seed draws the two initial sequence numbers only, never the timing.
    """
    rng = Random(seed)
    isns = rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 31)
    return _plan_trace(kind, file_size, rtt_ms, bottleneck_bps, *isns)[0]


def scheduled_phases(kind: str, file_size: int, rtt_ms: float,
                     bottleneck_bps: float) -> tuple[float, float, float]:
    """Phases (t_tx, t_w, t_rx) in ms that the generator schedules.

    Computed from the planned packet landmarks that extraction recovers
    (the initial sequence numbers, zero here, move no time), via the same
    arithmetic, so extraction of a synthesized trace matches this exactly.
    """
    landmarks = _plan_trace(kind, file_size, rtt_ms, bottleneck_bps, 0, 0)[1]
    seconds = [t_us / 1e6 for t_us in landmarks]
    return tuple((later - earlier) * 1000.0
                 for earlier, later in zip(seconds, seconds[1:]))


class AggregateResult(NamedTuple):
    """Energy and mean phases over the repetitions of one experiment."""

    app_kind: str  # shared by every repetition
    file_size: int  # shared by every repetition
    total_mj: float
    breakdowns: tuple[EnergyBreakdown, ...]
    timings: tuple[PhaseTiming, ...]
    mean_t_tx: float
    mean_t_w: float
    mean_t_rx: float
    mean_t_q: float


def aggregate(iterations: Sequence[TraceIteration], t_i: float,
              profile: PowerProfile) -> AggregateResult:
    """Sum the per-repetition energies of one experiment.

    All iterations must come from the same application (same kind and file
    size); the total is the plain sum over repetitions and the mean phase
    durations support timing-oriented summaries.  Every phase lies within
    the period, so a period whose multiple by the repetition count
    overflows a float is rejected, as is a total that overflows.
    """
    if not iterations:
        raise ValueError("no iterations to aggregate")
    kinds = {it.app_kind for it in iterations}
    if len(kinds) > 1:
        raise ValueError(f"mixed application kinds: {sorted(kinds)}")
    sizes = {it.file_size for it in iterations}
    if len(sizes) > 1:
        raise ValueError(f"mixed file sizes: {sorted(sizes)}")

    if not 0.0 < t_i < math.inf:
        raise ValueError(
            f"t_i must be finite and strictly positive, got {t_i!r}")
    timings, breakdowns = zip(*(price_cycle(*it[:3], t_i, profile)
                                for it in iterations))
    n = len(timings)
    if not t_i * n < math.inf:  # bounds each sum of n phases
        raise ValueError(
            f"t_i {t_i!r} ms over {n} repetitions overflows a float")
    total_mj = sum(b.e_i for b in breakdowns)
    if not total_mj < math.inf:
        raise ValueError(f"energy over {n} repetitions overflows a float")
    return AggregateResult(
        app_kind=iterations[0].app_kind,
        file_size=iterations[0].file_size,
        total_mj=total_mj,
        breakdowns=breakdowns,
        timings=timings,
        mean_t_tx=math.fsum(t.t_tx for t in timings) / n,
        mean_t_w=math.fsum(t.t_w for t in timings) / n,
        mean_t_rx=math.fsum(t.t_rx for t in timings) / n,
        mean_t_q=math.fsum(t.t_q for t in timings) / n,
    )


def rho_from_traces(edge: AggregateResult, cloud: AggregateResult) -> float:
    """Edge-to-cloud energy ratio rho of two placements of one application.

    Both aggregates come from :func:`aggregate` over matched repetitions at
    the same period and profile; they must agree on the repetition count,
    the application kind and the file size.
    """
    if len(edge.breakdowns) != len(cloud.breakdowns):
        raise ValueError("edge and cloud repetition counts differ")
    if edge.app_kind != cloud.app_kind:
        raise ValueError("edge and cloud application kinds differ")
    if edge.file_size != cloud.file_size:
        raise ValueError("edge and cloud file sizes differ")
    return energy_ratio(edge.total_mj, cloud.total_mj)
