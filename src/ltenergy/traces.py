"""Trace-driven energy evaluation for connection-oriented workloads.

Transport protocols with rate control tie transfer times to the round-trip
time, which defeats the closed-form model.  This module instead ingests
per-packet timing exports (one tab-separated line per packet, as produced
by standard analyzer field exports), extracts the per-cycle phase durations
of one request-response exchange, and feeds the measured phases into the
same energy accounting as the analytic path.  Parsing reads each line once,
rejecting non-finite timestamps and fixing each packet's sender flag,
``from_client``, against the client endpoint that the caller names, once
per endpoint pair; extraction reads that flag.  One landmark rule serves
upload-style (POST) and download-style (GET) exchanges alike; the bulk
direction only decides which stream's bytes count as the file size.

A deterministic synthetic trace generator stands in for a live testbed: it
emulates a window-growth transfer whose completion time grows with the
round-trip time, so placement comparisons can be exercised end to end.

``aggregate`` prices each repetition of one placement once, and
``rho_from_traces`` takes the edge/cloud ratio rho of two such aggregates.
The package does not re-export these names: import them from here.
"""

from __future__ import annotations

import io
import math
import sys
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .analytic import EnergyBreakdown, PhaseTiming, energy_ratio, price_cycle
from .power_model import PowerProfile, _checked

__all__ = [
    "PacketEvent",
    "TraceIteration",
    "AggregateResult",
    "TraceParseError",
    "IncompleteExchangeError",
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
# GET of about 1.9 GB, whose packets peak near 1.1 GB in memory.
MAX_TRACE_PACKETS = 2_000_000


class TraceParseError(ValueError):
    """A trace line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class IncompleteExchangeError(ValueError):
    """The events do not form one complete request-response exchange."""


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
    out = set()
    for ch in text:
        upper = ch.upper()
        if upper in _FLAG_NAMES:
            out.add(_FLAG_NAMES[upper])
        elif ch in _IGNORED_FLAG_CHARS or upper in _IGNORED_FLAG_CHARS:
            continue
        else:
            raise TraceParseError(line_no, f"bad flags field {field!r}")
    return frozenset(out)


def _parse_int(field: str, what: str, line_no: int) -> int:
    text = field.strip()
    if text in ("", "-"):
        return 0
    try:
        return int(text)
    except ValueError:
        raise TraceParseError(line_no, f"bad {what} {field!r}") from None


def parse_events(lines: str | Iterable[str],
                 client: str) -> list[PacketEvent]:
    """Parse a packet field export into a time-ordered event list.

    Line format (tab-separated): epoch timestamp with six decimals, source
    address, destination address, source port, destination port, transport
    payload length, flags (hex value or letter set), sequence number,
    acknowledgment number.  Blank lines and ``#`` comments are skipped; an
    empty or ``-`` integer field reads as 0.  ``client`` ("addr:port"), the
    endpoint where the export was captured, fixes each packet's
    ``from_client``, once per endpoint pair.  The first bad line in file
    order raises a :class:`TraceParseError` naming it: its first bad field
    in column order, a non-finite timestamp included, else a packet that
    does not involve the client.
    """
    if isinstance(lines, str):  # split at line ends only, as a text file
        lines = io.StringIO(lines, newline=None)

    events: list[PacketEvent] = []
    flag_sets: dict[str, frozenset[str]] = {}  # by raw field text
    senders: dict[tuple, bool] = {}  # from_client, by endpoint pair
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        text = line.lstrip()
        if not text or text[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 9:
            raise TraceParseError(
                line_no, f"expected 9 tab-separated fields, got {len(parts)}"
            )
        ts, src_addr, dst_addr, sport, dport, size, flag_text, sq, ak = parts
        ts = ts.strip()  # float keeps \x1c-\x1f, which str.strip drops
        try:
            timestamp = float(ts)
        except ValueError:
            timestamp = math.nan
        if not math.isfinite(timestamp):
            raise TraceParseError(line_no, f"bad timestamp {ts!r}")
        try:
            src_port, dst_port, payload, seq, ack = (
                int(sport), int(dport), int(size), int(sq), int(ak))
        except ValueError:
            # Empty and "-" read as 0, else the first bad field raises; a
            # negative payload and bad flags come before the sequence number.
            src_port = _parse_int(sport, "source port", line_no)
            dst_port = _parse_int(dport, "destination port", line_no)
            payload = _parse_int(size, "payload length", line_no)
            if payload >= 0:
                _parse_flags(flag_text, line_no)
                seq = _parse_int(sq, "sequence number", line_no)
                ack = _parse_int(ak, "acknowledgment number", line_no)
        if payload < 0:
            raise TraceParseError(line_no, "payload length must be >= 0")
        flags = flag_sets.get(flag_text)
        if flags is None:
            flags = flag_sets[flag_text] = _parse_flags(flag_text, line_no)
        if not (0 <= seq < SEQ_SPACE and 0 <= ack < SEQ_SPACE):
            raise TraceParseError(line_no, "sequence and acknowledgment "
                                  f"numbers must lie in [0, 2^32), got "
                                  f"{seq} and {ack}")
        pair = (src_addr.strip(), src_port, dst_addr.strip(), dst_port)
        from_client = senders.get(pair)
        if from_client is None:
            from_client = senders[pair] = _from_client(pair, client, line_no)
        events.append(PacketEvent._make(
            (timestamp, *pair, payload, flags, seq, ack, from_client)))

    events.sort(key=lambda event: event[0])
    return events


def _from_client(pair: tuple, client: str, line_no: int) -> bool:
    """Whether the ``client`` endpoint sent the packets between
    ``(src_addr, src_port, dst_addr, dst_port)``; they must involve it."""
    src, dst = "%s:%s" % pair[:2], "%s:%s" % pair[2:]
    if src == client or dst == client:
        return src == client
    raise TraceParseError(
        line_no, f"packet {src} -> {dst} does not involve client {client}")


def events_to_lines(events: Iterable[PacketEvent]) -> list[str]:
    """Serialise events back into the ingestion line format."""
    lines = []
    for e in events:
        flags = "".join(letter for name, letter, _ in _FLAGS
                        if name in e.flags) or "-"
        lines.append("\t".join((
            f"{e.timestamp:.6f}",
            e.src_addr, e.dst_addr,
            str(e.src_port), str(e.dst_port),
            str(e.payload_len), flags, str(e.seq), str(e.ack),
        )))
    return lines


def _split_exchange(events: Sequence[PacketEvent]):
    """Directional payload/ack views of the exchange, admin traffic removed."""
    c2s, s2c = [], []
    for e in events:
        if e.flags.isdisjoint(_ADMIN_FLAGS):
            (c2s if e.from_client else s2c).append(e)
    return c2s, s2c


def _stream_bounds(packets: Sequence[PacketEvent]) -> tuple[int, int]:
    """Offsets of the first byte and past the last byte that a list of
    payload packets covers, from the first packet's sequence number, in
    [-2^31, 2^31) modulo 2^32."""
    shift = _HALF_SPACE - packets[0].seq
    return (min((e.seq + shift) % SEQ_SPACE for e in packets) - _HALF_SPACE,
            max((e.seq + e.payload_len + shift) % SEQ_SPACE
                for e in packets) - _HALF_SPACE)


def _extract_phases(kind: str,
                    events: Sequence[PacketEvent]) -> TraceIteration:
    """Phase durations of one request-response exchange.

    One landmark rule serves both bulk directions.  The request (the upload
    of a POST) spans the first client payload packet through the first
    server packet with no payload whose acknowledgment covers the last
    request byte; retransmissions extend it, since the covering
    acknowledgment arrives after them.  The response (the download of a
    GET) spans the first server payload packet through the first later
    client packet acknowledging all of it, so it includes that final
    acknowledgment's send time.  The wait is the gap in between.  The bulk
    direction ``kind`` only decides whose byte span is the file size: the
    request's for "post", the response's for "get"; the other span is
    ``other_size``, which lets a caller check ``kind``.  Sequence and
    acknowledgment numbers count from each stream's first payload packet,
    modulo 2^32, so a stream may wrap the sequence space.
    """
    c2s, s2c = _split_exchange(events)
    request = [e for e in c2s if e.payload_len > 0]
    if not request:
        raise IncompleteExchangeError("no request payload from the client")
    request_first, request_end = _stream_bounds(request)
    request_end_seq = request[0].seq + request_end
    request_ack = next((e for e in s2c if e.payload_len == 0 and (
        e.ack - request_end_seq) % SEQ_SPACE < _HALF_SPACE), None)
    if request_ack is None:
        raise IncompleteExchangeError(
            "missing the server acknowledgment that covers the request")

    response = [e for e in s2c if e.payload_len > 0]
    if not response:
        raise IncompleteExchangeError("zero-length response from the server")
    response_start = response[0].timestamp
    if response_start < request_ack.timestamp:
        raise IncompleteExchangeError(
            "server response precedes the request acknowledgment")
    response_first, response_end = _stream_bounds(response)
    response_end_seq = response[0].seq + response_end
    final_ack = next((e for e in c2s if e.timestamp >= response_start and (
        e.ack - response_end_seq) % SEQ_SPACE < _HALF_SPACE), None)
    if final_ack is None:
        raise IncompleteExchangeError(
            "missing the client acknowledgment of the response")

    return TraceIteration(
        t_tx=(request_ack.timestamp - request[0].timestamp) * 1000.0,
        t_w=(response_start - request_ack.timestamp) * 1000.0,
        t_rx=(final_ack.timestamp - response_start) * 1000.0,
        app_kind=kind,
        file_size=(request_end - request_first if kind == "post"
                   else response_end - response_first),
        other_size=(response_end - response_first if kind == "post"
                    else request_end - request_first),
    )


def extract_post_phases(events: Sequence[PacketEvent]) -> TraceIteration:
    """Phases of an upload-style exchange; see :func:`_extract_phases`."""
    return _extract_phases("post", events)


def extract_get_phases(events: Sequence[PacketEvent]) -> TraceIteration:
    """Phases of a download-style exchange; see :func:`_extract_phases`."""
    return _extract_phases("get", events)


def _segment_sizes(total: int) -> list[int]:
    full, rem = divmod(total, MSS_BYTES)
    return [MSS_BYTES] * full + ([rem] if rem else [])


def _bulk_packets(total: int) -> int:
    """Packets of a bulk transfer of ``total`` bytes: its segments and an
    acknowledgment of each second one but the last."""
    segments = -(-total // MSS_BYTES)
    return segments + max(segments - 1, 0) // 2


# (addr, port) of the synthetic client and server.
_SYNTH_ENDPOINTS = tuple((addr, int(port)) for addr, port in (
    endpoint.rsplit(":", 1) for endpoint in (SYNTH_CLIENT, SYNTH_SERVER)))


def _synthetic_event(t_s: float, from_client: bool, payload: int,
                     flags: frozenset[str], seq: int, ack: int) -> PacketEvent:
    client, server = _SYNTH_ENDPOINTS
    src, dst = (client, server) if from_client else (server, client)
    return PacketEvent(t_s, *src, *dst, payload, flags, seq, ack, from_client)


class _TracePlan(NamedTuple):
    packets: list[PacketEvent]
    request_us: int
    request_ack_us: int
    response_us: int | None
    final_ack_us: int | None


def _transfer_arrivals(n_segments: int, start_us: int, rtt_us: int,
                       seg_gap_us: float) -> list[float]:
    """Per-segment times of a window-growth transfer seen at one endpoint.

    The window starts at ``_INIT_WINDOW_SEGMENTS`` and doubles every round
    trip; segments within a round are spaced at the bottleneck serialisation
    time.  Once the window covers the round-trip time the rounds merge into
    a continuous stream.
    """
    times: list[float] = []
    cursor = float(start_us)
    sent = 0
    window = _INIT_WINDOW_SEGMENTS
    while sent < n_segments:
        count = min(n_segments - sent, window)
        times.extend(cursor + j * seg_gap_us for j in range(count))
        cursor = max(cursor + rtt_us, times[-1] + seg_gap_us)
        sent += count
        window *= 2
    return times


def _plan_trace(kind: str, file_size: int, rtt_ms: float,
                bottleneck_bps: float, isn_client: int,
                isn_server: int) -> _TracePlan:
    """The packets of one exchange in time order, with the given initial
    sequence numbers, and the microsecond landmarks extraction recovers."""
    if kind not in ("post", "get"):
        raise ValueError("kind must be 'post' or 'get'")
    if file_size < 0:
        raise ValueError("file_size must be non-negative")
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

    # The file is the response of a GET and the request body of a POST; a
    # POST's status reply and a GET's file may be empty.
    if kind == "get":
        request_bytes, response_bytes = GET_REQUEST_BYTES, file_size
    else:
        request_bytes = POST_HEADER_BYTES + file_size
        response_bytes = POST_STATUS_BYTES if file_size > 0 else 0
    # Handshake, request, its acknowledgment, response, the final
    # acknowledgment and teardown.
    count = (3 + _bulk_packets(request_bytes) + 1
             + (_bulk_packets(response_bytes) + 1 if response_bytes else 0)
             + 3)
    if count > MAX_TRACE_PACKETS:
        raise ValueError(f"file_size {file_size} needs {count} packets, "
                         f"more than {MAX_TRACE_PACKETS}")

    rtt_us = finite_us(rtt_ms * 1000.0)
    seg_gap_us = 8.0 * MSS_BYTES / bottleneck_bps * 1e6
    packets: list[tuple[int, PacketEvent]] = []
    isn = {True: isn_client, False: isn_server}  # by from_client

    def pkt(t_us, from_client, payload, flags, seq_rel, ack_rel):
        # seq_rel: offset into the sender's stream; ack_rel: into the peer's.
        t_us = finite_us(t_us)
        ack = isn[not from_client] + ack_rel if "ACK" in flags else 0
        packets.append((t_us, _synthetic_event(
            t_us / 1e6, from_client, payload, frozenset(flags),
            isn[from_client] + seq_rel, ack)))

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
        for i, (t, seg) in enumerate(zip(times, sizes)):
            is_last = i == len(sizes) - 1
            flags = {"PSH", "ACK"} if is_last else {"ACK"}
            pkt(round(t), from_client, seg, flags, 1 + offset, peer_next)
            offset += seg
            if i % 2 == 1 and not is_last:
                pkt(round(t) + ack_delay_us, not from_client, 0, {"ACK"},
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

    response_us = final_ack_us = None
    last_us = request_ack_us
    if response_bytes > 0:
        response_us, response_end_us = bulk(
            False, response_bytes, request_ack_us + _SERVER_THINK_US,
            client_next)
        final_ack_us = last_us = response_end_us + _TURNAROUND_US
        pkt(final_ack_us, True, 0, {"ACK"}, client_next, server_next)

    # Teardown: client closes, server closes back.
    fin_us = last_us + 2 * _TURNAROUND_US
    pkt(fin_us, True, 0, {"FIN", "ACK"}, client_next, server_next)
    pkt(fin_us + rtt_us, False, 0, {"FIN", "ACK"},
        server_next, client_next + 1)
    pkt(fin_us + rtt_us + _TURNAROUND_US, True, 0, {"ACK"},
        client_next + 1, server_next + 1)

    packets.sort(key=lambda p: p[0])
    return _TracePlan([event for _, event in packets],
                      request_us, request_ack_us, response_us, final_ack_us)


def synthesize_trace(kind: str, file_size: int, rtt_ms: float,
                     bottleneck_bps: float, seed: int = 0
                     ) -> list[PacketEvent]:
    """Deterministic synthetic exchange between a fixed client and server.

    Emulates a window-growth transfer bottlenecked at ``bottleneck_bps``:
    completion time strictly increases with the round-trip time.  Payload
    streams are segmented at {mss} bytes; handshake and teardown packets are
    included so exclusion logic can be exercised.  Upload exchanges prepend
    a {hdr}-byte request header to the file bytes; a zero ``file_size``
    degenerates to the request and its bare acknowledgment.  The seed draws
    the two initial sequence numbers only, never the timing.
    """
    rng = Random(seed)
    isns = rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 31)
    return _plan_trace(kind, file_size, rtt_ms, bottleneck_bps, *isns).packets


synthesize_trace.__doc__ = synthesize_trace.__doc__.format(
    mss=MSS_BYTES, hdr=POST_HEADER_BYTES)


def scheduled_phases(kind: str, file_size: int, rtt_ms: float,
                     bottleneck_bps: float) -> tuple[float, float, float]:
    """Phases (t_tx, t_w, t_rx) in ms that the generator schedules.

    Computed from the planned packet landmarks that extraction recovers
    (the initial sequence numbers, zero here, move no time), via the same
    arithmetic, so extraction of a synthesized trace matches this exactly.
    Requires a positive ``file_size`` (a degenerate exchange has no
    download phase).
    """
    plan = _plan_trace(kind, file_size, rtt_ms, bottleneck_bps, 0, 0)
    if plan.response_us is None or plan.final_ack_us is None:
        raise ValueError("a zero-byte exchange has no scheduled phases")
    request_s, request_ack_s, response_s, final_ack_s = (
        t_us / 1e6 for t_us in (plan.request_us, plan.request_ack_us,
                                plan.response_us, plan.final_ack_us))
    return (
        (request_ack_s - request_s) * 1000.0,
        (response_s - request_ack_s) * 1000.0,
        (final_ack_s - response_s) * 1000.0,
    )


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
