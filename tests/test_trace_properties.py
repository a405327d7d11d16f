"""Properties of the trace front end over random inputs.

``parse_events`` is held to the per-field reference parser in
``_trace_reference`` on random exports, good and bad, also with chunks of
one to three lines so that every kind of line straddles a chunk boundary,
and its memory peak on a large export stays below the reference's; the
column reader takes no chunk with a line of other than nine fields;
extraction of a synthetic exchange is held to the schedule that generated
it; the byte coverage and acknowledgment search of a stream are held to
the per-packet modular reference, also where the stream wraps 2^32; and
serialising then parsing a synthetic exchange whose sequence numbers wrap
at 2^32 gives back the same events.  Every export that ``trace-synth``
writes, ``trace-analyze`` reads back to its scheduled phases and its bulk
stream.
"""

import json
import tempfile
import tracemalloc
from itertools import count, repeat
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ltenergy import cli, traces
from ltenergy.traces import (
    POST_HEADER_BYTES,
    SYNTH_CLIENT,
    IncompleteExchangeError,
    events_to_lines,
    extract_get_phases,
    extract_post_phases,
    parse_endpoint,
    parse_events,
    scheduled_phases,
    synthesize_trace,
)

from _trace_reference import reference_coverage, reference_parse_events, rows
from test_traces import SYNTH_ENDPOINT, packets_of, shift_sequence_space

CLIENT = "10.0.0.2:51000"
SERVER = "192.0.2.9:80"
SERVER_2 = "192.0.2.9:443"  # a second server port the client talks to
STRANGER = "10.0.0.2:51001"  # a second connection of the client's host
PAIRS = [(CLIENT, SERVER), (SERVER, CLIENT)]
# Packets of a second connection of the client: not on the connection that
# the first packet fixes.
SERVER_2_PAIRS = [(CLIENT, SERVER_2), (SERVER_2, CLIENT)]
STRANGER_PAIRS = [(STRANGER, SERVER), (SERVER, STRANGER)]

# str.strip drops all of these; float and int ignore all but \x1c-\x1f.
# A text export breaks lines at \r, as a file read in text mode does.
PADDING = " \xa0\x0b\x0c\r\x1c\x1f　"
# Field texts that are not valid in their column, by column index.
BAD_FIELDS = {
    0: ["soon", "nan", "inf", "-inf", "1e400", "", "-"],
    1: ["10.0.0.9"], 2: ["10.0.0.9"],  # valid, but involve no client
    3: ["x1", "1.5", "0x50"], 4: ["8O", "+-1", "1e3"],
    5: ["-5", "x", "1.0", "2147483648"],
    6: ["XQ", "0xZZ", "²", "Z", "0x"],
    7: ["4294967296", "-1", "abc"], 8: ["2 3", "4294967296", "-7"],
}
FLAG_TEXTS = ["A", "PA", "pa", "SA", "S", "FA", "RA", ".A..P", "·A",
              "CWA", "E", "-", "", "0x012", "0X18", "18", "16", "2"]


def empty_or(strategy):
    """Integer texts, with ``""`` and ``"-"`` (which read as 0) mixed in."""
    return st.one_of(strategy.map(str), st.sampled_from(["", "-", " - "]))


@st.composite
def packet_fields(draw, pairs):
    src, dst = draw(st.sampled_from(pairs))
    src_addr, src_port = src.rsplit(":", 1)
    dst_addr, dst_port = dst.rsplit(":", 1)
    micros = draw(st.integers(0, 2 * 10 ** 15))
    stamp = draw(st.sampled_from([f"{micros / 1e6:.6f}", str(micros)]))
    flags = draw(st.one_of(st.sampled_from(FLAG_TEXTS),
                           st.integers(0, 255).map(hex),
                           st.integers(0, 255).map(str)))
    return [stamp, src_addr, dst_addr, src_port, dst_port,
            draw(empty_or(st.integers(0, 3000))), flags,
            draw(empty_or(st.integers(0, 2 ** 32 - 1))),
            draw(empty_or(st.integers(0, 2 ** 32 - 1)))]


@st.composite
def exports(draw):
    """Lines of a random export, and the client to parse them against."""
    newline = draw(st.sampled_from([None, None, "\n", "\r\n"]))
    padding = st.text(PADDING.replace("\r", "") if newline else PADDING,
                      max_size=2)
    pairs = (PAIRS + (SERVER_2_PAIRS if draw(st.booleans()) else [])
             + (STRANGER_PAIRS if draw(st.booleans()) else []))
    items = draw(st.lists(st.one_of(
        packet_fields(pairs), packet_fields(pairs), packet_fields(pairs),
        st.sampled_from(["# capture notes", "  #\tcomment", "", "  \x0b"])),
        max_size=12))
    lines = []
    for item in items:
        if isinstance(item, str):
            lines.append(item)
            continue
        fields = [draw(padding) + f + draw(padding) for f in item]
        lines.append(fields)
    packets = [i for i, line in enumerate(lines) if isinstance(line, list)]
    if packets and draw(st.booleans()):
        # Corrupt one line: bad columns, or a wrong field count.
        fields = lines[draw(st.sampled_from(packets))]
        for column in draw(st.sets(st.integers(0, 9), min_size=1,
                                   max_size=6)):
            if column == 9 and draw(st.booleans()):
                fields.append("1")
            elif column == 9:
                fields.pop()
            else:
                fields[column] = draw(st.sampled_from(BAD_FIELDS[column]))
    lines = [line if isinstance(line, str) else "\t".join(line)
             for line in lines]
    client = draw(st.sampled_from([CLIENT, CLIENT, STRANGER]))
    return (newline.join(lines) if newline else lines), client


def outcome(parse, lines, client):
    """The parsed events, or the type and message of the error raised."""
    try:
        return list(parse(lines, client=client))
    except ValueError as exc:
        return type(exc), str(exc)


class TestParserMatchesReference:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(export=exports())
    # several bad fields on one line: the payload sign and the flags are
    # reported before the sequence number
    @example(export=("1.0\tx\ty\t1\t2\t-5\tXQ\tabc\t1", CLIENT))
    @example(export=("1.0\tx\ty\t1\t2\t5\tXQ\tabc\t1", CLIENT))
    # the same bad flags text on two lines of two exports
    @example(export=(["1.0\tx\ty\t1\t2\t5\tZ\t1\t1"], CLIENT))
    @example(export=(["2.0\t10.0.0.2\t192.0.2.9\t51000\t80\t5\tA\t1\t1",
                      "1.0\t10.0.0.2\t192.0.2.9\t51000\t80\t5\tZ\t1\t1"],
                     CLIENT))
    # the client's second server port, after the first packet's and first
    @example(export=(["1.0\t10.0.0.2\t192.0.2.9\t51000\t80\t5\tA\t1\t1",
                      "2.0\t192.0.2.9\t10.0.0.2\t443\t51000\t5\tA\t1\t1"],
                     CLIENT))
    @example(export=(["3.0\t192.0.2.9\t10.0.0.2\t443\t51000\t5\tA\t1\t1",
                      "1.0\t10.0.0.2\t192.0.2.9\t51000\t80\t5\tA\t1\t1"],
                     CLIENT))
    # one source endpoint towards the client and towards a stranger
    @example(export=(["1.0\t192.0.2.9\t10.0.0.2\t80\t51000\t5\tA\t1\t1",
                      "2.0\t192.0.2.9\t10.0.0.2\t80\t51001\t5\tA\t1\t1"],
                     CLIENT))
    def test_same_events_or_same_error(self, export):
        assert_matches_reference(export)

    @pytest.mark.parametrize("chunk_lines", [1, 2, 3])
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(export=exports())
    def test_chunk_boundaries(self, chunk_lines, export):
        """Bad, blank, comment and out-of-order lines straddle chunks."""
        with mock.patch.object(traces, "_CHUNK_LINES", chunk_lines):
            assert_matches_reference(export)


def parse_rows(lines, client):
    return rows(parse_events(lines, client=parse_endpoint(client)))


def assert_matches_reference(export):
    lines, client = export
    # Parsing again one line further down must move every line number:
    # nothing of one call may leak into the next.
    shifted = (["# shifted"] + lines if isinstance(lines, list)
               else "# shifted\n" + lines)
    for text in (lines, shifted):
        expected = outcome(reference_parse_events, text, client)
        assert outcome(parse_rows, text, client) == expected


class TestColumnReaderShape:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(chunk=st.lists(st.lists(
        st.sampled_from(["1", " 1", "1\n", "1\f"]), min_size=1,
        max_size=18).map("\t".join), min_size=1, max_size=4))
    # nine fields on average, with a line end after the ninth of the first
    @example(chunk=["\t".join(["1"] * 8 + ["1\n"] + ["1"] * 8), "1\n"])
    @example(chunk=["\t".join(["1"] * 8), "\t".join(["1"] * 10)])
    def test_nine_fields_per_line(self, chunk):
        """Lines of valid fields ("1:1" talks to itself), each with any
        count of tabs, line ends and form feeds: the column reader takes
        the chunk only when each line has nine fields, and then reads what
        the line reader reads; without form feeds, it takes it."""
        def columns(read):
            try:
                return list(map(list, read()))
            except ValueError:
                return None

        by_column = columns(lambda: traces._convert_chunk(
            chunk, traces._ParseState(("1", 1))))
        by_line = columns(lambda: zip(*map(
            traces._parse_line, chunk, count(1),
            repeat(traces._ParseState(("1", 1))))))
        if any(line.count("\t") != 8 for line in chunk):
            assert by_column is None
        elif "\f" not in "".join(chunk):
            assert by_column == by_line is not None
        else:
            assert by_column in (None, by_line)


def test_parse_peaks_below_the_reference(tmp_path):
    """Parsing by chunks of columns holds less at its peak than the
    per-line reference, which holds one ``PacketEvent`` per packet;
    converting the whole export at once would hold more."""
    path = tmp_path / "get.tsv"
    events = synthesize_trace("get", 10 ** 7, 20, 20e6)
    path.write_text("\n".join(events_to_lines(events)) + "\n",
                    encoding="utf-8")

    def peak(parse, client):
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fp:
                parse(fp, client)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(parse_events, SYNTH_ENDPOINT)
            < peak(reference_parse_events, SYNTH_CLIENT))


HALF = 2 ** 31
SPACE = 2 ** 32
# Sequence numbers of a stream's first packet: near both ends of the
# sequence space and near its middle, and anywhere.
FIRST_SEQS = st.one_of(st.integers(0, 3000),
                       st.integers(HALF - 3000, HALF + 3000),
                       st.integers(SPACE - 3000, SPACE - 1),
                       st.integers(0, SPACE - 1))
# Offsets from the first packet: in order, retransmitted or reordered
# nearby, and far enough to leave the serial-number window.
OFFSETS = st.one_of(st.integers(-6000, 20000),
                    st.integers(HALF - 3000, HALF + 3000),
                    st.integers(-HALF - 3000, -HALF + 3000),
                    st.integers(-SPACE, SPACE))
# Payloads of one or more segments, and bulks about and past 2^31 bytes.
SIZES = st.one_of(st.integers(0, 1448), st.integers(0, 20000),
                  st.sampled_from([HALF - 1, HALF, HALF + 1]),
                  st.integers(HALF - 3000, SPACE + 3000))
# Acknowledgments as an offset from one packet's end: just short of,
# at and just past it, or anywhere.
ACK_DELTAS = st.one_of(st.integers(-2, 2), st.integers(-SPACE, SPACE))


class TestCoverageMatchesReference:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(first=FIRST_SEQS,
           packets=st.lists(st.tuples(OFFSETS, SIZES), max_size=8),
           first_size=SIZES,
           acks=st.lists(st.tuples(st.integers(0, 8), ACK_DELTAS),
                         max_size=6))
    # the greatest end lands on the window's upper edge, first + 2^31
    @example(first=5, packets=[], first_size=HALF, acks=[(0, 0)])
    @example(first=HALF + 7, packets=[(-4, 3)], first_size=HALF,
             acks=[(0, 0), (1, HALF)])
    # two packets that together span 2^32 - 2 bytes, each below 2^31
    @example(first=1000, packets=[(HALF - 1, HALF - 1)], first_size=HALF - 1,
             acks=[(1, 0)])
    # a stream that wraps 2^32, acknowledged past the wrap
    @example(first=SPACE - 1000, packets=[(1448, 1448), (0, 1448)],
             first_size=1448, acks=[(0, 0), (1, 0)])
    def test_equal_reference(self, first, packets, first_size, acks):
        """``(seq, size)`` packets of one stream, from one at ``first``,
        then candidate packets acknowledging near a stream packet's end."""
        stream = [((first + offset) % SPACE, size)
                  for offset, size in [(0, first_size), *packets]]
        seqs, sizes = map(list, zip(*stream))
        ends = [seq + size for seq, size in stream]
        ack_column = [(ends[i % len(ends)] + delta) % SPACE
                      for i, delta in acks]
        n = len(stream)
        indices = list(range(n))
        candidates = list(range(n, n + len(ack_column)))
        pad = [0] * len(ack_column)
        columns = seqs + pad, sizes + pad, [0] * n + ack_column

        def outcome(coverage, candidates):
            """The value, or the message of the error, of one coverage."""
            try:
                return coverage("request", indices, candidates, *columns)
            except IncompleteExchangeError as exc:
                return str(exc)

        assert outcome(traces._coverage, iter(candidates)) == \
            outcome(reference_coverage, candidates)


class TestExtractionMatchesSchedule:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(["post", "get"]),
           size=st.integers(1, 200_000),
           rtt=st.floats(0.5, 400.0),
           bottleneck=st.floats(1e5, 1e8),
           seed=st.integers(0, 2 ** 31))
    def test_extracted_phases_equal_scheduled(self, kind, size, rtt,
                                              bottleneck, seed):
        events = synthesize_trace(kind, size, rtt, bottleneck, seed)
        extract = extract_post_phases if kind == "post" \
            else extract_get_phases
        it = extract(events)
        assert (it.t_tx, it.t_w, it.t_rx) == \
            scheduled_phases(kind, size, rtt, bottleneck)


class TestSerialiseParseRoundTrip:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(["post", "get"]),
           size=st.integers(1, 100_000),
           rtt=st.floats(0.5, 400.0),
           seed=st.integers(0, 2 ** 31),
           wrap_at=st.floats(0.0, 1.0),
           other_shift=st.integers(0, 2 ** 32 - 1))
    def test_parse_of_lines_is_identity(self, kind, size, rtt, seed,
                                        wrap_at, other_shift):
        events = synthesize_trace(kind, size, rtt, 10e6, seed)
        sender = kind == "post"  # from_client of the bulk stream
        first = next(e.seq for e in rows(events)
                     if e.payload_len > 0 and e.from_client is sender)
        # the bulk stream crosses 2^32 after ``wrap_at`` of its bytes
        shift = (2 ** 32 - first - int(wrap_at * size)) % 2 ** 32
        shifts = (shift, other_shift) if kind == "post" \
            else (other_shift, shift)
        wrapped = shift_sequence_space(rows(events), *shifts)
        assert rows(parse_events(events_to_lines(packets_of(wrapped)),
                                 SYNTH_ENDPOINT)) == wrapped
        extract = extract_post_phases if kind == "post" \
            else extract_get_phases
        assert extract(packets_of(wrapped)) == extract(events)


# File sizes to 10^5 bytes, and one draw in ten to 10^6.
FILE_SIZES = st.integers(0, 9).flatmap(
    lambda k: st.integers(1, 10 ** 6 if k == 0 else 10 ** 5))


class TestSynthAnalyzeRoundTrip:
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(["post", "get"]), size=FILE_SIZES,
           rtt=st.floats(0.001, 500.0), bottleneck=st.floats(1e4, 1e10),
           seed=st.integers(0, 2 ** 31))
    @example(kind="get", size=1, rtt=0.001, bottleneck=1e10, seed=0)
    @example(kind="post", size=1, rtt=500.0, bottleneck=1e4, seed=0)
    @example(kind="get", size=10 ** 6, rtt=0.001, bottleneck=1e4, seed=1)
    def test_analyze_reads_back_what_synth_writes(self, kind, size, rtt,
                                                  bottleneck, seed):
        """The CLI's own export analyses to the phases that
        ``scheduled_phases`` plans, at the three decimals it writes, and
        to the planned bulk stream: the file of a GET, and the request
        header and the file of a POST."""
        sched = scheduled_phases(kind, size, rtt, bottleneck)
        t_i = 2 * sum(sched) + 100_000  # room for both promotions
        with tempfile.TemporaryDirectory() as tmp:
            export, out = f"{tmp}/export.tsv", f"{tmp}/out.json"
            assert cli.main(["trace-synth", "--kind", kind, "--file-size",
                             str(size), "--rtt", repr(rtt), "--bottleneck",
                             repr(bottleneck), "--seed", str(seed), "--out",
                             export]) == 0
            assert cli.main(["trace-analyze", "--kind", kind, "--client",
                             SYNTH_CLIENT, "--t-i", repr(t_i), "--format",
                             "json", "--out", out, export]) == 0
            with open(out, encoding="utf-8") as fp:
                edge = json.load(fp)["edge"]
        assert [edge[f"{phase}_ms"] for phase in ("t_tx", "t_w", "t_rx")] \
            == [round(t, 3) for t in sched]
        assert edge["file_size"] == (
            POST_HEADER_BYTES + size if kind == "post" else size)
