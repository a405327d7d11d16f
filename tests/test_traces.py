import itertools
import random
import re
import statistics

import pytest

from ltenergy.analytic import (
    ConnectionlessScenario,
    price_cycle,
    price_scenario,
    transfer_time,
)
from ltenergy.power_model import default_profile
from ltenergy import traces
from ltenergy.traces import (
    SYNTH_CLIENT,
    IncompleteExchangeError,
    Packets,
    TraceIteration,
    TraceParseError,
    aggregate,
    events_to_lines,
    extract_get_phases,
    extract_post_phases,
    parse_endpoint,
    parse_events,
    rho_from_traces,
    scheduled_phases,
    synthesize_trace,
)

from _event_reference import canonical_cycle_events, event_driven_energy
from _trace_reference import PacketEvent, rows
from _goldens import idle_gap_energy

PROFILE = default_profile()
CLIENT = "10.0.0.2:51000"
SERVER = "192.0.2.9:80"
# The endpoints as ``parse_events`` takes them.
ENDPOINT = parse_endpoint(CLIENT)
SYNTH_ENDPOINT = parse_endpoint(SYNTH_CLIENT)


def is_admin(event):
    """Handshake or teardown packet, which extraction leaves out."""
    return not event.flags.isdisjoint({"SYN", "FIN", "RST"})


def line(ts, src, dst, payload, flags, seq, ack):
    src_addr, src_port = src.rsplit(":", 1)
    dst_addr, dst_port = dst.rsplit(":", 1)
    return "\t".join((
        f"{ts:.6f}", src_addr, dst_addr, src_port, dst_port,
        str(payload), flags, str(seq), str(ack),
    ))


def post_exchange_lines():
    # two request packets, the covering ack, a small response, its ack
    return [
        line(0.000, CLIENT, SERVER, 1000, "PA", 1, 1),
        line(0.050, CLIENT, SERVER, 500, "PA", 1001, 1),
        line(0.100, SERVER, CLIENT, 0, "A", 1, 1501),
        line(0.400, SERVER, CLIENT, 200, "PA", 1, 1501),
        line(0.405, CLIENT, SERVER, 0, "A", 1501, 201),
    ]


def get_exchange_lines():
    rows = [
        line(0.000, CLIENT, SERVER, 150, "PA", 1, 1),
        line(0.075, SERVER, CLIENT, 0, "A", 1, 151),
    ]
    seq = 1
    for i in range(11):
        rows.append(line(0.300 + 0.1 * i, SERVER, CLIENT, 1000, "A",
                         seq, 151))
        seq += 1000
    rows.append(line(1.305, CLIENT, SERVER, 0, "A", 151, seq))
    return rows


def second_peer_export():
    """The lines of the 200,000-byte synthetic GET with one 500-byte packet
    from a second peer, 192.0.2.99:443, to the client, 1 ms after the
    request's acknowledgment, and the 1-based line of that packet."""
    lines = [text + "\n" for text in events_to_lines(
        synthesize_trace("get", 200_000, 20, 20e6))]
    request = next(i for i, text in enumerate(lines)
                   if text.split("\t")[5] == "150")
    ack = lines[request + 1].split("\t")
    assert ack[1] == "203.0.113.5" and ack[5:7] == ["0", "A"]
    lines.insert(request + 2, "\t".join([
        f"{float(ack[0]) + 0.001:.6f}", "192.0.2.99", "198.51.100.10",
        "443", "52000", "500", "PA", "12345", "1"]) + "\n")
    return lines, request + 3


SECOND_PEER = ("packet 192.0.2.99:443 -> 198.51.100.10:52000 is not on the "
               "connection with 203.0.113.5:80")


def packets_of(rows):
    """The ``Packets`` of a non-empty list of ``PacketEvent`` rows of one
    connection."""
    src, dst = rows[0][1:3], rows[0][3:5]
    client, server = (src, dst) if rows[0].from_client else (dst, src)
    assert all(row[1:5] == (client + server if row.from_client
                            else server + client) for row in rows)
    return Packets([[getattr(row, name) for row in rows]
                    for name in Packets.COLUMNS], client, server)


def shift_sequence_space(events, client_shift, server_shift):
    """``events`` with each side's sequence numbers, and the peer's
    acknowledgments of them, moved by that side's shift modulo 2^32."""
    shifted = []
    for e in events:
        own, peer = (client_shift, server_shift) \
            if e.from_client \
            else (server_shift, client_shift)
        ack = (e.ack + peer) % 2 ** 32 if "ACK" in e.flags else e.ack
        shifted.append(e._replace(seq=(e.seq + own) % 2 ** 32, ack=ack))
    return shifted


class TestSequenceWrap:
    @pytest.mark.parametrize("kind", ["post", "get"])
    def test_wrapped_bulk_stream_extracts_like_unwrapped(self, kind):
        events = synthesize_trace(kind, 100_000, 40, 10e6, seed=3)
        sender = kind == "post"  # from_client of the bulk stream
        bulk = [e for e in rows(events)
                if e.payload_len > 0 and e.from_client is sender]
        # the bulk stream crosses 2^32 after its first 50,000 bytes
        shift = 2 ** 32 - bulk[0].seq - 50_000
        shifts = (shift, 0) if kind == "post" else (0, shift)
        wrapped = parse_events(
            "\n".join(events_to_lines(packets_of(
                shift_sequence_space(rows(events), *shifts)))),
            client=SYNTH_ENDPOINT)
        wrapped_bulk = [e.seq for e in rows(wrapped)
                        if e.payload_len > 0 and e.from_client is sender]
        assert min(wrapped_bulk) < 50_000 < 2 ** 32 - 50_000 <= max(
            wrapped_bulk)
        extract = extract_post_phases if kind == "post" \
            else extract_get_phases
        assert extract(wrapped) == extract(events)

    def test_response_of_2_32_minus_2_bytes_rejected(self):
        """A response whose numbers all lie in one serial-number window but
        span 2^32 - 2 bytes is an error naming the response, not a file
        size of 2^32 - 2."""
        size = 2 ** 31 - 1
        rows = get_exchange_lines()[:2] + [
            line(0.300, SERVER, CLIENT, size, "A", 2 ** 31 + 1000, 151),
            line(0.400, SERVER, CLIENT, 10, "A", 1001, 151),
            line(0.500, CLIENT, SERVER, 0, "A", 151, 999),
        ]
        events = parse_events("\n".join(rows), client=ENDPOINT)
        with pytest.raises(IncompleteExchangeError,
                           match="^the response spans 4294967294 bytes; "):
            extract_get_phases(events)

    @pytest.mark.parametrize("seq, ack", [(2 ** 32, 1), (1, 2 ** 32),
                                          (-1, 1)])
    def test_out_of_range_number_rejected(self, seq, ack):
        text = post_exchange_lines()
        text[2] = line(0.100, SERVER, CLIENT, 0, "A", seq, ack)
        with pytest.raises(TraceParseError, match="line 3.*2\\^32") as err:
            parse_events("\n".join(text), ENDPOINT)
        assert err.value.line_no == 3


class TestParseEvents:
    def test_empty_input(self):
        assert rows(parse_events("", ENDPOINT)) == []
        assert rows(parse_events([], ENDPOINT)) == []

    def test_well_formed_lines_in_order(self):
        lines = post_exchange_lines()
        shuffled = [lines[2], lines[0], lines[4], lines[1], lines[3]]
        events = parse_events("\n".join(shuffled), client=ENDPOINT)
        assert len(events) == 5
        stamps = [e.timestamp for e in rows(events)]
        assert stamps == sorted(stamps)

    def test_bad_timestamp_reports_line(self):
        text = post_exchange_lines()
        text[1] = text[1].replace("0.050000", "soon")
        with pytest.raises(TraceParseError, match="line 2") as err:
            parse_events("\n".join(text), ENDPOINT)
        assert err.value.line_no == 2

    def test_wrong_field_count(self):
        with pytest.raises(TraceParseError, match="9 tab-separated"):
            parse_events("1.0\t10.0.0.2\t10.0.0.1\n", ENDPOINT)

    def test_blank_lines_and_comments_skipped(self):
        text = "# capture of one exchange\n\n" + "\n".join(
            post_exchange_lines()) + "\n"
        assert len(parse_events(text, client=ENDPOINT)) == 5

    def test_hex_and_letter_flags(self):
        def flags(text):
            return rows(parse_events(line(0.0, CLIENT, SERVER, 0, text, 0, 0),
                                     ENDPOINT))[0].flags

        assert flags("0x012") == frozenset({"SYN", "ACK"})
        assert flags("SA") == frozenset({"SYN", "ACK"})
        assert flags("-") == frozenset()

    def test_every_flag_subset_round_trips(self):
        # TCP header bits of the tracked flags (RFC 9293, section 3.1)
        bits = {"FIN": 0x01, "SYN": 0x02, "RST": 0x04, "PSH": 0x08,
                "ACK": 0x10}
        subsets = itertools.chain.from_iterable(
            itertools.combinations(bits, k) for k in range(len(bits) + 1))
        for subset in subsets:
            flags = frozenset(subset)
            event = PacketEvent(0.0, "10.0.0.2", 51000, "192.0.2.9", 80, 0,
                                flags, 0, 0, True)
            (text,) = events_to_lines(packets_of([event]))
            assert rows(parse_events(text, ENDPOINT)) == [event]
            value = sum(bits[name] for name in flags)
            for field in (f"0x{value:03x}", str(value)):
                parsed = rows(parse_events(
                    line(0.0, CLIENT, SERVER, 0, field, 0, 0), ENDPOINT))
                assert parsed[0].flags == flags

    def test_bad_flags_rejected(self):
        with pytest.raises(TraceParseError, match="flags"):
            parse_events(line(0.0, CLIENT, SERVER, 0, "XQ", 0, 0), ENDPOINT)

    def test_direction_from_client_argument(self):
        events = rows(parse_events("\n".join(post_exchange_lines()),
                                   client=ENDPOINT))
        assert events[0].from_client is True
        assert events[2].from_client is False

    def test_stray_packet_reported_in_file_order(self):
        """A packet that involves no client is a bad line like any other:
        the first bad line in the file is reported, whatever the order of
        the timestamps and wherever a later line has a bad field."""
        rows = post_exchange_lines() + [line(0.5, CLIENT, SERVER, 0, "A",
                                             1501, 201)]
        rows.insert(4, line(0.010, "10.0.0.9:1", SERVER, 10, "PA", 1, 1))
        rows[6] = rows[6].replace("\tA\t", "\tZZ\t")
        with pytest.raises(TraceParseError) as err:
            parse_events("\n".join(rows), ENDPOINT)
        assert err.value.line_no == 5
        assert str(err.value) == (
            f"line 5: packet 10.0.0.9:1 -> {SERVER} does not involve "
            f"client {CLIENT}")

    def test_second_peer_named_by_the_column_reader(self, monkeypatch):
        """A packet between the client and a second peer is a bad line,
        not bytes of the response: a plain export, whose chunk the column
        reader reads first, names it, and so does the line reader when a
        ``#`` line sends the same chunk to it."""
        lines, stray = second_peer_export()
        read = []
        parse_line = traces._parse_line

        def spy(raw, line_no, state):
            read.append(line_no)
            return parse_line(raw, line_no, state)

        monkeypatch.setattr(traces, "_parse_line", spy)
        with pytest.raises(TraceParseError) as err:
            parse_events(lines, SYNTH_ENDPOINT)
        assert str(err.value) == f"line {stray}: {SECOND_PEER}"
        assert read[0] == 1  # the chunk fell back from the column reader
        with pytest.raises(TraceParseError) as err:
            parse_events(["# one connection\n", *lines], SYNTH_ENDPOINT)
        assert str(err.value) == f"line {stray + 1}: {SECOND_PEER}"
        del lines[stray - 1]
        assert extract_get_phases(parse_events(
            lines, SYNTH_ENDPOINT)).file_size == 200_000

    @pytest.mark.parametrize("port", range(443, 463))
    def test_first_line_fixes_the_server_in_any_set_order(self, port):
        """The column reader resolves a chunk's endpoints from a set, whose
        order is not the file's; whichever comes out first, the first line
        fixes the server, and the second peer's line is the one named."""
        lines, stray = second_peer_export()
        lines[stray - 1] = lines[stray - 1].replace("\t443\t", f"\t{port}\t")
        with pytest.raises(TraceParseError) as err:
            parse_events(lines, SYNTH_ENDPOINT)
        assert str(err.value) == f"line {stray}: " + SECOND_PEER.replace(
            ":443", f":{port}")

    def test_second_peer_first_out_of_the_set(self, monkeypatch):
        """A set that yields the chunk's endpoints in reverse file order
        puts the second peer before the server's side: line 1 still fixes
        the server."""
        class ReversedSet(set):
            def __init__(self, items=()):
                self.order = list(dict.fromkeys(items))[::-1]
                super().__init__(self.order)

            def difference(self, other):
                return [item for item in self.order if item not in other]

        monkeypatch.setattr(traces, "set", ReversedSet, raising=False)
        lines, stray = second_peer_export()
        with pytest.raises(TraceParseError) as err:
            parse_events(lines, SYNTH_ENDPOINT)
        assert str(err.value) == f"line {stray}: {SECOND_PEER}"

    def test_first_packet_fixes_the_server(self):
        """The server is the first packet's peer in file order, not in time
        order, and ``Packets`` holds both endpoints, ``None`` without
        packets."""
        rows = post_exchange_lines()
        other = "192.0.2.9:443"
        rows.insert(2, line(0.020, CLIENT, other, 10, "PA", 1, 1))
        with pytest.raises(TraceParseError) as err:
            parse_events("\n".join(rows), ENDPOINT)
        assert str(err.value) == (f"line 3: packet {CLIENT} -> {other} is "
                                  f"not on the connection with {SERVER}")
        rows.insert(0, line(0.5, other, CLIENT, 0, "A", 1, 1))
        with pytest.raises(TraceParseError) as err:
            parse_events("\n".join(rows), ENDPOINT)
        assert str(err.value) == (f"line 2: packet {CLIENT} -> {SERVER} is "
                                  f"not on the connection with {other}")
        packets = parse_events("\n".join(post_exchange_lines()), ENDPOINT)
        assert (packets.client, packets.server) == (("10.0.0.2", 51000),
                                                     ("192.0.2.9", 80))
        empty = parse_events("# no packets\n", ENDPOINT)
        assert (empty.client, empty.server) == (None, None)
        assert events_to_lines(empty) == []

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("old, new, error", [
        ("\tA\t", "\tA\x0c\t", None),
        ("\tPA\t", "\tPA\x85\t", None),
        ("10.0.0.2", "10.0.0.2\u2028", None),
        ("\tPA\t", "\tA\x1cZ\t", "line 1: bad flags field 'A\\x1cZ'"),
    ], ids=["form-feed-flags", "next-line-flags", "line-separator-address",
            "bad-flags"])
    def test_text_parses_like_a_file(self, tmp_path, newline, old, new,
                                     error):
        """A ``str`` splits into the lines that ``trace-analyze`` reads
        from the same text in a file: at line ends only, not at the other
        code points where ``str.splitlines`` breaks."""
        text = newline.join(row.replace(old, new)
                            for row in post_exchange_lines()) + newline
        path = tmp_path / "export.tsv"
        path.write_text(text, encoding="utf-8", newline="")

        def outcome(lines):
            try:
                return rows(parse_events(lines, ENDPOINT))
            except TraceParseError as exc:
                return str(exc)

        with open(path, encoding="utf-8") as fp:
            from_file = outcome(fp)
        assert outcome(text) == from_file
        if error is None:
            assert from_file == rows(parse_events(
                "\n".join(post_exchange_lines()), ENDPOINT))
        else:
            assert from_file == error

    def test_bad_line_deep_in_a_large_export(self):
        """A bad line in a later chunk is named by its line in the export."""
        lines = events_to_lines(synthesize_trace("get", 10 ** 7, 20, 20e6))
        fields = lines[5000].split("\t")
        fields[5] = "-5"
        lines[5000] = "\t".join(fields)
        with pytest.raises(TraceParseError) as err:
            parse_events("\n".join(lines), SYNTH_ENDPOINT)
        assert str(err.value) == "line 5001: payload length must be >= 0"

    @pytest.mark.parametrize("pad", ["", "\x1c"],
                             ids=["by-column", "line-by-line"])
    def test_payload_of_2_31_bytes_rejected(self, pad):
        """No serial-number window spans a payload of 2^31 bytes, so it is a
        bad line, in a chunk converted by column and in one that a padded
        timestamp sends line by line."""
        rows = post_exchange_lines()
        rows[0] = pad + rows[0]
        rows[1] = line(0.050, CLIENT, SERVER, 2 ** 31, "PA", 1001, 1)
        with pytest.raises(TraceParseError) as err:
            parse_events("\n".join(rows), ENDPOINT)
        assert str(err.value) == "line 2: payload length must be < 2^31"
        rows[1] = line(0.050, CLIENT, SERVER, 2 ** 31 - 1, "PA", 1001, 1)
        assert len(parse_events("\n".join(rows), ENDPOINT)) == 5

    @pytest.mark.parametrize("kind", ["get", "post"])
    @pytest.mark.parametrize("size", [1, 1448, 10 ** 6, 10 ** 7])
    def test_exports_as_written_convert_by_column(self, monkeypatch, kind,
                                                  size):
        """An export as ``events_to_lines`` writes it, read line by line
        from a file as ``trace-analyze`` reads it, converts by column in
        every chunk: no line reaches the line reader."""
        packets = synthesize_trace(kind, size, 20, 20e6)
        lines = [text + "\n" for text in events_to_lines(packets)]

        def line_reader(raw, line_no, client):
            raise AssertionError(f"line {line_no} read line by line")

        monkeypatch.setattr(traces, "_parse_line", line_reader)
        assert rows(parse_events(lines, SYNTH_ENDPOINT)) == rows(packets)

    @pytest.mark.parametrize("field", ["-", ""], ids=["dash", "empty"])
    def test_an_integer_read_as_0_reads_its_chunk_line_by_line(
            self, monkeypatch, field):
        """Only the line reader reads an empty or ``-`` integer field as 0:
        the chunk that holds one is read line by line, and no other."""
        packets = synthesize_trace("get", 10 ** 5, 20, 20e6)
        lines = [text + "\n" for text in events_to_lines(packets)]
        fields = lines[19].split("\t")
        fields[8] = field + "\n"  # the acknowledgment number
        lines[19] = "\t".join(fields)
        read = []
        parse_line = traces._parse_line

        def spy(raw, line_no, client):
            read.append(line_no)
            return parse_line(raw, line_no, client)

        monkeypatch.setattr(traces, "_parse_line", spy)
        monkeypatch.setattr(traces, "_CHUNK_LINES", 8)
        expected = rows(packets)
        assert expected[19].ack != 0
        expected[19] = expected[19]._replace(ack=0)
        assert rows(parse_events(lines, SYNTH_ENDPOINT)) == expected
        assert read == list(range(17, 25))  # the third chunk, 1-based

    def test_client_is_required(self):
        with pytest.raises(TypeError, match="client"):
            parse_events("\n".join(post_exchange_lines()))

    def test_serialisation_round_trip(self):
        original = synthesize_trace("get", 50_000, 75, 10e6, seed=5)
        reparsed = rows(parse_events("\n".join(events_to_lines(original)),
                                     client=SYNTH_ENDPOINT))
        assert reparsed == rows(original)


class TestExtractPost:
    def test_constructed_exchange(self):
        events = parse_events("\n".join(post_exchange_lines()),
                              client=ENDPOINT)
        it = extract_post_phases(events)
        assert it.t_tx == pytest.approx(100.0)
        assert it.t_w == pytest.approx(300.0)
        assert it.t_rx == pytest.approx(5.0)
        assert it.file_size == 1500
        assert it.app_kind == "post"

    def test_other_size_is_the_response(self):
        events = parse_events("\n".join(post_exchange_lines()),
                              client=ENDPOINT)
        assert extract_post_phases(events).other_size == 200

    def test_response_before_final_ack_rejected(self):
        rows = post_exchange_lines()
        rows[3] = line(0.080, SERVER, CLIENT, 200, "PA", 1, 1501)
        events = parse_events("\n".join(rows), client=ENDPOINT)
        with pytest.raises(IncompleteExchangeError, match="precedes"):
            extract_post_phases(events)

    def test_missing_final_ack(self):
        rows = post_exchange_lines()
        del rows[2]
        events = parse_events("\n".join(rows), client=ENDPOINT)
        with pytest.raises(IncompleteExchangeError, match="acknowledgment"):
            extract_post_phases(events)

    def test_missing_response(self):
        events = parse_events("\n".join(post_exchange_lines()[:3]),
                              client=ENDPOINT)
        with pytest.raises(IncompleteExchangeError, match="response"):
            extract_post_phases(events)

    def test_single_packet_request(self):
        rtt = 80.0
        events = synthesize_trace("post", 1, rtt, 10e6, seed=1)
        kept = [e for e in rows(events) if not is_admin(e)]
        request = [e for e in kept if e.payload_len > 0]
        acks = [e for e in kept
                if not e.from_client
                and e.ack >= request[0].seq + request[0].payload_len]
        t_tx = (acks[0].timestamp - request[0].timestamp) * 1000.0
        assert t_tx == pytest.approx(rtt)


class TestExtractGet:
    def test_constructed_exchange(self):
        events = parse_events("\n".join(get_exchange_lines()),
                              client=ENDPOINT)
        it = extract_get_phases(events)
        assert it.t_tx == pytest.approx(75.0)
        assert it.t_w == pytest.approx(225.0)
        assert it.t_rx == pytest.approx(1005.0)
        assert it.file_size == 11000

    def test_other_size_is_the_request(self):
        events = parse_events("\n".join(get_exchange_lines()),
                              client=ENDPOINT)
        assert extract_get_phases(events).other_size == 150

    def test_zero_length_response_rejected(self):
        events = parse_events("\n".join(get_exchange_lines()[:2]),
                              client=ENDPOINT)
        with pytest.raises(IncompleteExchangeError, match="zero-length"):
            extract_get_phases(events)

    def test_generator_transfer_span(self):
        sched = scheduled_phases("get", 100_000, 75, 10e6)
        events = synthesize_trace("get", 100_000, 75, 10e6, seed=2)
        it = extract_get_phases(events)
        assert (it.t_tx, it.t_w, it.t_rx) == sched


class TestAdminExclusion:
    @pytest.mark.parametrize("kind,extract", [
        ("post", extract_post_phases), ("get", extract_get_phases)])
    def test_handshake_and_teardown_do_not_shift_phases(self, kind, extract):
        events = synthesize_trace(kind, 80_000, 75, 10e6, seed=3)
        base = extract(events)
        data_only = [e for e in rows(events) if not is_admin(e)]
        stripped = extract(packets_of(data_only))
        assert stripped[:3] == base[:3]

        extra = parse_events(
            line(0.0004, SYNTH_CLIENT, "203.0.113.5:80", 0, "S", 9, 0)
            + "\n"
            + line(120.0, SYNTH_CLIENT, "203.0.113.5:80", 400, "FA", 9, 9),
            client=SYNTH_ENDPOINT,
        )
        noisy = sorted([*rows(events), *rows(extra)],
                       key=lambda e: e.timestamp)
        assert extract(packets_of(noisy))[:3] == base[:3]


class TestIterationEnergy:
    def energy(self, t_tx, t_w, t_rx, t_i):
        """Breakdown of one measured exchange inside a period of t_i ms."""
        it = TraceIteration(
            t_tx=t_tx, t_w=t_w, t_rx=t_rx,
            app_kind="post", file_size=16000)
        return aggregate([it], t_i, PROFILE).breakdowns[0]

    def test_matches_analytic_path_on_identical_timings(self):
        measured = self.energy(128.0, 190.0, 160.0, 750.0)
        scn = ConnectionlessScenario(
            t_i=750, t_elab=150, rtt=40, b_tx=16000, b_rx=16000)
        analytic = price_scenario(scn, PROFILE)[1]
        assert measured == analytic
        assert measured.e_i == pytest.approx(729.5, abs=0.1)

    def test_zero_wait_and_receive(self):
        e = self.energy(100.0, 0.0, 0.0, 750.0)
        assert e.e_w == 0.0 and e.e_rx == 0.0

    def test_long_period_charges_promotion(self):
        e = self.energy(100.0, 50.0, 80.0, 20_000.0)
        assert e.e_prom_tx == pytest.approx(240.0)
        assert e.e_prom_rx == 0.0


def closed_form(timing):
    """Energy (mJ) of a canonical cycle priced from its period, its phases
    plus charged promotions; pricing derives the canonical timing."""
    period = (sum(timing[:4])
              + PROFILE.t_prom * (timing.prom_tx + timing.prom_rx))
    derived, energy = price_cycle(*timing[:3], period, PROFILE)
    assert derived[:3] == timing[:3]
    assert (derived.prom_tx, derived.prom_rx) == (timing.prom_tx,
                                                  timing.prom_rx)
    assert derived.t_q == pytest.approx(timing.t_q)
    return energy.e_i


class TestEventDrivenEnergy:
    def test_no_events(self):
        energy = event_driven_energy([], PROFILE, (0.0, 7.5))
        assert energy == pytest.approx(idle_gap_energy(7500.0, PROFILE))

    def test_single_event_mid_window(self):
        events = rows(parse_events(
            line(4.0, CLIENT, SERVER, 1000, "PA", 1, 1), client=ENDPOINT))
        energy = event_driven_energy(events, PROFILE, (0.0, 10.0))
        serialisation = transfer_time(1000, 1e6)
        expected = (idle_gap_energy(4000.0, PROFILE)
                    + serialisation * PROFILE.p_tx / 1000.0
                    + idle_gap_energy(10_000.0 - 4000.0 - serialisation,
                                      PROFILE))
        assert energy == pytest.approx(expected, abs=1e-9)

    def test_unsorted_events_rejected(self):
        events = rows(parse_events("\n".join(post_exchange_lines()),
                                   client=ENDPOINT))
        with pytest.raises(ValueError, match="sorted"):
            event_driven_energy([events[1], events[0]], PROFILE, (0.0, 1.0))

    def test_window_must_cover_events(self):
        events = rows(parse_events("\n".join(post_exchange_lines()),
                                   client=ENDPOINT))
        with pytest.raises(ValueError, match="cover"):
            event_driven_energy(events, PROFILE, (0.0, 0.2))

    def test_canonical_cycle_equivalence(self):
        events, timing, window = canonical_cycle_events(
            16000, 16000, 190.0, 272.0, profile=PROFILE)
        walked = event_driven_energy(events, PROFILE, window)
        closed = closed_form(timing)
        assert walked == pytest.approx(closed, abs=1e-9)

    def test_canonical_cycle_equivalence_with_promotions(self):
        events, timing, window = canonical_cycle_events(
            5000, 3000, 12_000.0, 15_000.0, prom_tx=True, prom_rx=True,
            profile=PROFILE)
        walked = event_driven_energy(events, PROFILE, window)
        closed = closed_form(timing)
        assert closed > 480  # both promotions present
        assert walked == pytest.approx(closed, abs=1e-9)

    def test_randomised_canonical_cycles(self):
        rng = random.Random(23)
        threshold = PROFILE.idle_entry_ms
        for _ in range(100):
            b_tx = rng.randrange(1, 100_000)
            b_rx = rng.randrange(1, 100_000)
            t_w = rng.uniform(0, 20_000)
            t_q = rng.uniform(0, 20_000)
            events, timing, window = canonical_cycle_events(
                b_tx, b_rx, t_w, t_q,
                prom_tx=t_q > threshold, prom_rx=t_w > threshold,
                profile=PROFILE)
            walked = event_driven_energy(events, PROFILE, window)
            closed = closed_form(timing)
            assert walked == pytest.approx(closed, abs=1e-9)


class TestSynthesizeTrace:
    def test_same_seed_identical(self):
        a = rows(synthesize_trace("post", 40_000, 75, 10e6, seed=9))
        b = rows(synthesize_trace("post", 40_000, 75, 10e6, seed=9))
        assert a == b

    def test_different_seed_changes_sequence_space_only(self):
        a = rows(synthesize_trace("post", 40_000, 75, 10e6, seed=1))
        b = rows(synthesize_trace("post", 40_000, 75, 10e6, seed=2))
        assert [e.timestamp for e in a] == [e.timestamp for e in b]
        assert a != b

    def test_completion_grows_with_rtt(self):
        for kind in ("post", "get"):
            fast = rows(synthesize_trace(kind, 500_000, 60, 10e6, seed=0))
            slow = rows(synthesize_trace(kind, 500_000, 120, 10e6, seed=0))
            assert slow[-1].timestamp > fast[-1].timestamp

    def test_zero_file_is_rejected(self):
        """The model's cycle has a response, so an exchange without a file
        is no trace and has no scheduled phases."""
        for kind in ("post", "get"):
            for plan in (synthesize_trace, scheduled_phases):
                with pytest.raises(ValueError,
                                   match="file_size must be at least 1 byte"):
                    plan(kind, 0, 75, 10e6)

    @pytest.mark.parametrize("kind", ["post", "get"])
    @pytest.mark.parametrize("size", [1, 1448, 14_480, 314_159, 2_000_000])
    def test_extraction_round_trips_schedule(self, kind, size):
        events = synthesize_trace(kind, size, 75, 10e6, seed=4)
        extract = extract_post_phases if kind == "post" else extract_get_phases
        it = extract(events)
        sched = scheduled_phases(kind, size, 75, 10e6)
        assert (it.t_tx, it.t_w, it.t_rx) == sched

    @pytest.mark.parametrize("kind", ["post", "get"])
    @pytest.mark.parametrize("size", [1, 1448, 1449, 4344, 314_159])
    def test_packet_bound_counts_exactly(self, monkeypatch, kind, size):
        """The bound counts the packets the planner builds, before it
        builds any: a limit of that count passes, one fewer does not."""
        count = len(synthesize_trace(kind, size, 75, 10e6))
        monkeypatch.setattr(traces, "MAX_TRACE_PACKETS", count)
        assert len(synthesize_trace(kind, size, 75, 10e6)) == count
        monkeypatch.setattr(traces, "MAX_TRACE_PACKETS", count - 1)
        with pytest.raises(ValueError, match=f"file_size {size} needs "
                           f"{count} packets, more than {count - 1}"):
            synthesize_trace(kind, size, 75, 10e6)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            synthesize_trace("put", 10, 75, 10e6)
        with pytest.raises(ValueError):
            synthesize_trace("get", 10, 0, 10e6)
        with pytest.raises(ValueError):
            synthesize_trace("get", -1, 75, 10e6)


class TestAggregate:
    def iteration(self, t_tx=100.0, t_w=50.0, t_rx=80.0, size=16000,
                  kind="get"):
        return TraceIteration(
            t_tx=t_tx, t_w=t_w, t_rx=t_rx,
            app_kind=kind, file_size=size)

    def test_identical_iterations_scale_linearly(self):
        one = aggregate([self.iteration()], 5000, PROFILE)
        ten = aggregate([self.iteration()] * 10, 5000, PROFILE)
        assert ten.total_mj == pytest.approx(10 * one.total_mj, rel=1e-12)

    def test_two_iterations_sum(self):
        a = self.iteration(t_tx=120.0)
        b = self.iteration(t_tx=250.0)
        both = aggregate([a, b], 5000, PROFILE)
        separate = (aggregate([a], 5000, PROFILE).total_mj
                    + aggregate([b], 5000, PROFILE).total_mj)
        assert both.total_mj == pytest.approx(separate, rel=1e-12)
        assert both.mean_t_tx == pytest.approx(185.0)

    def test_permutation_invariant(self):
        items = [self.iteration(t_tx=float(t)) for t in (50, 150, 250)]
        forward = aggregate(items, 5000, PROFILE)
        backward = aggregate(items[::-1], 5000, PROFILE)
        assert forward.total_mj == pytest.approx(backward.total_mj,
                                                 rel=1e-12)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            aggregate([self.iteration(kind="get"),
                       self.iteration(kind="post")], 5000, PROFILE)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            aggregate([self.iteration(size=1), self.iteration(size=2)],
                      5000, PROFILE)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], 5000, PROFILE)

    def test_carries_kind_and_file_size(self):
        agg = aggregate([self.iteration(kind="post", size=60160)] * 2,
                        5000, PROFILE)
        assert (agg.app_kind, agg.file_size) == ("post", 60160)

    @pytest.mark.filterwarnings("ignore:profile has no")
    def test_period_over_the_repetitions_must_be_finite(self):
        """Each phase lies within the period, so n periods bound the sums
        behind the means; three periods of 1e308 ms overflow a float."""
        profile = PROFILE._replace(p_idle=0.0, idle=None)
        one = aggregate([self.iteration()], 1e308, profile)
        assert one.mean_t_q == one.timings[0].t_q
        with pytest.raises(ValueError, match=re.escape(
                "t_i 1e+308 ms over 3 repetitions overflows a float")):
            aggregate([self.iteration()] * 3, 1e308, profile)

    def test_total_energy_must_be_finite(self):
        """Each cycle energy is finite, 1e305 mJ here, but 2,000 of them
        are not."""
        profile = PROFILE._replace(p_tx=1e307)
        it = self.iteration(t_tx=10.0)
        assert aggregate([it] * 1000, 5000, profile).total_mj \
            == pytest.approx(1e308, rel=1e-6)
        with pytest.raises(ValueError, match=re.escape(
                "energy over 2000 repetitions overflows a float")):
            aggregate([it] * 2000, 5000, profile)

    def test_means_equal_fmean_exactly(self):
        # statistics.fmean is the oracle; the module itself does not load it.
        rng = random.Random(11)
        awkward = [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1e-9, 123456.789, 0.7]
        for count in (1, 2, 3, 7, 10, 33):
            items = [self.iteration(t_tx=rng.choice(awkward) * rng.random(),
                                    t_w=rng.choice(awkward),
                                    t_rx=rng.uniform(0.0, 1e4) / 3)
                     for _ in range(count)]
            agg = aggregate(items, 1e6 + rng.random(), PROFILE)
            for name in ("t_tx", "t_w", "t_rx", "t_q"):
                assert getattr(agg, f"mean_{name}") == statistics.fmean(
                    getattr(t, name) for t in agg.timings)


class TestRhoFromTraces:
    def aggregate(self, t_tx, t_w, t_rx, count=5, t_i=5000, kind="get",
                  size=16000):
        it = TraceIteration(
            t_tx=t_tx, t_w=t_w, t_rx=t_rx,
            app_kind=kind, file_size=size)
        return aggregate([it] * count, t_i, PROFILE)

    def test_identical_sets_give_exactly_one(self):
        edge = self.aggregate(100.0, 50.0, 80.0)
        cloud = self.aggregate(100.0, 50.0, 80.0)
        assert rho_from_traces(edge, cloud) == 1.0

    def test_stretched_cloud_phases_favor_edge(self):
        edge = self.aggregate(100.0, 50.0, 800.0, t_i=20_000)
        cloud = self.aggregate(130.0, 250.0, 1100.0, t_i=20_000)
        assert rho_from_traces(edge, cloud) < 1.0

    def test_ratio_of_totals(self):
        edge = self.aggregate(100.0, 50.0, 800.0)
        cloud = self.aggregate(130.0, 250.0, 1100.0)
        assert rho_from_traces(edge, cloud) == edge.total_mj / cloud.total_mj

    def test_mismatched_counts_rejected(self):
        edge = self.aggregate(100.0, 50.0, 80.0, count=3)
        cloud = self.aggregate(100.0, 50.0, 80.0, count=2)
        with pytest.raises(ValueError, match="counts"):
            rho_from_traces(edge, cloud)

    def test_mismatched_kinds_rejected(self):
        edge = self.aggregate(100.0, 50.0, 80.0, kind="get")
        cloud = self.aggregate(100.0, 50.0, 80.0, kind="post")
        with pytest.raises(ValueError,
                           match="edge and cloud application kinds differ"):
            rho_from_traces(edge, cloud)

    def test_mismatched_file_sizes_rejected(self):
        edge = self.aggregate(100.0, 50.0, 80.0, size=16000)
        cloud = self.aggregate(100.0, 50.0, 80.0, size=8000)
        with pytest.raises(ValueError,
                           match="edge and cloud file sizes differ"):
            rho_from_traces(edge, cloud)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("t_i", [float("inf"), float("nan"), 0.0, -1.0])
    def test_period_rejected(self, t_i):
        it = TraceIteration(
            t_tx=10.0, t_w=5.0, t_rx=20.0,
            app_kind="get", file_size=1000)
        with pytest.raises(ValueError, match="t_i must be finite"):
            aggregate([it], t_i, PROFILE)

    @pytest.mark.parametrize("rtt, bottleneck, name", [
        (float("inf"), 10e6, "rtt"), (float("nan"), 10e6, "rtt"),
        (75.0, float("inf"), "bottleneck"), (75.0, float("nan"), "bottleneck"),
        (75.0, 1e-300, "bottleneck"), (1e305, 10e6, "rtt"),
        (1e306, 10e6, "rtt"),
    ])
    def test_plan_parameters_rejected(self, rtt, bottleneck, name):
        message = f"{name} must be finite and strictly"
        if name == "bottleneck" and 0 < bottleneck < float("inf"):
            # valid on its own, but too slow for a finite segment time
            message = (f"bottleneck {bottleneck!r} bit/s with rtt {rtt!r} ms "
                       "gives segment times that are not finite")
        if name == "rtt" and 0 < rtt < float("inf"):
            # valid on its own, but too long for finite trace times
            message = re.escape(
                f"rtt {rtt!r} ms gives trace times that are not finite")
        for plan in (synthesize_trace, scheduled_phases):
            with pytest.raises(ValueError, match=message):
                plan("get", 1000, rtt, bottleneck)
