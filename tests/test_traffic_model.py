import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from atrellis import synth_traffic as sim
from atrellis.errors import ForeignPacket, MalformedAddress, SchemaError
from atrellis.traffic_model import (BC_MC, DOMAIN, DYNAMIC, IN, LOCAL_IP,
                                    OUT, PACKET_FIELDS, PROTOCOLS,
                                    REGISTERED, REMOTE_IP, SYSTEM, FlowKey,
                                    PacketRecord, PortClass, Remote,
                                    classify_address, classify_port,
                                    direction_of, flow_key_of,
                                    flows_of_trace, line_of_object,
                                    normalize_domain, packet_from_dict,
                                    read_jsonl, read_packets_jsonl,
                                    write_packets_jsonl)

DEVICE = "192.168.1.10"


def packet_to_dict(pkt: PacketRecord) -> dict:
    """The JSON object of a packet, as the writer wrote it with
    ``json.dumps`` before it formatted lines itself: the oracle of
    write_packets_jsonl."""
    d = {"ts": pkt.ts, "src_ip": pkt.src_ip, "dst_ip": pkt.dst_ip,
         "src_port": pkt.src_port, "dst_port": pkt.dst_port,
         "proto": pkt.proto, "length": pkt.length}
    if pkt.dns_name is not None:
        d["dns_name"] = pkt.dns_name
    if pkt.label is not None:
        d["label"] = pkt.label
    return d


def pkt(**kw):
    base = dict(ts=1.0, src_ip=DEVICE, dst_ip="8.8.8.8", src_port=50001,
                dst_port=53, proto="UDP", length=70)
    base.update(kw)
    return PacketRecord(**base)


class TestClassifyPort:
    def test_system(self):
        c = classify_port(22)
        assert c.kind == SYSTEM and c.port == 22

    def test_registered_keeps_port(self):
        c = classify_port(1900)
        assert c.kind == REGISTERED and c.port == 1900

    def test_dynamic_drops_port(self):
        c = classify_port(55000)
        assert c.kind == DYNAMIC and c.port is None

    @pytest.mark.parametrize("port,kind", [
        (0, SYSTEM), (1023, SYSTEM), (1024, REGISTERED),
        (49151, REGISTERED), (49152, DYNAMIC), (65535, DYNAMIC),
    ])
    def test_boundaries(self, port, kind):
        assert classify_port(port).kind == kind

    @given(st.integers(0, 65535))
    def test_total_partition(self, port):
        kind = classify_port(port).kind
        assert kind == (SYSTEM if port <= 1023
                        else REGISTERED if port <= 49151 else DYNAMIC)


class TestClassifyAddress:
    def test_multicast(self):
        assert classify_address("239.255.255.250", None, []).kind == BC_MC

    def test_resolved_domain(self):
        r = classify_address("129.6.15.28", "time.nist.gov", [])
        assert r.kind == DOMAIN and r.value == "time.nist.gov"

    def test_remote_ip(self):
        r = classify_address("203.0.113.5", None, ["192.168.1.0/24"])
        assert r.kind == REMOTE_IP

    def test_local_ip(self):
        r = classify_address("192.168.1.9", None, ["192.168.1.0/24"])
        assert r.kind == LOCAL_IP

    def test_subnet_broadcast(self):
        r = classify_address("192.168.1.255", None, ["192.168.1.0/24"])
        assert r.kind == BC_MC

    def test_multicast_outranks_domain(self):
        r = classify_address("239.255.255.250", "something.local", [])
        assert r.kind == BC_MC

    def test_dns_name_promotes_remote_ip(self):
        plain = classify_address("203.0.113.5", None, [])
        named = classify_address("203.0.113.5", "host.example.com", [])
        assert plain.kind == REMOTE_IP and named.kind == DOMAIN

    def test_domain_normalized(self):
        r = classify_address("203.0.113.5", "Host.Example.COM.", [])
        assert r.value == "host.example.com"

    def test_malformed(self):
        with pytest.raises(MalformedAddress):
            classify_address("not-an-ip", None, [])
        with pytest.raises(MalformedAddress):
            classify_address("2001:db8::1", None, [])


class TestFlowKey:
    def test_out_packet(self):
        key = flow_key_of(pkt(dns_name="dns.google"), DEVICE)
        assert key.device_ip == DEVICE
        assert key.remote.value == "dns.google"
        assert key.src_port == 50001 and key.dst_port == 53

    def test_reply_maps_to_same_key(self):
        out = pkt(dns_name="dns.google")
        reply = pkt(src_ip="8.8.8.8", dst_ip=DEVICE, src_port=53,
                    dst_port=50001, dns_name="dns.google")
        assert flow_key_of(out, DEVICE) == flow_key_of(reply, DEVICE)

    def test_foreign_packet(self):
        foreign = pkt(src_ip="10.1.1.1", dst_ip="10.2.2.2")
        with pytest.raises(ForeignPacket):
            flow_key_of(foreign, DEVICE)

    @given(st.integers(1024, 65535), st.integers(0, 1023),
           st.integers(1, 1500))
    def test_bidirectional_idempotence(self, sport, dport, length):
        a = pkt(src_port=sport, dst_port=dport, length=length)
        b = pkt(src_ip=a.dst_ip, dst_ip=a.src_ip, src_port=dport,
                dst_port=sport, length=length)
        assert flow_key_of(a, DEVICE) == flow_key_of(b, DEVICE)


class TestDirection:
    def test_out(self):
        assert direction_of(pkt(), DEVICE) == OUT

    def test_in(self):
        p = pkt(src_ip="8.8.8.8", dst_ip=DEVICE)
        assert direction_of(p, DEVICE) == IN

    def test_foreign(self):
        with pytest.raises(ForeignPacket):
            direction_of(pkt(), "10.9.9.9")


class TestPacketValidation:
    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            pkt(length=0)

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            pkt(src_port=70000)

    def test_rejects_unknown_proto(self):
        with pytest.raises(ValueError):
            pkt(proto="ICMP")

    @pytest.mark.parametrize("ts", [float("nan"), float("inf"), -1.0])
    def test_rejects_timestamp_not_finite_or_negative(self, ts):
        # a NaN timestamp would give NaN features, and a NaN score is
        # never above the threshold, so the flow would pass as benign
        with pytest.raises(ValueError):
            pkt(ts=ts)


# --- packet record oracle -------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReferencePacketRecord:
    """The frozen-dataclass PacketRecord that the tuple-backed record
    replaced, kept as an oracle for what a record accepts and holds."""

    ts: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: str
    length: int
    dns_name: Optional[str] = None
    label: Optional[str] = None

    def __post_init__(self):
        if not 0.0 <= self.ts < math.inf:
            raise ValueError(
                f"timestamp must be finite and >= 0, got {self.ts}")
        if not 1 <= self.length <= 65535:
            raise ValueError(f"bad packet length: {self.length}")
        for p in (self.src_port, self.dst_port):
            if not 0 <= p <= 65535:
                raise ValueError(f"port out of range: {p}")
        if self.proto not in PROTOCOLS:
            raise ValueError(f"unknown protocol: {self.proto!r}")
        if self.dns_name is not None:
            object.__setattr__(self, "dns_name", normalize_domain(self.dns_name))


RECORD_FIELDS = ("ts", "src_ip", "dst_ip", "src_port", "dst_port", "proto",
                 "length", "dns_name", "label")
ports = st.sampled_from([-1, 0, 1023, 65535, 65536]) | st.integers(-9, 70000)
record_values = {
    "ts": st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0,
                           -1e-300]) | st.floats(-10, 1e9),
    "src_ip": st.sampled_from([DEVICE, "203.0.113.5"]),
    "dst_ip": st.sampled_from([DEVICE, "203.0.113.5"]),
    "src_port": ports, "dst_port": ports,
    "proto": st.sampled_from(PROTOCOLS + ("ICMP", "tcp", "")),
    "length": st.sampled_from([0, 1, 65535, 65536]) | st.integers(-5, 70000),
    "dns_name": st.none() | st.sampled_from(
        ["Cam.Example.COM.", "cam.example.com", "A.", ".", ""])
    | st.text(max_size=6),
    "label": st.none() | st.sampled_from(["benign", "attack:Flood"]),
}
record_kwargs = st.fixed_dictionaries(record_values)


def outcome(make, *args, **kwargs):
    """The field values of the record that ``make`` builds, or the type
    and message of the ValueError with which it refuses."""
    try:
        p = make(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(getattr(p, name) for name in RECORD_FIELDS)


class TestPacketRecordOracle:
    @settings(max_examples=500, deadline=None)
    @given(record_kwargs)
    def test_accepts_and_refuses_as_the_dataclass(self, kw):
        expected = outcome(ReferencePacketRecord, **kw)
        assert outcome(PacketRecord, **kw) == expected
        values = [kw[name] for name in RECORD_FIELDS]
        assert outcome(PacketRecord, *values) == expected
        assert outcome(PacketRecord._make, values) == expected

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(RECORD_FIELDS), data=st.data())
    def test_replace_checks_as_the_dataclass(self, name, data):
        base = pkt(dns_name="Cam.Example.com.", label="benign")
        ref = ReferencePacketRecord(*base)
        value = data.draw(record_values[name])
        assert outcome(base._replace, **{name: value}) == \
            outcome(replace, ref, **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("ts", math.nan, "timestamp"), ("ts", -1.0, "timestamp"),
        ("length", 0, "bad packet length: 0"),
        ("dst_port", 65536, "port out of range: 65536"),
        ("proto", "ICMP", "unknown protocol"),
    ])
    def test_make_and_replace_cannot_bypass_the_checks(self, name, value,
                                                        message):
        values = list(pkt())
        values[RECORD_FIELDS.index(name)] = value
        with pytest.raises(ValueError, match=message):
            PacketRecord._make(values)
        with pytest.raises(ValueError, match=message):
            pkt()._replace(**{name: value})

    def test_fields_cannot_be_assigned(self):
        p = pkt()
        for name in RECORD_FIELDS + ("extra",):
            with pytest.raises(AttributeError):
                setattr(p, name, 1)
        key = flow_key_of(p, DEVICE)
        for record in (key, key.remote, classify_port(80)):
            with pytest.raises(AttributeError):
                record.proto = "UDP"

    def test_the_small_records_are_plain_tuples(self):
        key = FlowKey(DEVICE, Remote(DOMAIN, "a.example"), 40000, 443, "TCP")
        assert key == (DEVICE, (DOMAIN, "a.example"), 40000, 443, "TCP")
        assert hash(key) == hash(tuple(key))
        assert str(key) == f"TCP {DEVICE}:40000 <-> domain a.example:443"
        assert PortClass(DYNAMIC) == (DYNAMIC, None)

    @settings(max_examples=200, deadline=None)
    @given(st.deferred(lambda: valid_packets))
    def test_dict_round_trip(self, p):
        back = packet_from_dict(packet_to_dict(p))
        assert back == p and type(back) is PacketRecord


class TestJsonLines:
    def test_round_trip(self, tmp_path):
        packets = [pkt(), pkt(ts=2.0, dns_name="dns.google", label="benign")]
        path = tmp_path / "trace.jsonl"
        write_packets_jsonl(path, packets)
        assert list(read_packets_jsonl(path)) == packets

    @settings(max_examples=300, deadline=None)
    @given(packets=st.lists(st.deferred(lambda: written_packets),
                            max_size=4))
    def test_writer_writes_json_dumps_of_each_packet(self, tmp_path_factory,
                                                     packets):
        path = tmp_path_factory.getbasetemp() / "written.jsonl"
        write_packets_jsonl(path, packets)
        assert path.read_text() == "".join(
            json.dumps(packet_to_dict(p)) + "\n" for p in packets)

    def test_line_of_object_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{}\n\n  \n{}\n{}\n")
        assert [line_of_object(path, i) for i in range(4)] == [1, 4, 5, None]
        assert line_of_object(tmp_path / "gone.jsonl", 0) is None

    def test_strict_rejects_unknown_field(self):
        obj = packet_to_dict(pkt())
        obj["bogus"] = 1
        with pytest.raises(SchemaError):
            packet_from_dict(obj, strict=True)

    def test_lenient_ignores_unknown_field(self):
        obj = packet_to_dict(pkt())
        obj["bogus"] = 1
        assert packet_from_dict(obj, strict=False) == pkt()

    def test_missing_field(self):
        obj = packet_to_dict(pkt())
        del obj["proto"]
        with pytest.raises(SchemaError):
            packet_from_dict(obj)

    @pytest.mark.parametrize("field, value", [
        ("dns_name", 5), ("label", ["benign"]), ("ts", "soon"),
        ("src_port", None), ("length", 1e400),
    ])
    def test_bad_field_value_names_the_field(self, field, value):
        obj = dict(packet_to_dict(pkt()), **{field: value})
        with pytest.raises(SchemaError, match=field):
            packet_from_dict(obj)


# --- flow keying oracle ---------------------------------------------------

def reference_flows_of_trace(packets, device_ip, local_prefixes=()):
    """The per-packet flows_of_trace that keyed every packet, kept as an
    oracle for the version that keys each raw tuple once."""
    table, keys = {}, []
    for p in packets:
        key = flow_key_of(p, device_ip, local_prefixes)
        if key not in table:
            table[key] = []
            keys.append(key)
        table[key].append(p)
    return keys, table


REMOTES = ["203.0.113.5", "203.0.113.6", "192.168.1.7", "239.255.255.250",
           "192.168.1.255"]


@st.composite
def interleaved_traces(draw):
    """Packets of a few request/reply conversations, interleaved: each
    packet goes either way, and the remote's name may be missing or differ
    in case and trailing dot between request and reply."""
    n = draw(st.integers(1, 60))
    packets = []
    for i in range(n):
        remote = draw(st.sampled_from(REMOTES))
        dport = draw(st.sampled_from([53, 443, 1900]))
        sport = draw(st.sampled_from([40000, 40001, 50000]))
        name = draw(st.sampled_from([None, "cam.example.com",
                                     "CAM.Example.com.", "other.example"]))
        fields = dict(ts=float(i), src_port=sport, dst_port=dport,
                      proto=draw(st.sampled_from(PROTOCOLS)),
                      length=draw(st.integers(40, 1500)), dns_name=name)
        if draw(st.booleans()):
            packets.append(PacketRecord(src_ip=DEVICE, dst_ip=remote,
                                        **fields))
        else:
            fields.update(src_port=dport, dst_port=sport)
            packets.append(PacketRecord(src_ip=remote, dst_ip=DEVICE,
                                        **fields))
    return packets


class TestFlowsOfTrace:
    @settings(max_examples=150, deadline=None)
    @given(interleaved_traces(), st.sampled_from([(), ("192.168.1.0/24",)]))
    def test_matches_per_packet_keying(self, packets, prefixes):
        keys, table = flows_of_trace(packets, DEVICE, prefixes)
        ref_keys, ref_table = reference_flows_of_trace(packets, DEVICE,
                                                       prefixes)
        assert keys == ref_keys
        assert table == ref_table

    def test_matches_per_packet_keying_on_simulated_trace(self):
        spec = sim.FIXTURES["camera"]
        trace = sim.generate(spec, 900, seed=5)
        assert flows_of_trace(trace, spec.device_ip) == \
            reference_flows_of_trace(trace, spec.device_ip)

    def test_foreign_packet(self):
        with pytest.raises(ForeignPacket):
            flows_of_trace([pkt(), pkt(src_ip="10.1.1.1", dst_ip="10.2.2.2")],
                           DEVICE)


# --- reader fuzz ----------------------------------------------------------

def reference_reader_fields(line, strict):
    """The reader that used json.loads, kept as an oracle: the field
    values it made of one stripped line, or None where it raised."""
    try:
        obj = json.loads(line)
        unknown = set(obj) - PACKET_FIELDS
        if unknown and strict:
            return None
        if PACKET_FIELDS - {"dns_name", "label"} - set(obj):
            return None
        ts, length = float(obj["ts"]), int(obj["length"])
        ports = int(obj["src_port"]), int(obj["dst_port"])
        proto = str(obj["proto"])
        dns_name = obj.get("dns_name")
        if ts < 0 or not 1 <= length <= 65535 or proto not in PROTOCOLS \
                or not all(0 <= p <= 65535 for p in ports):
            return None
        if dns_name is not None:
            dns_name = dns_name.lower().rstrip(".")
        return record_fields((ts, str(obj["src_ip"]), str(obj["dst_ip"]),
                              *ports, proto, length, dns_name,
                              obj.get("label")))
    except Exception:
        return None


def record_fields(values):
    """The type and ``repr`` of each field of a record, which tell -0.0
    from 0.0, and 1 from 1.0 or True, where ``==`` cannot."""
    return tuple((type(v), repr(v)) for v in values)


ascii_text = st.text(st.characters(max_codepoint=0x7F,
                                   blacklist_characters="\r\n"),
                     max_size=6)
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() \
    | ascii_text
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(ascii_text, inner, max_size=3),
    max_leaves=6)
valid_packets = st.builds(
    PacketRecord, ts=st.floats(0, 1e6), src_ip=st.just(DEVICE),
    dst_ip=st.sampled_from(REMOTES), src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535), proto=st.sampled_from(PROTOCOLS),
    length=st.integers(1, 65535),
    dns_name=st.none() | st.just("Cam.Example.com."),
    label=st.none() | st.just("benign"))


# names that need escaping: quotes, backslashes, control and non-ASCII
# characters, astral ones included
awkward_text = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                       'aZ.-\u00e9\u2028\ud7ff\U0001f600'))
written_packets = st.builds(
    PacketRecord,
    ts=st.floats(0, 1e18, allow_nan=False, allow_infinity=False),
    src_ip=st.sampled_from(REMOTES + [DEVICE]), dst_ip=awkward_text,
    src_port=st.integers(0, 65535), dst_port=st.integers(0, 65535),
    proto=st.sampled_from(PROTOCOLS), length=st.integers(1, 65535),
    dns_name=st.none() | awkward_text,
    label=st.none() | awkward_text | st.text())


FIELD_MUTATIONS = ["set", "drop"]
TEXT_MUTATIONS = ["truncate", "delete", "insert", "append", "value"]


@st.composite
def mutated_lines(draw, hows):
    obj = packet_to_dict(draw(valid_packets))
    how = draw(st.sampled_from(hows))
    if how == "set":
        field = draw(st.sampled_from(sorted(PACKET_FIELDS) + ["bogus"]))
        obj[field] = draw(json_scalars | json_values)
    elif how == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    line = json.dumps(obj)
    a = draw(st.integers(0, len(line)))
    if how == "truncate":
        line = line[:a]
    elif how == "delete":
        line = line[:a] + line[draw(st.integers(a, len(line))):]
    elif how == "insert":
        line = line[:a] + draw(ascii_text) + line[a:]
    elif how == "append":
        line += draw(ascii_text)
    elif how == "value":
        line = json.dumps(draw(json_values))
    return line


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "trace.jsonl")


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(line=mutated_lines(TEXT_MUTATIONS), strict=st.booleans())
    def test_mutated_line_parses_as_before_or_names_path_and_line(
            self, fuzz_path, line, strict):
        self.check(fuzz_path, line, strict)

    @settings(max_examples=300, deadline=None)
    @given(line=mutated_lines(FIELD_MUTATIONS), strict=st.booleans())
    def test_field_of_any_type_parses_as_before_or_names_path_and_line(
            self, fuzz_path, line, strict):
        self.check(fuzz_path, line, strict)

    @staticmethod
    def check(fuzz_path, line, strict):
        """For a file whose second line is ``line``, the reader gives the
        reference reader's records, or stops at line 2 with a one-line
        SchemaError that names the file and the line."""
        good = json.dumps(packet_to_dict(pkt()))
        with open(fuzz_path, "w") as fh:
            fh.write(f"{good}\n{line}\n{good}\n")
        expected = [reference_reader_fields(text.strip(), strict)
                     for text in (good, line, good) if text.strip()]
        got = []
        try:
            for p in read_packets_jsonl(fuzz_path, strict=strict):
                got.append(record_fields(p))
        except SchemaError as exc:
            assert str(exc).startswith(f"{fuzz_path}:2: ")
            assert "\n" not in str(exc)
            assert got == expected[:len(got)] and len(got) == 1
        else:
            assert got == expected


# --- reader fast path -----------------------------------------------------

def read_outcome(packets):
    """The typed fields of each packet read, and the text of the error that
    stopped the reading, or None."""
    got = []
    try:
        for p in packets:
            got.append(record_fields(p))
    except SchemaError as exc:
        return got, str(exc)
    return got, None


def json_path_outcome(path, strict):
    """read_outcome of the JSON parse alone: the reader before it matched
    the writer's lines, kept as the oracle of the fast path."""
    return read_outcome(read_jsonl(
        path, lambda obj: packet_from_dict(obj, strict)))


def packet_text(ts="1.5", src_ip='"192.168.1.10"', src_port="50001",
                length="70", tail=', "label": "benign"'):
    return (f'{{"ts": {ts}, "src_ip": {src_ip}, "dst_ip": "8.8.8.8", '
            f'"src_port": {src_port}, "dst_port": 53, "proto": "UDP", '
            f'"length": {length}{tail}}}')


DIGITS_4301 = "1" * 4301
EDGE_LINES = [
    # numbers: signs, exponents, leading zeros, huge and non-finite ones
    *(packet_text(ts=ts) for ts in (
        "-0", "-0.0", "0", "0.0e-0", "1E5", "1e+5", "2.5E-3", "1e999",
        "1" + "0" * 400, DIGITS_4301, DIGITS_4301 + ".5", "00", "01.5",
        "1.", ".5", "1e", "NaN", "Infinity", "-Infinity", "true", '"1.5"')),
    *(packet_text(src_port=port) for port in (
        "0", "-0", "053", "-1", "65535", "65536", DIGITS_4301, "53.0",
        "5e1", "true", "null")),
    *(packet_text(length=length) for length in (
        "070", "0", "65536", "1.0", DIGITS_4301)),
    # strings: escapes, raw non-ASCII and control characters, non-strings
    packet_text(src_ip='"192.168.1.1\\u0030"'),
    packet_text(src_ip='"\\u0041"'),
    packet_text(tail=', "dns_name": "Cam.\\u0041pi.example."'),
    packet_text(tail=', "label": "ben\\u0069gn"'),
    packet_text(tail=', "label": "b\\"q"'),
    packet_text(tail=', "label": "caf\u00e9"'),
    packet_text(tail=', "label": "tab\there"'),
    packet_text(tail=', "dns_name": null'),
    packet_text(tail=', "label": 5'),
    packet_text(tail=', "label": "benign", "dns_name": "a.example"'),
    packet_text(tail=', "dns_name": "A.Example.", "label": "benign"'),
    packet_text(tail=""),
    packet_text(tail=', "bogus": 1'),
    packet_text(tail=', "dns_name": "a.example", "dns_name": "b.example"'),
    # values the record refuses, in the writer's form
    packet_text(ts="0", length="0"),
    packet_text(tail=', "label": "benign"').replace('"UDP"', '"ICMP"'),
    # duplicated, reordered and missing keys; other spacing; trailing data
    packet_text(tail=', "length": 80'),
    packet_text(tail=', "ts": 2.5'),
    '{"src_ip": "192.168.1.10", "ts": 1.5, "dst_ip": "8.8.8.8", '
    '"src_port": 50001, "dst_port": 53, "proto": "UDP", "length": 70}',
    packet_text().replace(", ", ","),
    packet_text().replace(": ", " : "),
    packet_text().replace(", ", ",  "),
    packet_text().replace('"ts"', ' "ts"'),
    packet_text().replace(', "proto": "UDP"', ""),
    packet_text() + " x",
    packet_text()[:-1],
]


class TestReaderFastPath:
    """The reader matches each line against the writer's own form before it
    parses JSON.  What it reads must not depend on which path a line
    takes."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("line", EDGE_LINES)
    def test_edge_line_reads_as_the_json_path(self, tmp_path, line, strict):
        path = tmp_path / "trace.jsonl"
        path.write_text(f"{packet_text()}\n{line}\n{packet_text()}\n",
                        encoding="utf-8")
        assert read_outcome(read_packets_jsonl(path, strict)) == \
            json_path_outcome(path, strict)

    @settings(max_examples=300, deadline=None)
    @given(packets=st.lists(st.deferred(lambda: written_packets),
                            max_size=4), strict=st.booleans())
    def test_written_trace_reads_as_the_json_path(self, tmp_path_factory,
                                                  packets, strict):
        path = tmp_path_factory.getbasetemp() / "written.jsonl"
        write_packets_jsonl(path, packets)
        got = read_outcome(read_packets_jsonl(path, strict))
        assert got == json_path_outcome(path, strict)
        assert got == ([record_fields(p) for p in packets], None)
