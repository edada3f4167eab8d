import gc
import json
import math
import tracemalloc
from dataclasses import dataclass, replace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from atrellis import anomaly_ensemble as ens
from atrellis import clustering_tree as ct
from atrellis import synth_traffic as sim
from atrellis import traffic_model
from atrellis.errors import (AtrellisError, ForeignPacket, MalformedAddress,
                             PacketError, SchemaError)
from atrellis.neural_autoencoder import AEArchitecture
from atrellis.traffic_model import (BC_MC, COUNT, DOMAIN, IN, LOCAL_IP, OUT,
                                    PAIRS, PROTOCOLS, REMOTE_IP, FlowKey,
                                    FlowTable,
                                    PacketRecord, Remote, classify_address,
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
PACKET_FIELDS = frozenset(RECORD_FIELDS)
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
        for record in (key, key.remote):
            with pytest.raises(AttributeError):
                record.proto = "UDP"

    def test_the_small_records_are_plain_tuples(self):
        key = FlowKey(DEVICE, Remote(DOMAIN, "a.example"), 40000, 443, "TCP")
        assert key == (DEVICE, (DOMAIN, "a.example"), 40000, 443, "TCP")
        assert hash(key) == hash(tuple(key))
        assert str(key) == f"TCP {DEVICE}:40000 <-> domain a.example:443"

    @settings(max_examples=200, deadline=None)
    @given(st.deferred(lambda: valid_packets))
    def test_dict_round_trip(self, p):
        back = packet_from_dict(packet_to_dict(p))
        assert back == p and type(back) is PacketRecord


# a value of each JSON type, and the types that each packet field takes
JSON_VALUES = {"bool": True, "int": 5, "float": 5.5, "str": "5",
               "null": None, "list": [5], "object": {"5": 5}}
FIELD_TYPES = {"ts": {"int", "float"}, "src_ip": {"str"}, "dst_ip": {"str"},
               "src_port": {"int"}, "dst_port": {"int"}, "proto": {"str"},
               "length": {"int"}, "dns_name": {"str", "null"},
               "label": {"str", "null"}}


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

    def test_unknown_field_is_rejected(self):
        obj = packet_to_dict(pkt())
        obj["bogus"] = 1
        with pytest.raises(SchemaError, match="unknown field 'bogus'"):
            packet_from_dict(obj)

    def test_missing_field(self):
        obj = packet_to_dict(pkt())
        del obj["proto"]
        with pytest.raises(SchemaError):
            packet_from_dict(obj)

    @pytest.mark.parametrize("field, value", [
        ("dns_name", 5), ("label", ["benign"]), ("ts", "soon"),
        ("src_port", None), ("length", 1e400), ("length", 99.9),
        ("src_port", 70000), ("ts", "12.5"), ("proto", "tcp"),
        ("ts", 10 ** 400),
    ])
    def test_bad_field_value_names_the_field(self, field, value):
        obj = dict(packet_to_dict(pkt()), **{field: value})
        with pytest.raises(SchemaError, match=field):
            packet_from_dict(obj)

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{field}-{json_type}")
        for field, types in FIELD_TYPES.items()
        for json_type, value in JSON_VALUES.items() if json_type not in types
    ])
    def test_value_of_another_json_type_is_refused(self, field, value):
        """No field coerces: a bool is not a number, "5" is not 5 and 5.5
        is not an integer."""
        obj = dict(packet_to_dict(pkt()), **{field: value})
        with pytest.raises(SchemaError, match=f"^packet: .*{field}"):
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


def summary(packets, r):
    """The record of a flow of ``packets`` in a table of ``r``, worked out
    from the packets themselves: the oracle of FlowTable's records."""
    labels = [p.label for p in packets]
    label = None if None in labels else next(
        (lab for lab in labels if lab.startswith("attack:")), "benign")
    return [len(packets), packets[-1].ts, label, {p.length for p in packets},
            *(v for p in packets[:r] for v in (p.ts, p.length))]


def reference_records(packets, device_ip, local_prefixes=(), r=0):
    """reference_flows_of_trace with each flow's packets summarised."""
    keys, table = reference_flows_of_trace(packets, device_ip, local_prefixes)
    return keys, {key: summary(table[key], r) for key in keys}


REMOTES = ["203.0.113.5", "203.0.113.6", "192.168.1.7", "239.255.255.250",
           "192.168.1.255"]


@st.composite
def interleaved_traces(draw):
    """Packets of a few request/reply conversations, interleaved: each
    packet goes either way, and the remote's name may be missing or differ
    in case and trailing dot between request and reply.  A trace's packets
    are all unlabeled, or each takes a label, an attack's among them."""
    n = draw(st.integers(1, 60))
    labels = st.just(None) if draw(st.booleans()) else st.sampled_from(
        [None, "benign", "benign", "attack:Flood", "attack:PortScan", "x"])
    packets = []
    for i in range(n):
        remote = draw(st.sampled_from(REMOTES))
        dport = draw(st.sampled_from([53, 443, 1900]))
        sport = draw(st.sampled_from([40000, 40001, 50000]))
        name = draw(st.sampled_from([None, "cam.example.com",
                                     "CAM.Example.com.", "other.example"]))
        fields = dict(ts=float(i), src_port=sport, dst_port=dport,
                      proto=draw(st.sampled_from(PROTOCOLS)),
                      length=draw(st.integers(40, 1500)), dns_name=name,
                      label=draw(labels))
        if draw(st.booleans()):
            packets.append(PacketRecord(src_ip=DEVICE, dst_ip=remote,
                                        **fields))
        else:
            fields.update(src_port=dport, dst_port=sport)
            packets.append(PacketRecord(src_ip=remote, dst_ip=DEVICE,
                                        **fields))
    return packets


class TestFlowsOfTrace:
    @settings(max_examples=300, deadline=None)
    @given(interleaved_traces(), st.sampled_from([(), ("192.168.1.0/24",)]),
           st.integers(0, 12))
    def test_each_record_summarises_its_flows_packets(self, packets,
                                                      prefixes, r):
        """For r from 0 to 12: the first r (ts, length) pairs, the last ts,
        the count, the sizes and the label summary of each flow's packets,
        as per-packet keying groups them."""
        assert flows_of_trace(packets, DEVICE, prefixes, r) == \
            reference_records(packets, DEVICE, prefixes, r)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 30), r=st.integers(0, 12), data=st.data())
    def test_flow_longer_or_shorter_than_r(self, n, r, data):
        packets = [pkt(ts=float(i), length=data.draw(st.integers(40, 45)),
                       label=data.draw(st.sampled_from(
                           ["benign", "attack:Flood", "attack:PortScan"])))
                   for i in range(n)]
        (record,) = flows_of_trace(packets, DEVICE, r=r)[1].values()
        assert record == summary(packets, r)
        assert len(record) == PAIRS + 2 * min(n, r)

    def test_matches_per_packet_keying_on_simulated_trace(self):
        spec = sim.FIXTURES["camera"]
        trace = sim.generate(spec, 900, seed=5)
        assert flows_of_trace(trace, spec.device_ip, r=10) == \
            reference_records(trace, spec.device_ip, r=10)

    def test_foreign_packet(self):
        with pytest.raises(ForeignPacket):
            flows_of_trace([pkt(), pkt(src_ip="10.1.1.1", dst_ip="10.2.2.2")],
                           DEVICE)


# --- reader fuzz ----------------------------------------------------------

def reference_reader_fields(line):
    """The reader that used json.loads, kept as an oracle: the field
    values it made of one stripped line, or None where it raised.  A
    packet object holds the fields of PACKET_FIELDS and no other, each of
    its exact JSON type: ts a number, ports and length integers (a bool is
    none of these), addresses strings, dns_name and label strings or
    null."""
    try:
        obj = json.loads(line)
        if set(obj) - PACKET_FIELDS \
                or PACKET_FIELDS - {"dns_name", "label"} - set(obj):
            return None
        ts, length, proto = obj["ts"], obj["length"], obj["proto"]
        ips = obj["src_ip"], obj["dst_ip"]
        ports = obj["src_port"], obj["dst_port"]
        dns_name, label = obj.get("dns_name"), obj.get("label")
        if type(ts) not in (int, float) or type(length) is not int \
                or not all(type(p) is int for p in ports) \
                or not all(type(v) is str for v in ips) \
                or not all(v is None or type(v) is str
                           for v in (dns_name, label)):
            return None
        ts = float(ts)
        if not 0 <= ts < math.inf or not 1 <= length <= 65535 \
                or proto not in PROTOCOLS \
                or not all(0 <= p <= 65535 for p in ports):
            return None
        if dns_name is not None:
            dns_name = dns_name.lower().rstrip(".")
        return record_fields((ts, *ips, *ports, proto, length, dns_name,
                              label))
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
    @given(line=mutated_lines(TEXT_MUTATIONS))
    def test_mutated_line_parses_as_before_or_names_path_and_line(
            self, fuzz_path, line):
        self.check(fuzz_path, line)

    @settings(max_examples=300, deadline=None)
    @given(line=mutated_lines(FIELD_MUTATIONS))
    def test_field_of_any_type_parses_as_before_or_names_path_and_line(
            self, fuzz_path, line):
        self.check(fuzz_path, line)

    @staticmethod
    def check(fuzz_path, line):
        """For a file whose second line is ``line``, the reader gives the
        reference reader's records, or stops at line 2 with a one-line
        SchemaError that names the file and the line."""
        good = json.dumps(packet_to_dict(pkt()))
        with open(fuzz_path, "w") as fh:
            fh.write(f"{good}\n{line}\n{good}\n")
        assert_loads_as_flows_of_trace(fuzz_path)
        expected = [reference_reader_fields(text.strip())
                     for text in (good, line, good) if text.strip()]
        got = []
        try:
            for p in read_packets_jsonl(fuzz_path):
                got.append(record_fields(p))
        except SchemaError as exc:
            assert str(exc).startswith(f"{fuzz_path}:2: ")
            assert "\n" not in str(exc)
            assert got == expected[:len(got)] and len(got) == 1
            assert expected[1] is None
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


def json_path_outcome(path):
    """read_outcome of the JSON parse alone: the reader before it matched
    the writer's lines, kept as the oracle of the fast path."""
    return read_outcome(read_jsonl(path, packet_from_dict))


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


@st.composite
def shared_middle_traces(draw):
    """The text of written packets that share one middle (addresses,
    ports, protocol), one of whose lines has a span of its head or its
    tail replaced by ASCII text."""
    base = draw(valid_packets)
    names = st.none() | awkward_text | st.just("Cam.Example.com.")
    labels = st.none() | awkward_text | st.just("benign")
    packets = [base._replace(ts=ts, length=length, dns_name=name,
                             label=label)
               for ts, length, name, label in draw(st.lists(st.tuples(
                   st.floats(0, 1e6), st.integers(1, 65535), names, labels),
                   min_size=3, max_size=6))]
    lines = [json.dumps(packet_to_dict(p)) for p in packets]
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    head_end = line.index('"src_ip": ') + len('"src_ip": ')
    tail_start = line.index(', "length": ') + len(', "length": ')
    lo, hi = draw(st.sampled_from([(0, head_end), (tail_start, len(line))]))
    a = draw(st.integers(lo, hi))
    b = draw(st.integers(a, hi))
    lines[i] = line[:a] + draw(ascii_text) + line[b:]
    return "\n".join(lines) + "\n"


class TestReaderFastPath:
    """The reader matches each line against the writer's own form before it
    parses JSON.  What it reads must not depend on which path a line
    takes."""

    @pytest.mark.parametrize("line", EDGE_LINES)
    def test_edge_line_reads_as_the_json_path(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        path.write_text(f"{packet_text()}\n{line}\n{packet_text()}\n",
                        encoding="utf-8")
        assert read_outcome(read_packets_jsonl(path)) == \
            json_path_outcome(path)
        assert_loads_as_flows_of_trace(path)

    @settings(max_examples=300, deadline=None)
    @given(packets=st.lists(st.deferred(lambda: written_packets),
                            max_size=4))
    def test_written_trace_reads_as_the_json_path(self, tmp_path_factory,
                                                  packets):
        path = tmp_path_factory.getbasetemp() / "written.jsonl"
        write_packets_jsonl(path, packets)
        got = read_outcome(read_packets_jsonl(path))
        assert got == json_path_outcome(path)
        assert got == ([record_fields(p) for p in packets], None)
        assert_loads_as_flows_of_trace(path)

    @pytest.mark.parametrize("bad_line", [
        lambda ts: packet_text(ts=ts, src_port="70000"),
        lambda ts: packet_text(ts=ts, src_port=DIGITS_4301),
        lambda ts: packet_text(ts=ts).replace('"UDP"', '"ICMP"'),
        lambda ts: packet_text(ts=ts, src_ip='"192.168.1.1\\u0030"'),
        lambda ts: packet_text(ts=ts, length="0"),
        lambda ts: packet_text(ts=ts, length=DIGITS_4301),
        lambda ts: packet_text(ts=ts, tail=', "label": "ben\\u0069gn"'),
        lambda ts: packet_text(ts="1e999"),
    ], ids=["port-70000", "port-4301-digits", "proto-icmp", "escaped-src-ip",
            "length-0", "length-4301-digits", "escaped-label", "ts-inf"])
    def test_repeated_refused_part_reads_as_the_json_path(
            self, tmp_path, bad_line):
        """A line whose middle or tail the reader refuses, the same part
        again, then valid lines that share the line's other part: the
        cached refusal and the cached other part change nothing."""
        path = tmp_path / "trace.jsonl"
        lines = [packet_text(ts="1.5"), bad_line("2.5"), bad_line("3.5"),
                 packet_text(ts="4.5"), packet_text(ts="5.5")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_outcome(read_packets_jsonl(path)) == \
            json_path_outcome(path)
        assert_loads_as_flows_of_trace(path)

    @settings(max_examples=300, deadline=None)
    @given(trace=shared_middle_traces())
    def test_mutated_line_among_a_shared_middle_reads_as_the_json_path(
            self, tmp_path_factory, trace):
        path = tmp_path_factory.getbasetemp() / "shared.jsonl"
        path.write_text(trace, encoding="utf-8")
        assert read_outcome(read_packets_jsonl(path)) == \
            json_path_outcome(path)
        assert_loads_as_flows_of_trace(path)

    def test_no_part_outlives_its_read(self, tmp_path):
        """Two reads of one trace give equal packets, none of whose strings
        is an object of the other read."""
        path = tmp_path / "trace.jsonl"
        write_packets_jsonl(path, [
            pkt(ts=float(i), length=70 + i % 2, label="benign")
            for i in range(6)])
        first = list(read_packets_jsonl(path))
        second = list(read_packets_jsonl(path))
        for packets in (first, second):
            assert read_outcome(packets) == json_path_outcome(path)
        first_ids = {id(v) for p in first
                     for v in (p.src_ip, p.dst_ip, p.proto, p.label)}
        assert not any(id(v) in first_ids for p in second
                       for v in (p.src_ip, p.dst_ip, p.proto, p.label))


class TestReaderMemory:
    """The packets of a flow share the objects of their fields, so a
    packet read costs little more than its tuple and its ts."""

    @pytest.fixture(scope="class")
    def watched_trace(self, tmp_path_factory):
        """A 4 h camera trace with a masquerading C&C and a flood: the
        judged trace of the camera-watch benchmark at seed 4."""
        trace = sim.generate(sim.FIXTURES["camera"], 14400.0, seed=4)
        for atk in (sim.AttackSpec("HttpMasqCnc", start=100, rate=0.05,
                                   duration=13000,
                                   target={"domain": "api.cam-vendor.com",
                                           "ip": "203.0.113.11"}),
                    sim.AttackSpec("Flood", start=9000, rate=1,
                                   duration=500,
                                   target={"ip": "203.0.113.10",
                                           "dst_port": 443,
                                           "domain": "upload.cam-vendor.com"})):
            trace = sim.inject_attack(trace, atk, seed=4)
        path = tmp_path_factory.mktemp("watch") / "trace.jsonl"
        write_packets_jsonl(path, trace)
        return path, len(trace)

    def test_retained_bytes_per_packet(self, watched_trace):
        """Measured on this trace: 454 B a packet when each line made its
        own strings and ints, 159 B with shared fields."""
        path, n_packets = watched_trace
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            packets = list(read_packets_jsonl(path))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(packets) == n_packets > 40_000
        assert retained / n_packets < 300

    @pytest.mark.parametrize("r, bound", [(0, 825), (10, 1220)])
    def test_retained_bytes_per_flow_of_a_table(self, watched_trace, r,
                                                bound):
        """A flow costs its record, key and table entry, not its packets.
        Measured on this trace (3,886 flows): 551 B a flow at r = 0 and 812
        at r = 10, against 1,937 and 1,333 when a flow was the list of its
        packets, whole or cut to its first 10 and its latest; the bounds
        are 1.5 times the measured values."""
        path, _ = watched_trace
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            flows = FlowTable.read(path, sim.FIXTURES["camera"].device_ip,
                                   r=r).flows
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(flows) > 3_800
        assert retained / len(flows) < bound

    def test_packets_of_a_flow_share_their_fields(self, watched_trace):
        packets = list(read_packets_jsonl(watched_trace[0]))
        _, flows = reference_flows_of_trace(
            packets, sim.FIXTURES["camera"].device_ip)
        for flow in flows.values():
            for name in ("src_ip", "dst_ip", "proto", "label"):
                values = [getattr(p, name) for p in flow]
                assert len(set(map(id, values))) == len(set(values)), name


# --- one-pass loader ------------------------------------------------------

def table_outcome(load):
    """What a load of a trace into flows gave: the keys in first-packet
    order and the typed fields of each flow's record, its sizes sorted; or
    the type and text of the error that stopped it."""
    try:
        flows = load()
    except AtrellisError as exc:
        return type(exc), str(exc)
    return (list(flows),
            [record_fields([*flow[:3], sorted(flow[3]), *flow[4:]])
             for flow in flows.values()])


def oracle_flows(path, prefixes=(), r=0):
    """The flows of flows_of_trace over read_packets_jsonl, FlowTable.read's
    oracle.  A packet that keying refuses is named as the reader names a
    line's error, at the line that line_of_object finds for the packet's
    index among those read."""
    read = 0

    def counted():
        nonlocal read
        for p in read_packets_jsonl(path):
            read += 1
            yield p

    try:
        return flows_of_trace(counted(), DEVICE, prefixes, r)[1]
    except PacketError as exc:
        line = line_of_object(path, read - 1)
        raise type(exc)(f"{path}:{line}: {exc}") from None


def outcomes(path, prefixes=(), r=0):
    """table_outcome of FlowTable.read and of its oracle."""
    return (table_outcome(lambda: FlowTable.read(path, DEVICE, prefixes,
                                                 r).flows),
            table_outcome(lambda: oracle_flows(path, prefixes, r)))


def assert_read_shares_equal_strings(path):
    """The packets that one read gives of lines that the reader's fast path
    takes, up to any error, hold one object for each string value."""
    packets = []
    try:
        for p in read_packets_jsonl(path):
            packets.append(p)
    except AtrellisError:
        pass
    with open(path, encoding="utf-8", errors="surrogateescape",
              newline="\n") as fh:
        lines = [text.strip() for text in fh if text.strip()]
    fast, objects = traffic_model._packet_reader(), {}
    for p, line in zip(packets, lines):
        if fast(line):
            for v in (p.src_ip, p.dst_ip, p.proto, p.dns_name, p.label):
                assert v is None or objects.setdefault(v, v) is v


def assert_loads_as_flows_of_trace(path):
    for r in (0, 2):
        new, old = outcomes(path, r=r)
        assert new == old
    assert_read_shares_equal_strings(path)


def written_line(p: PacketRecord) -> bytes:
    return json.dumps(packet_to_dict(p)).encode()


# a byte that is not UTF-8 in a string, at the end of a line, after a
# byte-order mark and in an encoded surrogate
NOT_UTF_8 = [written_line(pkt()).replace(b"8.8.8.8", b"8.8.8.\xff"),
             written_line(pkt(label="benign")) + b"\xc3",
             b"\xef\xbb\xbf\xff" + written_line(pkt()), b"\xed\xa0\x80"]

# lines in other forms than the writer's, each drawn at a position
ODD_LINES = {
    "blank": st.sampled_from([b"", b"   ", b"\t", b" \r"]),
    "json-only": st.deferred(lambda: valid_packets).map(
        lambda p: json.dumps(packet_to_dict(p), separators=(",", ":"))
        .encode()) | st.deferred(lambda: valid_packets).map(
        lambda p: json.dumps(packet_to_dict(p), sort_keys=True).encode()),
    "foreign": st.just(written_line(pkt(src_ip="10.1.1.1",
                                        dst_ip="10.2.2.2"))),
    "malformed-address": st.sampled_from([
        written_line(pkt(dst_ip="not-an-ip")),
        written_line(pkt(src_ip="8.8.8.8", dst_ip=DEVICE, src_port=53,
                         dst_port=50001)).replace(b"8.8.8.8", b"8.8.8")]),
    "not-utf-8": st.sampled_from(NOT_UTF_8),
    "edge": st.sampled_from(EDGE_LINES).map(str.encode),
    "mutated": st.deferred(lambda: mutated_lines(
        TEXT_MUTATIONS + FIELD_MUTATIONS)).map(str.encode),
}


@st.composite
def loadable_traces(draw):
    """The bytes of a written trace of interleaved conversations, in which
    one middle may come with several domains, with a few of its lines
    swapped (a packet out of order within its flow) and a few odd lines
    put in."""
    lines = [written_line(p) for p in draw(interleaved_traces())]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    for _ in range(draw(st.integers(0, 3))):
        odd = draw(st.sampled_from(sorted(ODD_LINES)))
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(ODD_LINES[odd]))
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


class TestFlowTableRead:
    """FlowTable.read loads a trace in one pass; it must give what
    flows_of_trace gives over read_packets_jsonl, error for error."""

    @settings(max_examples=400, deadline=None)
    @given(trace=loadable_traces(),
           prefixes=st.sampled_from([(), ("192.168.1.0/24",)]),
           kept=st.sampled_from([traffic_model._PARTS_KEPT, 1, 3]))
    def test_loads_as_flows_of_trace_over_the_reader(
            self, tmp_path_factory, trace, prefixes, kept):
        """Also when the reader keeps so few middles and tails that it
        starts afresh within a flow: then the flows and their packets are
        those it gives when it keeps them all."""
        path = tmp_path_factory.getbasetemp() / "load.jsonl"
        path.write_bytes(trace)
        with mock.patch.object(traffic_model, "_PARTS_KEPT", kept):
            new, old = outcomes(path, prefixes)
        assert new == old
        assert new[:2] == outcomes(path, prefixes)[0][:2]

    @pytest.mark.parametrize("lines, error", [
        ([pkt(ts=2.0), pkt(ts=1.0)], "NonMonotonicTimestamp"),
        ([pkt(), pkt(src_ip="10.1.1.1", dst_ip="10.2.2.2")], "ForeignPacket"),
        ([pkt(), pkt(ts=2.0, dst_ip="8.8.8")], "MalformedAddress"),
        ([pkt(), pkt(ts=2.0, dns_name="a.example"),
          pkt(ts=1.5, dns_name="A.Example.")], "NonMonotonicTimestamp"),
    ], ids=["out-of-order", "foreign", "malformed-address",
            "out-of-order-after-a-new-domain"])
    def test_refused_packet_names_its_line_as_flows_of_trace(
            self, tmp_path, lines, error):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n\n".join(json.dumps(packet_to_dict(p))
                                     for p in lines) + "\n")
        new, old = outcomes(path)
        assert new == old
        assert new[0].__name__ == error
        assert new[1].startswith(f"{path}:{2 * len(lines) - 1}: ")

    @pytest.mark.parametrize("raw", NOT_UTF_8)
    def test_bytes_that_are_not_utf_8_are_refused_as_bytes_decode_does(
            self, tmp_path, raw):
        """The error names the line and the byte's position in it, leading
        blanks counted, as bytes.decode of the line does."""
        path = tmp_path / "trace.jsonl"
        path.write_bytes(written_line(pkt()) + b"\n  " + raw + b"\n")
        with pytest.raises(UnicodeDecodeError) as decode:
            (b"  " + raw + b"\n").decode("utf-8")
        for load in (lambda: list(read_packets_jsonl(path)),
                     lambda: FlowTable.read(path, DEVICE)):
            with pytest.raises(SchemaError) as info:
                load()
            assert str(info.value) == f"{path}:2: {decode.value}"

    def test_one_middle_with_two_domains_gives_two_flows(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_packets_jsonl(path, [
            pkt(ts=float(i), dns_name=name) for i, name in
            enumerate(["a.example", "b.example", "A.Example.", None,
                       "b.example"])])
        new, old = outcomes(path)
        assert new == old
        flows = FlowTable.read(path, DEVICE).flows
        assert [k.remote for k in flows] == [
            Remote(DOMAIN, "a.example"), Remote(DOMAIN, "b.example"),
            Remote(REMOTE_IP, "8.8.8.8")]
        assert [flow[COUNT] for flow in flows.values()] == [2, 2, 1]

    @pytest.mark.parametrize("r", [0, 10])
    def test_simulated_trace_loads_as_flows_of_trace(self, tmp_path, r):
        spec = sim.FIXTURES["camera"]
        path = tmp_path / "trace.jsonl"
        write_packets_jsonl(path, sim.generate(spec, 900, seed=5))
        new = FlowTable.read(path, spec.device_ip, r=r).flows
        keys, old = flows_of_trace(read_packets_jsonl(path), spec.device_ip,
                                   r=r)
        assert list(new) == keys and new == old


class TestBoundedFlowTable:
    """A table of ``r`` holds each flow's (ts, length) pairs of its first r
    packets and no more."""

    @settings(max_examples=300, deadline=None)
    @given(trace=loadable_traces(),
           prefixes=st.sampled_from([(), ("192.168.1.0/24",)]),
           r=st.integers(0, 12))
    def test_read_gives_the_records_of_flows_of_trace(
            self, tmp_path_factory, trace, prefixes, r):
        """Error for error too."""
        path = tmp_path_factory.getbasetemp() / "bounded.jsonl"
        path.write_bytes(trace)
        new, old = outcomes(path, prefixes, r)
        assert new == old

    def test_r_must_not_be_negative(self):
        with pytest.raises(ValueError, match="r must be >= 0, got -1"):
            FlowTable(DEVICE, r=-1)

    def test_long_flow_keeps_r_pairs(self, tmp_path):
        """Counted, not timed: a 10,000-packet flow read at r = 10."""
        path = tmp_path / "trace.jsonl"
        write_packets_jsonl(path, [pkt(ts=float(i), length=60 + i % 7)
                                   for i in range(10_000)])
        (flow,) = FlowTable.read(path, DEVICE, r=10).flows.values()
        assert flow[COUNT] == 10_000 and flow[1] == 9999.0
        assert flow[PAIRS:] == [v for i in range(10)
                                for v in (float(i), 60 + i % 7)]
        assert len(flow[3]) == 7

    @pytest.fixture(scope="class")
    def judged(self, tmp_path_factory):
        """An ensemble trained on 30 clean camera minutes, and a trace of
        30 more with a Flood of 100 flows of 40 packets."""
        spec = sim.FIXTURES["camera"]
        clean = sim.generate(spec, 1800.0, seed=3)
        tree = ct.ClusterTree(spec.device_ip, r=10)
        for p in clean:
            tree.insert(p)
        ensemble = ens.train_ensemble(ct.build_profile(tree, 0.5),
                                      tree.flows, AEArchitecture(r=10), 2,
                                      0.995)[0]
        trace = sim.inject_attack(
            sim.generate(spec, 1800.0, seed=4),
            sim.AttackSpec("Flood", start=100, rate=1, duration=100,
                           target={"ip": "203.0.113.10", "dst_port": 443}),
            seed=4)
        path = tmp_path_factory.mktemp("judged") / "trace.jsonl"
        write_packets_jsonl(path, trace)
        return ensemble, path

    def test_detect_flows_gives_the_verdicts_of_the_whole_flows(self,
                                                               judged):
        """A table of the model's r judges as one that holds every pair."""
        ensemble, path = judged
        device_ip, r = ensemble.profile.device_ip, ensemble.arch.r
        whole = FlowTable.read(path, device_ip, r=1000).flows
        bounded = FlowTable.read(path, device_ip, r=r).flows
        assert sum(flow[COUNT] == 40 for flow in whole.values()) == 100
        assert max(len(flow) for flow in bounded.values()) == PAIRS + 2 * r
        assert ens.detect_flows(ensemble, list(bounded), bounded) == \
            ens.detect_flows(ensemble, list(whole), whole)


class TestFlowTableReadGC:
    """The load pauses the cyclic GC and gives it back as it found it."""

    @pytest.fixture
    def trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_packets_jsonl(path, [pkt(ts=float(i), src_port=40000 + i % 50)
                                   for i in range(3000)])
        return path

    @pytest.fixture
    def gc_enabled(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_keeps_the_gc_state(self, trace, gc_enabled, enabled):
        (gc.enable if enabled else gc.disable)()
        assert len(FlowTable.read(trace, DEVICE).flows) == 50
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("bad_line", [
        b'{"ts": 1.5}', b"\xff", written_line(pkt(src_ip="10.1.1.1",
                                                  dst_ip="10.2.2.2"))])
    def test_load_that_raises_part_way_keeps_the_gc_state(
            self, trace, gc_enabled, enabled, bad_line):
        with open(trace, "ab") as fh:
            fh.write(bad_line + b"\n" + written_line(pkt(ts=1e6)) + b"\n")
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(AtrellisError, match="trace.jsonl:3001: |device"):
            FlowTable.read(trace, DEVICE)
        assert gc.isenabled() is enabled

    def test_no_collection_runs_during_a_load(self, trace, gc_enabled):
        gc.enable()
        collections = []
        gc.callbacks.append(lambda phase, info: collections.append(phase))
        try:
            gc.collect()
            collections.clear()
            FlowTable.read(trace, DEVICE)
            seen = len(collections)
        finally:
            gc.callbacks.pop()
        assert seen == 0
