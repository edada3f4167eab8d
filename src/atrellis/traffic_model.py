"""Canonical domain types for packets, bidirectional flows, and the
address classification that drives flow clustering (the port buckets
live in clustering_tree.tree_path_of).

A flow is identified by a canonical bidirectional 5-tuple oriented from the
monitored device's side: (device IP, remote domain-or-IP, device port, remote
port, protocol).  Request and reply packets map to the same key.  A
FlowTable summarises each flow's packets in one small record.
"""

from __future__ import annotations

import functools
import gc
import ipaddress
import json
import math
import re
from typing import (Callable, Dict, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .errors import (ForeignPacket, MalformedAddress, NonMonotonicTimestamp,
                     SchemaError, check, located)

TCP = "TCP"
UDP = "UDP"
PROTOCOLS = (TCP, UDP)

# direction of a packet relative to the monitored device
OUT = "out"
IN = "in"

# the IANA system ports, 0..1023
SYSTEM = "system"

# address classes for the remote endpoint
DOMAIN = "domain"
REMOTE_IP = "remote_ip"
LOCAL_IP = "local_ip"
BC_MC = "bc_mc"


@functools.lru_cache(maxsize=4096)
def normalize_domain(name: str) -> str:
    """Lowercase and strip a trailing dot."""
    return name.lower().rstrip(".")


class _PacketFields(NamedTuple):
    ts: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: str
    length: int
    dns_name: Optional[str] = None
    label: Optional[str] = None


class PacketRecord(_PacketFields):
    """One observed packet: a tuple, checked when it is built.

    ``dns_name`` is the pre-resolved domain of the *remote* endpoint, when
    known.  ``label`` is present only in simulator output ("benign" or
    "attack:<kind>").
    """

    __slots__ = ()

    def __new__(cls, ts, src_ip, dst_ip, src_port, dst_port, proto, length,
                dns_name=None, label=None):
        if not 0.0 <= ts < math.inf:
            raise ValueError(f"timestamp must be finite and >= 0, got {ts}")
        if not 1 <= length <= 65535:
            raise ValueError(f"bad packet length: {length}")
        if not 0 <= src_port <= 65535:
            raise ValueError(f"port out of range: {src_port}")
        if not 0 <= dst_port <= 65535:
            raise ValueError(f"port out of range: {dst_port}")
        if proto not in PROTOCOLS:
            raise ValueError(f"unknown protocol: {proto!r}")
        if dns_name is not None:
            dns_name = normalize_domain(dns_name)
        return tuple.__new__(cls, (ts, src_ip, dst_ip, src_port, dst_port,
                                   proto, length, dns_name, label))

    @classmethod
    def _make(cls, iterable):
        """The checked record of ``iterable``'s fields; ``_replace`` builds
        through here."""
        return cls(*iterable)


class Remote(NamedTuple):
    """Classified remote endpoint: the address class plus its concrete
    value (the domain name for DOMAIN, the IP text otherwise)."""

    kind: str
    value: str


class FlowKey(NamedTuple):
    """Canonical bidirectional 5-tuple, always oriented from the device."""

    device_ip: str
    remote: Remote
    src_port: int
    dst_port: int
    proto: str

    def __str__(self) -> str:
        return (f"{self.proto} {self.device_ip}:{self.src_port} <-> "
                f"{self.remote.kind} {self.remote.value}:{self.dst_port}")


@functools.lru_cache(maxsize=65536)
def _parse_ipv4(text: str) -> ipaddress.IPv4Address:
    try:
        return ipaddress.IPv4Address(text)
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise MalformedAddress(f"not an IPv4 address: {text!r}") from exc


@functools.lru_cache(maxsize=256)
def parse_prefixes(prefixes: tuple) -> tuple:
    """The IPv4 networks that local-prefix strings name; ipaddress raises a
    ValueError on any string that names none."""
    return tuple(ipaddress.IPv4Network(p) for p in prefixes)


def classify_address(dst_ip: str, dns_name: Optional[str],
                     local_prefixes: Sequence[str]) -> Remote:
    """Classify a remote endpoint.

    Precedence: broadcast/multicast > resolved domain > local IP > remote IP.
    Multicast outranks a resolved name so that mDNS/SSDP replies carrying
    names for multicast groups stay in the bc/mc class.
    """
    return _classify_address(dst_ip, dns_name, tuple(local_prefixes))


@functools.lru_cache(maxsize=65536)
def _classify_address(dst_ip, dns_name, local_prefixes) -> Remote:
    addr = _parse_ipv4(dst_ip)
    networks = parse_prefixes(tuple(local_prefixes))
    if addr.is_multicast or addr == ipaddress.IPv4Address("255.255.255.255") \
            or any(addr == net.broadcast_address for net in networks):
        return Remote(BC_MC, dst_ip)
    if dns_name:
        return Remote(DOMAIN, normalize_domain(dns_name))
    if any(addr in net for net in networks):
        return Remote(LOCAL_IP, dst_ip)
    return Remote(REMOTE_IP, dst_ip)


def direction_of(pkt: PacketRecord, device_ip: str) -> str:
    """OUT iff the device is the packet's source."""
    if pkt.src_ip == device_ip:
        return OUT
    if pkt.dst_ip == device_ip:
        return IN
    raise ForeignPacket(f"device {device_ip} is neither endpoint of "
                        f"{pkt.src_ip}->{pkt.dst_ip}")


def flow_key_of(pkt: PacketRecord, device_ip: str,
                local_prefixes: Sequence[str] = ()) -> FlowKey:
    """Canonical bidirectional flow key; request and reply packets map to
    the same key."""
    d = direction_of(pkt, device_ip)
    if d == OUT:
        remote_ip, sport, dport = pkt.dst_ip, pkt.src_port, pkt.dst_port
    else:
        remote_ip, sport, dport = pkt.src_ip, pkt.dst_port, pkt.src_port
    remote = classify_address(remote_ip, pkt.dns_name, local_prefixes)
    return FlowKey(device_ip, remote, sport, dport, pkt.proto)


# The fields of a flow's record, by position: FlowTable's docstring
COUNT, LAST_TS, LABEL, SIZES, PAIRS = range(5)


class FlowTable:
    """The one place where packets become flows: a single-writer table from
    flow key to the flow's record, in first-packet order.

    A record is a list ``[count, last_ts, label, sizes, ts0, length0, ts1,
    length1, ...]`` (positions COUNT to PAIRS): the number of packets; the
    latest one's time, which the next may not precede; the first "attack:"
    label, else "benign", or None once a packet has no label; the set of
    lengths; and the (ts, length) pairs of the first ``r`` packets.

    ``insert`` adds a packet and ``read`` a trace file's packets in one
    pass, both with _packet_reader, which keys a request and its replies
    once each and every later packet with one lookup.
    """

    def __init__(self, device_ip: str, local_prefixes: Sequence[str] = (),
                 r: int = 0):
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
        self.device_ip = device_ip
        self.local_prefixes = tuple(local_prefixes)
        self.r = r
        self.flows: Dict[FlowKey, list] = {}
        self._insert = _packet_reader(self)

    def insert(self, pkt: PacketRecord) -> FlowKey:
        """Add ``pkt`` to its flow's record and return the flow's key, or
        raise the PacketError of _packet_reader."""
        return self._insert(None, pkt)

    @classmethod
    def read(cls, path, device_ip: str, local_prefixes: Sequence[str] = (),
             r: int = 0) -> "FlowTable":
        """The table of the JSON-lines trace at ``path``, filled in one
        pass with no list of its packets: a line in write_packets_jsonl's
        form goes from _packet_reader straight to its flow's record, and
        any other line through the JSON parse and ``insert``.  The records
        and every error, named at its line, are those of
        ``flows_of_trace(read_packets_jsonl(path), ..., r)``.  Python's
        cyclic GC is paused for the read, which makes only acyclic records."""
        table = cls(device_ip, local_prefixes, r)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in read_jsonl(path, lambda obj: table.insert(
                    packet_from_dict(obj)), _packet_reader(table)):
                pass
        finally:
            if enabled:
                gc.enable()
        return table


def flows_of_trace(packets: Iterable[PacketRecord], device_ip: str,
                   local_prefixes: Sequence[str] = (), r: int = 0):
    """Group a trace into flows with a FlowTable of ``r``.

    Returns ``(keys, flows)`` where ``flows`` maps each flow key to its
    record and ``keys`` lists the flow keys in the order of their first
    packets.
    """
    table = FlowTable(device_ip, local_prefixes, r)
    for pkt in packets:
        table.insert(pkt)
    return list(table.flows), table.flows


# --- JSON-lines packet format -------------------------------------------

_PORT = range(65536)
_PACKET_FIELDS = {"ts": (int, float), "src_ip": str, "dst_ip": str,
                  "src_port": _PORT, "dst_port": _PORT,
                  "proto": frozenset(PROTOCOLS), "length": int}
_OPTIONAL_PACKET_FIELDS = dict.fromkeys(("dns_name", "label"),
                                        (str, type(None)))


def packet_from_dict(obj: dict) -> PacketRecord:
    """Build a packet from its JSON object, which holds no other field; a
    missing, unknown or ill-typed field raises SchemaError."""
    check(obj, _PACKET_FIELDS, "packet", _OPTIONAL_PACKET_FIELDS, closed=True)
    try:
        ts = float(obj["ts"])
    except OverflowError:
        raise SchemaError(f"packet: ts {obj['ts']!r:.20} is too large "
                          f"for a float") from None
    return PacketRecord(ts, obj["src_ip"], obj["dst_ip"], obj["src_port"],
                        obj["dst_port"], obj["proto"], obj["length"],
                        obj.get("dns_name"), obj.get("label"))


_json_str = json.encoder.encode_basestring_ascii


def _packet_line(pkt: PacketRecord) -> str:
    """``json.dumps`` of the packet's object plus a newline: its fields
    in record order, ``dns_name`` and ``label`` only when set.  Numbers
    are written with ``repr``, as json writes a float or an int."""
    (ts, src_ip, dst_ip, src_port, dst_port, proto, length, dns_name,
     label) = pkt
    tail = ""
    if dns_name is not None:
        tail = f', "dns_name": {_json_str(dns_name)}'
    if label is not None:
        tail += f', "label": {_json_str(label)}'
    return (f'{{"ts": {ts!r}, "src_ip": {_json_str(src_ip)}, '
            f'"dst_ip": {_json_str(dst_ip)}, "src_port": {src_port!r}, '
            f'"dst_port": {dst_port!r}, "proto": {_json_str(proto)}, '
            f'"length": {length!r}{tail}}}\n')


# The lines _packet_line writes, and no others: the fields in record
# order, strings of printable ASCII without '"' or '\\', ts an unsigned
# JSON number, and ports and length unsigned integers without leading
# zeros, so that each group converts to the value the JSON parse would
# give.  A line in any other form ("-0", an escape, other spacing or key
# order, a duplicated key) is left to the JSON parse.  As no string of
# that form holds '"', its first ', "length": ' splits it into a head, a
# middle and a tail, and the three patterns laid end to end match the
# whole line.
_STRING = r'"([ !#-\[\]-~]*)"'
_UINT = r'(0|[1-9][0-9]*)'
_HEAD = re.compile(
    r'\{"ts": ((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?), '
    r'"src_ip": ')
_LENGTH_KEY = ', "length": '
_MIDDLE = re.compile(
    rf'{_STRING}, "dst_ip": {_STRING}, "src_port": {_UINT}, '
    rf'"dst_port": {_UINT}, "proto": {_STRING}{_LENGTH_KEY}')
_TAIL = re.compile(
    rf'{_UINT}(?:, "dns_name": {_STRING})?(?:, "label": {_STRING})?\}}')


# The most middles, and tails, that a read keeps; at this many it starts
# afresh.  The middles of a flow come close together, so this bounds the
# memory of a trace whose middles are all distinct, a port scan say, and
# costs others a few middles matched again.
_PARTS_KEPT = 4096


def _packet_reader(table: Optional[FlowTable] = None
                   ) -> Callable[..., object]:
    """A function, for one read, that gives the packet of a stripped line
    in _packet_line's form, or None if the line is in another form or a
    value fails its conversion or the record's checks; the JSON parse then
    reads the line and alone raises, so each error keeps its message.

    Only ts is converted on every line.  Each distinct middle (addresses,
    ports, protocol) and tail (length, domain, label) is matched, converted
    and checked once while it is kept (see _PARTS_KEPT), or refused as (),
    and equal strings among them are one object, so the packets of a flow
    share their fields.

    With a ``table``, the function adds each line's packet, or a packet
    given in place of a line (insert), to its flow's record there, building
    no packet but to key one, and gives the flow's key; a packet that cannot
    be keyed, or that is earlier than the latest of its flow, raises a
    PacketError.  A middle's entry, a packet's under the tuple of its five
    fields, holds its five values, then its last packet's domain, flow key
    and record, so a middle is keyed with flow_key_of only when its domain
    differs from its last packet's."""
    middles: dict = {}
    tails: dict = {}
    share = {}.setdefault
    flows, unkeyed = None, ()
    if table is not None:
        flows, device_ip, r = table.flows, table.device_ip, table.r
        prefixes = table.local_prefixes
        unkeyed = (object(), None, None)    # a domain that no packet has

    def middle_of(text):
        m = _MIDDLE.fullmatch(text)
        if m is None:
            return ()
        src_ip, dst_ip, src_port, dst_port, proto = m.groups()
        try:
            src_port, dst_port = int(src_port), int(dst_port)
        except ValueError:  # more digits than int() converts
            return ()
        if src_port > 65535 or dst_port > 65535 or proto not in PROTOCOLS:
            return ()
        return (share(src_ip, src_ip), share(dst_ip, dst_ip), src_port,
                dst_port, share(proto, proto), *unkeyed)

    def tail_of(text):
        m = _TAIL.fullmatch(text)
        if m is None:
            return ()
        length, dns_name, label = m.groups()
        try:
            length = int(length)
        except ValueError:
            return ()
        if not 1 <= length <= 65535:
            return ()
        if dns_name is not None:
            dns_name = normalize_domain(dns_name)
            dns_name = share(dns_name, dns_name)
        return length, dns_name, share(label, label)

    def packet_of_line(line, pkt=None):
        if pkt is None:
            head = _HEAD.match(line)
            if head is None:
                return None
            start = head.end()
            cut = line.find(_LENGTH_KEY, start)
            if cut < 0:
                return None
            cut += len(_LENGTH_KEY)
            text = line[start:cut]
            middle = middles.get(text)
            if middle is None:
                if len(middles) == _PARTS_KEPT:
                    middles.clear()
                middle = middles[text] = middle_of(text)
            rest = line[cut:]
            tail = tails.get(rest)
            if tail is None:
                if len(tails) == _PARTS_KEPT:
                    tails.clear()
                tail = tails[rest] = tail_of(rest)
            ts = float(head[1])
            if not (middle and tail and ts < math.inf):
                return None
            if flows is None:
                return tuple.__new__(PacketRecord, (ts, *middle, *tail))
            length, dns_name, label = tail
        else:
            ts, _, _, _, _, _, length, dns_name, label = pkt
            text = pkt[1:6]
            middle = middles.get(text) or (*text, *unkeyed)
        src_ip, dst_ip, src_port, dst_port, proto, domain, key, flow = middle
        if dns_name != domain:  # a line's equal domains are one object
            key = flow_key_of(pkt or tuple.__new__(PacketRecord, (
                ts, src_ip, dst_ip, src_port, dst_port, proto, length,
                dns_name, label)), device_ip, prefixes)
            flow = flows.setdefault(key, [0, 0.0, "benign", set()])
            middles[text] = (src_ip, dst_ip, src_port, dst_port, proto,
                             dns_name, key, flow)
        # the record's fields at positions COUNT to PAIRS, as literals
        if ts < flow[1]:
            raise NonMonotonicTimestamp(
                f"flow {key}: packet at ts {ts} is earlier than the flow's "
                f"last packet at ts {flow[1]}")
        if flow[0] < r:
            flow += ts, length
        flow[0] += 1
        flow[1] = ts
        flow[3].add(length)
        if label is not flow[2]:    # a read's "benign" replaces the literal
            if label is None or flow[2] == "benign" and (
                    label == "benign" or label.startswith("attack:")):
                flow[2] = label
        return key

    return packet_of_line


def write_packets_jsonl(path, packets: Iterable[PacketRecord]) -> None:
    with open(path, "w") as fh:
        fh.writelines(map(_packet_line, packets))


_raw_decode = json.JSONDecoder().raw_decode


def read_json(path, parse: Callable[[object], object]):
    """``parse`` of the JSON document in ``path``.  A file that is not one,
    cut short say, or a ValueError of ``parse`` raises located(path, exc):
    "PATH: reason"."""
    with open(path, "rb") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:
            raise located(path, exc) from None


def read_jsonl(path, convert: Callable[[dict], object],
               fast: Optional[Callable[[str], object]] = None) -> Iterator:
    """Yield ``convert(obj)`` for each JSON object line of ``path``.
    ``fast``, if given, makes the item of a stripped line without the JSON
    parse, or returns None to leave the line to it; it takes only lines of
    ASCII text, as only the JSON path checks a line's UTF-8.  A line that
    is not UTF-8, not one JSON object, or that ``fast`` or ``convert``
    rejects with a ValueError, a PacketError from keying included, raises
    the error named at its line: located("PATH:LINE", exc)."""
    # a byte that is not UTF-8 is read as a lone surrogate
    with open(path, encoding="utf-8", errors="surrogateescape",
              newline="\n") as fh:
        for lineno, text in enumerate(fh, 1):
            line = text.strip()
            if not line:
                continue
            try:
                item = fast(line) if fast else None
                if item is None:
                    if not line.isascii():
                        # the line's bytes, refused as bytes.decode does
                        text.encode("utf-8", "surrogateescape").decode()
                    obj, end = _raw_decode(line)
                    if end != len(line):
                        raise SchemaError(f"data after the JSON object at "
                                          f"column {end + 1}")
                    if not isinstance(obj, dict):
                        raise SchemaError(f"not a JSON object: "
                                          f"{type(obj).__name__}")
                    item = convert(obj)
            except ValueError as exc:
                raise located(f"{path}:{lineno}", exc) from None
            yield item


def line_of_object(path, index: int) -> Optional[int]:
    """The line of ``path`` that holds its ``index``-th JSON object,
    counting from 0 and skipping blank lines as read_jsonl does; None if
    the file (a pipe, say) cannot be read again or no longer holds that
    many."""
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                if raw.decode("utf-8", "replace").strip():
                    if index == 0:
                        return lineno
                    index -= 1
    except OSError:
        pass
    return None


def read_packets_jsonl(path) -> Iterator[PacketRecord]:
    """Yield the packets of a JSON-lines trace.  A line in the form that
    write_packets_jsonl writes is read without the JSON parse, and the
    packets of one read share their equal strings.  A line that
    is not one valid packet object raises SchemaError("PATH:LINE:
    reason")."""
    yield from read_jsonl(path, packet_from_dict, _packet_reader())
