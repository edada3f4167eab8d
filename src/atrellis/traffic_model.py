"""Canonical domain types for packets, bidirectional flows, and the
address/port classification rules that drive flow clustering.

A flow is identified by a canonical bidirectional 5-tuple oriented from the
monitored device's side: (device IP, remote domain-or-IP, device port, remote
port, protocol).  Request and reply packets map to the same key.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import logging
import math
import re
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence)

from .errors import (ForeignPacket, MalformedAddress, NonMonotonicTimestamp,
                     SchemaError)

log = logging.getLogger("atrellis")

TCP = "TCP"
UDP = "UDP"
PROTOCOLS = (TCP, UDP)

# direction of a packet relative to the monitored device
OUT = "out"
IN = "in"

# IANA port ranges
SYSTEM = "system"        # 0..1023
REGISTERED = "registered"  # 1024..49151
DYNAMIC = "dynamic"      # 49152..65535

# address classes for the remote endpoint
DOMAIN = "domain"
REMOTE_IP = "remote_ip"
LOCAL_IP = "local_ip"
BC_MC = "bc_mc"

PACKET_FIELDS = frozenset(
    {"ts", "src_ip", "dst_ip", "src_port", "dst_port", "proto", "length",
     "dns_name", "label"}
)
_REQUIRED_FIELDS = PACKET_FIELDS - {"dns_name", "label"}


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


class PortClass(NamedTuple):
    """IANA range of a port.  System and Registered retain the concrete
    port; Dynamic does not."""

    kind: str
    port: Optional[int] = None


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


def classify_port(port: int) -> PortClass:
    """Classify a port into its IANA range."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")
    if port <= 1023:
        return PortClass(SYSTEM, port)
    if port <= 49151:
        return PortClass(REGISTERED, port)
    return PortClass(DYNAMIC)


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


class FlowTable:
    """The one place where packets become flows: a single-writer table from
    flow key to the flow's time-ordered packets, in first-packet order.

    The key is computed once per distinct raw (addresses, ports, protocol,
    domain) tuple, so a request and its replies cost one key each and every
    later packet one lookup.
    """

    def __init__(self, device_ip: str, local_prefixes: Sequence[str] = ()):
        self.device_ip = device_ip
        self.local_prefixes = tuple(local_prefixes)
        self.flows: Dict[FlowKey, List[PacketRecord]] = {}
        self._by_raw: dict = {}

    def insert(self, pkt: PacketRecord) -> FlowKey:
        """Append ``pkt`` to its flow and return the flow's key.  A packet
        earlier than the last packet of its flow raises
        NonMonotonicTimestamp with the number of packets inserted before
        it."""
        raw = (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.proto,
               pkt.dns_name)
        entry = self._by_raw.get(raw)
        if entry is None:
            key = flow_key_of(pkt, self.device_ip, self.local_prefixes)
            entry = self._by_raw[raw] = (key, self.flows.setdefault(key, []))
        key, flow = entry
        if flow and pkt.ts < flow[-1].ts:
            raise NonMonotonicTimestamp(
                f"flow {key}: packet at ts {pkt.ts} is earlier than the "
                f"flow's last packet at ts {flow[-1].ts}",
                sum(map(len, self.flows.values())))
        flow.append(pkt)
        return key


def flows_of_trace(packets: Iterable[PacketRecord], device_ip: str,
                   local_prefixes: Sequence[str] = ()):
    """Group a trace into flows with a FlowTable.

    Returns ``(keys, flows)`` where ``flows`` maps each flow key to its
    time-ordered packets and ``keys`` lists the flow keys in the order of
    their first packets.
    """
    table = FlowTable(device_ip, local_prefixes)
    insert = table.insert
    for pkt in packets:
        insert(pkt)
    return list(table.flows), table.flows


# --- JSON-lines packet format -------------------------------------------

_NUMERIC_FIELDS = (("ts", float), ("src_port", int), ("dst_port", int),
                   ("length", int))


def _check_fields(obj: dict, strict: bool) -> None:
    unknown = set(obj) - PACKET_FIELDS
    if unknown:
        if strict:
            raise SchemaError(f"unknown packet fields: {sorted(unknown)}")
        log.warning("ignoring unknown packet fields: %s", sorted(unknown))
    missing = _REQUIRED_FIELDS - set(obj)
    if missing:
        raise SchemaError(f"missing packet fields: {sorted(missing)}")


def packet_from_dict(obj: dict, strict: bool = False) -> PacketRecord:
    """Build a packet from its JSON object; a bad field raises SchemaError."""
    if not _REQUIRED_FIELDS <= obj.keys() <= PACKET_FIELDS:
        _check_fields(obj, strict)
    dns_name = obj.get("dns_name")
    label = obj.get("label")
    if not (dns_name is None or isinstance(dns_name, str)) \
            or not (label is None or isinstance(label, str)):
        raise SchemaError(f"packet fields dns_name and label must be "
                          f"strings, got {dns_name!r} and {label!r}")
    try:
        return PacketRecord(float(obj["ts"]), str(obj["src_ip"]),
                            str(obj["dst_ip"]), int(obj["src_port"]),
                            int(obj["dst_port"]), str(obj["proto"]),
                            int(obj["length"]), dns_name, label)
    except (TypeError, ValueError, OverflowError) as exc:
        for name, convert in _NUMERIC_FIELDS:
            try:
                convert(obj[name])
            except (TypeError, ValueError, OverflowError) as bad:
                raise SchemaError(f"packet field {name!r}: {bad}") from None
        raise SchemaError(str(exc)) from None


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
# order, a duplicated key) is left to the JSON parse.
_STRING = r'"([ !#-\[\]-~]*)"'
_UINT = r'(0|[1-9][0-9]*)'
_PACKET_LINE = re.compile(
    r'\{"ts": ((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?), '
    rf'"src_ip": {_STRING}, "dst_ip": {_STRING}, "src_port": {_UINT}, '
    rf'"dst_port": {_UINT}, "proto": {_STRING}, "length": {_UINT}'
    rf'(?:, "dns_name": {_STRING})?(?:, "label": {_STRING})?\}}')


def _packet_of_line(line: str) -> Optional[PacketRecord]:
    """The packet of a stripped line in _packet_line's form, or None if
    the line is in another form or a value fails its conversion or the
    record's checks; the JSON parse then reads the line and alone raises,
    so each error keeps its message."""
    m = _PACKET_LINE.fullmatch(line)
    if m is None:
        return None
    ts, src_ip, dst_ip, src_port, dst_port, proto, length, dns_name, \
        label = m.groups()
    try:
        return PacketRecord(float(ts), src_ip, dst_ip, int(src_port),
                            int(dst_port), proto, int(length), dns_name,
                            label)
    except ValueError:
        return None


def write_packets_jsonl(path, packets: Iterable[PacketRecord]) -> None:
    with open(path, "w") as fh:
        fh.writelines(map(_packet_line, packets))


_raw_decode = json.JSONDecoder().raw_decode


def read_json(path):
    """The JSON document in ``path``.  A file that is not one, cut short
    say, raises SchemaError("PATH: reason at its position")."""
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from None


def read_jsonl(path, convert: Callable[[dict], object],
               fast: Optional[Callable[[str], object]] = None) -> Iterator:
    """Yield ``convert(obj)`` for each JSON object line of ``path``.
    ``fast``, if given, makes the item of a stripped line without the JSON
    parse, or returns None to leave the line to it.  A line that is not
    UTF-8, not one JSON object, or that ``convert`` rejects with a
    ValueError raises SchemaError("PATH:LINE: reason")."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                item = fast(line) if fast else None
                if item is None:
                    obj, end = _raw_decode(line)
                    if end != len(line):
                        raise SchemaError(f"data after the JSON object at "
                                          f"column {end + 1}")
                    if not isinstance(obj, dict):
                        raise SchemaError(f"not a JSON object: "
                                          f"{type(obj).__name__}")
                    item = convert(obj)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
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


def read_packets_jsonl(path, strict: bool = False) -> Iterator[PacketRecord]:
    """Yield the packets of a JSON-lines trace.  A line in the form that
    write_packets_jsonl writes is read without the JSON parse.  A line that
    is not one valid packet object raises SchemaError("PATH:LINE:
    reason")."""
    yield from read_jsonl(path, lambda obj: packet_from_dict(obj, strict),
                          _packet_of_line)
