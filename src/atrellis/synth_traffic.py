"""Deterministic synthetic IoT traffic generator with labeled attack
injection.

Each device activity emits short bursts at a jittered period; every burst
opens a fresh ephemeral source port, so one burst is one bidirectional
flow.  Packet sizes are drawn from a small discrete set per activity, with
the sets kept disjoint across a device's activities (and from every attack
signature) so clustering and detection behavior is decidable at desk scale.

Four canned device fixtures ship with the package: camera, plug, speaker,
hub.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import BadSpec
from .traffic_model import (TCP, UDP, FlowKey, PacketRecord,
                            normalize_domain)

BENIGN = "benign"

PORT_SCAN = "PortScan"
TELNET_BRUTE = "TelnetBrute"
FLOOD = "Flood"
HTTP_MASQ_CNC = "HttpMasqCnc"
ATTACK_KINDS = (PORT_SCAN, TELNET_BRUTE, FLOOD, HTTP_MASQ_CNC)

# float arithmetic on an int above this raises OverflowError
_FLOAT_MAX = sys.float_info.max
# The longest duration, jitter, packet gap, attack start and gap between
# attack flows, in seconds (about 31.7 years), and the most packets in one
# burst or attack flow.  Every timestamp is then below 1e14 s, so finite,
# and a burst draws at most 2 * MAX_PACKETS numbers.
MAX_SECONDS = 1e9
MAX_PACKETS = 10_000
# The most packets that the bursts of one generated trace may hold, about
# 18 times a 7-day camera trace (552,384); generate refuses a longer trace
# before it draws anything, as it builds the whole trace in memory.
MAX_TRACE_PACKETS = 10_000_000


@dataclass(frozen=True)
class ActivitySpec:
    name: str
    remote_ip: str
    dst_port: int
    proto: str
    period: float                 # seconds between bursts
    sizes: tuple                  # discrete packet-size set
    size_probs: tuple             # probabilities, sum to 1
    packets_per_burst: int = 4
    jitter: float = 1.0           # uniform +/- jitter on burst start
    intra_gap: float = 0.05       # base gap between packets of a burst
    domain: Optional[str] = None  # resolved name of the remote, if any
    bidirectional: bool = True    # remote replies to every other packet
    # (integer sizes, cumulative probabilities) that a burst draws from
    _size_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.period <= _FLOAT_MAX or self.period == math.inf):
            raise BadSpec(f"activity {self.name}: period must be > 0 and "
                          f"fit a float, got {self.period!r:.20}")
        if len(self.sizes) != len(self.size_probs):
            raise BadSpec(f"activity {self.name}: sizes/probs mismatch")
        if not all(0 <= p <= 1 for p in self.size_probs):
            raise BadSpec(f"activity {self.name}: probabilities must be "
                          f">= 0 and <= 1, got {self.size_probs!r:.60}")
        if abs(sum(self.size_probs) - 1.0) > 1e-9:
            raise BadSpec(f"activity {self.name}: probabilities must sum to 1")
        for size in self.sizes:
            if not 1 <= size <= 65535:
                raise BadSpec(f"activity {self.name}: size {size} is not in "
                              f"1-65535")
        if not 1 <= self.packets_per_burst <= MAX_PACKETS:
            raise BadSpec(f"activity {self.name}: packets per burst must be "
                          f"in 1-{MAX_PACKETS}, got "
                          f"{self.packets_per_burst!r:.20}")
        for name in ("jitter", "intra_gap"):
            if not 0 <= getattr(self, name) <= MAX_SECONDS:
                raise BadSpec(f"activity {self.name}: {name} must be finite "
                              f"and >= 0, at most {MAX_SECONDS:g} s, got "
                              f"{getattr(self, name)!r:.20}")
        if not 0 <= self.dst_port <= 65535:
            raise BadSpec(f"activity {self.name}: dst_port {self.dst_port} "
                          f"is not in 0-65535")
        if self.domain is not None:
            object.__setattr__(self, "domain", normalize_domain(self.domain))
        # the cdf that Generator.choice(sizes, p=size_probs) builds
        cdf = np.cumsum(np.asarray(self.size_probs, dtype=float))
        object.__setattr__(self, "_size_table", (
            tuple(int(s) for s in self.sizes),
            tuple((cdf / cdf[-1]).tolist())))


@dataclass(frozen=True)
class DeviceSpec:
    device_ip: str
    activities: tuple

    def __post_init__(self):
        if not self.activities:
            raise BadSpec("device needs at least one activity")


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    start: float = 0.0
    rate: float = 1.0             # flows per second
    duration: float = 60.0
    target: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise BadSpec(f"unknown attack kind {self.kind!r}")
        # the duration only counts flows; start and the gap between flows,
        # 1 / rate, are added to timestamps
        if not (0 <= self.start <= MAX_SECONDS
                and 1 / MAX_SECONDS <= self.rate <= _FLOAT_MAX
                and 0 <= self.duration <= _FLOAT_MAX):
            raise BadSpec(f"attack {self.kind}: start/rate/duration out of "
                          f"range: start must be at most {MAX_SECONDS:g} s "
                          f"and rate at least {1 / MAX_SECONDS:g} per s")


# source-port blocks: one per activity so every burst is a distinct flow
_PORT_BLOCK_BASE = 30000
_PORT_BLOCK_SIZE = 3000
_ATTACK_PORT_BASE = 46000


def _burst_packets(rng, device_ip, act: ActivitySpec, t0: float,
                   src_port: int, label: str) -> List[PacketRecord]:
    """The packets of one burst from one block of 2n - 1 uniform draws:
    packet j's size from draw 2j and its gap from draw 2j - 1, the order
    in which per-packet ``rng.choice(sizes, p=size_probs)`` and
    ``rng.uniform(0.8, 1.2)`` calls would draw them, so a seed gives the
    same packets either way."""
    sizes, cdf = act._size_table
    u = rng.random(2 * act.packets_per_burst - 1).tolist()
    out = (device_ip, act.remote_ip, src_port, act.dst_port)
    back = (act.remote_ip, device_ip, act.dst_port, src_port)
    two_way = act.bidirectional
    proto, domain, gap = act.proto, act.domain, act.intra_gap
    t = t0
    packets = []
    for j in range(act.packets_per_burst):
        if j > 0:
            t += gap * (0.8 + (1.2 - 0.8) * u[2 * j - 1])
        size = sizes[bisect_right(cdf, u[2 * j])]
        packets.append(PacketRecord(t, *(back if two_way and j % 2 else out),
                                    proto, size, domain, label))
    return packets


def generate(spec: DeviceSpec, duration: float,
             seed: int = 0) -> List[PacketRecord]:
    """Time-ordered benign trace for one device, reproducible per seed.
    A spec and duration that would give no packet raise BadSpec."""
    if not 0 < duration <= MAX_SECONDS:
        raise BadSpec(f"duration must be > 0 and at most {MAX_SECONDS:g} s, "
                      f"got {duration}")
    # the bursts of each activity, cut to one past the bound (a quotient
    # may be inf) so that the total below still exceeds it
    bursts = [int(min(duration / act.period, MAX_TRACE_PACKETS + 1))
              for act in spec.activities]
    if sum(n * act.packets_per_burst
           for n, act in zip(bursts, spec.activities)) > MAX_TRACE_PACKETS:
        raise BadSpec(f"the bursts of {duration:g} s of this device would "
                      f"hold more than {MAX_TRACE_PACKETS:,} packets")
    for idx, (act, n_bursts) in enumerate(zip(spec.activities, bursts)):
        top = _PORT_BLOCK_BASE + idx * _PORT_BLOCK_SIZE \
            + min(n_bursts, _PORT_BLOCK_SIZE) - 1
        if n_bursts > 0 and top > 65535:
            raise BadSpec(f"activity {act.name}: its bursts would use source "
                          f"ports up to {top}, past 65535")
    packets: List[PacketRecord] = []
    for idx, (act, n_bursts) in enumerate(zip(spec.activities, bursts)):
        rng = np.random.default_rng([seed, idx])
        base = _PORT_BLOCK_BASE + idx * _PORT_BLOCK_SIZE
        for i in range(n_bursts):
            t0 = i * act.period + rng.uniform(-act.jitter, act.jitter)
            if t0 < 0 or t0 >= duration:
                continue
            src_port = base + i % _PORT_BLOCK_SIZE
            packets.extend(_burst_packets(rng, spec.device_ip, act, t0,
                                          src_port, BENIGN))
    if not packets:
        raise BadSpec(f"no burst starts within the duration of {duration} s; "
                      f"the shortest period is "
                      f"{min(act.period for act in spec.activities)} s")
    packets.sort(key=lambda p: p.ts)
    return packets


def _attack_packets(device_ip: str, atk: AttackSpec, seed: int,
                    port_base: int) -> List[PacketRecord]:
    rng = np.random.default_rng([seed, 1000 + ATTACK_KINDS.index(atk.kind)])
    label = f"attack:{atk.kind}"
    if atk.kind == PORT_SCAN and "n_ports" in atk.target:
        n_flows = int(atk.target["n_ports"])
    else:
        n_flows = float(atk.rate) * atk.duration
        if n_flows < 65536:  # int() refuses an infinite product
            n_flows = int(n_flows) or (100 if atk.kind == PORT_SCAN else 0)
    if n_flows < 1:
        raise BadSpec(f"attack {atk.kind}: it gives {n_flows} flows, so it "
                      f"would inject nothing")
    top = port_base + n_flows - 1
    if top > 65535:
        raise BadSpec(f"attack {atk.kind}: its {n_flows} flows would use "
                      f"source ports up to {top}, past 65535")

    target_ip = atk.target.get("ip", "198.51.100.99")
    if atk.kind == PORT_SCAN:
        return [PacketRecord(atk.start + i / atk.rate, device_ip, target_ip,
                             port_base + i, 1 + i, TCP, 60,
                             label=label)
                for i in range(n_flows)]
    if atk.kind == TELNET_BRUTE:
        act = ActivitySpec("telnet-brute", target_ip, 23, TCP,
                           period=1.0, sizes=(91, 97, 105),
                           size_probs=(0.4, 0.4, 0.2), packets_per_burst=6,
                           intra_gap=0.2)
    elif atk.kind == FLOOD:
        act = ActivitySpec("flood", atk.target["ip"], atk.target["dst_port"],
                           atk.target.get("proto", TCP), period=1.0,
                           sizes=(1400,), size_probs=(1.0,),
                           packets_per_burst=int(atk.target.get(
                               "packets_per_flow", 40)),
                           intra_gap=0.002, domain=atk.target.get("domain"))
    else:  # HTTP_MASQ_CNC: beaconing C&C disguised as web traffic on port 80
        act = ActivitySpec("http-masq-cnc", atk.target["ip"], 80, TCP,
                           period=1.0, sizes=(88, 96),
                           size_probs=(0.6, 0.4),
                           packets_per_burst=int(atk.target.get(
                               "packets_per_flow", 12)),
                           intra_gap=atk.target.get("beacon_gap", 2.0),
                           domain=atk.target["domain"])
    packets: List[PacketRecord] = []
    for i in range(n_flows):
        packets.extend(_burst_packets(rng, device_ip, act,
                                      atk.start + i / atk.rate,
                                      port_base + i, label))
    return packets


def inject_attack(trace: Sequence[PacketRecord], atk: AttackSpec,
                  seed: int = 0,
                  device_ip: Optional[str] = None) -> List[PacketRecord]:
    """Merge labeled attack packets into a time-ordered trace.

    The device IP defaults to the device side of the first trace packet
    (benign traces carry it as the source of every outbound packet).  The
    attack flows take device ports from 46,000 up, or from one above the
    highest device port of the trace's benign packets, so that no attack
    flow shares a 5-tuple with a benign burst.
    """
    trace = list(trace)
    if device_ip is None:
        if not trace:
            raise BadSpec("empty trace and no device_ip given")
        device_ip = trace[0].src_ip
    benign_top = max((p.src_port if p.src_ip == device_ip else p.dst_port
                      for p in trace if p.label == BENIGN), default=0)
    merged = trace + _attack_packets(device_ip, atk, seed,
                                     max(_ATTACK_PORT_BASE, benign_top + 1))
    merged.sort(key=lambda p: p.ts)
    return merged


def flow_activity_labels(spec: DeviceSpec,
                         flow_keys: Sequence[FlowKey]) -> List[str]:
    """Ground-truth activity name per flow key, matched on protocol,
    destination port, and remote value."""
    labels = []
    for key in flow_keys:
        name = None
        for act in spec.activities:
            if key.proto != act.proto or key.dst_port != act.dst_port:
                continue
            remote_value = act.domain if act.domain else act.remote_ip
            if key.remote.value == remote_value:
                name = act.name
                break
        labels.append(name if name else "unknown")
    return labels


# --- canned device fixtures ------------------------------------------------

_RESOLVER = ("resolver.lan-isp.net", "192.0.2.53")

FIXTURES: Dict[str, DeviceSpec] = {
    "camera": DeviceSpec("192.168.1.10", (
        ActivitySpec("video_upload", "203.0.113.10", 443, TCP, period=30.0,
                     sizes=(1200, 1350, 1500), size_probs=(0.4, 0.4, 0.2),
                     packets_per_burst=12, jitter=2.0, intra_gap=0.04,
                     domain="upload.cam-vendor.com"),
        ActivitySpec("web_api", "203.0.113.11", 80, TCP, period=20.0,
                     sizes=(400, 520, 640), size_probs=(0.5, 0.3, 0.2),
                     packets_per_burst=6, jitter=1.5, intra_gap=0.08,
                     domain="api.cam-vendor.com"),
        ActivitySpec("stun", "203.0.113.12", 3478, UDP, period=15.0,
                     sizes=(62, 66), size_probs=(0.5, 0.5),
                     packets_per_burst=2, jitter=1.0, intra_gap=0.05,
                     domain="stun.cam-vendor.com"),
        ActivitySpec("dns", _RESOLVER[1], 53, UDP, period=25.0,
                     sizes=(70, 86, 102), size_probs=(0.4, 0.4, 0.2),
                     packets_per_burst=2, jitter=2.0, intra_gap=0.03,
                     domain=_RESOLVER[0]),
    )),
    "plug": DeviceSpec("192.168.1.11", (
        ActivitySpec("heartbeat", "203.0.113.20", 8883, TCP, period=30.0,
                     sizes=(120, 140), size_probs=(0.6, 0.4),
                     packets_per_burst=4, jitter=1.0, intra_gap=0.06,
                     domain="iot.plug-cloud.io"),
        ActivitySpec("dns", _RESOLVER[1], 53, UDP, period=40.0,
                     sizes=(70, 86, 102), size_probs=(0.4, 0.4, 0.2),
                     packets_per_burst=2, jitter=2.0, intra_gap=0.03,
                     domain=_RESOLVER[0]),
        ActivitySpec("ntp", "203.0.113.21", 123, UDP, period=64.0,
                     sizes=(76,), size_probs=(1.0,),
                     packets_per_burst=2, jitter=1.0, intra_gap=0.04,
                     domain="pool.ntp.org"),
    )),
    "speaker": DeviceSpec("192.168.1.12", (
        ActivitySpec("stream", "203.0.113.30", 443, TCP, period=40.0,
                     sizes=(1000, 1100, 1250), size_probs=(0.4, 0.3, 0.3),
                     packets_per_burst=16, jitter=3.0, intra_gap=0.03,
                     domain="stream.music-cdn.com"),
        ActivitySpec("voice_api", "203.0.113.31", 8443, TCP, period=25.0,
                     sizes=(300, 340), size_probs=(0.5, 0.5),
                     packets_per_burst=6, jitter=1.5, intra_gap=0.07,
                     domain="voice.speaker-cloud.com"),
        ActivitySpec("dns", _RESOLVER[1], 53, UDP, period=30.0,
                     sizes=(70, 86, 102), size_probs=(0.4, 0.4, 0.2),
                     packets_per_burst=2, jitter=2.0, intra_gap=0.03,
                     domain=_RESOLVER[0]),
        ActivitySpec("ntp", "203.0.113.32", 123, UDP, period=64.0,
                     sizes=(76,), size_probs=(1.0,),
                     packets_per_burst=2, jitter=1.0, intra_gap=0.04,
                     domain="time.nist.gov"),
    )),
    "hub": DeviceSpec("192.168.1.13", (
        ActivitySpec("ssdp", "239.255.255.250", 1900, UDP, period=30.0,
                     sizes=(310, 350), size_probs=(0.5, 0.5),
                     packets_per_burst=3, jitter=1.0, intra_gap=0.1,
                     bidirectional=False),
        ActivitySpec("telemetry", "203.0.113.40", 443, TCP, period=20.0,
                     sizes=(200, 230, 260), size_probs=(0.4, 0.4, 0.2),
                     packets_per_burst=5, jitter=1.5, intra_gap=0.05,
                     domain="hub.smarthome-example.com"),
        ActivitySpec("dns", _RESOLVER[1], 53, UDP, period=35.0,
                     sizes=(70, 86, 102), size_probs=(0.4, 0.4, 0.2),
                     packets_per_burst=2, jitter=2.0, intra_gap=0.03,
                     domain=_RESOLVER[0]),
    )),
}
