"""Tree-structured activity clustering of bidirectional flows.

The flows of a FlowTable are routed through four rule levels (protocol,
address class, source port bucket, destination port bucket) into leaves;
tree_path_of writes out the port buckets.
At profiling time, the distinct packet-size sets of each part of a leaf
(one destination port, source port class and domain tail) are linked
when their Jaccard index is >= h_s; each linked group of flows becomes
one abstract activity key, with wildcarded domains and the source class
of its flows (src_class), in the order of the groups' first flows.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations
from typing import (AbstractSet, Dict, FrozenSet, List, Optional, Tuple,
                    Union)

from .errors import EmptyTree, SchemaError, check, check_schema_version
from .traffic_model import (_PORT, BC_MC, DOMAIN, LOCAL_IP, PROTOCOLS,
                            REMOTE_IP, SYSTEM, FlowKey, Remote,
                            parse_prefixes, read_json)
# bench/stage.py wraps ClusterTree.insert by name and its tests count calls
from .traffic_model import FlowTable as ClusterTree

PROFILE_SCHEMA_VERSION = "3.0"

REGDYN = "regdyn"   # the source class of every port but a system port
EXACT = "exact"     # a key's system source port, as the artifacts write it

# the remote pattern kind of a domain suffix; the other kinds are the
# remote kinds
WILDCARD_DOMAIN = "wildcard"

# two-label public suffixes (a sample, not the Public Suffix List)
MULTI_LABEL_SUFFIXES = frozenset(
    "co.uk org.uk ac.uk gov.uk com.au net.au org.au co.jp ne.jp or.jp "
    "co.nz co.kr co.in com.br com.cn com.mx com.tr co.za".split())


@dataclass(frozen=True)
class TreePath:
    """Routing path of a flow through the four rule levels.

    The port buckets follow the IANA ranges (RFC 6335): system ports
    below 1024, registered ports below 49152, dynamic ports above.  Source
    ports route by their src_class: a system port individually, every
    other port to one "reg/dyn" bucket.  Destination system and registered
    ports route individually (they name services); dynamic destination
    ports share one bucket.
    """

    proto: str
    addr_class: str
    src_bucket: Tuple
    dst_bucket: Tuple


def src_class(port: int) -> Union[int, str]:
    """What an activity key pins of a flow's source port: the port itself
    when it is a system port, else REGDYN.  A client's ephemeral port
    carries no service information, as stacks randomise it (RFC 6056)."""
    return port if port < 1024 else REGDYN


def tree_path_of(key: FlowKey) -> TreePath:
    src, dst = src_class(key.src_port), key.dst_port
    return TreePath(key.proto, key.remote.kind,
                    (REGDYN,) if src == REGDYN else (SYSTEM, src),
                    (SYSTEM, dst) if dst < 1024 else
                    ("registered", dst) if dst < 49152 else ("dynamic",))


def jaccard(s1: AbstractSet, s2: AbstractSet) -> float:
    """|intersection| / |union|; two empty sets count as identical (1.0)."""
    if not s1 and not s2:
        return 1.0
    return len(s1 & s2) / len(s1 | s2)


@dataclass(frozen=True)
class RemotePattern:
    """Remote side of an activity key: a remote kind with, for DOMAIN,
    its one name (an address class holds no value), or WILDCARD_DOMAIN
    with a domain suffix."""

    kind: str
    value: Optional[str] = None

    def matches(self, remote: Remote) -> bool:
        if self.kind == WILDCARD_DOMAIN:
            # ".example.com" accepts example.com as well as its subdomains
            return remote.kind == DOMAIN and \
                ("." + remote.value).endswith(self.value)
        return remote.kind == self.kind and self.value in (None, remote.value)


@dataclass(frozen=True)
class ActivityKey:
    """Abstract flow rule identifying one device activity.  ``src`` is the
    src_class of its flows' source port, and the destination port is a
    port: a part (_part_of) holds one of each."""

    proto: str
    remote_pattern: RemotePattern
    src: Union[int, str]
    dst_port: int
    member_flows: Tuple[FlowKey, ...] = field(default=(), compare=False,
                                              repr=False)


@dataclass
class ActivityProfile:
    """The device's activity keys, with the device IP and local prefixes
    its flows were keyed by; train and detect key their traces the same
    way."""

    device_ip: str
    keys: List[ActivityKey]
    local_prefixes: Tuple[str, ...] = ()


def _domain_suffix(a: str, b: str) -> str:
    """Longest shared tail of non-empty dot-separated labels of two
    domains; two names of one part (_part_of) share its domain tail."""
    la, lb = a.split("."), b.split(".")
    shared = []
    while la and lb and la[-1] and la[-1] == lb[-1]:
        shared.append(la.pop())
        lb.pop()
    return ".".join(reversed(shared))


def _part_of(f: FlowKey) -> Tuple:
    """The part of a leaf that a flow may share a key within: its
    destination port, its source class and, for a domain, its last two
    labels, or three when those two are a MULTI_LABEL_SUFFIXES suffix.  A
    name with an empty one among them is its own part, as a one-label
    name is by its one label.  An IP-class remote adds nothing."""
    src = src_class(f.src_port)
    if f.remote.kind != DOMAIN:
        return f.dst_port, src
    labels = f.remote.value.split(".")
    tail = tuple(labels[-3:] if ".".join(labels[-2:]) in
                 MULTI_LABEL_SUFFIXES else labels[-2:])
    if not all(tail):
        tail = f.remote.value
    return f.dst_port, src, tail


def _flow_sort_key(f: FlowKey):
    return (f.remote.kind, f.remote.value, f.src_port, f.dst_port, f.proto)


def _generalize(group: List[FlowKey]) -> ActivityKey:
    """The key, without member flows, that accepts every flow of a group
    of one part."""
    first = group[0]
    names = {f.remote.value for f in group}
    if first.remote.kind != DOMAIN:
        remote = RemotePattern(first.remote.kind)
    elif len(names) == 1:
        remote = RemotePattern(DOMAIN, first.remote.value)
    else:
        names = sorted(names)
        suffix = names[0]
        for name in names[1:]:
            suffix = _domain_suffix(suffix, name)
        remote = RemotePattern(WILDCARD_DOMAIN, "." + suffix)
    return ActivityKey(first.proto, remote, src_class(first.src_port),
                       first.dst_port)


def merge_activities(leaf_entries: Dict[FlowKey, FrozenSet],
                     h_s: float) -> List[ActivityKey]:
    """Single-linkage agglomeration of one leaf's flows, each given with
    its set of packet lengths (h_s in [0, 1]).

    Flows join only within a part (_part_of).  Union-find links two
    distinct size sets of a part when their Jaccard index is >= h_s, and
    the flows of linked sets form one group.  The groups' keys come in
    first-member order (_flow_sort_key); equal keys pool their flows.
    """
    flows = sorted(leaf_entries, key=_flow_sort_key)
    parts: Dict[Tuple, Dict[FrozenSet, List[FlowKey]]] = {}
    for f in flows:
        parts.setdefault(_part_of(f), {}).setdefault(
            leaf_entries[f], []).append(f)
    key_of: Dict[FlowKey, ActivityKey] = {}
    for flows_by_sizes in parts.values():
        sizes = list(flows_by_sizes)
        root = list(range(len(sizes)))      # quick-find: component labels
        for i, j in combinations(range(len(sizes)), 2):
            if root[i] != root[j] and jaccard(sizes[i], sizes[j]) >= h_s:
                joined = root[j]
                root = [root[i] if r == joined else r for r in root]
        groups: Dict[int, List[FlowKey]] = {}
        for r, s in zip(root, sizes):
            groups.setdefault(r, []).extend(flows_by_sizes[s])
        for group in groups.values():
            key_of.update(dict.fromkeys(group, _generalize(group)))
    members: Dict[ActivityKey, List[FlowKey]] = {}
    for f in flows:
        members.setdefault(key_of[f], []).append(f)
    return [replace(k, member_flows=tuple(m)) for k, m in members.items()]


def _path_sort_key(path: TreePath):
    return (path.proto, path.addr_class,
            tuple(str(x) for x in path.src_bucket),
            tuple(str(x) for x in path.dst_bucket))


def leaves_of(tree: ClusterTree) -> Dict[TreePath, Dict[FlowKey, FrozenSet]]:
    """The table's flows routed to their leaves, each flow with the set of
    its packet lengths."""
    leaves: Dict[TreePath, Dict[FlowKey, FrozenSet]] = {}
    for key, flow in tree.flows.items():
        leaves.setdefault(tree_path_of(key), {})[key] = \
            frozenset(p.length for p in flow)
    return leaves


def build_profile(tree: ClusterTree, h_s: float) -> ActivityProfile:
    """Merge every leaf, in path order, and concatenate the resulting
    activity keys (equal keys arise only within one leaf)."""
    if not tree.flows:
        raise EmptyTree("no packets inserted")
    leaves = leaves_of(tree)
    return ActivityProfile(
        tree.device_ip,
        [key for path in sorted(leaves, key=_path_sort_key)
         for key in merge_activities(leaves[path], h_s)],
        tree.local_prefixes)


# --- serialization --------------------------------------------------------

_NONE = type(None)
_REMOTE_VALUE_BY_KIND = {DOMAIN: str, WILDCARD_DOMAIN: str,
                         REMOTE_IP: _NONE, LOCAL_IP: _NONE, BC_MC: _NONE}
_PORT_BY_KIND = {EXACT: _PORT, REGDYN: _NONE}
_KEY_FIELDS = {"proto": frozenset(PROTOCOLS),
               "remote_pattern": {"kind": frozenset(_REMOTE_VALUE_BY_KIND)},
               "src_port_pattern": {"kind": frozenset(_PORT_BY_KIND)},
               "dst_port": _PORT}


def activity_key_to_dict(k: ActivityKey) -> dict:
    """The four fields of a key, as the profile and ensemble store them."""
    src = {"kind": REGDYN, "port": None} if k.src == REGDYN else \
        {"kind": EXACT, "port": k.src}
    return {"proto": k.proto, "remote_pattern": asdict(k.remote_pattern),
            "src_port_pattern": src, "dst_port": k.dst_port}


def _is_wildcard(value: str) -> bool:
    """Whether ``value`` is a wildcard _generalize writes: a dot, then two
    or more non-empty labels that are not a MULTI_LABEL_SUFFIXES entry."""
    dot, *labels = value.split(".")
    return dot == "" and len(labels) >= 2 and all(labels) and \
        value[1:] not in MULTI_LABEL_SUFFIXES


def activity_key_from_dict(d, what: str) -> ActivityKey:
    """The key, without member flows, whose four fields ``d`` holds."""
    check(d, _KEY_FIELDS, what)
    remote = d["remote_pattern"]
    check(remote, {"value": _REMOTE_VALUE_BY_KIND[remote["kind"]]},
          f"{what} remote_pattern")
    value = remote["value"]
    if remote["kind"] == WILDCARD_DOMAIN and not _is_wildcard(value):
        # the suffix test of RemotePattern.matches would accept more
        raise SchemaError(f"{what} remote_pattern: wildcard value "
                          f"{value!r:.30} is not a dot and two or more labels, "
                          f"or is a public suffix")
    src = d["src_port_pattern"]
    port = check(src, {"port": _PORT_BY_KIND[src["kind"]]},
                 f"{what} src_port_pattern")["port"]
    if src["kind"] == EXACT and src_class(port) != port:
        raise SchemaError(f"{what} src_port_pattern: exact port {port} is "
                          f"not a system port")
    return ActivityKey(d["proto"],
                       RemotePattern(remote["kind"], remote["value"]),
                       REGDYN if port is None else port, d["dst_port"])


def keying_to_dict(profile: ActivityProfile) -> dict:
    """The device IP and local prefixes, as the profile and ensemble store
    them."""
    return {"device_ip": profile.device_ip,
            "local_prefixes": list(profile.local_prefixes)}


def keying_from_dict(doc, what: str) -> Tuple[str, Tuple[str, ...]]:
    """The device IP and local prefixes that ``doc`` holds."""
    check(doc, {"device_ip": str, "local_prefixes": list}, what)
    prefixes = tuple(doc["local_prefixes"])
    if not all(isinstance(p, str) for p in prefixes):
        raise SchemaError(f"{what}: local_prefixes holds a value that is "
                          f"not a string")
    try:
        parse_prefixes(prefixes)
    except ValueError as exc:
        raise SchemaError(f"{what}: local_prefixes: {exc}") from None
    return doc["device_ip"], prefixes


def profile_to_dict(profile: ActivityProfile) -> dict:
    """The keying and each key's four fields; train picks each key's flows
    with stage 1, so the member flows stay in memory."""
    return {"schema_version": PROFILE_SCHEMA_VERSION,
            **keying_to_dict(profile),
            "keys": [activity_key_to_dict(k) for k in profile.keys]}


def profile_from_dict(doc) -> ActivityProfile:
    check_schema_version(doc, PROFILE_SCHEMA_VERSION, "profile")
    device_ip, prefixes = keying_from_dict(doc, "profile")
    check(doc, {"keys": list}, "profile")
    return ActivityProfile(device_ip, [
        activity_key_from_dict(d, f"profile key {i}")
        for i, d in enumerate(doc["keys"])], prefixes)


def save_profile(path, profile: ActivityProfile) -> None:
    with open(path, "w") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2)
        fh.write("\n")


def load_profile(path) -> ActivityProfile:
    return read_json(path, profile_from_dict)
