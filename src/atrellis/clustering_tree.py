"""Tree-structured activity clustering of bidirectional flows.

The flows of a FlowTable are routed through four rule levels (protocol,
address class, source port class, destination port class) into leaves.
At profiling time, flows within a leaf whose packet-size sets are
sufficiently similar (Jaccard index >= h_s) are merged into one abstract
activity key, with wildcarded domains and "reg/dyn" source ports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Tuple

from .errors import EmptyTree, SchemaError, check, check_schema_version
from .traffic_model import (_PORT, BC_MC, DOMAIN, LOCAL_IP, PROTOCOLS,
                            REMOTE_IP, SYSTEM, FlowKey, Remote, classify_port,
                            parse_prefixes, read_json)
# bench/stage.py wraps ClusterTree.insert by name and its tests count calls
from .traffic_model import FlowTable as ClusterTree

PROFILE_SCHEMA_VERSION = "3.0"

# source port pattern kinds for activity keys
EXACT = "exact"
REGDYN = "regdyn"

# remote pattern kinds for activity keys
EXACT_DOMAIN = "domain"
WILDCARD_DOMAIN = "wildcard"
REMOTE_IP_CLASS = "remote_ip"
LOCAL_IP_CLASS = "local_ip"
BC_MC_CLASS = "bc_mc"


@dataclass(frozen=True)
class TreePath:
    """Routing path of a flow through the four rule levels.

    Source ports route individually only when they are system ports;
    registered and dynamic source ports share one "reg/dyn" bucket (a
    client's ephemeral port carries no service information).  Destination
    system and registered ports route individually (they name services);
    dynamic destination ports share one bucket.
    """

    proto: str
    addr_class: str
    src_bucket: Tuple
    dst_bucket: Tuple


def tree_path_of(key: FlowKey) -> TreePath:
    src = classify_port(key.src_port)
    if src.kind == SYSTEM:
        src_bucket = (SYSTEM, src.port)
    else:
        src_bucket = (REGDYN,)
    dst = classify_port(key.dst_port)
    if dst.kind in (SYSTEM, "registered"):
        dst_bucket = (dst.kind, dst.port)
    else:
        dst_bucket = ("dynamic",)
    return TreePath(key.proto, key.remote.kind, src_bucket, dst_bucket)


def jaccard(s1: AbstractSet, s2: AbstractSet) -> float:
    """|intersection| / |union|; two empty sets count as identical (1.0)."""
    if not s1 and not s2:
        return 1.0
    return len(s1 & s2) / len(s1 | s2)


@dataclass(frozen=True)
class RemotePattern:
    """Remote side of an activity key: exact domain, wildcarded domain
    suffix, or one of the address classes."""

    kind: str
    value: Optional[str] = None

    def matches(self, remote: Remote) -> bool:
        if self.kind == EXACT_DOMAIN:
            return remote.kind == DOMAIN and remote.value == self.value
        if self.kind == WILDCARD_DOMAIN:
            # ".example.com" accepts example.com as well as its subdomains
            return remote.kind == DOMAIN and \
                ("." + remote.value).endswith(self.value)
        if self.kind == REMOTE_IP_CLASS:
            return remote.kind == REMOTE_IP
        if self.kind == LOCAL_IP_CLASS:
            return remote.kind == LOCAL_IP
        return remote.kind == BC_MC


@dataclass(frozen=True)
class PortPattern:
    """Source port of an activity key: an exact system port or the reg/dyn
    range."""

    kind: str
    port: Optional[int] = None

    def matches(self, port: int) -> bool:
        if self.kind == EXACT:
            return port == self.port
        return port >= 1024


@dataclass(frozen=True)
class ActivityKey:
    """Abstract flow rule identifying one device activity.  The destination
    port is a port: _mergeable joins only flows of one destination port."""

    proto: str
    remote_pattern: RemotePattern
    src_port_pattern: PortPattern
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


def _domain_suffix(a: str, b: str) -> Optional[str]:
    """Longest shared tail of non-empty dot-separated labels of two
    domains, or None if fewer than two labels are shared."""
    la, lb = a.split("."), b.split(".")
    shared = []
    while la and lb and la[-1] and la[-1] == lb[-1]:
        shared.append(la.pop())
        lb.pop()
    if len(shared) < 2:
        return None
    return ".".join(reversed(shared))


def _mergeable(f1: FlowKey, f2: FlowKey) -> bool:
    """Whether two flows of one leaf may generalize into one key:
    equal dst ports, src ports equal or both reg/dyn, and domains (when
    present) equal or sharing a suffix of at least two labels."""
    if f1.dst_port != f2.dst_port:
        return False
    if f1.src_port != f2.src_port and (f1.src_port < 1024 or f2.src_port < 1024):
        return False
    if f1.remote.kind == DOMAIN:
        if f1.remote.value != f2.remote.value \
                and _domain_suffix(f1.remote.value, f2.remote.value) is None:
            return False
    return True


def _flow_sort_key(f: FlowKey):
    return (f.remote.kind, f.remote.value, f.src_port, f.dst_port, f.proto)


def _generalize(group: List[FlowKey]) -> ActivityKey:
    first = group[0]
    kind = first.remote.kind
    if kind == DOMAIN:
        names = {f.remote.value for f in group}
        if len(names) == 1:
            remote = RemotePattern(EXACT_DOMAIN, first.remote.value)
        else:
            names = sorted(names)
            suffix = names[0]
            for name in names[1:]:
                suffix = _domain_suffix(suffix, name)
            remote = RemotePattern(WILDCARD_DOMAIN, "." + suffix)
    elif kind == REMOTE_IP:
        remote = RemotePattern(REMOTE_IP_CLASS)
    elif kind == LOCAL_IP:
        remote = RemotePattern(LOCAL_IP_CLASS)
    else:
        remote = RemotePattern(BC_MC_CLASS)
    # by the mergeable rule a group holds one system source port or none;
    # an ephemeral port is not pinned, as stacks randomise it (RFC 6056)
    if first.src_port < 1024:
        src = PortPattern(EXACT, first.src_port)
    else:
        src = PortPattern(REGDYN)
    return ActivityKey(first.proto, remote, src, first.dst_port,
                       tuple(sorted(group, key=_flow_sort_key)))


def merge_activities(leaf_entries: Dict[FlowKey, FrozenSet],
                     h_s: float) -> List[ActivityKey]:
    """Single-linkage agglomeration of one leaf's flows, each given with
    its set of packet lengths.

    Two flows join one activity when their size sets have Jaccard >= h_s
    and their keys are compatible under the generalization rules; groups
    chain transitively.  Each group becomes one abstract key; singletons
    become exact keys.
    """
    flows = sorted(leaf_entries, key=_flow_sort_key)
    parent = list(range(len(flows)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(flows)):
        for j in range(i + 1, len(flows)):
            if find(i) == find(j):
                continue
            if _mergeable(flows[i], flows[j]) and \
                    jaccard(leaf_entries[flows[i]],
                            leaf_entries[flows[j]]) >= h_s:
                parent[find(j)] = find(i)

    groups: Dict[int, List[FlowKey]] = {}
    for i, f in enumerate(flows):
        groups.setdefault(find(i), []).append(f)
    return [_generalize(g) for _, g in sorted(groups.items())]


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
    """Merge every leaf and concatenate the resulting activity keys.

    Keys whose patterns coincide (possible across groups of one leaf)
    are collapsed into one, pooling their member flows.
    """
    if not tree.flows:
        raise EmptyTree("no packets inserted")
    leaves = leaves_of(tree)
    merged: Dict[Tuple, ActivityKey] = {}
    for path in sorted(leaves, key=_path_sort_key):
        for key in merge_activities(leaves[path], h_s):
            ident = (key.proto, key.remote_pattern, key.src_port_pattern,
                     key.dst_port)
            if ident in merged:
                pooled = tuple(sorted(
                    set(merged[ident].member_flows) | set(key.member_flows),
                    key=_flow_sort_key))
                merged[ident] = ActivityKey(*ident, pooled)
            else:
                merged[ident] = key
    return ActivityProfile(tree.device_ip, list(merged.values()),
                           tree.local_prefixes)


# --- serialization --------------------------------------------------------

_REMOTE_KINDS = frozenset({DOMAIN, REMOTE_IP, LOCAL_IP, BC_MC})
_FLOW_KEY_FIELDS = {
    "device_ip": str, "remote": {"kind": _REMOTE_KINDS, "value": str},
    "src_port": _PORT, "dst_port": _PORT, "proto": frozenset(PROTOCOLS)}
_NONE = type(None)
_REMOTE_VALUE_BY_KIND = {EXACT_DOMAIN: str, WILDCARD_DOMAIN: str,
                         REMOTE_IP_CLASS: _NONE, LOCAL_IP_CLASS: _NONE,
                         BC_MC_CLASS: _NONE}
_PORT_BY_KIND = {EXACT: _PORT, REGDYN: _NONE}
_KEY_FIELDS = {"proto": frozenset(PROTOCOLS),
               "remote_pattern": {"kind": frozenset(_REMOTE_VALUE_BY_KIND)},
               "src_port_pattern": {"kind": frozenset(_PORT_BY_KIND)},
               "dst_port": _PORT}


def flow_key_to_dict(f: FlowKey) -> dict:
    return {"device_ip": f.device_ip,
            "remote": {"kind": f.remote.kind, "value": f.remote.value},
            "src_port": f.src_port, "dst_port": f.dst_port, "proto": f.proto}


def flow_key_from_dict(d, what: str) -> FlowKey:
    """The flow key that ``d`` holds; ``check`` names its first bad
    field."""
    remote = check(d, _FLOW_KEY_FIELDS, what)["remote"]
    return FlowKey(d["device_ip"], Remote(remote["kind"], remote["value"]),
                   d["src_port"], d["dst_port"], d["proto"])


def activity_key_to_dict(k: ActivityKey) -> dict:
    """The four fields of a key, as the profile and ensemble store them."""
    return {"proto": k.proto, "remote_pattern": asdict(k.remote_pattern),
            "src_port_pattern": asdict(k.src_port_pattern),
            "dst_port": k.dst_port}


def _is_wildcard(value: str) -> bool:
    """Whether ``value`` is a wildcard _generalize writes: a dot, then two
    or more non-empty labels."""
    dot, *labels = value.split(".")
    return dot == "" and len(labels) >= 2 and all(labels)


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
                          f"{value!r:.30} is not a dot and two or more labels")
    src = d["src_port_pattern"]
    check(src, {"port": _PORT_BY_KIND[src["kind"]]},
          f"{what} src_port_pattern")
    return ActivityKey(d["proto"],
                       RemotePattern(remote["kind"], remote["value"]),
                       PortPattern(src["kind"], src["port"]), d["dst_port"])


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
    return profile_from_dict(read_json(path))
