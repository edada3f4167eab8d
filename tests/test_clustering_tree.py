import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atrellis.clustering_tree import (ActivityKey, ActivityProfile,
                                      ClusterTree,
                                      _flow_sort_key, _path_sort_key,
                                      build_profile, jaccard, leaves_of,
                                      load_profile, merge_activities,
                                      profile_from_dict, profile_to_dict,
                                      save_profile, tree_path_of)
from atrellis.errors import EmptyTree, NonMonotonicTimestamp, SchemaError
from atrellis.traffic_model import (IN, PROTOCOLS, FlowKey,
                                    PacketRecord, Remote, direction_of,
                                    flow_key_of)

DEVICE = "192.168.1.10"


def pkt(**kw):
    base = dict(ts=1.0, src_ip=DEVICE, dst_ip="239.255.255.250",
                src_port=50001, dst_port=1900, proto="UDP", length=310)
    base.update(kw)
    return PacketRecord(**base)


def domain_flow(name, sport=40000, dport=443, proto="TCP"):
    return FlowKey(DEVICE, Remote("domain", name), sport, dport, proto)


# --- reference: the per-packet tree with incremental statistics -----------

@dataclass
class ReferenceStats:
    """The constant-size per-flow record the tree once kept: packet counts
    and inter-arrival sums per direction, plus the set of packet sizes."""

    n_in: int = 0
    n_out: int = 0
    t_in: float = 0.0
    t_out: float = 0.0
    sizes: set = field(default_factory=set)
    last_ts_in: Optional[float] = None
    last_ts_out: Optional[float] = None


def reference_update_stats(s, direction, size, ts):
    if direction == IN:
        if s.last_ts_in is not None:
            if ts < s.last_ts_in:
                raise NonMonotonicTimestamp(f"in {ts} < {s.last_ts_in}")
            s.t_in += ts - s.last_ts_in
        s.n_in += 1
        s.last_ts_in = ts
    else:
        if s.last_ts_out is not None:
            if ts < s.last_ts_out:
                raise NonMonotonicTimestamp(f"out {ts} < {s.last_ts_out}")
            s.t_out += ts - s.last_ts_out
        s.n_out += 1
        s.last_ts_out = ts
    s.sizes.add(size)


class ReferenceClusterTree:
    """The tree that keyed every packet and folded it into its leaf's
    statistics record, kept as an oracle for the one flow table."""

    def __init__(self, device_ip, local_prefixes=()):
        self.device_ip = device_ip
        self.local_prefixes = tuple(local_prefixes)
        self.leaves = {}

    def insert(self, p):
        key = flow_key_of(p, self.device_ip, self.local_prefixes)
        leaf = self.leaves.setdefault(tree_path_of(key), {})
        reference_update_stats(leaf.setdefault(key, ReferenceStats()),
                               direction_of(p, self.device_ip), p.length,
                               p.ts)
        return key


def reference_build_profile(tree, h_s):
    """build_profile as it read the reference tree's leaves."""
    merged = {}
    for path in sorted(tree.leaves, key=_path_sort_key):
        sizes = {k: s.sizes for k, s in tree.leaves[path].items()}
        for key in merge_activities(sizes, h_s):
            ident = (key.proto, key.remote_pattern, key.src_port_pattern,
                     key.dst_port_pattern)
            if ident in merged:
                pooled = tuple(sorted(
                    set(merged[ident].member_flows) | set(key.member_flows),
                    key=_flow_sort_key))
                merged[ident] = ActivityKey(*ident, pooled)
            else:
                merged[ident] = key
    return ActivityProfile(tree.device_ip, list(merged.values()),
                           tree.local_prefixes)


REMOTES = [("203.0.113.5", None), ("203.0.113.6", None),
           ("198.51.100.7", "cam1.vendor.com"),
           ("198.51.100.8", "cam2.vendor.com"),
           ("198.51.100.9", "time.other.org"), ("192.168.1.7", None),
           ("192.168.1.8", None), ("239.255.255.250", None),
           ("192.168.1.255", None)]


@st.composite
def multi_flow_traces(draw):
    """A time-ordered trace of a few dozen flows of mixed remotes, ports
    and protocols, each packet going either way, with small size sets so
    that leaves hold mergeable flows."""
    n = draw(st.integers(1, 120))
    packets = []
    ts = 0.0
    for _ in range(n):
        ts += draw(st.sampled_from([0.0, 0.25, 1.0]))
        remote, name = draw(st.sampled_from(REMOTES))
        sport = draw(st.sampled_from([123, 40000, 40001, 40002, 50000]))
        dport = draw(st.sampled_from([53, 443, 1900, 8080, 50001]))
        fields = dict(ts=ts, proto=draw(st.sampled_from(PROTOCOLS)),
                      length=draw(st.sampled_from([60, 70, 300, 310, 1400])),
                      dns_name=name)
        if draw(st.booleans()):
            packets.append(PacketRecord(src_ip=DEVICE, dst_ip=remote,
                                        src_port=sport, dst_port=dport,
                                        **fields))
        else:
            packets.append(PacketRecord(src_ip=remote, dst_ip=DEVICE,
                                        src_port=dport, dst_port=sport,
                                        **fields))
    return packets


class TestAgainstReferenceTree:
    @settings(max_examples=80, deadline=None)
    @given(multi_flow_traces(), st.sampled_from([(), ("192.168.1.0/24",)]),
           st.sampled_from([0.0, 0.5, 1.0]))
    def test_build_profile_matches(self, packets, prefixes, h_s):
        tree, ref = ClusterTree(DEVICE, prefixes), \
            ReferenceClusterTree(DEVICE, prefixes)
        for p in packets:
            assert tree.insert(p) == ref.insert(p)
        assert profile_to_dict(build_profile(tree, h_s)) == \
            profile_to_dict(reference_build_profile(ref, h_s))

    @settings(max_examples=30, deadline=None)
    @given(multi_flow_traces())
    def test_leaves_hold_the_reference_size_sets(self, packets):
        tree, ref = ClusterTree(DEVICE), ReferenceClusterTree(DEVICE)
        for p in packets:
            tree.insert(p)
            ref.insert(p)
        assert leaves_of(tree) == {
            path: {k: frozenset(s.sizes) for k, s in leaf.items()}
            for path, leaf in ref.leaves.items()}


class TestInsert:
    def test_new_leaf_entry(self):
        tree = ClusterTree(DEVICE)
        key = tree.insert(pkt())
        path = tree_path_of(key)
        assert path.proto == "UDP" and path.addr_class == "bc_mc"
        assert path.dst_bucket == ("registered", 1900)
        assert tree.flows == {key: [pkt()]}

    def test_reply_reuses_entry(self):
        tree = ClusterTree(DEVICE)
        tree.insert(pkt(src_ip="198.51.100.1", dst_ip=DEVICE,
                        src_port=443, dst_port=40000, proto="TCP",
                        dns_name="a.example.com", ts=1.0))
        tree.insert(pkt(src_ip=DEVICE, dst_ip="198.51.100.1",
                        src_port=40000, dst_port=443, proto="TCP",
                        dns_name="a.example.com", ts=2.0))
        assert sum(len(leaf) for leaf in leaves_of(tree).values()) == 1

    def test_conservation_against_oracle(self):
        # recompute every flow naively from the raw packet list
        rng = np.random.default_rng(3)
        tree = ClusterTree(DEVICE)
        raw = {}
        ts = 0.0
        for _ in range(1000):
            ts += rng.uniform(0, 0.5)
            fi = int(rng.integers(4))
            out = bool(rng.integers(2))
            length = int(rng.integers(40, 1500))
            remote = f"198.51.100.{fi + 1}"
            if out:
                p = pkt(ts=ts, src_ip=DEVICE, dst_ip=remote,
                        src_port=40000 + fi, dst_port=443, proto="TCP",
                        length=length)
            else:
                p = pkt(ts=ts, src_ip=remote, dst_ip=DEVICE, src_port=443,
                        dst_port=40000 + fi, proto="TCP", length=length)
            key = tree.insert(p)
            raw.setdefault(key, []).append(p)
        assert sum(len(flow) for flow in tree.flows.values()) == 1000
        assert tree.flows == raw
        assert list(tree.flows) == list(raw)
        for leaf in leaves_of(tree).values():
            for key, sizes in leaf.items():
                assert sizes == {p.length for p in raw[key]}

    def test_earlier_packet_of_a_flow_is_rejected(self):
        tree = ClusterTree(DEVICE)
        tree.insert(pkt(ts=5.0))
        with pytest.raises(NonMonotonicTimestamp, match="ts 4.0 .* ts 5.0"):
            tree.insert(pkt(ts=4.0))


class TestJaccard:
    def test_identical(self):
        assert jaccard({64, 128}, {64, 128}) == 1.0

    def test_disjoint(self):
        assert jaccard({64}, {128}) == 0.0

    def test_half(self):
        assert jaccard({64, 128, 256}, {128, 256, 512}) == 0.5

    def test_both_empty(self):
        assert jaccard(set(), set()) == 1.0

    @given(st.sets(st.integers(1, 100)), st.sets(st.integers(1, 100)))
    def test_symmetric_and_bounded(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0

    @given(st.sets(st.integers(1, 100), min_size=1))
    def test_self_similarity(self, a):
        assert jaccard(a, a) == 1.0


class TestMergeActivities:
    def test_wildcard_domain(self):
        entries = {
            domain_flow("cam1.vendor.com", 40000): frozenset({512, 1024}),
            domain_flow("cam2.vendor.com", 40001): frozenset({512, 1024}),
        }
        keys = merge_activities(entries, 0.5)
        assert len(keys) == 1
        assert keys[0].remote_pattern.kind == "wildcard"
        assert keys[0].remote_pattern.value == ".vendor.com"
        assert keys[0].src_port_pattern.kind == "regdyn"

    def test_disjoint_sizes_stay_separate(self):
        entries = {
            domain_flow("cam1.vendor.com", 40000): frozenset({512}),
            domain_flow("cam2.vendor.com", 40001): frozenset({1024}),
        }
        keys = merge_activities(entries, 0.5)
        assert len(keys) == 2
        assert all(k.remote_pattern.kind == "domain" for k in keys)

    def test_zero_threshold_merges_everything(self):
        entries = {
            domain_flow("cam1.vendor.com", 40000 + i): frozenset({100 + i})
            for i in range(4)
        }
        assert len(merge_activities(entries, 0.0)) == 1

    def test_unrelated_domains_never_merge(self):
        entries = {
            domain_flow("a.one.org", 40000): frozenset({512}),
            domain_flow("b.two.net", 40001): frozenset({512}),
        }
        assert len(merge_activities(entries, 0.0)) == 2

    def test_system_src_port_never_generalizes(self):
        entries = {
            domain_flow("a.example.com", 22): frozenset({512}),
            domain_flow("a.example.com", 40001): frozenset({512}),
        }
        assert len(merge_activities(entries, 0.0)) == 2

    def test_differing_dst_ports_never_merge(self):
        entries = {
            domain_flow("a.example.com", 40000, dport=80): frozenset({512}),
            domain_flow("a.example.com", 40001, dport=81): frozenset({512}),
        }
        assert len(merge_activities(entries, 0.0)) == 2

    def test_empty_labels_are_not_a_shared_suffix(self):
        """Names with an empty label share no suffix through it, so no
        key holds a wildcard that the loader refuses."""
        entries = {
            domain_flow("x.a..com", 40000): frozenset({512}),
            domain_flow("y.a..com", 40001): frozenset({512}),
        }
        keys = merge_activities(entries, 0.0)
        assert [k.remote_pattern.kind for k in keys] == ["domain", "domain"]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(0)
        entries = {
            domain_flow("a.example.com", 40000 + i):
                frozenset(set(rng.choice(20, size=5) + 1))
            for i in range(12)
        }
        counts = [len(merge_activities(entries, h))
                  for h in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert counts == sorted(counts)

    def test_members_match_own_key(self):
        entries = {
            domain_flow("cam1.vendor.com", 40000): frozenset({512, 1024}),
            domain_flow("cam2.vendor.com", 40001): frozenset({512, 1024}),
            domain_flow("cam2.vendor.com", 40002, dport=80): frozenset({99}),
        }
        for key in merge_activities(entries, 0.5):
            for f in key.member_flows:
                assert key.proto == f.proto
                assert key.remote_pattern.matches(f.remote)
                assert key.src_port_pattern.matches(f.src_port)
                assert key.dst_port_pattern.matches(f.dst_port)


class TestBuildProfile:
    def _tree_with_three_leaves(self):
        tree = ClusterTree(DEVICE)
        tree.insert(pkt())
        tree.insert(pkt(dst_ip="198.51.100.1", dst_port=443, proto="TCP",
                        dns_name="a.example.com", length=600))
        tree.insert(pkt(dst_ip="198.51.100.2", dst_port=53,
                        dns_name="resolver.example.net", length=70))
        return tree

    def test_one_key_per_isolated_flow(self):
        profile = build_profile(self._tree_with_three_leaves(),
                                0.5)
        assert len(profile.keys) == 3

    def test_empty_tree(self):
        with pytest.raises(EmptyTree):
            build_profile(ClusterTree(DEVICE), 0.5)

    def test_round_trip(self, tmp_path):
        profile = build_profile(self._tree_with_three_leaves(),
                                0.5)
        path = tmp_path / "profile.json"
        save_profile(path, profile)
        loaded = load_profile(path)
        assert loaded.device_ip == profile.device_ip
        assert loaded.keys == profile.keys
        assert [k.member_flows for k in loaded.keys] == \
            [k.member_flows for k in profile.keys]
        # serialization is stable
        assert profile_to_dict(loaded) == profile_to_dict(profile)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.__setitem__("keys", 5),
         "field keys has the wrong type int"),
        (lambda doc: doc.pop("device_ip"), "missing field device_ip"),
        (lambda doc: doc["keys"][1]["remote_pattern"].__setitem__(
            "kind", "anycast"), "key 1 remote_pattern: unknown kind"),
        (lambda doc: doc["keys"][0]["src_port_pattern"].__setitem__(
            "kind", "any"), "key 0 src_port_pattern: unknown kind 'any'"),
        (lambda doc: doc["keys"][0].pop("member_flows"),
         "key 0: missing field member_flows"),
        (lambda doc: doc["keys"][0]["member_flows"][0].__setitem__(
            "src_port", -1),
         "member flow: src_port -1 is not an integer in 0-65535"),
        (lambda doc: doc["keys"][0]["member_flows"][0]["remote"].pop(
            "value"), "member flow remote: missing field value"),
        (lambda doc: doc["keys"][0]["member_flows"][0].__setitem__(
            "proto", "SCTP"), "unknown proto 'SCTP'"),
        (lambda doc: doc.__setitem__("schema_version", "1.0"),
         "unsupported schema_version '1.0'"),
        (lambda doc: doc.pop("local_prefixes"),
         "profile: missing field local_prefixes"),
        (lambda doc: doc.__setitem__("local_prefixes", {}),
         "field local_prefixes has the wrong type dict"),
        (lambda doc: doc.__setitem__("local_prefixes", ["192.168.1.0/24",
                                                        "garbage"]),
         "profile: local_prefixes: .*'garbage'"),
        (lambda doc: doc.__setitem__("local_prefixes", [None]),
         "local_prefixes holds a value that is not a string"),
    ])
    def test_corrupt_profile_is_a_short_schema_error(self, corrupt, message):
        doc = profile_to_dict(build_profile(self._tree_with_three_leaves(),
                                            0.5))
        corrupt(doc)
        with pytest.raises(SchemaError, match=message) as info:
            profile_from_dict(doc)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("value", [
        "example.com", "", ".", ".com", "..com", ".example..com",
        ".example.com.", "example.com."])
    def test_wildcard_value_generalize_cannot_write_is_refused(
            self, tmp_path, value):
        """A wildcard is a dot and two or more labels; any other value
        would let the suffix match accept more (``example.com`` accepts
        ``evilexample.com``, ``""`` every domain)."""
        doc = profile_to_dict(build_profile(self._tree_with_three_leaves(),
                                            0.5))
        doc["keys"][1]["remote_pattern"] = {"kind": "wildcard",
                                            "value": value}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="profile key 1 remote_pattern: "
                           "wildcard value") as info:
            load_profile(path)
        assert "\n" not in str(info.value) and len(str(info.value)) < 120

    def test_written_wildcard_loads_and_matches_only_its_suffix(
            self, tmp_path):
        tree = ClusterTree(DEVICE)
        for i, name in enumerate(["cam1.vendor.com", "cam2.vendor.com"]):
            tree.insert(pkt(dst_ip="198.51.100.1", src_port=40000 + i,
                            dst_port=443, proto="TCP", dns_name=name))
        path = tmp_path / "profile.json"
        save_profile(path, build_profile(tree, 0.5))
        (key,) = load_profile(path).keys
        assert key.remote_pattern.value == ".vendor.com"
        assert key.remote_pattern.matches(Remote("domain", "vendor.com"))
        assert not key.remote_pattern.matches(Remote("domain",
                                                     "evilvendor.com"))

    def test_round_trip_keeps_local_prefixes(self, tmp_path):
        tree = ClusterTree(DEVICE, ["192.168.1.0/24", "10.0.0.0/8"])
        tree.insert(pkt(dst_ip="192.168.1.50", dst_port=8080, proto="TCP"))
        profile = build_profile(tree, 0.5)
        assert profile.local_prefixes == ("192.168.1.0/24", "10.0.0.0/8")
        assert profile.keys[0].remote_pattern.kind == "local_ip"
        path = tmp_path / "profile.json"
        save_profile(path, profile)
        assert load_profile(path).local_prefixes == profile.local_prefixes

    def test_key_repr_leaves_out_member_flows(self):
        profile = build_profile(self._tree_with_three_leaves(),
                                0.5)
        for key in profile.keys:
            assert key.member_flows
            assert "member_flows" not in repr(key)
            assert "FlowKey" not in repr(key)
