import json
import re
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atrellis import clustering_tree as ct
from atrellis.anomaly_ensemble import stage1
from atrellis.clustering_tree import (ActivityKey, ActivityProfile,
                                      ClusterTree, RemotePattern,
                                      _flow_sort_key, _generalize,
                                      _path_sort_key,
                                      build_profile, jaccard, leaves_of,
                                      load_profile, merge_activities,
                                      profile_from_dict, profile_to_dict,
                                      save_profile, tree_path_of)
from atrellis.errors import EmptyTree, NonMonotonicTimestamp, SchemaError
from atrellis.traffic_model import (BC_MC, COUNT, DOMAIN, IN, LOCAL_IP,
                                    PROTOCOLS, REMOTE_IP, FlowKey,
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


# --- reference: the pairwise merge ----------------------------------------

def reference_domain_suffix(a, b):
    """Longest shared tail of non-empty labels, or None below two."""
    la, lb = a.split("."), b.split(".")
    shared = []
    while la and lb and la[-1] and la[-1] == lb[-1]:
        shared.append(la.pop())
        lb.pop()
    return ".".join(reversed(shared)) if len(shared) >= 2 else None


def reference_mergeable(f1, f2):
    """The pairwise test the merge once made of every two flows of a leaf:
    equal dst ports, src ports equal or both reg/dyn, and domains (when
    present) equal or sharing a suffix of at least two labels."""
    if f1.dst_port != f2.dst_port:
        return False
    if f1.src_port != f2.src_port and (f1.src_port < 1024 or
                                       f2.src_port < 1024):
        return False
    if f1.remote.kind == "domain":
        if f1.remote.value != f2.remote.value and reference_domain_suffix(
                f1.remote.value, f2.remote.value) is None:
            return False
    return True


def reference_merge(leaf_entries, h_s):
    """The pairwise merge of one leaf: union-find over every two flows
    that are mergeable and whose size sets have Jaccard >= h_s, each group
    generalized to one key, the groups in first-member order and not yet
    pooled."""
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
            if reference_mergeable(flows[i], flows[j]) and \
                    jaccard(leaf_entries[flows[i]],
                            leaf_entries[flows[j]]) >= h_s:
                parent[find(j)] = find(i)

    groups = {}
    for i, f in enumerate(flows):
        groups.setdefault(find(i), []).append(f)
    return [replace(_generalize(g), member_flows=tuple(g))
            for g in groups.values()]


def reference_pool(keys):
    """Keys with equal fields collapsed into the first, pooling their
    member flows."""
    merged = {}
    for key in keys:
        ident = (key.proto, key.remote_pattern, key.src, key.dst_port)
        if ident in merged:
            pooled = tuple(sorted(
                set(merged[ident].member_flows) | set(key.member_flows),
                key=_flow_sort_key))
            merged[ident] = ActivityKey(*ident, pooled)
        else:
            merged[ident] = key
    return list(merged.values())


def reference_build_profile(tree, h_s):
    """build_profile as it read the reference tree's leaves, with the
    pairwise merge."""
    keys = [key for path in sorted(tree.leaves, key=_path_sort_key)
            for key in reference_merge(
                {k: s.sizes for k, s in tree.leaves[path].items()}, h_s)]
    return ActivityProfile(tree.device_ip, reference_pool(keys),
                           tree.local_prefixes)


def with_members(keys):
    return [(k, k.member_flows) for k in keys]


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
        profile = build_profile(tree, h_s)
        expected = reference_build_profile(ref, h_s)
        assert profile_to_dict(profile) == profile_to_dict(expected)
        assert with_members(profile.keys) == with_members(expected.keys)

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


def routed(profile, flows):
    """Each key's flows as train routes them: stage 1's matches, the flows
    taken in _flow_sort_key order."""
    flows = sorted(flows, key=_flow_sort_key)
    by_key = [[] for _ in profile.keys]
    for f, (matched, _) in zip(flows, stage1(profile, flows)):
        for j in matched:
            by_key[j].append(f)
    return by_key, flows


class TestRouting:
    @settings(max_examples=80, deadline=None)
    @given(multi_flow_traces(), st.sampled_from([(), ("192.168.1.0/24",)]),
           st.sampled_from([0.0, 0.5, 1.0]))
    def test_stage1_routing_reproduces_membership(self, packets, prefixes,
                                                  h_s):
        """Stage 1 accepts every flow on the key it is a member of; where
        no flow matches two keys, each key's routed flows are its member
        flows, in order."""
        tree = ClusterTree(DEVICE, prefixes)
        for p in packets:
            tree.insert(p)
        profile = build_profile(tree, h_s)
        by_key, flows = routed(profile, tree.flows)
        owner = {f: j for j, k in enumerate(profile.keys)
                 for f in k.member_flows}
        assert sorted(owner, key=_flow_sort_key) == flows
        decisions = stage1(profile, flows)
        for f, (matched, _) in zip(flows, decisions):
            assert owner[f] in matched
        if all(len(matched) == 1 for matched, _ in decisions):
            assert by_key == [list(k.member_flows) for k in profile.keys]


class TestInsert:
    def test_new_leaf_entry(self):
        tree = ClusterTree(DEVICE)
        key = tree.insert(pkt())
        path = tree_path_of(key)
        assert path.proto == "UDP" and path.addr_class == "bc_mc"
        assert path.dst_bucket == ("registered", 1900)
        # one packet: its count, time, missing label and size
        assert tree.flows == {key: [1, 1.0, None, {310}]}

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
        tree = ClusterTree(DEVICE, r=1000)
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
        assert sum(flow[COUNT] for flow in tree.flows.values()) == 1000
        assert tree.flows == {
            key: [len(ps), ps[-1].ts, None, {p.length for p in ps},
                  *(v for p in ps for v in (p.ts, p.length))]
            for key, ps in raw.items()}
        assert list(tree.flows) == list(raw)
        for leaf in leaves_of(tree).values():
            for key, sizes in leaf.items():
                assert sizes == {p.length for p in raw[key]}

    def test_earlier_packet_of_a_flow_is_rejected(self):
        tree = ClusterTree(DEVICE)
        tree.insert(pkt(ts=5.0))
        with pytest.raises(NonMonotonicTimestamp, match="ts 4.0 .* ts 5.0"):
            tree.insert(pkt(ts=4.0))


class TestTreePath:
    @pytest.mark.parametrize("port,src,dst", [
        (0, ("system", 0), ("system", 0)),
        (1023, ("system", 1023), ("system", 1023)),
        (1024, ("regdyn",), ("registered", 1024)),
        (49151, ("regdyn",), ("registered", 49151)),
        (49152, ("regdyn",), ("dynamic",)),
        (65535, ("regdyn",), ("dynamic",)),
    ])
    def test_port_buckets_at_the_iana_boundaries(self, port, src, dst):
        path = tree_path_of(domain_flow("a.example.com", port, port))
        assert (path.src_bucket, path.dst_bucket) == (src, dst)


def reference_remote_matches(pattern, remote):
    """RemotePattern.matches as it was, one branch per pattern kind, with
    the address classes under names of their own."""
    if pattern.kind == "domain":
        return remote.kind == "domain" and remote.value == pattern.value
    if pattern.kind == "wildcard":
        return remote.kind == "domain" and \
            ("." + remote.value).endswith(pattern.value)
    if pattern.kind == "remote_ip":
        return remote.kind == "remote_ip"
    if pattern.kind == "local_ip":
        return remote.kind == "local_ip"
    return remote.kind == "bc_mc"


REMOTE_KINDS = (DOMAIN, REMOTE_IP, LOCAL_IP, BC_MC)
REMOTE_VALUES = ["a.vendor.com", "vendor.com", "b.a.vendor.com",
                 "evilvendor.com", "203.0.113.9", "192.168.1.20",
                 "239.255.255.250"]
remote_patterns = (
    st.builds(RemotePattern, st.just(DOMAIN),
              st.sampled_from(REMOTE_VALUES))
    | st.builds(RemotePattern, st.just(ct.WILDCARD_DOMAIN),
                st.sampled_from([".vendor.com", ".a.vendor.com",
                                 ".com", ""]))
    | st.builds(RemotePattern, st.sampled_from(REMOTE_KINDS[1:])))


class TestRemotePattern:
    @settings(max_examples=300, deadline=None)
    @given(pattern=remote_patterns,
           remote=st.builds(Remote, st.sampled_from(REMOTE_KINDS),
                            st.sampled_from(REMOTE_VALUES)))
    def test_matches_as_one_branch_per_kind(self, pattern, remote):
        assert pattern.matches(remote) == \
            reference_remote_matches(pattern, remote)

    @pytest.mark.parametrize("remote, pattern", [
        (Remote(DOMAIN, "a.vendor.com"), RemotePattern(DOMAIN,
                                                       "a.vendor.com")),
        (Remote(REMOTE_IP, "203.0.113.9"), RemotePattern(REMOTE_IP)),
        (Remote(LOCAL_IP, "192.168.1.20"), RemotePattern(LOCAL_IP)),
        (Remote(BC_MC, "239.255.255.250"), RemotePattern(BC_MC))])
    def test_a_group_of_one_remote_keys_on_its_kind(self, remote, pattern):
        f = FlowKey(DEVICE, remote, 40000, 443, "TCP")
        assert _generalize([f]).remote_pattern == pattern


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


LEAF_NAMES = ["cam1.vendor.com", "cam2.vendor.com", "a.cam1.vendor.com",
              "vendor.com", "ntp.other.org", "other.org", "localhost", "",
              "x.a..com", "y.a..com", "a.com.", "b.com.", ".", "com"]
LEAF_IPS = ["203.0.113.5", "203.0.113.6", "198.51.100.7"]
SIZES = [60, 70, 300, 310, 512, 1024, 1400]


@st.composite
def single_leaf_entries(draw):
    """One leaf's flows with their size sets: shared-tail, one-label and
    empty-label names, or one IP class; one system source port or
    reg/dyn ones; one named destination port or several dynamic ones;
    many distinct size sets, empty ones among them."""
    kind = draw(st.sampled_from(["domain", "remote_ip", "local_ip",
                                 "bc_mc"]))
    values = LEAF_NAMES if kind == "domain" else LEAF_IPS
    sources = draw(st.sampled_from([[123], [1024, 36002, 40000, 65535]]))
    dests = draw(st.sampled_from([[443], [49152, 50001, 65535]]))
    size_sets = st.frozensets(st.sampled_from(SIZES), max_size=4)
    entries = {}
    for _ in range(draw(st.integers(1, 40))):
        key = FlowKey(DEVICE, Remote(kind, draw(st.sampled_from(values))),
                      draw(st.sampled_from(sources)),
                      draw(st.sampled_from(dests)), "TCP")
        entries[key] = draw(size_sets)
    return entries


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
        assert keys[0].src == ct.REGDYN

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

    @pytest.mark.parametrize("suffix", ["co.uk", "com.au"])
    def test_names_under_a_public_suffix_share_no_wildcard(self, suffix):
        """a.co.uk and b.co.uk have no owner in common, and a ``.co.uk``
        key would accept evil.co.uk: each keeps its own name."""
        entries = {
            domain_flow(f"a.{suffix}", 40000): frozenset({512, 1024}),
            domain_flow(f"b.{suffix}", 40001): frozenset({512, 1024}),
        }
        keys = merge_activities(entries, 0.5)
        assert [k.remote_pattern for k in keys] == [
            RemotePattern("domain", f"a.{suffix}"),
            RemotePattern("domain", f"b.{suffix}")]
        assert not any(k.remote_pattern.matches(Remote("domain",
                                                       f"evil.{suffix}"))
                       for k in keys)

    def test_names_of_one_domain_under_a_public_suffix_share_it(self):
        entries = {
            domain_flow("cam1.vendor.co.uk", 40000): frozenset({512}),
            domain_flow("cam2.vendor.co.uk", 40001): frozenset({512}),
        }
        (key,) = merge_activities(entries, 0.5)
        assert key.remote_pattern == RemotePattern("wildcard",
                                                   ".vendor.co.uk")

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

    def test_ephemeral_source_port_is_never_pinned(self):
        """A one-flow group on source port 36002 beside a reg/dyn group of
        the same domain and destination, with sizes disjoint from it, gets
        the reg/dyn source too, so the merge pools them into one key and
        stage 1 routes every flow to it."""
        tree = ClusterTree(DEVICE)
        for ts, (sport, length) in enumerate(
                [(40000, 512), (40000, 1024), (40001, 512), (40001, 1024),
                 (36002, 99)]):
            tree.insert(pkt(ts=float(ts), dst_ip="198.51.100.1",
                            src_port=sport, dst_port=443, proto="TCP",
                            dns_name="cam1.vendor.com", length=length))
        groups = merge_activities(leaves_of(tree)[tree_path_of(
            domain_flow("cam1.vendor.com"))], 0.5)
        assert [len(k.member_flows) for k in groups] == [3]
        assert {k.src for k in groups} == {ct.REGDYN}
        profile = build_profile(tree, 0.5)
        (key,) = profile.keys
        assert key.src == ct.REGDYN
        assert [f.src_port for f in key.member_flows] == [36002, 40000, 40001]
        assert routed(profile, tree.flows)[0] == [list(key.member_flows)]

    @settings(max_examples=300, deadline=None)
    @given(single_leaf_entries(), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_matches_the_pairwise_merge(self, entries, h_s):
        """The keys, their member flows and their order are those of the
        pairwise merge, its groups in first-member order and pooled."""
        assert with_members(merge_activities(entries, h_s)) == \
            with_members(reference_pool(reference_merge(entries, h_s)))

    def test_links_size_sets_not_flows(self, monkeypatch):
        """3,000 flows of one part over 5 disjoint size sets cost at most
        the 5 * 4 / 2 Jaccard indices of the distinct sets."""
        sets = [frozenset({10 * k + 1, 10 * k + 2}) for k in range(5)]
        entries = {domain_flow("cam1.vendor.com", 1024 + i): sets[i % 5]
                   for i in range(3000)}
        calls = []

        def counted(s1, s2):
            calls.append((s1, s2))
            return jaccard(s1, s2)

        monkeypatch.setattr(ct, "jaccard", counted)
        keys = merge_activities(entries, 0.5)
        assert len(calls) <= 10
        assert [len(k.member_flows) for k in keys] == [3000]

    def test_system_source_port_stays_exact(self):
        entries = {domain_flow("a.example.com", 123): frozenset({512})}
        (key,) = merge_activities(entries, 0.5)
        assert key.src == 123

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
                assert key.src == ct.src_class(f.src_port)
                assert key.dst_port == f.dst_port


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
        # the file holds the keys and not the flows they were merged from
        assert all(k.member_flows for k in profile.keys)
        assert all(not k.member_flows for k in loaded.keys)
        assert "member_flows" not in path.read_text()
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
        (lambda doc: doc["keys"][0].__setitem__("proto", "SCTP"),
         "key 0: unknown proto 'SCTP'"),
        (lambda doc: doc.__setitem__("schema_version", "1.0"),
         "unsupported schema_version '1.0'"),
        (lambda doc: doc.__setitem__("schema_version", "2.0"),
         "unsupported schema_version '2.0'"),
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
        ".example.com.", "example.com.", ".co.uk", ".com.au"])
    def test_wildcard_value_generalize_cannot_write_is_refused(
            self, tmp_path, value):
        """A wildcard is a dot and two or more labels that are not a
        public suffix; any other value would let the suffix match accept
        more (``example.com`` accepts ``evilexample.com``, ``""`` every
        domain, ``.co.uk`` every registrant under it)."""
        doc = profile_to_dict(build_profile(self._tree_with_three_leaves(),
                                            0.5))
        doc["keys"][1]["remote_pattern"] = {"kind": "wildcard",
                                            "value": value}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "
                           "profile key 1 remote_pattern: wildcard value"
                           ) as info:
            load_profile(path)
        reason = str(info.value)[len(f"{path}: "):]
        assert "\n" not in reason and len(reason) < 120

    @pytest.mark.parametrize("value", [
        {"kind": "regdyn", "port": None}, -1, 70000, "443", True],
        ids=["regdyn", "negative", "70000", "str", "bool"])
    def test_destination_port_that_is_not_a_port_is_refused(self, tmp_path,
                                                            value):
        """A key's destination is one port; a reg/dyn pattern there would
        match every destination port from 1024 up."""
        doc = profile_to_dict(build_profile(self._tree_with_three_leaves(),
                                            0.5))
        doc["keys"][1]["dst_port"] = value
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: "
                           r"profile key 1: dst_port .* is not an integer in "
                           r"0-65535$"):
            load_profile(path)

    @pytest.mark.parametrize("port", [1024, 49152, 65535])
    def test_exact_source_port_from_1024_up_is_refused(self, tmp_path,
                                                       port):
        """No flow's src_class is a port from 1024 up, so a key pinning
        one would accept no flow; profile never writes one."""
        doc = profile_to_dict(build_profile(self._tree_with_three_leaves(),
                                            0.5))
        doc["keys"][1]["src_port_pattern"] = {"kind": "exact", "port": port}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: "
                           rf"profile key 1 src_port_pattern: exact port "
                           rf"{port} is not a system port$") as info:
            load_profile(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("port", [0, 123, 1023])
    def test_system_source_port_keeps_its_bytes(self, tmp_path, port):
        tree = ClusterTree(DEVICE)
        tree.insert(pkt(src_port=port))
        path = tmp_path / "profile.json"
        save_profile(path, build_profile(tree, 0.5))
        (key,) = load_profile(path).keys
        assert key.src == port
        assert json.loads(path.read_text())["keys"][0][
            "src_port_pattern"] == {"kind": "exact", "port": port}
        again = tmp_path / "again.json"
        save_profile(again, load_profile(path))
        assert again.read_bytes() == path.read_bytes()

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
