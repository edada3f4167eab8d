import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from atrellis.clustering_tree import (ActivityKey, ClusterTree,
                                      IncrementalStats, MergeConfig,
                                      build_profile, jaccard,
                                      load_profile, mean_interarrival,
                                      merge_activities, profile_from_dict,
                                      profile_to_dict, save_profile,
                                      tree_path_of, update_stats)
from atrellis.errors import (EmptyTree, NonMonotonicTimestamp,
                             NoPacketsInDirection, SchemaError)
from atrellis.traffic_model import (IN, OUT, FlowKey, PacketRecord, Remote)

DEVICE = "192.168.1.10"


def pkt(**kw):
    base = dict(ts=1.0, src_ip=DEVICE, dst_ip="239.255.255.250",
                src_port=50001, dst_port=1900, proto="UDP", length=310)
    base.update(kw)
    return PacketRecord(**base)


def domain_flow(name, sport=40000, dport=443, proto="TCP"):
    return FlowKey(DEVICE, Remote("domain", name), sport, dport, proto)


def stats_with_sizes(sizes):
    s = IncrementalStats()
    for i, size in enumerate(sorted(sizes)):
        update_stats(s, OUT, size, float(i))
    return s


class TestUpdateStats:
    def test_first_in_packet(self):
        s = update_stats(IncrementalStats(), IN, 100, 5.0)
        assert (s.n_in, s.n_out, s.t_in, s.t_out) == (1, 0, 0.0, 0.0)
        assert s.sizes == {100}

    def test_first_out_packet_zero_gap(self):
        s = update_stats(IncrementalStats(), IN, 100, 5.0)
        update_stats(s, OUT, 60, 5.5)
        assert (s.n_in, s.n_out, s.t_in, s.t_out) == (1, 1, 0.0, 0.0)
        assert s.sizes == {100, 60}

    def test_gap_accumulates_per_direction(self):
        s = update_stats(IncrementalStats(), IN, 100, 5.0)
        update_stats(s, OUT, 60, 5.5)
        update_stats(s, IN, 100, 6.0)
        assert (s.n_in, s.n_out) == (2, 1)
        assert s.t_in == pytest.approx(1.0)
        assert s.t_out == 0.0

    def test_non_monotonic_rejected(self):
        s = update_stats(IncrementalStats(), IN, 100, 5.0)
        with pytest.raises(NonMonotonicTimestamp):
            update_stats(s, IN, 100, 4.0)

    def test_constant_field_count(self):
        s = IncrementalStats()
        for i in range(500):
            update_stats(s, IN if i % 2 else OUT, 64 + i % 3, float(i))
        assert len(vars(s)) == 7
        assert len(s.sizes) == 3


class TestMeanInterarrival:
    def test_mean(self):
        s = IncrementalStats(n_in=3, t_in=2.0)
        assert mean_interarrival(s, IN) == 1.0

    def test_single_packet_convention(self):
        s = IncrementalStats(n_in=1, t_in=0.0)
        assert mean_interarrival(s, IN) == 0.0

    def test_no_packets(self):
        with pytest.raises(NoPacketsInDirection):
            mean_interarrival(IncrementalStats(), IN)


class TestInsert:
    def test_new_leaf_entry(self):
        tree = ClusterTree(DEVICE)
        key = tree.insert(pkt())
        path = tree_path_of(key)
        assert path.proto == "UDP" and path.addr_class == "bc_mc"
        assert path.dst_bucket == ("registered", 1900)
        stats = tree.stats_of(key)
        assert (stats.n_in, stats.n_out) == (0, 1)

    def test_reply_reuses_entry(self):
        tree = ClusterTree(DEVICE)
        tree.insert(pkt(src_ip="198.51.100.1", dst_ip=DEVICE,
                        src_port=443, dst_port=40000, proto="TCP",
                        dns_name="a.example.com", ts=1.0))
        tree.insert(pkt(src_ip=DEVICE, dst_ip="198.51.100.1",
                        src_port=40000, dst_port=443, proto="TCP",
                        dns_name="a.example.com", ts=2.0))
        assert sum(len(leaf) for leaf in tree.leaves.values()) == 1

    def test_conservation_against_oracle(self):
        # recompute all statistics naively from the raw packet list
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
            raw.setdefault(key, []).append((out, length, ts))
        total = sum(s.n_in + s.n_out
                    for leaf in tree.leaves.values() for s in leaf.values())
        assert total == 1000
        for key, plist in raw.items():
            s = tree.stats_of(key)
            assert s.n_out == sum(1 for o, _, _ in plist if o)
            assert s.n_in == len(plist) - s.n_out
            assert s.sizes == {length for _, length, _ in plist}
            for direction, t_sum in ((True, s.t_out), (False, s.t_in)):
                stamps = [t for o, _, t in plist if o == direction]
                expect = sum(b - a for a, b in zip(stamps, stamps[1:]))
                assert t_sum == pytest.approx(expect, abs=1e-9)


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
            domain_flow("cam1.vendor.com", 40000): stats_with_sizes({512, 1024}),
            domain_flow("cam2.vendor.com", 40001): stats_with_sizes({512, 1024}),
        }
        keys = merge_activities(entries, MergeConfig(0.5))
        assert len(keys) == 1
        assert keys[0].remote_pattern.kind == "wildcard"
        assert keys[0].remote_pattern.value == ".vendor.com"
        assert keys[0].src_port_pattern.kind == "regdyn"

    def test_disjoint_sizes_stay_separate(self):
        entries = {
            domain_flow("cam1.vendor.com", 40000): stats_with_sizes({512}),
            domain_flow("cam2.vendor.com", 40001): stats_with_sizes({1024}),
        }
        keys = merge_activities(entries, MergeConfig(0.5))
        assert len(keys) == 2
        assert all(k.remote_pattern.kind == "domain" for k in keys)

    def test_zero_threshold_merges_everything(self):
        entries = {
            domain_flow("cam1.vendor.com", 40000 + i): stats_with_sizes({100 + i})
            for i in range(4)
        }
        assert len(merge_activities(entries, MergeConfig(0.0))) == 1

    def test_unrelated_domains_never_merge(self):
        entries = {
            domain_flow("a.one.org", 40000): stats_with_sizes({512}),
            domain_flow("b.two.net", 40001): stats_with_sizes({512}),
        }
        assert len(merge_activities(entries, MergeConfig(0.0))) == 2

    def test_system_src_port_never_generalizes(self):
        entries = {
            domain_flow("a.example.com", 22): stats_with_sizes({512}),
            domain_flow("a.example.com", 40001): stats_with_sizes({512}),
        }
        assert len(merge_activities(entries, MergeConfig(0.0))) == 2

    def test_differing_dst_ports_never_merge(self):
        entries = {
            domain_flow("a.example.com", 40000, dport=80): stats_with_sizes({512}),
            domain_flow("a.example.com", 40001, dport=81): stats_with_sizes({512}),
        }
        assert len(merge_activities(entries, MergeConfig(0.0))) == 2

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(0)
        entries = {
            domain_flow("a.example.com", 40000 + i):
                stats_with_sizes(set(rng.choice(20, size=5) + 1))
            for i in range(12)
        }
        counts = [len(merge_activities(entries, MergeConfig(h)))
                  for h in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert counts == sorted(counts)

    def test_members_match_own_key(self):
        entries = {
            domain_flow("cam1.vendor.com", 40000): stats_with_sizes({512, 1024}),
            domain_flow("cam2.vendor.com", 40001): stats_with_sizes({512, 1024}),
            domain_flow("cam2.vendor.com", 40002, dport=80): stats_with_sizes({99}),
        }
        for key in merge_activities(entries, MergeConfig(0.5)):
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
                                MergeConfig(0.5))
        assert len(profile.keys) == 3

    def test_empty_tree(self):
        with pytest.raises(EmptyTree):
            build_profile(ClusterTree(DEVICE), MergeConfig(0.5))

    def test_round_trip(self, tmp_path):
        profile = build_profile(self._tree_with_three_leaves(),
                                MergeConfig(0.5))
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
                                            MergeConfig(0.5)))
        corrupt(doc)
        with pytest.raises(SchemaError, match=message) as info:
            profile_from_dict(doc)
        assert "\n" not in str(info.value)

    def test_round_trip_keeps_local_prefixes(self, tmp_path):
        tree = ClusterTree(DEVICE, ["192.168.1.0/24", "10.0.0.0/8"])
        tree.insert(pkt(dst_ip="192.168.1.50", dst_port=8080, proto="TCP"))
        profile = build_profile(tree, MergeConfig(0.5))
        assert profile.local_prefixes == ("192.168.1.0/24", "10.0.0.0/8")
        assert profile.keys[0].remote_pattern.kind == "local_ip"
        path = tmp_path / "profile.json"
        save_profile(path, profile)
        assert load_profile(path).local_prefixes == profile.local_prefixes

    def test_key_repr_leaves_out_member_flows(self):
        profile = build_profile(self._tree_with_three_leaves(),
                                MergeConfig(0.5))
        for key in profile.keys:
            assert key.member_flows
            assert "member_flows" not in repr(key)
            assert "FlowKey" not in repr(key)
