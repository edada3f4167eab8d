import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from atrellis import synth_traffic as sim
from atrellis.clustering_tree import jaccard
from atrellis.errors import BadSpec
from atrellis.traffic_model import PacketRecord, flows_of_trace


def one_shot_spec():
    return sim.DeviceSpec("10.0.0.5", (
        sim.ActivitySpec("ping", "203.0.113.1", 443, "TCP", period=10.0,
                         sizes=(100,), size_probs=(1.0,),
                         packets_per_burst=1, jitter=1.0,
                         domain="svc.example.com"),
    ))


class TestGenerate:
    def test_burst_count_near_expected(self):
        trace = sim.generate(one_shot_spec(), 60.0, seed=0)
        # 6 scheduled bursts; boundary jitter may drop one
        assert 5 <= len(trace) <= 6
        assert all(p.label == "benign" for p in trace)

    def test_time_ordered(self):
        trace = sim.generate(sim.FIXTURES["camera"], 600, seed=3)
        assert all(a.ts <= b.ts for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        a = sim.generate(sim.FIXTURES["plug"], 600, seed=5)
        b = sim.generate(sim.FIXTURES["plug"], 600, seed=5)
        assert a == b

    def test_seed_changes_trace(self):
        a = sim.generate(sim.FIXTURES["plug"], 600, seed=5)
        b = sim.generate(sim.FIXTURES["plug"], 600, seed=6)
        assert a != b

    def test_zero_duration_rejected(self):
        with pytest.raises(BadSpec):
            sim.generate(one_shot_spec(), 0.0, seed=0)

    def test_source_ports_past_65535_rejected_before_generating(
            self, monkeypatch):
        spec = sim.DeviceSpec("10.0.0.5", tuple(
            sim.ActivitySpec(f"a{i}", "203.0.113.1", 443, "TCP", period=1.0,
                             sizes=(100,), size_probs=(1.0,))
            for i in range(12)))
        monkeypatch.setattr(sim, "_burst_packets", None)
        with pytest.raises(BadSpec, match="activity a11: .* up to 65599"):
            sim.generate(spec, 2600.0)

    def test_last_block_fits_up_to_65535(self):
        spec = sim.DeviceSpec("10.0.0.5", tuple(
            sim.ActivitySpec(f"a{i}", "203.0.113.1", 443, "TCP", period=1.0,
                             sizes=(100,), size_probs=(1.0,),
                             packets_per_burst=1, jitter=0.0)
            for i in range(12)))
        trace = sim.generate(spec, 2536.0)
        assert max(p.src_port for p in trace) == 65535

    def test_dst_port_out_of_range_rejected(self):
        with pytest.raises(BadSpec, match="activity x: dst_port 65536"):
            sim.ActivitySpec("x", "203.0.113.1", 65536, "TCP", period=1.0,
                             sizes=(100,), size_probs=(1.0,))

    def test_bad_probabilities_rejected(self):
        with pytest.raises(BadSpec):
            sim.ActivitySpec("x", "203.0.113.1", 80, "TCP", period=1.0,
                             sizes=(10, 20), size_probs=(0.5, 0.4))

    @pytest.mark.parametrize("field, value, reason", [
        ("size_probs", (1.5, -0.5), "probabilities must be >= 0"),
        ("size_probs", (math.nan, 0.5), "probabilities must be >= 0"),
        ("sizes", (0, 20), "size 0 is not in 1-65535"),
        ("sizes", (10, 65536), "size 65536 is not in 1-65535"),
        ("jitter", -1.0, "jitter must be finite and >= 0"),
        ("jitter", math.inf, "jitter must be finite and >= 0"),
        ("intra_gap", -5.0, "intra_gap must be finite and >= 0"),
        ("intra_gap", math.nan, "intra_gap must be finite and >= 0"),
        ("period", math.nan, "period must be > 0"),
    ], ids=["negative-prob", "nan-prob", "size-0", "size-65536",
            "negative-jitter", "inf-jitter", "negative-gap", "nan-gap",
            "nan-period"])
    def test_spec_the_burst_draw_cannot_use_is_rejected(self, field, value,
                                                        reason):
        kwargs = dict(period=1.0, sizes=(10, 20), size_probs=(0.5, 0.5))
        kwargs[field] = value
        with pytest.raises(BadSpec, match=f"activity x: {reason}"):
            sim.ActivitySpec("x", "203.0.113.1", 80, "TCP", **kwargs)


def reference_burst_packets(rng, device_ip, act, t0, src_port, label):
    """One burst drawn call by call: a size with ``rng.choice`` for every
    packet and a gap with ``rng.uniform`` before every packet but the
    first.  _burst_packets must give the same records for the same rng."""
    packets = []
    t = t0
    for j in range(act.packets_per_burst):
        if j > 0:
            t += act.intra_gap * rng.uniform(0.8, 1.2)
        size = int(rng.choice(act.sizes, p=act.size_probs))
        if act.bidirectional and j % 2 == 1:
            pkt = PacketRecord(t, act.remote_ip, device_ip, act.dst_port,
                               src_port, act.proto, size,
                               dns_name=act.domain, label=label)
        else:
            pkt = PacketRecord(t, device_ip, act.remote_ip, src_port,
                               act.dst_port, act.proto, size,
                               dns_name=act.domain, label=label)
        packets.append(pkt)
    return packets


@st.composite
def burst_activities(draw):
    n = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 65535), min_size=n, max_size=n,
                          unique=True))
    weights = draw(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=n,
                            max_size=n).filter(lambda w: sum(w) > 0))
    probs = [w / sum(weights) for w in weights]
    assume(abs(sum(probs) - 1.0) <= 1e-9)
    return sim.ActivitySpec(
        "a", "203.0.113.1", draw(st.integers(0, 65535)),
        draw(st.sampled_from(["TCP", "UDP"])), period=1.0,
        sizes=tuple(sizes), size_probs=tuple(probs),
        packets_per_burst=draw(st.integers(1, 50)),
        intra_gap=draw(st.floats(0, 10, allow_nan=False)),
        domain=draw(st.none() | st.just("Svc.Example.com.")),
        bidirectional=draw(st.booleans()))


class TestBurstDraw:
    @settings(max_examples=300, deadline=None)
    @given(act=burst_activities(), seed=st.integers(0, 2**32 - 1),
           t0=st.floats(0, 1e6, allow_nan=False),
           src_port=st.integers(0, 65535))
    def test_one_block_draws_the_records_of_per_packet_calls(
            self, act, seed, t0, src_port):
        want_rng, got_rng = (np.random.default_rng(seed) for _ in range(2))
        want = reference_burst_packets(want_rng, "10.0.0.5", act, t0,
                                       src_port, "benign")
        got = sim._burst_packets(got_rng, "10.0.0.5", act, t0, src_port,
                                 "benign")
        assert got == want
        assert [type(v) for p in got for v in p] == \
            [type(v) for p in want for v in p]
        # both leave the generator at the same state for the next burst
        assert got_rng.random() == want_rng.random()


class TestInjectAttack:
    def test_port_scan_flow_count(self):
        trace = sim.generate(one_shot_spec(), 60.0, seed=0)
        atk = sim.AttackSpec("PortScan", start=10.0, rate=10.0,
                             target={"n_ports": 100})
        merged = sim.inject_attack(trace, atk, seed=0)
        keys, table = flows_of_trace(merged, "10.0.0.5")
        scan_keys = [k for k in keys
                     if table[k][0].label == "attack:PortScan"]
        assert len(scan_keys) == 100
        assert len(set(scan_keys)) == 100

    def test_label_conservation(self):
        trace = sim.generate(one_shot_spec(), 60.0, seed=0)
        atk = sim.AttackSpec("TelnetBrute", start=5.0, rate=0.5, duration=20)
        merged = sim.inject_attack(trace, atk, seed=0)
        benign = [p for p in merged if p.label == "benign"]
        assert benign == trace
        injected = [p for p in merged if p.label != "benign"]
        assert injected
        assert all(p.label == "attack:TelnetBrute" for p in injected)

    def test_empty_window_is_refused(self):
        trace = sim.generate(one_shot_spec(), 60.0, seed=0)
        atk = sim.AttackSpec("TelnetBrute", start=5.0, rate=0.5, duration=0)
        with pytest.raises(BadSpec, match="attack TelnetBrute: it gives 0 "
                                          "flows, so it would inject nothing"):
            sim.inject_attack(trace, atk, seed=0)

    def test_masquerade_uses_port_80(self):
        atk = sim.AttackSpec("HttpMasqCnc", start=0.0, rate=0.1, duration=100,
                             target={"domain": "api.cam-vendor.com",
                                     "ip": "203.0.113.11"})
        packets = sim.inject_attack([], atk, seed=0, device_ip="192.168.1.10")
        assert packets
        keys, _ = flows_of_trace(packets, "192.168.1.10")
        assert all(k.dst_port == 80 and k.proto == "TCP" for k in keys)
        assert all(k.remote.value == "api.cam-vendor.com" for k in keys)

    @pytest.mark.parametrize("kind, target", [
        ("PortScan", {"n_ports": 19537}),
        ("TelnetBrute", {}),
    ])
    def test_source_ports_past_65535_rejected(self, kind, target):
        atk = sim.AttackSpec(kind, start=0.0, rate=19537.0, duration=1.0,
                             target=target)
        with pytest.raises(BadSpec, match=f"attack {kind}: .* up to 65536"):
            sim.inject_attack([], atk, device_ip="10.0.0.5")

    def test_last_attack_port_is_65535(self):
        atk = sim.AttackSpec("PortScan", start=0.0, rate=1000.0,
                             target={"n_ports": 19536})
        packets = sim.inject_attack([], atk, device_ip="10.0.0.5")
        assert max(p.src_port for p in packets) == 65535

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadSpec):
            sim.AttackSpec("Ransom", start=0.0)


class TestSeparability:
    def test_masquerade_sizes_disjoint_from_every_fixture_activity(self):
        atk = sim.AttackSpec("HttpMasqCnc", start=0.0, rate=0.1, duration=100,
                             target={"domain": "api.cam-vendor.com",
                                     "ip": "203.0.113.11"})
        packets = sim.inject_attack([], atk, seed=0, device_ip="192.168.1.10")
        attack_sizes = {p.length for p in packets}
        for spec in sim.FIXTURES.values():
            for act in spec.activities:
                assert jaccard(attack_sizes, set(act.sizes)) == 0.0

    def test_fixture_activities_have_disjoint_sizes(self):
        for spec in sim.FIXTURES.values():
            acts = spec.activities
            for i in range(len(acts)):
                for j in range(i + 1, len(acts)):
                    assert not set(acts[i].sizes) & set(acts[j].sizes)


class TestActivityLabels:
    def test_labels_match_spec(self):
        spec = sim.FIXTURES["camera"]
        trace = sim.generate(spec, 600, seed=0)
        keys, _ = flows_of_trace(trace, spec.device_ip)
        labels = sim.flow_activity_labels(spec, keys)
        assert set(labels) <= {a.name for a in spec.activities}

    def test_unknown_flow(self):
        spec = sim.FIXTURES["camera"]
        atk = sim.AttackSpec("PortScan", start=0.0, rate=1.0,
                             target={"n_ports": 3})
        packets = sim.inject_attack([], atk, seed=0,
                                    device_ip=spec.device_ip)
        keys, _ = flows_of_trace(packets, spec.device_ip)
        assert sim.flow_activity_labels(spec, keys) == ["unknown"] * 3
