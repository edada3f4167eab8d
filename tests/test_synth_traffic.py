import json

import pytest

from atrellis import synth_traffic as sim
from atrellis.clustering_tree import jaccard
from atrellis.errors import BadSpec
from atrellis.traffic_model import flows_of_trace, packet_to_dict


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
        assert [packet_to_dict(p) for p in a] == [packet_to_dict(p) for p in b]

    def test_seed_changes_trace(self):
        a = sim.generate(sim.FIXTURES["plug"], 600, seed=5)
        b = sim.generate(sim.FIXTURES["plug"], 600, seed=6)
        assert [packet_to_dict(p) for p in a] != [packet_to_dict(p) for p in b]

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

    def test_empty_window_leaves_trace_unchanged(self):
        trace = sim.generate(one_shot_spec(), 60.0, seed=0)
        atk = sim.AttackSpec("TelnetBrute", start=5.0, rate=0.5, duration=0)
        assert sim.inject_attack(trace, atk, seed=0) == trace

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
