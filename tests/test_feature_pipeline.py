import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atrellis import synth_traffic as sim
from atrellis.errors import EmptyFlow, UnorderedTimestamps
from atrellis.feature_pipeline import (MAX_GAP, MAX_LEN, featurize,
                                       featurize_many)
from atrellis.traffic_model import PacketRecord, flows_of_trace

DEVICE = "192.168.1.10"


def pkt(ts, length):
    return PacketRecord(ts, DEVICE, "198.51.100.1", 40000, 443, "TCP", length)


class TestFeaturize:
    def test_single_full_mtu_packet(self):
        vec = featurize([pkt(0.0, 1500)], 2)
        assert vec.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert vec[1] == 0.0 and vec[3] == 0.0  # padding

    def test_log_gap_normalization(self):
        vec = featurize([pkt(0.0, 750), pkt(59.0, 750)], 2)
        expected_gap = np.log(60.0) / np.log(61.0)  # = log1p(59)/log1p(60)
        assert vec[:2].tolist() == [0.5, 0.5]
        assert vec[2] == 0.0
        assert vec[3] == pytest.approx(expected_gap, abs=1e-9)
        assert vec[3] == pytest.approx(0.99596, abs=1e-4)

    def test_truncates_to_first_r(self):
        packets = [pkt(float(i), 100 + i) for i in range(30)]
        vec = featurize(packets, 10)
        assert vec.shape == (20,)
        assert vec.tolist() == featurize(packets[:10], 10).tolist()

    def test_clipping(self):
        vec = featurize([pkt(0.0, 9000), pkt(500.0, 9000)], 2)  # jumbo
        assert vec[0] == 1.0 and vec[3] == 1.0

    def test_empty_flow(self):
        with pytest.raises(EmptyFlow):
            featurize([], 10)

    def test_unordered(self):
        with pytest.raises(UnorderedTimestamps):
            featurize([pkt(5.0, 100), pkt(1.0, 100)], 4)

    @given(st.lists(st.tuples(st.floats(0, 100), st.integers(1, 65535)),
                    min_size=1, max_size=25),
           st.integers(1, 12))
    def test_fuzz_bounds(self, raw, r):
        raw.sort()
        packets = [pkt(ts, length) for ts, length in raw]
        vec = featurize(packets, r)
        assert vec.shape == (2 * r,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
        n = min(len(packets), r)
        assert np.all(vec[n:r] == 0.0)
        assert np.all(vec[r + n:] == 0.0)

    def test_r_below_one(self):
        with pytest.raises(ValueError, match="r must be >= 1"):
            featurize([pkt(0.0, 100)], 0)


def reference_featurize(flow_packets, r):
    """The per-flow featurize that featurize_many replaced, kept as an
    oracle: its rows must be bitwise equal to featurize_many's."""
    if not flow_packets:
        raise EmptyFlow("cannot featurize an empty flow")
    head = list(flow_packets[:r])
    ts = np.array([p.ts for p in head])
    if np.any(np.diff(ts) < 0):
        raise UnorderedTimestamps("flow packets must be time-ordered")
    n = len(head)
    lengths = np.zeros(r)
    gaps = np.zeros(r)
    lengths[:n] = [p.length for p in head]
    gaps[1:n] = np.diff(ts)
    lengths = np.clip(lengths / MAX_LEN, 0.0, 1.0)
    gaps = np.clip(np.log1p(gaps) / np.log1p(MAX_GAP), 0.0, 1.0)
    lengths[n:] = 0.0
    gaps[n:] = 0.0
    return np.concatenate([lengths, gaps])


flows_strategy = st.lists(
    st.lists(st.tuples(st.floats(0, 1e5), st.integers(1, 65535)),
             min_size=1, max_size=25).map(
        lambda raw: [pkt(ts, length) for ts, length in sorted(raw)]),
    max_size=20)


class TestFeaturizeMany:
    @settings(max_examples=150, deadline=None)
    @given(flows_strategy, st.integers(1, 12))
    def test_rows_bitwise_equal_to_per_flow_oracle(self, flows, r):
        X = featurize_many(flows, r)
        assert X.shape == (len(flows), 2 * r)
        for row, flow in zip(X, flows):
            assert row.tobytes() == reference_featurize(flow, r).tobytes()

    def test_simulated_flows_bitwise_equal(self):
        spec = sim.FIXTURES["camera"]
        keys, table = flows_of_trace(sim.generate(spec, 900, seed=2),
                                     spec.device_ip)
        X = featurize_many([table[k] for k in keys], 10)
        ref = np.stack([reference_featurize(table[k], 10) for k in keys])
        assert X.tobytes() == ref.tobytes()

    def test_any_empty_flow_raises(self):
        with pytest.raises(EmptyFlow):
            featurize_many([[pkt(0.0, 100)], []], 4)

    def test_any_unordered_flow_raises(self):
        flows = [[pkt(0.0, 100), pkt(1.0, 100)],
                 [pkt(5.0, 100), pkt(1.0, 100)]]
        with pytest.raises(UnorderedTimestamps):
            featurize_many(flows, 4)

    def test_order_checked_only_within_first_r(self):
        flows = [[pkt(0.0, 100), pkt(1.0, 100), pkt(0.5, 100)]]
        assert featurize_many(flows, 2).shape == (1, 4)

    def test_no_flows(self):
        assert featurize_many([], 3).shape == (0, 6)

