import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atrellis import synth_traffic as sim
from atrellis.errors import EmptyFlow, UnorderedTimestamps
from atrellis.feature_pipeline import (MAX_GAP, MAX_LEN, featurize,
                                       featurize_many)
from atrellis.traffic_model import (PacketRecord, flow_key_of,
                                    flows_of_trace)

DEVICE = "192.168.1.10"


def pkt(ts, length):
    return PacketRecord(ts, DEVICE, "198.51.100.1", 40000, 443, "TCP", length)


def record(packets):
    """The FlowTable record of a flow of ``packets``, holding the pair of
    each; unlike a table, this takes packets out of order."""
    return [len(packets), packets[-1].ts if packets else 0.0, "benign",
            {p.length for p in packets},
            *(v for p in packets for v in (p.ts, p.length))]


class TestFeaturize:
    def test_single_full_mtu_packet(self):
        vec = featurize(record([pkt(0.0, 1500)]), 2)
        assert vec.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert vec[1] == 0.0 and vec[3] == 0.0  # padding

    def test_log_gap_normalization(self):
        vec = featurize(record([pkt(0.0, 750), pkt(59.0, 750)]), 2)
        expected_gap = np.log(60.0) / np.log(61.0)  # = log1p(59)/log1p(60)
        assert vec[:2].tolist() == [0.5, 0.5]
        assert vec[2] == 0.0
        assert vec[3] == pytest.approx(expected_gap, abs=1e-9)
        assert vec[3] == pytest.approx(0.99596, abs=1e-4)

    def test_truncates_to_first_r(self):
        packets = [pkt(float(i), 100 + i) for i in range(30)]
        vec = featurize(record(packets), 10)
        assert vec.shape == (20,)
        assert vec.tolist() == featurize(record(packets[:10]), 10).tolist()

    def test_clipping(self):
        vec = featurize(record([pkt(0.0, 9000), pkt(500.0, 9000)]), 2)  # jumbo
        assert vec[0] == 1.0 and vec[3] == 1.0

    def test_empty_flow(self):
        with pytest.raises(EmptyFlow):
            featurize(record([]), 10)

    def test_unordered(self):
        with pytest.raises(UnorderedTimestamps):
            featurize(record([pkt(5.0, 100), pkt(1.0, 100)]), 4)

    @given(st.lists(st.tuples(st.floats(0, 100), st.integers(1, 65535)),
                    min_size=1, max_size=25),
           st.integers(1, 12))
    def test_fuzz_bounds(self, raw, r):
        raw.sort()
        packets = [pkt(ts, length) for ts, length in raw]
        vec = featurize(record(packets), r)
        assert vec.shape == (2 * r,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
        n = min(len(packets), r)
        assert np.all(vec[n:r] == 0.0)
        assert np.all(vec[r + n:] == 0.0)

    def test_r_below_one(self):
        with pytest.raises(ValueError, match="r must be >= 1"):
            featurize(record([pkt(0.0, 100)]), 0)


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
        X = featurize_many(list(map(record, flows)), r)
        assert X.shape == (len(flows), 2 * r)
        for row, flow in zip(X, flows):
            assert row.tobytes() == reference_featurize(flow, r).tobytes()

    def test_simulated_flows_bitwise_equal(self):
        """The rows of a table's records, against the oracle over each
        flow's packets as per-packet keying groups them."""
        spec = sim.FIXTURES["camera"]
        trace = sim.generate(spec, 900, seed=2)
        keys, table = flows_of_trace(trace, spec.device_ip, r=10)
        packets = {}
        for p in trace:
            packets.setdefault(flow_key_of(p, spec.device_ip), []).append(p)
        X = featurize_many([table[k] for k in keys], 10)
        ref = np.stack([reference_featurize(packets[k], 10) for k in keys])
        assert X.tobytes() == ref.tobytes()

    def test_any_empty_flow_raises(self):
        with pytest.raises(EmptyFlow):
            featurize_many([record([pkt(0.0, 100)]), record([])], 4)

    def test_any_unordered_flow_raises(self):
        flows = [record([pkt(0.0, 100), pkt(1.0, 100)]),
                 record([pkt(5.0, 100), pkt(1.0, 100)])]
        with pytest.raises(UnorderedTimestamps):
            featurize_many(flows, 4)

    def test_order_checked_only_within_first_r(self):
        flows = [record([pkt(0.0, 100), pkt(1.0, 100), pkt(0.5, 100)])]
        assert featurize_many(flows, 2).shape == (1, 4)

    def test_record_of_a_table_of_smaller_r_is_refused(self):
        """A table of r = 4 holds a 6-packet flow's first 4 pairs, too
        few to featurize at r = 5, where zero padding would hide the fifth
        packet; a 3-packet flow of that table holds all it has."""
        packets = [pkt(float(i), 100 + i) for i in range(6)]
        (short,) = flows_of_trace(packets[:3], DEVICE, r=4)[1].values()
        assert featurize_many([short], 5).tobytes() == \
            reference_featurize(packets[:3], 5).tobytes()
        (cut,) = flows_of_trace(packets, DEVICE, r=4)[1].values()
        with pytest.raises(ValueError, match=r"^a flow record holds 4 of "
                           r"its 6 packets; featurize at r=5 needs a table "
                           r"of r >= 5$"):
            featurize_many([short, cut], 5)

    def test_no_flows(self):
        assert featurize_many([], 3).shape == (0, 6)

