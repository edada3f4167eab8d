import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atrellis import anomaly_ensemble as ens
from atrellis import clustering_tree as ct
from atrellis import neural_autoencoder as na
from atrellis import synth_traffic as sim
from atrellis.clustering_tree import (ActivityKey, ActivityProfile,
                                      PortPattern, RemotePattern)
from atrellis.errors import (EmptyActivity, EmptyErrors, EmptyFlow,
                             LengthMismatch, SchemaError, check)
from atrellis.feature_pipeline import featurize
from atrellis.neural_autoencoder import AEArchitecture, reconstruction_error
from atrellis.traffic_model import (FlowKey, PacketRecord, Remote,
                                    flows_of_trace, read_jsonl)

DEVICE = "192.168.1.10"


def flow(domain="cam3.vendor.com", sport=41000, dport=443, proto="TCP",
         kind="domain"):
    return FlowKey(DEVICE, Remote(kind, domain), sport, dport, proto)


def key(remote=RemotePattern("wildcard", ".vendor.com"),
        src=PortPattern("regdyn"), dst=PortPattern("exact", 443),
        proto="TCP", members=()):
    return ActivityKey(proto, remote, src, dst, members)


class TestFuzzyMatch:
    def test_wildcard_match(self):
        profile = ActivityProfile(DEVICE, [key()])
        assert ens.fuzzy_match(profile, flow()) == [0]

    def test_dst_port_mismatch(self):
        profile = ActivityProfile(DEVICE, [key(dst=PortPattern("exact", 80))])
        assert ens.fuzzy_match(profile, flow()) == []

    def test_regdyn_rejects_system_src(self):
        profile = ActivityProfile(DEVICE, [key()])
        assert ens.fuzzy_match(profile, flow(sport=22)) == []

    def test_exact_domain(self):
        profile = ActivityProfile(
            DEVICE, [key(remote=RemotePattern("domain", "cam3.vendor.com"))])
        assert len(ens.fuzzy_match(profile, flow())) == 1
        assert ens.fuzzy_match(profile, flow(domain="cam4.vendor.com")) == []

    def test_proto_mismatch(self):
        profile = ActivityProfile(DEVICE, [key()])
        assert ens.fuzzy_match(profile, flow(proto="UDP")) == []

    def test_class_pattern(self):
        profile = ActivityProfile(
            DEVICE, [key(remote=RemotePattern("remote_ip"))])
        ip_flow = flow(domain="203.0.113.9", kind="remote_ip")
        assert len(ens.fuzzy_match(profile, ip_flow)) == 1
        assert ens.fuzzy_match(profile, flow()) == []

    def test_wildcard_accepts_its_apex_only(self):
        profile = ActivityProfile(DEVICE, [key()])
        assert ens.fuzzy_match(profile, flow(domain="vendor.com")) == [0]
        assert ens.fuzzy_match(profile, flow(domain="xvendor.com")) == []
        assert ens.fuzzy_match(profile, flow(domain="vendor.com.cn")) == []

    @settings(max_examples=100, deadline=None)
    @given(h_s=st.sampled_from([0.0, 0.5]),
           flows=st.lists(st.tuples(
               st.sampled_from(["example.com", "api.example.com",
                                "cam.api.example.com", "example.net",
                                "eu.example.net"]),
               st.sampled_from([123, 443, 1024, 40000, 50001]),
               st.sampled_from([443, 8883]),
               st.sets(st.sampled_from([60, 70, 310, 600]), min_size=1)),
               min_size=1, max_size=12))
    def test_every_member_flow_matches_its_key(self, h_s, flows):
        """Whatever flows build_profile merges into a key, apex and
        subdomain names alike, stage 1 accepts each of them on that key."""
        tree = ct.ClusterTree(DEVICE)
        ts = 0.0
        for name, sport, dport, lengths in flows:
            for length in sorted(lengths):
                ts += 1.0
                tree.insert(PacketRecord(ts, DEVICE, "198.51.100.7", sport,
                                         dport, "TCP", length, name))
        profile = ct.build_profile(tree, h_s)
        for j, activity in enumerate(profile.keys):
            for member in activity.member_flows:
                assert j in ens.fuzzy_match(profile, member), (activity,
                                                               member)


class TestCalibrateThreshold:
    def test_linear_interpolation(self):
        errors = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert ens.calibrate_threshold(errors, 0.9) == pytest.approx(9.1)

    def test_constant_errors(self):
        assert ens.calibrate_threshold([0.5] * 100, 0.995) == 0.5

    def test_floor(self):
        assert ens.calibrate_threshold([0.0] * 10, 0.9) == 1e-9

    def test_empty(self):
        with pytest.raises(EmptyErrors):
            ens.calibrate_threshold([], 0.9)

    def test_bad_quantile(self):
        with pytest.raises(ValueError):
            ens.calibrate_threshold([1.0], 1.0)

    def test_exceedance_bound(self):
        rng = np.random.default_rng(0)
        errors = rng.exponential(size=400)
        q = 0.95
        eps = ens.calibrate_threshold(errors, q)
        assert np.sum(errors > eps) <= np.ceil((1 - q) * len(errors))


@pytest.fixture(scope="module")
def camera_setup():
    spec = sim.FIXTURES["camera"]
    trace = sim.generate(spec, 1800, seed=7)
    tree = ct.ClusterTree(spec.device_ip)
    for p in trace:
        tree.insert(p)
    profile = ct.build_profile(tree, 0.5)
    keys, table = flows_of_trace(trace, spec.device_ip)
    ensemble = ens.train_ensemble(profile, table, AEArchitecture(r=10),
                                  80, 0.995, seed=0)
    return spec, ensemble, keys, table


class TestTrainEnsemble:
    def test_one_submodel_per_key(self, camera_setup):
        _, ensemble, _, _ = camera_setup
        assert len(ensemble.submodels) == len(ensemble.profile.keys)
        assert all(eps > 0 for _, eps in ensemble.submodels)

    def test_empty_activity(self):
        profile = ActivityProfile(DEVICE, [key(members=(flow(),))])
        with pytest.raises(EmptyActivity):
            ens.train_ensemble(profile, {}, AEArchitecture(r=4),
                               50, 0.995)

    def test_deterministic(self, camera_setup):
        spec, ensemble, _, table = camera_setup
        again = ens.train_ensemble(ensemble.profile, table,
                                   ensemble.arch, 80, 0.995,
                                   seed=0)
        assert ens.ensemble_to_dict(again) == ens.ensemble_to_dict(ensemble)


class TestDetect:
    def test_unknown_domain_is_stage1(self, camera_setup):
        _, ensemble, _, table = camera_setup
        evil = flow(domain="evil.example.net", dport=443)
        packets = next(iter(table.values()))
        verdict = ens.detect(ensemble, evil, packets)
        assert verdict.kind == ens.STAGE1_MALICIOUS
        assert verdict.models_triggered == 0
        assert "remote" in verdict.reason

    def test_training_flows_mostly_benign(self, camera_setup):
        _, ensemble, keys, table = camera_setup
        verdicts = [ens.detect(ensemble, k, table[k]) for k in keys]
        assert all(v.kind != ens.STAGE1_MALICIOUS for v in verdicts)
        anomalous = sum(v.kind == ens.ANOMALOUS for v in verdicts)
        assert anomalous / len(verdicts) <= 0.02

    def test_trigger_action_count(self, camera_setup):
        _, ensemble, keys, table = camera_setup
        for k in keys[:50]:
            v = ens.detect(ensemble, k, table[k])
            assert v.models_triggered == \
                len(ens.fuzzy_match(ensemble.profile, k))

    def test_masquerade_flagged_at_stage_2(self, camera_setup):
        spec, ensemble, _, _ = camera_setup
        atk = sim.AttackSpec("HttpMasqCnc", start=0, rate=0.05, duration=200,
                             target={"domain": "api.cam-vendor.com",
                                     "ip": "203.0.113.11"})
        packets = sim.inject_attack([], atk, seed=1,
                                    device_ip=spec.device_ip)
        keys, table = flows_of_trace(packets, spec.device_ip)
        verdicts = [ens.detect(ensemble, k, table[k]) for k in keys]
        assert all(v.models_triggered >= 1 for v in verdicts)
        assert all(v.kind == ens.ANOMALOUS for v in verdicts)

    def test_empty_flow(self, camera_setup):
        _, ensemble, keys, _ = camera_setup
        with pytest.raises(EmptyFlow):
            ens.detect(ensemble, keys[0], [])


def reference_detect(ensemble, flow_key, flow_packets):
    """The per-flow detect that detect_flows replaced, kept as an oracle:
    one single-row forward per matched key."""
    if not flow_packets:
        raise EmptyFlow("cannot judge an empty flow")
    matched = ens.fuzzy_match(ensemble.profile, flow_key)
    if not matched:
        return ens.Verdict(ens.STAGE1_MALICIOUS, flow_key, 0,
                           reason=ens._stage1_reason(ensemble.profile,
                                                     flow_key))
    vector = featurize(flow_packets, ensemble.arch.r)
    best_score = best_j = None
    for j in matched:
        model, _ = ensemble.submodels[j]
        score = reconstruction_error(model, vector)
        if best_score is None or score < best_score:
            best_score, best_j = score, j
    epsilon = ensemble.submodels[best_j][1]
    kind = ens.ANOMALOUS if best_score > epsilon else ens.BENIGN
    return ens.Verdict(kind, flow_key, len(matched), score=best_score,
                       activity=best_j)


@pytest.fixture(scope="module")
def judged_flows(camera_setup):
    """Flows of an attacked camera trace: benign, stage-1 and stage-2
    anomalous verdicts all occur."""
    spec, ensemble, _, _ = camera_setup
    trace = sim.generate(spec, 900, seed=8)
    for atk in (sim.AttackSpec("HttpMasqCnc", start=50, rate=0.05,
                               duration=400,
                               target={"domain": "api.cam-vendor.com",
                                       "ip": "203.0.113.11"}),
                sim.AttackSpec("PortScan", start=100, rate=5,
                               target={"n_ports": 20})):
        trace = sim.inject_attack(trace, atk, seed=8,
                                  device_ip=spec.device_ip)
    return flows_of_trace(trace, spec.device_ip)


class TestDetectFlows:
    def test_judged_flows_cover_every_verdict_kind(self, camera_setup,
                                                   judged_flows):
        _, ensemble, _, _ = camera_setup
        keys, table = judged_flows
        kinds = {v.kind for v in ens.detect_flows(ensemble, keys, table)}
        assert kinds == {ens.BENIGN, ens.ANOMALOUS, ens.STAGE1_MALICIOUS}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_per_flow_oracle(self, camera_setup, judged_flows,
                                     data):
        _, ensemble, _, _ = camera_setup
        all_keys, table = judged_flows
        picks = data.draw(st.lists(st.integers(0, len(all_keys) - 1),
                                   unique=True, max_size=80))
        keys = [all_keys[i] for i in picks]
        got = ens.detect_flows(ensemble, keys, table)
        assert len(got) == len(keys)
        for v, key in zip(got, keys):
            ref = reference_detect(ensemble, key, table[key])
            assert (v.flow, v.kind, v.activity, v.models_triggered,
                    v.reason) == (ref.flow, ref.kind, ref.activity,
                                  ref.models_triggered, ref.reason)
            if ref.score is None:
                assert v.score is None
            else:
                assert abs(v.score - ref.score) <= 1e-12 * abs(ref.score)

    def test_one_forward_per_matched_key(self, camera_setup, judged_flows,
                                         monkeypatch):
        _, ensemble, _, _ = camera_setup
        keys, table = judged_flows
        rows = []
        original = na.forward
        monkeypatch.setattr(na, "forward",
                            lambda m, X: rows.append(len(X)) or original(m, X))
        verdicts = ens.detect_flows(ensemble, keys, table)
        stage2 = [v for v in verdicts if v.kind != ens.STAGE1_MALICIOUS]
        assert len(rows) <= len(ensemble.profile.keys)
        assert sum(rows) == sum(v.models_triggered for v in stage2)

    def test_tie_goes_to_the_first_key_in_profile_order(self, camera_setup,
                                                        judged_flows):
        _, ensemble, _, _ = camera_setup
        keys, table = judged_flows
        flow_key = next(k for k in keys if k.remote.kind == "domain"
                        and len(ens.fuzzy_match(ensemble.profile, k)) == 1)
        [j] = ens.fuzzy_match(ensemble.profile, flow_key)
        key = ensemble.profile.keys[j]
        twin = ActivityKey(key.proto, RemotePattern("wildcard", ""),
                           key.src_port_pattern, key.dst_port_pattern)
        for order in ([twin, key], [key, twin]):
            tied = ens.Ensemble(ActivityProfile(DEVICE, order),
                                [ensemble.submodels[j]] * 2,
                                ensemble.arch)
            [v] = ens.detect_flows(tied, [flow_key], table)
            assert v.models_triggered == 2 and v.activity == 0
            assert v == reference_detect(tied, flow_key, table[flow_key])

    def test_keys_with_equal_patterns_keep_their_own_submodels(
            self, camera_setup, judged_flows):
        _, ensemble, _, _ = camera_setup
        keys, table = judged_flows
        flow_key = next(k for k in keys if k.remote.kind == "domain"
                        and len(ens.fuzzy_match(ensemble.profile, k)) == 1)
        [j] = ens.fuzzy_match(ensemble.profile, flow_key)
        key = ensemble.profile.keys[j]
        other = ensemble.submodels[(j + 1) % len(ensemble.submodels)]
        twins = ens.Ensemble(ActivityProfile(DEVICE, [key, key]),
                             [ensemble.submodels[j], other],
                             ensemble.arch)
        [v] = ens.detect_flows(twins, [flow_key], table)
        x = featurize(table[flow_key], ensemble.arch.r)
        errors = [reconstruction_error(m, x) for m, _ in twins.submodels]
        assert v.models_triggered == 2 and errors[0] != errors[1]
        assert v.activity == int(np.argmin(errors))
        assert abs(v.score - min(errors)) <= 1e-12 * min(errors)

    def test_empty_flow(self, camera_setup, judged_flows):
        _, ensemble, _, _ = camera_setup
        keys, table = judged_flows
        with pytest.raises(EmptyFlow):
            ens.detect_flows(ensemble, keys[:3], {**table, keys[1]: []})


class TestEvaluate:
    def _verdict(self, kind, score=None):
        triggered = 0 if kind == ens.STAGE1_MALICIOUS else 1
        return ens.Verdict(kind, flow(), triggered, score=score)

    def test_all_correct(self):
        verdicts = [self._verdict(ens.BENIGN, 0.1),
                    self._verdict(ens.ANOMALOUS, 0.9),
                    self._verdict(ens.STAGE1_MALICIOUS)]
        m = ens.evaluate(verdicts, ["benign", "attack:Flood",
                                    "attack:PortScan"])
        assert m["tpr"] == 1.0 and m["fpr"] == 0.0

    def test_no_verdicts(self):
        m = ens.evaluate([], [])
        assert (m["tpr"], m["fpr"], m["auc"]) == (0.0, 0.0, 0.5)
        assert m["n_attack"] == m["n_benign"] == 0

    def test_equal_scores_auc_half(self):
        verdicts = [self._verdict(ens.BENIGN, 0.5) for _ in range(6)]
        labels = ["benign"] * 3 + ["attack:Flood"] * 3
        assert ens.evaluate(verdicts, labels)["auc"] == 0.5

    def test_one_false_positive_in_ten(self):
        verdicts = [self._verdict(ens.ANOMALOUS, 0.9)] + \
            [self._verdict(ens.BENIGN, 0.1)] * 9
        m = ens.evaluate(verdicts, ["benign"] * 10)
        assert m["fpr"] == pytest.approx(0.1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ens.evaluate([self._verdict(ens.BENIGN, 0.1)], [])

    def test_stage1_ranks_highest(self):
        verdicts = [self._verdict(ens.BENIGN, 0.3),
                    self._verdict(ens.STAGE1_MALICIOUS)]
        m = ens.evaluate(verdicts, ["benign", "attack:PortScan"])
        assert m["auc"] == 1.0


def reference_auc(scores, positive):
    """The tie loop that _auc ran before mid-ranks came from np.unique,
    kept as its oracle."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return (float(ranks[positive].sum()) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg)


class TestAucAgainstTieLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 1e-9, 0.25, 0.5, 3.0, math.inf])
        | st.floats(0.0, 10.0), st.booleans()), max_size=80))
    def test_equal_to_the_tie_loop(self, pairs):
        """Many ties and stage-1 (inf) scores: the mid-ranks of np.unique
        give exactly the AUC of the loop."""
        scores = np.array([s for s, _ in pairs], dtype=float)
        positive = np.array([p for _, p in pairs], dtype=bool)
        assert ens._auc(scores, positive) == reference_auc(scores, positive)


class TestSerialization:
    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.pop("r"), "ensemble: missing field r"),
        (lambda doc: doc.pop("device_ip"), "missing field device_ip"),
        (lambda doc: doc.__setitem__("submodels", 5),
         "field submodels has the wrong type int"),
        (lambda doc: doc.__setitem__("r", 10.5),
         "field r has the wrong type float"),
        (lambda doc: doc.__setitem__("r", 2),
         "ensemble: r must be >= 3, the kernel size, got 2"),
        (lambda doc: doc.__setitem__("schema_version", "1.0"),
         "unsupported schema_version '1.0'"),
        (lambda doc: doc["submodels"][0].__setitem__("epsilon", "x"),
         "submodel 0: field epsilon has the wrong type str"),
        (lambda doc: doc["submodels"][1].__setitem__("epsilon", float("nan")),
         "submodel 1: epsilon nan is not in (0, inf)"),
        (lambda doc: doc["submodels"][0].__setitem__("epsilon", -1.0),
         "epsilon -1.0 is not in (0, inf)"),
        (lambda doc: doc["submodels"][0].pop("epsilon"),
         "missing field epsilon"),
        (lambda doc: doc["submodels"][0].pop("model"), "missing field model"),
        (lambda doc: doc["submodels"][0].pop("proto"), "missing field proto"),
        (lambda doc: doc["submodels"][0].__setitem__("proto", "ICMP"),
         "unknown proto 'ICMP'"),
        (lambda doc: doc["submodels"][0]["remote_pattern"].__setitem__(
            "kind", "anycast"), "remote_pattern: unknown kind 'anycast'"),
        (lambda doc: doc["submodels"][0]["remote_pattern"].__setitem__(
            "value", None), "field value has the wrong type NoneType"),
        (lambda doc: doc["submodels"][0]["dst_port_pattern"].__setitem__(
            "kind", "range"), "dst_port_pattern: unknown kind 'range'"),
        (lambda doc: doc["submodels"][0]["dst_port_pattern"].__setitem__(
            "port", 70000), "port 70000 is not an integer in 0-65535"),
        (lambda doc: doc["submodels"][0]["dst_port_pattern"].__setitem__(
            "port", "443"), "port '443' is not an integer in 0-65535"),
        (lambda doc: doc["submodels"][0]["src_port_pattern"].__setitem__(
            "port", 1), "field port has the wrong type int"),
        (lambda doc: doc.__setitem__("schema_version", "2.0"),
         "unsupported schema_version '2.0'"),
        (lambda doc: doc.__setitem__("schema_version", "3.0"),
         "unsupported schema_version '3.0'"),
        (lambda doc: doc.pop("local_prefixes"),
         "ensemble: missing field local_prefixes"),
        (lambda doc: doc.__setitem__("local_prefixes", "10.0.0.0/8"),
         "field local_prefixes has the wrong type str"),
        (lambda doc: doc.__setitem__("local_prefixes", ["10.0.0.0/33"]),
         "ensemble: local_prefixes: "),
        (lambda doc: doc.__setitem__("local_prefixes", [10]),
         "local_prefixes holds a value that is not a string"),
        (lambda doc: doc["submodels"][0]["model"].pop("weights"),
         "model: missing field weights"),
    ], ids=["no-r", "no-device-ip", "submodels-not-list", "float-r",
            "r-below-kernel", "schema-1.0", "epsilon-str", "epsilon-nan",
            "epsilon-negative", "no-epsilon", "no-model", "no-proto",
            "proto-icmp", "remote-kind", "domain-without-name",
            "port-kind", "port-70000", "port-str", "regdyn-with-port",
            "schema-2.0", "schema-3.0", "no-local-prefixes",
            "local-prefixes-not-list", "local-prefix-not-network",
            "local-prefix-not-str", "no-weights"])
    def test_corrupt_document_is_a_short_schema_error(
            self, camera_setup, corrupt, message):
        _, ensemble, _, _ = camera_setup
        doc = ens.ensemble_to_dict(ensemble)
        assert doc["submodels"][0]["remote_pattern"]["kind"] == "domain"
        assert doc["submodels"][0]["src_port_pattern"]["kind"] == "regdyn"
        corrupt(doc)
        with pytest.raises(SchemaError, match=re.escape(message)) as info:
            ens.ensemble_from_dict(doc)
        assert len(str(info.value)) < 120 and "\n" not in str(info.value)

    def test_holds_only_what_detect_reads(self, camera_setup):
        _, ensemble, _, _ = camera_setup
        doc = ens.ensemble_to_dict(ensemble)
        assert set(doc) == {"schema_version", "device_ip", "local_prefixes",
                            "r", "submodels"}
        for entry, key in zip(doc["submodels"], ensemble.profile.keys):
            assert set(entry) == {"proto", "remote_pattern",
                                  "src_port_pattern", "dst_port_pattern",
                                  "model", "epsilon"}
            assert set(entry["model"]) == {"seed", "weights"}
            assert ct.activity_key_from_dict(entry, "key") == key

    @pytest.mark.parametrize("value", ["vendor.com", "", ".com"])
    def test_wildcard_that_would_fail_open_is_refused(
            self, camera_setup, tmp_path, value):
        """``vendor.com`` would accept ``evilvendor.com``, ``""`` every
        domain, ``.com`` a whole top-level domain."""
        _, ensemble, _, _ = camera_setup
        doc = ens.ensemble_to_dict(ensemble)
        doc["submodels"][1]["remote_pattern"] = {"kind": "wildcard",
                                                 "value": value}
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(
                "ensemble submodel 1 remote_pattern: wildcard value "
                f"{value!r} is not a dot and two or more labels")):
            ens.load_ensemble(path)

    def test_round_trip(self, camera_setup, tmp_path):
        _, ensemble, keys, table = camera_setup
        path = tmp_path / "ensemble.json"
        ens.save_ensemble(path, ensemble)
        loaded = ens.load_ensemble(path)
        assert loaded.profile.keys == ensemble.profile.keys
        assert all(not k.member_flows for k in loaded.profile.keys)
        for (model, eps), (orig, orig_eps) in zip(loaded.submodels,
                                                  ensemble.submodels):
            assert eps == orig_eps
            assert all(np.array_equal(model.params[n], w)
                       for n, w in orig.params.items())
        assert ens.detect_flows(loaded, keys, table) == \
            ens.detect_flows(ensemble, keys, table)


# --- verdict reader ---------------------------------------------------------

def verdict_to_dict(v: ens.Verdict) -> dict:
    """The JSON object of a verdict, as detect wrote it with ``json.dumps``
    before it formatted lines itself: the oracle of verdict_line."""
    d = {"flow_key": ct.flow_key_to_dict(v.flow), "kind": v.kind,
         "models_triggered": v.models_triggered}
    d.update((name, getattr(v, name)) for name in ("activity", "score",
                                                   "reason")
             if getattr(v, name) is not None)
    return d


flow_keys = st.builds(
    FlowKey, device_ip=st.just(DEVICE),
    remote=st.builds(Remote, st.sampled_from(["domain", "remote_ip",
                                              "local_ip", "bc_mc"]),
                     st.text(max_size=8)),
    src_port=st.integers(0, 65535), dst_port=st.integers(0, 65535),
    proto=st.sampled_from(["TCP", "UDP"]))
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def verdicts(draw):
    kind = draw(st.sampled_from(ens.VERDICT_KINDS))
    stage1 = kind == ens.STAGE1_MALICIOUS
    return ens.Verdict(
        kind, draw(flow_keys), draw(st.integers(0, 50)),
        score=draw(st.none() if stage1 else finite),
        activity=draw(st.none() if stage1 else st.integers(0, 50)),
        reason=draw(st.text(max_size=20) if stage1 else st.none()))


def reference_verdict(line):
    """Independent statement of what verdict_from_dict accepts: the
    fields of the verdict a line must read as, or None where it must be
    rejected."""
    try:
        d = json.loads(line)
        fk = d["flow_key"]
        remote = fk["remote"]
        ok = (d["kind"] in ens.VERDICT_KINDS
              and type(d["models_triggered"]) is int
              and type(fk["device_ip"]) is str
              and remote["kind"] in ("domain", "remote_ip", "local_ip",
                                     "bc_mc")
              and type(remote["value"]) is str
              and all(type(fk[p]) is int and 0 <= fk[p] <= 65535
                      for p in ("src_port", "dst_port"))
              and fk["proto"] in ("TCP", "UDP")
              and type(d.get("score", 0.0)) is float
              and type(d.get("activity", 0)) is int
              and type(d.get("reason", "")) is str
              and (d["kind"] == ens.STAGE1_MALICIOUS
                   or math.isfinite(d.get("score", math.nan))))
    except Exception:
        return None
    if not ok:
        return None
    return (d["kind"], fk["device_ip"], remote["kind"], remote["value"],
            fk["src_port"], fk["dst_port"], fk["proto"],
            d["models_triggered"], d.get("score"), d.get("activity"),
            d.get("reason"))


def verdict_fields(v):
    f = v.flow
    return (v.kind, f.device_ip, f.remote.kind, f.remote.value, f.src_port,
            f.dst_port, f.proto, v.models_triggered, v.score, v.activity,
            v.reason)


ascii_text = st.text(st.characters(max_codepoint=0x7F,
                                   blacklist_characters="\r\n"),
                     max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ascii_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(ascii_text, inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_verdict_lines(draw):
    doc = verdict_to_dict(draw(verdicts()))
    how = draw(st.sampled_from(["set", "drop", "set-flow", "drop-flow",
                                "truncate", "delete", "insert", "value"]))
    target = doc["flow_key"] if how.endswith("-flow") else doc
    if how.startswith("set"):
        field = draw(st.sampled_from(sorted(target) + ["score", "bogus"]))
        target[field] = draw(json_values)
    elif how.startswith("drop"):
        del target[draw(st.sampled_from(sorted(target)))]
    line = json.dumps(doc)
    a = draw(st.integers(0, len(line)))
    if how == "truncate":
        line = line[:a]
    elif how == "delete":
        line = line[:a] + line[draw(st.integers(a, len(line))):]
    elif how == "insert":
        line = line[:a] + draw(ascii_text) + line[a:]
    elif how == "value":
        line = json.dumps(draw(json_values))
    return line


GENERIC_FLOW_KEY_FIELDS = {
    "device_ip": str,
    "remote": {"kind": frozenset({"domain", "remote_ip", "local_ip",
                                  "bc_mc"}),
               "value": str},
    "src_port": range(65536), "dst_port": range(65536),
    "proto": frozenset({"TCP", "UDP"})}


def generic_verdict_from_dict(d):
    """verdict_from_dict as errors.check alone states it, one call per
    object and one for the optional fields: the oracle of the reader's
    messages and of what it accepts."""
    check(d, {"kind": frozenset(ens.VERDICT_KINDS), "flow_key": dict,
              "models_triggered": int}, "verdict")
    check(d, {n: t for n, t in (("activity", int), ("score", float),
                                ("reason", str)) if n in d}, "verdict")
    if d["kind"] != ens.STAGE1_MALICIOUS and not math.isfinite(
            d.get("score", math.nan)):
        raise SchemaError(f"verdict: a {d['kind']} verdict needs a finite "
                          f"score, got {d.get('score')}")
    fk = check(d["flow_key"], GENERIC_FLOW_KEY_FIELDS, "verdict flow_key")
    flow = FlowKey(fk["device_ip"],
                   Remote(fk["remote"]["kind"], fk["remote"]["value"]),
                   fk["src_port"], fk["dst_port"], fk["proto"])
    return ens.Verdict(d["kind"], flow, d["models_triggered"],
                       d.get("score"), d.get("activity"), d.get("reason"))


any_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70000) | st.integers()
    | st.floats() | st.sampled_from(ens.VERDICT_KINDS + ("TCP", "domain"))
    | ascii_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(ascii_text, inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_verdict_dicts(draw):
    """A written verdict with one field of it, of its flow key or of the
    key's remote set to any value or dropped, or the verdict itself
    replaced."""
    doc = verdict_to_dict(draw(verdicts()))
    target = draw(st.sampled_from([doc, doc["flow_key"],
                                   doc["flow_key"]["remote"]]))
    how = draw(st.sampled_from(["set", "set", "set", "drop", "whole"]))
    if how == "set":
        names = sorted(target) + ["score", "activity", "reason", "bogus"]
        target[draw(st.sampled_from(names))] = draw(any_values)
    elif how == "drop" and target:
        del target[draw(st.sampled_from(sorted(target)))]
    elif how == "whole":
        return draw(any_values)
    return doc


def outcome(read, d):
    try:
        return repr(read(d))
    except Exception as exc:  # noqa: BLE001 - the type is compared too
        return f"{type(exc).__name__}: {exc}"


# text that needs escaping: quotes, backslashes, control and non-ASCII
# characters, astral ones and a lone surrogate included
awkward_text = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                       'aZ.-\u00e9\u2028\ud800\U0001f600'),
                       max_size=8) | st.text(max_size=8)
written_verdicts = st.builds(
    ens.Verdict, kind=st.sampled_from(ens.VERDICT_KINDS),
    flow=st.builds(FlowKey, awkward_text,
                   st.builds(Remote, awkward_text, awkward_text),
                   st.integers(0, 65535), st.integers(0, 65535),
                   awkward_text),
    models_triggered=st.integers(),
    score=st.none() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                       0.0, 5e-324, 1e308]) | st.floats(),
    activity=st.none() | st.integers(),
    reason=st.none() | awkward_text)


class TestVerdictLine:
    @settings(max_examples=500, deadline=None)
    @given(v=written_verdicts)
    def test_is_json_dumps_of_the_verdicts_object(self, v):
        assert ens.verdict_line(v) == json.dumps(verdict_to_dict(v)) + "\n"


class TestVerdictReader:
    @settings(max_examples=1000, deadline=None)
    @given(d=mutated_verdict_dicts())
    def test_reads_as_the_generic_check_or_raises_its_message(self, d):
        assert outcome(ens.verdict_from_dict, d) == \
            outcome(generic_verdict_from_dict, d)

    @settings(max_examples=200, deadline=None)
    @given(v=verdicts())
    def test_round_trip(self, v):
        doc = json.loads(json.dumps(verdict_to_dict(v)))
        back = ens.verdict_from_dict(doc)
        # records are tuples, which compare equal across types
        assert back == v and type(back) is ens.Verdict
        assert type(back.flow) is FlowKey and type(back.flow.remote) is Remote
        assert ens.verdict_from_dict(verdict_to_dict(v)) == v

    @settings(max_examples=400, deadline=None)
    @given(line=mutated_verdict_lines())
    def test_mutated_line_reads_as_the_reference_or_names_path_and_line(
            self, tmp_path_factory, line):
        path = str(tmp_path_factory.getbasetemp() / "verdicts.jsonl")
        good = json.dumps(verdict_to_dict(ens.Verdict(
            ens.BENIGN, flow(), 1, score=0.5, activity=0)))
        with open(path, "w") as fh:
            fh.write(f"{good}\n{line}\n{good}\n")
        expected = [reference_verdict(text.strip())
                    for text in (good, line, good) if text.strip()]
        got = []
        try:
            for v in read_jsonl(path, ens.verdict_from_dict):
                got.append(verdict_fields(v))
        except SchemaError as exc:
            assert str(exc).startswith(f"{path}:2: ")
            assert "\n" not in str(exc)
            assert got == expected[:1] and None in expected
        else:
            assert got == expected


# --- verdict reader fast path -----------------------------------------------

def verdicts_outcome(verdicts):
    """The repr of each verdict read, which tells an int from a float, and
    the text of the error that stopped the reading, or None."""
    got = []
    try:
        for v in verdicts:
            got.append(repr(v))
    except SchemaError as exc:
        return got, str(exc)
    return got, None


def verdict_text(score="0.5", triggered="1", activity=', "activity": 0',
                 src_port="41000", kind='"benign"', tail=""):
    return ('{"flow_key": {"device_ip": "192.168.1.10", "remote": {"kind": '
            '"domain", "value": "cam3.vendor.com"}, "src_port": '
            f'{src_port}, "dst_port": 443, "proto": "TCP"}}, "kind": {kind}, '
            f'"models_triggered": {triggered}{activity}, "score": {score}'
            f'{tail}}}')


VERDICT_EDGE_LINES = [
    # scores: ints, signs, exponents, leading zeros, huge and non-finite
    *(verdict_text(score=score) for score in (
        "0", "1", "-0.0", "-0.5", "0.0e-0", "1E5", "1e+5", "2.5E-3",
        "1e999", "1" * 4301, "1" * 4301 + ".5", "00.5", "01.5", "1.", ".5",
        "1e", "NaN", "Infinity", "-Infinity", "true", '"0.5"', "null")),
    *(verdict_text(kind='"stage1_malicious"', score=score, activity="")
      for score in ("1e999", "0.5", "NaN", "5")),
    # counts, ports and key positions
    *(verdict_text(triggered=n) for n in (
        "0", "-1", "01", "1.0", "1e1", "1" * 4301, "true")),
    *(verdict_text(activity=f', "activity": {n}') for n in (
        "-1", "07", "1" * 4301, "null")),
    *(verdict_text(src_port=port) for port in (
        "0", "65535", "65536", "-0", "053", "1" * 4301)),
    # strings, kinds and fields
    verdict_text(kind='"bogus"'),
    verdict_text(kind='"\\u0062enign"'),
    verdict_text(tail=', "reason": "a \\"quoted\\" reason"'),
    verdict_text(tail=', "reason": "café"'),
    verdict_text(tail=', "reason": 5'),
    verdict_text(tail=', "bogus": 1'),
    verdict_text(tail=', "score": 0.25'),
    verdict_text().replace('"TCP"', '"ICMP"'),
    verdict_text().replace('"domain"', '"elsewhere"'),
    verdict_text().replace('"cam3.vendor.com"', '"\\u00e9"'),
    verdict_text(activity="") + " x",
    # reordered keys, other spacing, missing fields, truncation
    verdict_text().replace(', "activity": 0, "score": 0.5',
                           ', "score": 0.5, "activity": 0'),
    verdict_text().replace(", ", ","),
    verdict_text().replace(": ", " : "),
    verdict_text().replace(', "proto": "TCP"', ""),
    verdict_text(score="0.5").replace(', "score": 0.5', ""),
    verdict_text()[:-1],
]


def read_both(tmp_path_factory, lines):
    """verdicts_outcome of the reader eval uses, and of the JSON parse
    alone, over a file of ``lines``."""
    path = tmp_path_factory.getbasetemp() / "verdicts.jsonl"
    path.write_text("".join(f"{line}\n" for line in lines),
                    encoding="utf-8")
    return (verdicts_outcome(ens.read_verdicts_jsonl(path)),
            verdicts_outcome(read_jsonl(path, ens.verdict_from_dict)))


class TestVerdictReaderFastPath:
    """read_verdicts_jsonl matches each line against verdict_line's form
    before it parses JSON.  What it reads must not depend on which path a
    line takes."""

    @pytest.mark.parametrize("line", VERDICT_EDGE_LINES)
    def test_edge_line_reads_as_the_json_path(self, tmp_path_factory, line):
        fast, json_path = read_both(
            tmp_path_factory, [verdict_text(), line, verdict_text()])
        assert fast == json_path
        # the JSON path alone raises
        ens._verdict_of_line(line)

    def test_writer_lines_take_the_fast_path(self):
        v = ens.Verdict(ens.BENIGN, flow(), 2, score=1.5e-07, activity=3)
        assert ens._verdict_of_line(ens.verdict_line(v).strip()) == v
        stage1 = ens.Verdict(ens.STAGE1_MALICIOUS, flow(), 0,
                             reason="no key matches")
        assert ens._verdict_of_line(ens.verdict_line(stage1).strip()) == \
            stage1

    @settings(max_examples=300, deadline=None)
    @given(vs=st.lists(written_verdicts, max_size=4))
    def test_written_verdicts_read_as_the_json_path(self, tmp_path_factory,
                                                    vs):
        fast, json_path = read_both(
            tmp_path_factory, [ens.verdict_line(v).strip() for v in vs])
        assert fast == json_path

    @settings(max_examples=400, deadline=None)
    @given(v=verdicts(), line=mutated_verdict_lines())
    def test_mutated_lines_read_as_the_json_path(self, tmp_path_factory, v,
                                                 line):
        written = ens.verdict_line(v).strip()
        fast, json_path = read_both(tmp_path_factory,
                                    [written, line, written])
        assert fast == json_path
