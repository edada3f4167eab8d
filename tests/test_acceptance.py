"""Acceptance suite: end-to-end checks against independent oracles and
scaled-down synthetic experiments.  Each criterion prints one PASS line
(run with ``pytest -s`` to see them as they complete).
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from atrellis import anomaly_ensemble as ens
from atrellis import clustering_tree as ct
from atrellis import synth_traffic as sim
from atrellis.cli import main as cli_main
from atrellis.cluster_metrics import dunn_index, kmeans, purity
from atrellis.feature_pipeline import featurize
from atrellis.neural_autoencoder import (AEArchitecture, grad_check,
                                         init_model)
from atrellis.traffic_model import (PacketRecord, flow_key_of,
                                    flows_of_trace)

DEVICE = "192.168.0.2"


def _ok(num, message):
    print(f"\nACCEPTANCE {num}: PASS — {message}")


# --- criterion 1: the one flow table vs naive grouping ----------------------

_PORTS = [(40000, 443, "TCP"), (40001, 443, "TCP"), (40002, 8883, "TCP"),
          (123, 123, "UDP"), (40003, 53, "UDP"), (40004, 50001, "UDP")]


def _random_stream(rng):
    """One random trace: <=10 flows, <=1000 packets, increasing times."""
    n_flows = int(rng.integers(1, 11))
    ports = [_PORTS[int(i)] for i in rng.integers(len(_PORTS), size=n_flows)]
    n_packets = int(rng.integers(1, 1001))
    packets = []
    ts = 0.0
    for _ in range(n_packets):
        ts += float(rng.uniform(0.0, 0.5))
        fi = int(rng.integers(n_flows))
        sport, dport, proto = ports[fi]
        out = bool(rng.integers(2))
        length = int(rng.integers(40, 1500))
        remote = f"198.51.100.{fi + 1}"
        if out:
            packets.append(PacketRecord(ts, DEVICE, remote, sport, dport,
                                        proto, length))
        else:
            packets.append(PacketRecord(ts, remote, DEVICE, dport, sport,
                                        proto, length))
    return packets


def _naive_leaf(remote, sport, dport, proto):
    """The four rule levels of a device-oriented 5-tuple, spelled out."""
    src = ("system", sport) if sport < 1024 else ("regdyn",)
    dst = ("system", dport) if dport < 1024 else \
        ("registered", dport) if dport < 49152 else ("dynamic",)
    return (proto, "remote_ip", src, dst)


def test_criterion_1_flow_table_oracle():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    for _ in range(100):
        packets = _random_stream(rng)
        table = ct.ClusterTree(DEVICE, r=len(packets))
        for p in packets:
            table.insert(p)
        naive = {}
        for p in packets:
            if p.src_ip == DEVICE:
                five = (p.dst_ip, p.src_port, p.dst_port, p.proto)
            else:
                five = (p.src_ip, p.dst_port, p.src_port, p.proto)
            naive.setdefault(five, []).append(p)
        as_five = {key: (key.remote.value, key.src_port, key.dst_port,
                         key.proto) for key in table.flows}
        # the flow order, then each flow's record: its count, last time,
        # label summary, sizes and every packet's (ts, length) in order
        assert [as_five[key] for key in table.flows] == list(naive)
        for key, flow in table.flows.items():
            packets = naive[as_five[key]]
            assert flow == [len(packets), packets[-1].ts, None,
                            {p.length for p in packets},
                            *(v for p in packets for v in (p.ts, p.length))]
        # each leaf's size sets
        naive_leaves = {}
        for five, flow in naive.items():
            naive_leaves.setdefault(_naive_leaf(*five), {})[five] = \
                {p.length for p in flow}
        leaves = {(path.proto, path.addr_class, path.src_bucket,
                   path.dst_bucket): {as_five[key]: sizes
                                      for key, sizes in leaf.items()}
                  for path, leaf in ct.leaves_of(table).items()}
        assert leaves == naive_leaves
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(1, f"100 random streams match the naive oracle ({elapsed:.2f}s)")


# --- criterion 2: Dunn Index vs O(n^2) brute force --------------------------

def _brute_dunn(points, labels):
    n = len(points)
    max_diam, min_between = 0.0, np.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(points[i] - points[j]))
            if labels[i] == labels[j]:
                max_diam = max(max_diam, d)
            else:
                min_between = min(min_between, d)
    return min_between / max_diam


def test_criterion_2_dunn_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(5, 201))
        k = int(rng.integers(2, 5))
        points = rng.normal(size=(n, 2))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        di = dunn_index(points, labels)
        oracle = _brute_dunn(points, labels)
        assert di == pytest.approx(oracle, rel=1e-12)
        scaled = dunn_index(points * 10.0, labels)
        assert abs(di - scaled) <= 1e-12 * max(di, scaled, 1.0)
    _ok(2, "dunn_index matches brute force on 50 instances and is "
           "scale invariant")


# --- criterion 3: k-means optimality at micro scale -------------------------

def _exhaustive_two_partition(points):
    n = len(points)
    best = np.inf
    for r in range(1, n // 2 + 1):
        for comb in combinations(range(n), r):
            rest = [i for i in range(n) if i not in comb]
            a, b = points[list(comb)], points[rest]
            obj = ((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum()
            best = min(best, obj)
    return best


def test_criterion_3_kmeans_micro_optimality():
    rng = np.random.default_rng(42)
    optimal = 0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        points = rng.normal(size=(n, 2))
        _, obj = kmeans(points, 2, seed=trial)
        if obj <= _exhaustive_two_partition(points) + 1e-9:
            optimal += 1
    assert optimal >= 95
    _ok(3, f"k-means hit the exhaustive optimum on {optimal}/100 instances")


# --- criterion 4: autoencoder gradient check --------------------------------

def test_criterion_4_gradient_check():
    arch = AEArchitecture(r=10)
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(20):
        model = init_model(arch, seed=s)
        x = np.random.default_rng(1000 + s).uniform(0.0, 1.0, 20)
        worst = max(worst, grad_check(model, x, eps=1e-5))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 30.0
    _ok(4, f"max relative gradient error {worst:.2e} over 20 pairs "
           f"({elapsed:.1f}s)")


# --- criterion 5: clustering purity on the fixture corpus -------------------

def test_criterion_5_clustering_purity():
    rng = np.random.default_rng(99)
    for name, spec in sim.FIXTURES.items():
        trace = sim.generate(spec, 7200.0, seed=7)
        tree = ct.ClusterTree(spec.device_ip)
        for p in trace:
            tree.insert(p)
        profile = ct.build_profile(tree, 0.5)
        keys, table = flows_of_trace(trace, spec.device_ip, r=10)
        cluster_of = {f: i for i, key in enumerate(profile.keys)
                      for f in key.member_flows}
        assignment = [cluster_of[f] for f in keys]
        labels = sim.flow_activity_labels(spec, keys)
        assert "unknown" not in labels
        p_score = purity(assignment, labels)
        assert p_score >= 0.95, f"{name}: purity {p_score:.3f}"
        points = np.array([featurize(table[f], 10) for f in keys])
        di_true = dunn_index(points, assignment)
        for _ in range(10):
            shuffled = rng.permutation(assignment)
            assert dunn_index(points, shuffled) < di_true, name
    _ok(5, "all 4 fixtures: purity >= 0.95 and the activity clustering "
           "beats 10 size-matched random assignments on Dunn Index")


# --- shared rig for criteria 6-8 --------------------------------------------

RIG_Q = 0.995   # the quantile that calibrates the rig's thresholds


@pytest.fixture(scope="module")
def camera_rig():
    spec = sim.FIXTURES["camera"]
    trace = sim.generate(spec, 7200.0, seed=7)
    tree = ct.ClusterTree(spec.device_ip)
    t0 = time.perf_counter()
    for p in trace:
        tree.insert(p)
    profile = ct.build_profile(tree, 0.5)
    keys, table = flows_of_trace(trace, spec.device_ip, r=10)
    ensemble, _, _ = ens.train_ensemble(profile, table, AEArchitecture(r=10),
                                        30, RIG_Q, seed=0)
    elapsed = time.perf_counter() - t0
    return spec, ensemble, keys, table, elapsed


def _truth_labels(keys, packets, device_ip):
    """Each flow's first attack label, or "benign", read from the trace's
    packets as flow_key_of keys them, not from the flow table."""
    found = {}
    for p in packets:
        if p.label and p.label.startswith("attack:"):
            found.setdefault(flow_key_of(p, device_ip), p.label)
    return [found.get(key, "benign") for key in keys]


# --- criterion 6: stage-1 behavior -------------------------------------------

def test_criterion_6_stage_1(camera_rig):
    spec, ensemble, train_keys, train_table, _ = camera_rig
    for kind, target in (("PortScan", {"n_ports": 40}),
                         ("TelnetBrute", {"ip": "198.51.100.99"})):
        atk = sim.AttackSpec(kind, start=100.0, rate=1.0, duration=40.0,
                             target=target)
        packets = sim.inject_attack([], atk, seed=1,
                                    device_ip=spec.device_ip)
        keys, table = flows_of_trace(packets, spec.device_ip, r=10)
        assert keys
        verdicts = [ens.detect(ensemble, k, table[k]) for k in keys]
        assert all(v.kind == ens.STAGE1_MALICIOUS for v in verdicts), kind
    benign_stage1 = sum(
        ens.detect(ensemble, k, train_table[k]).kind == ens.STAGE1_MALICIOUS
        for k in train_keys)
    assert benign_stage1 == 0
    _ok(6, "PortScan and TelnetBrute are 100% Stage1Malicious; "
           "0/{} benign training flows rejected at stage 1".format(
               len(train_keys)))


# --- criterion 7: stage-2 evasion scenario -----------------------------------

def test_criterion_7_stage_2_evasion(camera_rig):
    spec, ensemble, _, _, train_time = camera_rig
    t0 = time.perf_counter()
    holdout = sim.generate(spec, 7200.0, seed=8)
    masq = sim.AttackSpec("HttpMasqCnc", start=50.0, rate=0.05,
                          duration=1200.0,
                          target={"domain": "api.cam-vendor.com",
                                  "ip": "203.0.113.11"})
    flood = sim.AttackSpec("Flood", start=2000.0, rate=0.2, duration=150.0,
                           target={"domain": "api.cam-vendor.com",
                                   "ip": "203.0.113.11", "dst_port": 80})
    reports = {}
    labels_by_attack = {}
    verdicts_by_attack = {}
    for name, atk in (("HttpMasqCnc", masq), ("Flood", flood)):
        trace = sim.inject_attack(holdout, atk, seed=1)
        keys, table = flows_of_trace(trace, spec.device_ip, r=10)
        verdicts = [ens.detect(ensemble, k, table[k]) for k in keys]
        labels = _truth_labels(keys, trace, spec.device_ip)
        reports[name] = ens.evaluate(verdicts, labels)
        labels_by_attack[name] = labels
        verdicts_by_attack[name] = verdicts
    elapsed = train_time + (time.perf_counter() - t0)

    labels = labels_by_attack["HttpMasqCnc"]
    verdicts = verdicts_by_attack["HttpMasqCnc"]
    masq_idx = [i for i, lab in enumerate(labels)
                if lab == "attack:HttpMasqCnc"]
    assert masq_idx
    passed_stage1 = sum(verdicts[i].kind != ens.STAGE1_MALICIOUS
                        for i in masq_idx)
    masq_report = reports["HttpMasqCnc"]
    assert passed_stage1 / len(masq_idx) >= 0.95
    assert masq_report["per_attack"]["HttpMasqCnc"]["tpr"] >= 0.8
    assert masq_report["fpr"] <= 0.05
    flood_auc = reports["Flood"]["per_attack"]["Flood"]["auc"]
    assert flood_auc >= 0.9
    assert elapsed < 300.0
    _ok(7, "HttpMasqCnc passes stage 1 ({}/{}) yet TPR {:.2f} at FPR "
           "{:.3f}; Flood AUC {:.2f}; pipeline {:.0f}s".format(
               passed_stage1, len(masq_idx),
               masq_report["per_attack"]["HttpMasqCnc"]["tpr"],
               masq_report["fpr"], flood_auc, elapsed))


# --- criterion 8: threshold calibration --------------------------------------

def test_criterion_8_calibration(camera_rig):
    spec, ensemble, _, table, _ = camera_rig
    q = RIG_Q
    fractions = []
    for key in ensemble.profile.keys:
        members = [f for f in key.member_flows if f in table]
        verdicts = [ens.detect(ensemble, f, table[f]) for f in members]
        assert all(v.kind != ens.STAGE1_MALICIOUS for v in verdicts)
        n = len(members)
        frac = sum(v.kind == ens.ANOMALOUS for v in verdicts) / n
        assert frac <= (1.0 - q) + 1.0 / n
        fractions.append(frac)
    _ok(8, "per-activity self-anomalous fractions {} all within "
           "(1-q) + 1/N".format(["%.4f" % f for f in fractions]))


# --- criterion 9: deterministic pipeline --------------------------------------

def _run_cli_pipeline(outdir):
    outdir.mkdir()
    clean = str(outdir / "clean.jsonl")
    trace = str(outdir / "trace.jsonl")
    profile = str(outdir / "profile.json")
    ensemble = str(outdir / "ensemble.json")
    verdicts = str(outdir / "verdicts.jsonl")
    metrics = str(outdir / "metrics.json")
    atk = json.dumps({"kind": "HttpMasqCnc", "start": 100, "rate": 0.05,
                      "duration": 400,
                      "target": {"domain": "api.cam-vendor.com",
                                 "ip": "203.0.113.11"}})
    assert cli_main(["simulate", "--fixture", "camera", "--duration", "900",
                     "--seed", "3", "-o", clean]) == 0
    assert cli_main(["simulate", "--fixture", "camera", "--duration", "900",
                     "--seed", "3", "--attack", atk, "-o", trace]) == 0
    assert cli_main(["profile", clean, "-o", profile]) == 0
    assert cli_main(["train", clean, profile, "--epochs", "15", "--seed",
                     "3", "-o", ensemble]) == 0
    assert cli_main(["detect", trace, ensemble, "-o", verdicts]) == 0
    assert cli_main(["eval", trace, verdicts, "-o", metrics]) == 0
    return [clean, clean + ".manifest.json", trace,
            trace + ".manifest.json", profile, ensemble, verdicts, metrics]


def test_criterion_9_determinism(tmp_path):
    files_a = _run_cli_pipeline(tmp_path / "a")
    files_b = _run_cli_pipeline(tmp_path / "b")
    for fa, fb in zip(files_a, files_b):
        with open(fa, "rb") as ha, open(fb, "rb") as hb:
            assert ha.read() == hb.read(), fa
    _ok(9, "simulate→profile→train→detect→eval is byte-identical "
           "across reruns ({} artifacts)".format(len(files_a)))
