"""Two-stage anomaly detection on a profiled device.

Stage 1: a flow that fuzzy-matches no activity key is immediately
malicious (port scans and telnet brute force never match).  Stage 2:
matched flows are scored by the matched keys' autoencoders; a flow whose
best reconstruction error exceeds that key's calibrated threshold is
anomalous.  This catches covert traffic that mimics a known endpoint.
"""

from collections import Counter

from atrellis import anomaly_ensemble as ens
from atrellis import clustering_tree as ct
from atrellis import synth_traffic as sim
from atrellis.neural_autoencoder import AEArchitecture
from atrellis.traffic_model import flows_of_trace

spec = sim.FIXTURES["camera"]

# Profile and train on two clean simulated hours.
train_trace = sim.generate(spec, duration=7200.0, seed=7)
tree = ct.ClusterTree(spec.device_ip)
for pkt in train_trace:
    tree.insert(pkt)
profile = ct.build_profile(tree, h_s=0.5)
ensemble, _, _ = ens.train_ensemble(profile, tree.flows, AEArchitecture(r=10),
                                    epochs=30, q=0.995, seed=0)
print(f"trained {len(ensemble.submodels)} per-activity submodels")

# Held-out benign hours plus two very different attacks: a noisy port
# scan (stage-1 bait) and a C&C channel masquerading as the camera's own
# web API traffic (stage-2 bait).
holdout = sim.generate(spec, duration=7200.0, seed=8)
scan = sim.AttackSpec("PortScan", start=100.0, rate=5.0,
                      target={"n_ports": 30})
cnc = sim.AttackSpec("HttpMasqCnc", start=50.0, rate=0.05, duration=1200.0,
                     target={"domain": "api.cam-vendor.com",
                             "ip": "203.0.113.11"})
attacked = sim.inject_attack(holdout, scan, seed=1)
attacked = sim.inject_attack(attacked, cnc, seed=1)

keys, table = flows_of_trace(attacked, spec.device_ip)
verdicts = ens.detect_flows(ensemble, keys, table)
print("\nverdicts:", dict(Counter(v.kind for v in verdicts)))

sample = next(v for v in verdicts if v.kind == ens.STAGE1_MALICIOUS)
print("example stage-1 reason:", sample.reason)

# Score against ground truth labels carried by the simulator.
truth = []
for key in keys:
    attack = next((p.label for p in table[key]
                   if p.label and p.label.startswith("attack:")), None)
    truth.append(attack or "benign")
report = ens.evaluate(verdicts, truth)
print(f"\noverall: TPR {report['tpr']:.2f}  FPR {report['fpr']:.3f}  "
      f"AUC {report['auc']:.2f}")
for kind, row in report["per_attack"].items():
    print(f"  {kind:<12} n={row['count']:<4} tpr={row['tpr']:.2f} "
          f"auc={row['auc']:.2f}")
