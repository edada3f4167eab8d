"""Build an activity profile from a packet trace.

Packets stream into one flow table, whose flows a four-level clustering
tree (protocol -> address class -> source-port bucket -> destination-port
bucket) routes into leaves.  Flows of a leaf with similar
packet-size sets are then merged into abstract activity keys, e.g. all
uploads to *.cam-vendor.com from dynamic source ports become one key.
"""

from atrellis import clustering_tree as ct
from atrellis import synth_traffic as sim
from atrellis.cluster_metrics import purity
from atrellis.traffic_model import COUNT

spec = sim.FIXTURES["camera"]
trace = sim.generate(spec, duration=3600.0, seed=7)

tree = ct.ClusterTree(spec.device_ip)
for pkt in trace:
    tree.insert(pkt)
# each flow is a record of its packets: count, last time, label, sizes
packets = sum(flow[COUNT] for flow in tree.flows.values())
print(f"table summarises {packets} packets in {len(tree.flows)} flows and "
      f"{len(ct.leaves_of(tree))} leaves")

profile = ct.build_profile(tree, h_s=0.5)
print(f"\nprofile for {profile.device_ip}: {len(profile.keys)} "
      "activity keys")
for i, key in enumerate(profile.keys):
    remote = key.remote_pattern.value or key.remote_pattern.kind
    print(f"  key {i}: {key.proto} {remote} dst={key.dst_port} "
          f"src={key.src} "
          f"({len(key.member_flows)} member flows)")

# How well do the discovered keys line up with the simulator's ground
# truth activities?
keys = list(tree.flows)
cluster_of = {f: i for i, key in enumerate(profile.keys)
              for f in key.member_flows}
assignment = [cluster_of[f] for f in keys]
labels = sim.flow_activity_labels(spec, keys)
print(f"\nclustering purity vs ground truth: "
      f"{purity(assignment, labels):.3f}")

# Profiles round-trip through JSON for later reuse; the JSON holds the
# keys, not the flows they were merged from.
doc = ct.profile_to_dict(profile)
restored = ct.profile_from_dict(doc)
print("JSON round trip preserves the profile:",
      restored.keys == profile.keys)
