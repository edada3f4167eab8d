"""Command-line pipeline: simulate -> profile -> train -> detect -> eval.

Traces and verdicts are JSON-lines files, one packet or verdict per line.
The other artifacts are JSON files carrying a schema_version field: the
profile, the ensemble, the metrics and the trace's manifest.
Exit codes: 0 success, 1 runtime or data failure, 2 usage error.  Set
ATRELLIS_LOG={error|info|debug} to control logging.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from typing import List, Optional

from . import anomaly_ensemble as ens
from . import clustering_tree as ct
from . import synth_traffic as sim
from .errors import (AtrellisError, EmptyTree, PacketError, SchemaError,
                     check, located)
from .feature_pipeline import featurize_many
from .neural_autoencoder import AEArchitecture
from .traffic_model import (_PORT, PROTOCOLS, FlowTable, PacketRecord,
                            line_of_object, parse_prefixes, read_json,
                            read_packets_jsonl, write_packets_jsonl)

log = logging.getLogger("atrellis")

MANIFEST_SCHEMA_VERSION = "1.0"
METRICS_SCHEMA_VERSION = "1.0"


class UsageError(Exception):
    pass


def _option(flag: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; the ValueError with which it rejects an
    option value becomes a UsageError naming the flag."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _local_prefixes(values: Optional[List[str]]) -> tuple:
    prefixes = tuple(values or ())
    _option("--local-prefix", parse_prefixes, prefixes)
    return prefixes


def _where(path: str, index: int) -> str:
    """``PATH:LINE`` of the ``index``-th JSON object of ``path``, or
    ``PATH`` if that line cannot be found again."""
    line = line_of_object(path, index)
    return path if line is None else f"{path}:{line}"


def _infer_device_ip(packets: List[PacketRecord]) -> str:
    """The endpoint of the first packet that is in every packet; when both
    are, the trace cannot tell which is the device, and this refuses."""
    if not packets:
        raise EmptyTree("empty trace")
    first = packets[0]
    candidates = dict.fromkeys((first.src_ip, first.dst_ip))
    found = [c for c in candidates
             if all(c in (p.src_ip, p.dst_ip) for p in packets)]
    if len(found) == 2:
        raise AtrellisError(f"both {found[0]} and {found[1]} are in every "
                            f"packet, so either could be the device; pass "
                            f"--device-ip")
    if not found:
        raise AtrellisError("could not infer device IP; pass --device-ip")
    return found[0]


def _truth(flow: List[PacketRecord]) -> str:
    """The first attack label among a flow's packets, or "benign"; a
    packet without a label raises a UsageError."""
    found = "benign"
    for p in flow:
        label = p.label
        if label is None:
            raise UsageError("eval requires a fully labeled trace")
        if found == "benign" and label.startswith("attack:"):
            found = label
    return found


_NUMBER = (int, float)
_ATTACK_FIELDS = {"kind": frozenset(sim.ATTACK_KINDS)}
_OPTIONAL_ATTACK_FIELDS = {"start": _NUMBER, "rate": _NUMBER,
                           "duration": _NUMBER, "target": dict}
# the (required, optional) target fields that each kind of attack reads
_TARGET_FIELDS = {
    sim.PORT_SCAN: ({}, {"ip": str, "n_ports": int}),
    sim.TELNET_BRUTE: ({}, {"ip": str}),
    sim.FLOOD: ({"ip": str, "dst_port": _PORT},
                {"proto": frozenset(PROTOCOLS), "domain": str,
                 "packets_per_flow": int}),
    sim.HTTP_MASQ_CNC: ({"ip": str, "domain": str},
                        {"packets_per_flow": int, "beacon_gap": _NUMBER}),
}


def _attack_spec(text: str) -> sim.AttackSpec:
    """The attack that an ``--attack`` JSON value describes; a bad value
    raises a ValueError."""
    obj = check(json.loads(text), _ATTACK_FIELDS, "spec",
                _OPTIONAL_ATTACK_FIELDS, closed=True)
    fields, optional = _TARGET_FIELDS[obj["kind"]]
    check(obj.get("target", {}), fields, "target", optional, closed=True)
    return sim.AttackSpec(**obj)


_ACTIVITY_FIELDS = {"name": str, "remote_ip": str, "dst_port": int,
                    "proto": frozenset(PROTOCOLS), "period": _NUMBER,
                    "sizes": list, "size_probs": list}
_OPTIONAL_ACTIVITY_FIELDS = {"packets_per_burst": int, "jitter": _NUMBER,
                             "intra_gap": _NUMBER, "domain": str,
                             "bidirectional": bool}


def _device_spec(doc) -> sim.DeviceSpec:
    """The device of a ``--spec`` file's document."""
    check(doc, {"device_ip": str, "activities": list}, "spec", closed=True)
    activities = []
    for i, a in enumerate(doc["activities"]):
        what = f"activity {i}"
        check(a, _ACTIVITY_FIELDS, what, _OPTIONAL_ACTIVITY_FIELDS,
              closed=True)
        for name, kind in (("sizes", int), ("size_probs", _NUMBER)):
            if any(isinstance(v, bool) or not isinstance(v, kind)
                   for v in a[name]):
                raise SchemaError(f"{what}: {name} holds a value of the "
                                  f"wrong type")
        activities.append(sim.ActivitySpec(**{
            **a, "sizes": tuple(a["sizes"]),
            "size_probs": tuple(a["size_probs"])}))
    return sim.DeviceSpec(doc["device_ip"], tuple(activities))


def cmd_simulate(args) -> int:
    if args.seed < 0:       # numpy's generators take no negative seed
        raise UsageError(f"--seed: seed must be >= 0, got {args.seed}")
    if args.fixture:
        if args.fixture not in sim.FIXTURES:
            raise UsageError(
                f"unknown fixture {args.fixture!r}; "
                f"choose from {', '.join(sorted(sim.FIXTURES))}")
        spec = sim.FIXTURES[args.fixture]
    elif args.spec:
        spec = read_json(args.spec, _device_spec)
    else:
        raise UsageError("one of --fixture or --spec is required")

    attacks = [_option("--attack", _attack_spec, text)
               for text in args.attack or []]
    trace = sim.generate(spec, args.duration, args.seed)
    for atk in attacks:
        trace = sim.inject_attack(trace, atk, args.seed,
                                  device_ip=spec.device_ip)
    write_packets_jsonl(args.out, trace)

    counts: dict = {}
    for p in trace:
        counts[p.label] = counts.get(p.label, 0) + 1
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "fixture": args.fixture,
        "spec_file": args.spec,
        "device_ip": spec.device_ip,
        "seed": args.seed,
        "duration": args.duration,
        "label_counts": dict(sorted(counts.items())),
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %d packets to %s", len(trace), args.out)
    return 0


def cmd_profile(args) -> int:
    prefixes = _local_prefixes(args.local_prefix)
    if not 0.0 <= args.h_s <= 1.0:
        raise UsageError(f"--h-s: h_s must be in [0,1], got {args.h_s}")
    packets = list(read_packets_jsonl(args.trace))
    device_ip = args.device_ip or _infer_device_ip(packets)
    tree = ct.ClusterTree(device_ip, prefixes)
    try:
        for i, pkt in enumerate(packets):
            tree.insert(pkt)
    except PacketError as exc:      # keyed after the read: find the line
        raise located(_where(args.trace, i), exc) from None
    profile = ct.build_profile(tree, args.h_s)
    ct.save_profile(args.out, profile)
    print(f"{len(profile.keys)} activity keys for device {device_ip}")
    for i, key in enumerate(profile.keys):
        remote = key.remote_pattern.value or key.remote_pattern.kind
        print(f"  key {i}: {key.proto} {remote} "
              f"dst={key.dst_port} "
              f"({len(key.member_flows)} member flows)")
    return 0


def cmd_train(args) -> int:
    arch = _option("--r", AEArchitecture, r=args.r)
    if args.epochs < 1:
        raise UsageError(f"--epochs: epochs must be >= 1, got {args.epochs}")
    if args.seed < 0:
        raise UsageError(f"--seed: seed must be >= 0, got {args.seed}")
    if not 0.0 < args.quantile < 1.0:
        raise UsageError(f"--quantile: quantile must be in (0,1), got "
                         f"{args.quantile}")
    profile = ct.load_profile(args.profile)
    # featurize reads a flow's first r packets and the order check its last
    table = FlowTable.read(args.trace, profile.device_ip,
                           profile.local_prefixes, keep=arch.r + 1).flows
    ensemble, unmatched, sizes = ens.train_ensemble(
        profile, table, arch, args.epochs, args.quantile, seed=args.seed)
    ens.save_ensemble(args.out, ensemble)
    print(f"trained {len(ensemble.submodels)} submodels on "
          f"{len(table) - unmatched} flows; {unmatched} flows matched no key")
    for j, n in enumerate(sizes):
        if ens.threshold_rank(n, args.quantile) == n:
            print(f"  key {j}: eps is the largest of its {n} training "
                  f"errors; FPR floor 1/{n + 1} = {1 / (n + 1):.4f}")
    return 0


def cmd_detect(args) -> int:
    ensemble = ens.load_ensemble(args.ensemble)
    table = FlowTable.read(args.trace, ensemble.profile.device_ip,
                           ensemble.profile.local_prefixes,
                           keep=ensemble.arch.r + 1).flows
    keys = list(table)
    verdicts = ens.detect_flows(ensemble, keys, table)
    with open(args.out, "w") as fh:
        fh.writelines(map(ens.verdict_line, verdicts))
    if args.dump_features:
        X = featurize_many([table[key] for key in keys], ensemble.arch.r)
        with open(args.dump_features, "w") as dump:
            for key, row in zip(keys, X):
                dump.write(json.dumps(
                    {"flow_key": ens.flow_key_to_dict(key),
                     "values": row.tolist()}) + "\n")
    rejected = sum(v.kind == ens.STAGE1_MALICIOUS for v in verdicts)
    print(f"judged {len(keys)} flows: {rejected} rejected at stage 1, "
          f"{len(keys) - rejected} scored at stage 2")
    return 0


def cmd_eval(args) -> int:
    prefixes = _local_prefixes(args.local_prefix)
    lines = ens.read_verdicts_jsonl(args.verdicts)
    first = next(lines, None)
    if first is None:
        raise AtrellisError(f"{args.verdicts} holds no verdicts, so there is "
                            f"no device IP to key {args.trace} with")
    # the packets go once their flows' labels are known
    truth = {key: _truth(flow) for key, flow in FlowTable.read(
        args.trace, first.flow.device_ip, prefixes).flows.items()}
    n_flows = len(truth)

    verdicts = [first, *lines]
    labels = []
    for i, verdict in enumerate(verdicts):
        flow = verdict.flow
        if flow in truth:
            labels.append(truth.pop(flow))
            continue
        if flow in (v.flow for v in verdicts[:i]):
            problem = ("was judged on an earlier line; this is a second "
                       "verdict for it")
        else:
            problem = (f"is not in {args.trace}; eval keys the trace with "
                       f"the verdicts' device IP and its own --local-prefix, "
                       f"which must match the profile's")
        raise SchemaError(f"{_where(args.verdicts, i)}: flow {flow} {problem}")
    if truth:
        raise AtrellisError(
            f"{len(truth)} of the {n_flows} flows of {args.trace} have no "
            f"verdict in {args.verdicts}; the first is {next(iter(truth))}")

    metrics = ens.evaluate(verdicts, labels)
    metrics["schema_version"] = METRICS_SCHEMA_VERSION
    with open(args.out, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"{'attack':<14} {'count':>6} {'tpr':>7} {'auc':>7}")
    print(f"{'(overall)':<14} {metrics['n_attack']:>6} "
          f"{metrics['tpr']:>7.3f} {metrics['auc']:>7.3f}")
    for kind, row in metrics["per_attack"].items():
        print(f"{kind:<14} {row['count']:>6} {row['tpr']:>7.3f} "
              f"{row['auc']:>7.3f}")
    print(f"fpr={metrics['fpr']:.4f} on {metrics['n_benign']} benign flows")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each parse gets a new namespace, and
    a new parser per call would leave ~200 objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="atrellis",
        description="activity-profiling and anomaly-detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, keying=False):
        """The trace and output options; with ``keying``, also the local
        prefixes that flows are keyed by.  profile also takes the device
        IP, eval takes it from the verdicts, and train and detect take
        both from the profile or ensemble."""
        p.add_argument("trace", help="packet trace (JSON-lines)")
        p.add_argument("-o", "--out", required=True)
        if keying:
            p.add_argument("--local-prefix", action="append", metavar="CIDR")

    p = sub.add_parser("simulate", help="generate a labeled synthetic trace")
    p.add_argument("--fixture", help=f"one of: {', '.join(sorted(sim.FIXTURES))}")
    p.add_argument("--spec", help="device spec JSON file")
    p.add_argument("--duration", type=float, default=7200.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attack", action="append", metavar="JSON",
                   help='attack spec, e.g. {"kind":"PortScan","start":100}')
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("profile", help="build the activity profile")
    common(p, keying=True)
    p.add_argument("--device-ip")
    p.add_argument("--h-s", type=float, default=0.5, dest="h_s",
                   help="Jaccard merge threshold")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("train", help="train the per-activity ensemble")
    common(p)
    p.add_argument("profile", help="activity profile JSON")
    p.add_argument("--r", type=int, default=10,
                   help="packets per flow used for features")
    p.add_argument("--quantile", type=float, default=0.995)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=50)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="judge every flow of a trace")
    common(p)
    p.add_argument("ensemble", help="trained ensemble JSON")
    p.add_argument("--dump-features", metavar="PATH",
                   help="also write per-flow feature vectors (JSON-lines)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score verdicts against trace labels")
    common(p, keying=True)
    p.add_argument("verdicts", help="verdict JSON-lines from detect")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    level = os.environ.get("ATRELLIS_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AtrellisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
