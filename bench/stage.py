"""Run atrellis CLI stages in this process and report how they went.

    python3 bench/stage.py RESULT.json TRACE -- <cli arguments> [-- ...]

Each stage is timed around ``atrellis.cli.main`` (interpreter start-up and
imports are outside the timed region).  The process keeps to one CPU and
times a fixed reference loop before the first stage and after each stage,
so each stage's time can be scaled to a fixed host speed (run_bench.py).
RESULT.json receives each stage's exit code, wall time and the reference
times on either side of it, the process's peak RSS and, when TRACE is 1,
the span summary and counters of every wrapped layer function.  The
wrappers are installed from here; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, summarize  # noqa: E402


def _rows(x) -> int:
    shape = getattr(getattr(x, "values", x), "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


def _observe_merge(t, args, kwargs, result):
    n = len(args[0])
    t.count("clustering_tree.leaves")
    t.count("clustering_tree.merge_pairs", n * (n - 1) // 2)
    t.peak("clustering_tree.max_leaf_flows", n)


def _observe_detect(t, args, kwargs, verdict):
    t.count("anomaly_ensemble.detect_calls")
    if verdict.kind == "stage1_malicious":
        t.count("anomaly_ensemble.stage1_verdicts")
    else:
        t.count("anomaly_ensemble.models_triggered", verdict.models_triggered)


def _layer_functions():
    """(module, attribute, span name, observer) for every traced layer
    function: the public functions the CLI stages reach."""
    from atrellis import anomaly_ensemble as ens
    from atrellis import clustering_tree as ct
    from atrellis import feature_pipeline as fp
    from atrellis import neural_autoencoder as na
    from atrellis import synth_traffic as sim
    from atrellis import traffic_model as tm
    return [
        (tm, "read_packets_jsonl", "traffic_model.parse",
         lambda t, a, k, n: t.count("traffic_model.parse_pkts", n)),
        (tm, "flows_of_trace", "traffic_model.flows_of_trace",
         lambda t, a, k, r: t.count("traffic_model.flows", len(r[0]))),
        (tm, "write_packets_jsonl", "traffic_model.write", None),
        (ct, "build_profile", "clustering_tree.build_profile",
         lambda t, a, k, r: t.count("clustering_tree.keys", len(r.keys))),
        (ct, "merge_activities", "clustering_tree.merge", _observe_merge),
        (ct, "save_profile", "clustering_tree.save_profile", None),
        (ct, "load_profile", "clustering_tree.load_profile", None),
        (fp, "featurize", "feature_pipeline.featurize", None),
        (na, "fit", "neural_autoencoder.fit",
         lambda t, a, k, r: t.count("neural_autoencoder.fit_rows",
                                    len(a[1]))),
        (na, "forward", "neural_autoencoder.forward",
         lambda t, a, k, r: t.count("neural_autoencoder.forward_rows",
                                    _rows(a[1]))),
        (ens, "train_ensemble", "anomaly_ensemble.train_ensemble", None),
        (ens, "detect", "anomaly_ensemble.detect", _observe_detect),
        (ens, "fuzzy_match", "anomaly_ensemble.fuzzy_match", None),
        (ens, "save_ensemble", "anomaly_ensemble.save_ensemble", None),
        (ens, "load_ensemble", "anomaly_ensemble.load_ensemble", None),
        (ens, "evaluate", "anomaly_ensemble.evaluate", None),
        (sim, "generate", "synth_traffic.generate", None),
        (sim, "inject_attack", "synth_traffic.inject_attack", None),
        (ct.ClusterTree, "insert", "clustering_tree.insert", None),
    ]


def install(tracer: Tracer) -> None:
    """Replace each layer function, under every name an atrellis module
    binds it to (``from x import f`` makes a second binding), with its
    traced wrapper."""
    import atrellis.cli  # noqa: F401  (loads every module the CLI uses)
    modules = [m for name, m in sys.modules.items()
               if name == "atrellis" or name.startswith("atrellis.")]
    for owner, attr, name, observe in _layer_functions():
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, name, observe)
        setattr(owner, attr, wrapped)
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapped)


def reference_loop():
    """A fixed loop of the kinds of work the stages do: parse JSON packet
    lines and key them by flow, push rows through two small dense layers,
    and encode JSON.  It uses no atrellis code, so a change to the program
    does not change its time; only the host's speed does.  Returns a
    function that runs the loop once and returns its wall time (about
    50 ms on a 2-core x86-64 VM)."""
    import numpy as np
    rnd = random.Random(0)
    lines = [json.dumps({"ts": i * 0.37, "src_ip": "192.168.1.10",
                         "dst_ip": f"203.0.113.{rnd.randrange(64)}",
                         "src_port": 30000 + rnd.randrange(3000),
                         "dst_port": rnd.choice((53, 123, 443, 8883)),
                         "proto": rnd.choice(("TCP", "UDP")),
                         "length": rnd.randrange(60, 1500)})
             for i in range(4000)]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1500, 24))
    w1, w2 = rng.standard_normal((24, 12)), rng.standard_normal((12, 24))

    def once() -> float:
        start = time.perf_counter()
        flows = {}
        for line in lines:
            p = json.loads(line)
            flows.setdefault((p["proto"], p["dst_ip"], p["dst_port"],
                              p["src_port"]), []).append(p["length"])
        for row in x:
            np.tanh(np.tanh(row @ w1) @ w2)
        json.dumps([{"key": list(k), "n": len(v), "bytes": sum(v)}
                    for k, v in flows.items()])
        return time.perf_counter() - start

    once()  # warm-up
    return once


def run(invocations, traced: bool) -> dict:
    """Run CLI invocations in order, stopping at the first that fails."""
    from atrellis import cli
    # The CPUs of a shared host change speed independently, over seconds
    # to minutes; on one CPU, the reference loop sees the speed the
    # stages ran at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reference = reference_loop()
    tracer = Tracer()
    if traced:
        install(tracer)
    runs = []
    refs = [reference()]
    for argv in invocations:
        idx = tracer.begin(f"cli.{argv[0]}")
        rc = cli.main(argv)
        tracer.end(idx)
        refs.append(reference())
        runs.append({"stage": argv[0], "rc": rc, "idx": idx,
                     "ref_s": refs[-2:]})
        if rc != 0:
            break
    spans = tracer.spans
    for r in runs:
        _, start, end, _ = spans[r.pop("idx")]
        r["wall_s"] = end - start
    result = {
        "runs": runs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "atrellis_file": os.path.abspath(cli.__file__),
    }
    if traced:
        result["spans"] = summarize(spans)
        result["counters"] = tracer.counters
    return result


def main() -> int:
    out, traced, *rest = sys.argv[1:]
    invocations = []
    for arg in rest:
        if arg == "--":
            invocations.append([])
        elif invocations:
            invocations[-1].append(arg)
    if traced not in ("0", "1") or not invocations or not all(invocations):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    result = run(invocations, traced == "1")
    with open(out, "w") as fh:
        json.dump(result, fh)
    ok = len(result["runs"]) == len(invocations) and \
        all(r["rc"] == 0 for r in result["runs"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
