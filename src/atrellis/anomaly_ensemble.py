"""Two-stage anomaly detector.

Stage 1 fuzzy-matches a flow's 5-tuple against the device's abstract
activity keys (protocol, remote pattern, source class and destination
port); a flow matching no key is immediately malicious.  Stage 2
scores the flow with only the autoencoder submodels of the matched keys
(trigger-action) and compares the best (minimum) reconstruction error
against that submodel's calibrated threshold.  A batch of flows is judged
with one feature matrix and one batched forward per matched key.
Training routes its flows through the same stage 1, so each submodel
learns from the flows that stage 1 will send to it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .clustering_tree import (ActivityProfile, _flow_sort_key,
                              activity_key_from_dict, activity_key_to_dict,
                              keying_from_dict, keying_to_dict, src_class)
from .errors import (EmptyActivity, EmptyErrors, EmptyFlow, LengthMismatch,
                     SchemaError, check, check_schema_version)
from .feature_pipeline import featurize_many
from .neural_autoencoder import (AEArchitecture, AEModel, fit_many,
                                 init_model, model_from_dict, model_to_dict,
                                 reconstruction_error)
from .traffic_model import (_PORT, _STRING, _UINT, BC_MC, COUNT, DOMAIN,
                            LOCAL_IP, PROTOCOLS, REMOTE_IP, FlowKey, Remote,
                            _json_str, read_json, read_jsonl)

ENSEMBLE_SCHEMA_VERSION = "6.0"

STAGE1_MALICIOUS = "stage1_malicious"
ANOMALOUS = "anomalous"
BENIGN = "benign"
VERDICT_KINDS = (STAGE1_MALICIOUS, ANOMALOUS, BENIGN)
_VERDICT_FIELDS = {"kind": frozenset(VERDICT_KINDS), "flow_key": dict,
                   "models_triggered": int}
_OPTIONAL_VERDICT_FIELDS = {"activity": int, "score": float, "reason": str}


class Verdict(NamedTuple):
    kind: str
    flow: FlowKey
    models_triggered: int
    score: Optional[float] = None       # min reconstruction error, stage 2
    activity: Optional[int] = None      # index of the judging key
    reason: Optional[str] = None        # stage-1 failure description


@dataclass
class Ensemble:
    """``submodels[j]`` is the (model, threshold) of ``profile.keys[j]``."""

    profile: ActivityProfile
    submodels: List[Tuple[AEModel, float]]
    arch: AEArchitecture


# stage 1's four levels, in order: each tests an activity key against a
# flow key
_STAGE1_LEVELS = (
    ("protocol", lambda k, f: k.proto == f.proto),
    ("remote", lambda k, f: k.remote_pattern.matches(f.remote)),
    ("src-port", lambda k, f: k.src == src_class(f.src_port)),
    ("dst-port", lambda k, f: k.dst_port == f.dst_port),
)


def fuzzy_match(profile: ActivityProfile, key: FlowKey
                ) -> Tuple[List[int], Optional[str]]:
    """Stage 1's decision on a flow: the positions of the activity keys
    that accept it at every level, and, when none does, the reason, which
    names the level at which the last candidates were ruled out."""
    keys = profile.keys
    candidates = range(len(keys))
    for name, accept in _STAGE1_LEVELS:
        candidates = [j for j in candidates if accept(keys[j], key)]
        if not candidates:
            return [], f"no activity key accepts the flow at the {name} level"
    return candidates, None


def stage1(profile: ActivityProfile, keys: Iterable[FlowKey]
           ) -> List[Tuple[List[int], Optional[str]]]:
    """Each flow's stage-1 decision (fuzzy_match).  Stage 1 reads a flow
    only through its signature: the protocol, the remote (its value only
    for a domain), and the src_class of its source port and its
    destination port, each where a key holds it (else every key fails that
    level).  Flows of one signature share one decision, made once."""
    src_held = {k.src for k in profile.keys}
    dst_held = {k.dst_port for k in profile.keys}
    decided: Dict[tuple, Tuple[List[int], Optional[str]]] = {}
    decisions = []
    for flow_key in keys:
        remote = flow_key.remote
        src, dst = src_class(flow_key.src_port), flow_key.dst_port
        signature = (flow_key.proto,
                     remote if remote.kind == DOMAIN else remote.kind,
                     src if src in src_held else None,
                     dst if dst in dst_held else None)
        decision = decided.get(signature)
        if decision is None:
            decision = decided[signature] = fuzzy_match(profile, flow_key)
        decisions.append(decision)
    return decisions


def threshold_rank(n: int, q: float) -> int:
    """The rank k of a key's threshold among its n training errors:
    min(n, ceil((n + 1)·q)), the split-conformal rank."""
    return min(n, math.ceil((n + 1) * q))


def calibrate_threshold(errors: Sequence[float], q: float) -> float:
    """The k-th smallest of the n training errors, k = threshold_rank(n,
    q), floored at 1e-9 so a perfectly memorized activity still has a
    usable threshold.  A fresh error exchangeable with the training errors
    exceeds it with probability at most 1 − q whenever ceil((n + 1)·q) <=
    n.  Otherwise k = n: the threshold is the largest error, and the least
    such probability is 1/(n + 1)."""
    if len(errors) == 0:
        raise EmptyErrors("no training errors to calibrate on")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0,1), got {q}")
    k = threshold_rank(len(errors), q)
    ranked = np.partition(np.asarray(errors, dtype=float), k - 1)
    return max(float(ranked[k - 1]), 1e-9)


def train_ensemble(profile: ActivityProfile,
                   training_flows: Dict[FlowKey, list],
                   arch: AEArchitecture, epochs: int, q: float,
                   seed: int = 0) -> Tuple[Ensemble, int, List[int]]:
    """Fit one autoencoder per activity key on the training flows that
    stage 1 accepts on it (a flow that several keys accept trains each of
    them), all keys together (fit_many), and calibrate its threshold on the
    training reconstruction errors.  A key's flows go in _flow_sort_key
    order, the order of its member flows.  Returns the ensemble, the
    number of training flows that no key accepts and the number of flows
    each key trained on."""
    keys = sorted(training_flows, key=_flow_sort_key)
    routed: List[List[list]] = [[] for _ in profile.keys]
    unmatched = 0
    for flow_key, (matched, _) in zip(keys, stage1(profile, keys)):
        unmatched += not matched
        for j in matched:
            routed[j].append(training_flows[flow_key])
    for i, flows in enumerate(routed):
        if not flows:
            raise EmptyActivity(f"activity key {i} matches no flow of the "
                                f"training trace")
    fitted = fit_many(((init_model(arch, seed + i), seed + i)
                       for i in range(len(routed))),
                      [featurize_many(flows, arch.r) for flows in routed],
                      epochs)
    submodels = [(model, calibrate_threshold(errors, q))
                 for model, errors in fitted]
    return (Ensemble(profile, submodels, arch), unmatched,
            [len(flows) for flows in routed])


def detect_flows(ensemble: Ensemble, keys: Sequence[FlowKey],
                 table: Dict[FlowKey, list]) -> List[Verdict]:
    """Two-stage verdicts for the flows ``keys`` (records in ``table``), in
    that order.  Stage 1 decides each flow with stage1.  Stage 2 featurizes
    every matched flow into one matrix and makes one batched forward per
    activity key; each flow is judged by its matched key with the least
    error, the first in profile order on a tie."""
    verdicts: List[Optional[Verdict]] = [None] * len(keys)
    stage2: List[int] = []
    triggered: List[int] = []
    rows_of: Dict[int, List[int]] = {}
    for i, (flow_key, (matched, reason)) in enumerate(
            zip(keys, stage1(ensemble.profile, keys))):
        if not table[flow_key][COUNT]:
            raise EmptyFlow("cannot judge an empty flow")
        if not matched:
            verdicts[i] = Verdict(STAGE1_MALICIOUS, flow_key, 0,
                                  reason=reason)
            continue
        for j in matched:
            rows_of.setdefault(j, []).append(len(stage2))
        stage2.append(i)
        triggered.append(len(matched))

    X = featurize_many([table[keys[i]] for i in stage2], ensemble.arch.r)
    best_score = np.full(len(stage2), np.inf)
    best_column = np.zeros(len(stage2), dtype=np.intp)
    for j in sorted(rows_of):
        rows = np.asarray(rows_of[j])
        model, _ = ensemble.submodels[j]
        errors = reconstruction_error(model, X[rows])
        better = errors < best_score[rows]
        best_score[rows[better]] = errors[better]
        best_column[rows[better]] = j

    for row, i in enumerate(stage2):
        j = int(best_column[row])
        score = float(best_score[row])
        epsilon = ensemble.submodels[j][1]
        kind = ANOMALOUS if score > epsilon else BENIGN
        verdicts[i] = Verdict(kind, keys[i], triggered[row], score=score,
                              activity=j)
    return verdicts


def detect(ensemble: Ensemble, flow_key: FlowKey, flow: list) -> Verdict:
    """Two-stage verdict for one flow: the batch of one of detect_flows."""
    return detect_flows(ensemble, [flow_key], {flow_key: flow})[0]


def _auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Rank-based AUC (ties get mid-ranks); degenerate classes give 0.5."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    # a run of c equal scores ending at rank e shares rank e - (c - 1) / 2
    _, group, counts = np.unique(scores, return_inverse=True,
                                 return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return (float(ranks[positive].sum()) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg)


def verdict_score(v: Verdict) -> float:
    """Scalar anomaly score for ranking: stage-1 rejects rank above all
    stage-2 scores."""
    return float("inf") if v.kind == STAGE1_MALICIOUS else float(v.score)


def evaluate(verdicts: Sequence[Verdict],
             labels: Sequence[str]) -> dict:
    """TPR/FPR at the operating point plus ranking AUC, overall and per
    attack kind.  ``labels`` holds one ground truth per verdict: "benign"
    or "attack:<kind>"."""
    if len(verdicts) != len(labels):
        raise LengthMismatch(f"{len(verdicts)} verdicts vs "
                             f"{len(labels)} labels")
    flagged = np.array([v.kind != BENIGN for v in verdicts], dtype=bool)
    is_attack = np.array([lab != "benign" for lab in labels], dtype=bool)
    scores = np.array([verdict_score(v) for v in verdicts])

    n_attack = int(is_attack.sum())
    n_benign = int((~is_attack).sum())
    tpr = float((flagged & is_attack).sum() / n_attack) if n_attack else 0.0
    fpr = float((flagged & ~is_attack).sum() / n_benign) if n_benign else 0.0

    per_attack = {}
    kinds = sorted({lab.split(":", 1)[1] for lab in labels
                    if lab.startswith("attack:")})
    for kind in kinds:
        mask = np.array([lab == f"attack:{kind}" for lab in labels])
        subset = mask | ~is_attack
        per_attack[kind] = {
            "count": int(mask.sum()),
            "tpr": float((flagged & mask).sum() / mask.sum()),
            "auc": _auc(scores[subset], mask[subset]),
        }
    return {
        "tpr": tpr,
        "fpr": fpr,
        "auc": _auc(scores, is_attack),
        "n_attack": n_attack,
        "n_benign": n_benign,
        "per_attack": per_attack,
    }


# --- serialization --------------------------------------------------------

_REMOTE_KINDS = frozenset({DOMAIN, REMOTE_IP, LOCAL_IP, BC_MC})
_FLOW_KEY_FIELDS = {
    "device_ip": str, "remote": {"kind": _REMOTE_KINDS, "value": str},
    "src_port": _PORT, "dst_port": _PORT, "proto": frozenset(PROTOCOLS)}


def flow_key_to_dict(f: FlowKey) -> dict:
    """A verdict's flow key as an object, the one verdict_line writes."""
    return {"device_ip": f.device_ip,
            "remote": {"kind": f.remote.kind, "value": f.remote.value},
            "src_port": f.src_port, "dst_port": f.dst_port, "proto": f.proto}


def flow_key_from_dict(d, what: str) -> FlowKey:
    """The flow key that ``d`` holds; ``check`` names its first bad
    field."""
    remote = check(d, _FLOW_KEY_FIELDS, what)["remote"]
    return FlowKey(d["device_ip"], Remote(remote["kind"], remote["value"]),
                   d["src_port"], d["dst_port"], d["proto"])


def verdict_line(v: Verdict) -> str:
    """``json.dumps`` of the verdict's object plus a newline: its flow key,
    kind and models_triggered, then activity, score and reason when set.
    Numbers are written with ``repr``, as json writes a finite float or an
    int; a non-finite score is written as json writes it."""
    flow, remote = v.flow, v.flow.remote
    tail = ""
    if v.activity is not None:
        tail = f', "activity": {v.activity!r}'
    if v.score is not None:
        score = v.score
        text = repr(score) if math.isfinite(score) else json.dumps(score)
        tail += f', "score": {text}'
    if v.reason is not None:
        tail += f', "reason": {_json_str(v.reason)}'
    return (f'{{"flow_key": {{"device_ip": {_json_str(flow.device_ip)}, '
            f'"remote": {{"kind": {_json_str(remote.kind)}, '
            f'"value": {_json_str(remote.value)}}}, '
            f'"src_port": {flow.src_port!r}, "dst_port": {flow.dst_port!r}, '
            f'"proto": {_json_str(flow.proto)}}}, '
            f'"kind": {_json_str(v.kind)}, '
            f'"models_triggered": {v.models_triggered!r}{tail}}}\n')


# The lines verdict_line writes, and no others: the fields in its order,
# strings as _STRING takes them, ports, counts and key positions
# unsigned integers without leading zeros, and the score an unsigned JSON
# number with a fraction or an exponent, so that each group converts to
# the value and type the JSON parse would give.  A line in any other form
# is left to the JSON parse.
_VERDICT_LINE = re.compile(
    rf'\{{"flow_key": \{{"device_ip": {_STRING}, "remote": \{{"kind": '
    rf'{_STRING}, "value": {_STRING}\}}, "src_port": {_UINT}, "dst_port": '
    rf'{_UINT}, "proto": {_STRING}\}}, "kind": {_STRING}, '
    rf'"models_triggered": {_UINT}(?:, "activity": {_UINT})?'
    r'(?:, "score": ((?:0|[1-9][0-9]*)'
    r'(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)))?'
    rf'(?:, "reason": {_STRING})?\}}')


def _verdict_of_line(line: str) -> Optional[Verdict]:
    """The verdict of a stripped line in verdict_line's form, or None if the
    line is in another form or a value fails verdict_from_dict's checks;
    the JSON parse then reads the line and alone raises, so each error
    keeps its message."""
    m = _VERDICT_LINE.fullmatch(line)
    if m is None:
        return None
    (device_ip, remote_kind, remote_value, src_port, dst_port, proto, kind,
     triggered, activity, score, reason) = m.groups()
    try:
        src_port, dst_port, triggered = (int(src_port), int(dst_port),
                                         int(triggered))
        if activity is not None:
            activity = int(activity)
    except ValueError:          # more digits than int() converts
        return None
    if score is not None:
        score = float(score)
    if not (kind in VERDICT_KINDS and remote_kind in _REMOTE_KINDS
            and src_port <= 65535 and dst_port <= 65535
            and proto in PROTOCOLS
            and (kind == STAGE1_MALICIOUS
                 or score is not None and math.isfinite(score))):
        return None
    return Verdict(kind, FlowKey(device_ip, Remote(remote_kind, remote_value),
                                 src_port, dst_port, proto),
                   triggered, score, activity, reason)


def verdict_from_dict(d) -> Verdict:
    """The verdict of a ``verdict_line`` object; ``check`` names its first
    bad field."""
    check(d, _VERDICT_FIELDS, "verdict", _OPTIONAL_VERDICT_FIELDS)
    if d["kind"] != STAGE1_MALICIOUS and not math.isfinite(
            d.get("score", math.nan)):
        raise SchemaError(f"verdict: a {d['kind']} verdict needs a "
                          f"finite score, got {d.get('score')}")
    flow = flow_key_from_dict(d["flow_key"], "verdict flow_key")
    return Verdict(d["kind"], flow, d["models_triggered"],
                   *(d.get(name) for name in ("score", "activity", "reason")))


def read_verdicts_jsonl(path, join=lambda v: v) -> Iterator[Verdict]:
    """Yield ``join(verdict)`` for each verdict of a verdicts file.  A line
    in the form that verdict_line writes is read without the JSON parse.  A
    line that is not one valid verdict object, or whose verdict ``join``
    refuses with a ValueError, raises the error named at its line."""
    yield from read_jsonl(
        path, lambda obj: join(verdict_from_dict(obj)),
        lambda line: (v := _verdict_of_line(line)) and join(v))


def ensemble_from_dict(doc) -> Ensemble:
    check_schema_version(doc, ENSEMBLE_SCHEMA_VERSION, "ensemble")
    device_ip, prefixes = keying_from_dict(doc, "ensemble")
    check(doc, {"r": int, "submodels": list}, "ensemble")
    try:
        arch = AEArchitecture(doc["r"])
    except ValueError as exc:
        raise SchemaError(f"ensemble: {exc}") from None
    keys, submodels = [], []
    for j, entry in enumerate(doc["submodels"]):
        what = f"ensemble submodel {j}"
        keys.append(activity_key_from_dict(entry, what))
        eps = check(entry, {"model": dict, "epsilon": float}, what)["epsilon"]
        if not 0 < eps < math.inf:
            raise SchemaError(f"{what}: epsilon {eps} is not in (0, inf)")
        submodels.append((model_from_dict(entry["model"], arch, what), eps))
    return Ensemble(ActivityProfile(device_ip, keys, prefixes), submodels,
                    arch)


def save_ensemble(path, e: Ensemble) -> None:
    """Write the ensemble's object as ``json.dump`` would: the keying, r,
    and one entry per submodel, its key's four fields, model and epsilon.
    The entries are encoded one at a time, so that only one submodel's
    encoded weights are held at once."""
    head = json.dumps({"schema_version": ENSEMBLE_SCHEMA_VERSION,
                       **keying_to_dict(e.profile), "r": e.arch.r,
                       "submodels": []})
    with open(path, "w") as fh:
        fh.write(head[:-len("]}")])     # up to the list's opening "["
        for j, (key, (model, epsilon)) in enumerate(
                zip(e.profile.keys, e.submodels)):
            fh.write(", " * (j > 0) + json.dumps({
                **activity_key_to_dict(key), "model": model_to_dict(model),
                "epsilon": epsilon}))
        fh.write("]}\n")


def load_ensemble(path) -> Ensemble:
    return read_json(path, ensemble_from_dict)
