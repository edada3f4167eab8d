"""Two-stage anomaly detector.

Stage 1 fuzzy-matches a flow's 5-tuple against the device's abstract
activity keys; a flow matching no key is immediately malicious.  Stage 2
scores the flow with only the autoencoder submodels of the matched keys
(trigger-action) and compares the best (minimum) reconstruction error
against that submodel's calibrated threshold.  A batch of flows is judged
with one feature matrix and one batched forward per matched key.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .clustering_tree import (_REMOTE_KINDS, ActivityProfile,
                              activity_key_from_dict, activity_key_to_dict,
                              flow_key_from_dict, keying_from_dict,
                              keying_to_dict)
from .errors import (EmptyActivity, EmptyErrors, EmptyFlow, LengthMismatch,
                     SchemaError, check, check_schema_version)
from .feature_pipeline import featurize_many
from .neural_autoencoder import (AEArchitecture, AEModel, fit, init_model,
                                 model_from_dict, model_to_dict,
                                 reconstruction_error)
from .traffic_model import (_STRING, _UINT, PROTOCOLS, FlowKey, PacketRecord,
                            Remote, _json_str, read_json, read_jsonl)

ENSEMBLE_SCHEMA_VERSION = "4.0"

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


def fuzzy_match(profile: ActivityProfile, key: FlowKey) -> List[int]:
    """The positions of every activity key whose fields all accept the
    flow."""
    return [j for j, k in enumerate(profile.keys)
            if k.proto == key.proto
            and k.remote_pattern.matches(key.remote)
            and k.src_port_pattern.matches(key.src_port)
            and k.dst_port_pattern.matches(key.dst_port)]


def _stage1_reason(profile: ActivityProfile, key: FlowKey) -> str:
    """Name which of the four levels ruled out every key."""
    levels = [
        ("protocol", lambda k: k.proto == key.proto),
        ("remote", lambda k: k.remote_pattern.matches(key.remote)),
        ("src-port", lambda k: k.src_port_pattern.matches(key.src_port)),
        ("dst-port", lambda k: k.dst_port_pattern.matches(key.dst_port)),
    ]
    candidates = profile.keys
    for name, accept in levels:
        candidates = [k for k in candidates if accept(k)]
        if not candidates:
            break
    return f"no activity key accepts the flow at the {name} level"


def calibrate_threshold(errors: Sequence[float], q: float) -> float:
    """q-quantile (linear interpolation) of training errors, floored at
    1e-9 so a perfectly memorized activity still has a usable threshold."""
    if len(errors) == 0:
        raise EmptyErrors("no training errors to calibrate on")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0,1), got {q}")
    return max(float(np.quantile(np.asarray(errors, dtype=float), q)), 1e-9)


def train_ensemble(profile: ActivityProfile,
                   training_flows: Dict[FlowKey, List[PacketRecord]],
                   arch: AEArchitecture, epochs: int, q: float,
                   seed: int = 0) -> Ensemble:
    """Fit one autoencoder per activity key on its member flows and
    calibrate its threshold on the training reconstruction errors."""
    submodels = []
    for i, key in enumerate(profile.keys):
        flows = [training_flows[f] for f in key.member_flows
                 if f in training_flows and training_flows[f]]
        if not flows:
            raise EmptyActivity(f"activity key {i} has no trainable flows")
        model = init_model(arch, seed + i)
        model, errors = fit(model, featurize_many(flows, arch.r), epochs)
        submodels.append((model, calibrate_threshold(errors, q)))
    return Ensemble(profile, submodels, arch)


def detect_flows(ensemble: Ensemble, keys: Sequence[FlowKey],
                 table: Dict[FlowKey, Sequence[PacketRecord]]
                 ) -> List[Verdict]:
    """Two-stage verdicts for the flows ``keys`` (packets in ``table``), in
    that order.  Stage 1 runs per flow.  Stage 2 featurizes every matched
    flow into one matrix and makes one batched forward per activity key;
    each flow is judged by its matched key with the least error, the first
    in profile order on a tie."""
    profile = ensemble.profile
    verdicts: List[Optional[Verdict]] = [None] * len(keys)
    stage2: List[int] = []
    triggered: List[int] = []
    rows_of: Dict[int, List[int]] = {}
    for i, flow_key in enumerate(keys):
        if not table[flow_key]:
            raise EmptyFlow("cannot judge an empty flow")
        matched = fuzzy_match(profile, flow_key)
        if not matched:
            verdicts[i] = Verdict(STAGE1_MALICIOUS, flow_key, 0,
                                  reason=_stage1_reason(profile, flow_key))
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


def detect(ensemble: Ensemble, flow_key: FlowKey,
           flow_packets: Sequence[PacketRecord]) -> Verdict:
    """Two-stage verdict for one flow: the batch of one of detect_flows."""
    return detect_flows(ensemble, [flow_key], {flow_key: flow_packets})[0]


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


def read_verdicts_jsonl(path) -> Iterator[Verdict]:
    """Yield the verdicts of a verdicts file.  A line in the form that
    verdict_line writes is read without the JSON parse.  A line that is not
    one valid verdict object raises SchemaError("PATH:LINE: reason")."""
    yield from read_jsonl(path, verdict_from_dict, _verdict_of_line)


def ensemble_to_dict(e: Ensemble) -> dict:
    return {
        "schema_version": ENSEMBLE_SCHEMA_VERSION,
        **keying_to_dict(e.profile),
        "r": e.arch.r,
        "submodels": [{**activity_key_to_dict(key),
                       "model": model_to_dict(model),
                       "epsilon": epsilon}
                      for key, (model, epsilon)
                      in zip(e.profile.keys, e.submodels)],
    }


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
        submodels.append((model_from_dict(entry["model"], arch), eps))
    return Ensemble(ActivityProfile(device_ip, keys, prefixes), submodels,
                    arch)


def save_ensemble(path, e: Ensemble) -> None:
    with open(path, "w") as fh:
        json.dump(ensemble_to_dict(e), fh)
        fh.write("\n")


def load_ensemble(path) -> Ensemble:
    return ensemble_from_dict(read_json(path))
