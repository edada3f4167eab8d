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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clustering_tree import (ActivityKey, ActivityProfile,
                              activity_key_from_dict, activity_key_to_dict,
                              check_schema_version, flow_key_to_dict,
                              tree_path_of)
from .errors import (EmptyActivity, EmptyErrors, EmptyFlow, LengthMismatch,
                     SchemaError)
from .feature_pipeline import FeatureConfig, featurize_many
from .neural_autoencoder import (AEArchitecture, AEModel, TrainConfig, fit,
                                 init_model, model_from_dict, model_to_dict,
                                 reconstruction_error)
from .traffic_model import FlowKey, PacketRecord

ENSEMBLE_SCHEMA_VERSION = "1.0"

STAGE1_MALICIOUS = "stage1_malicious"
ANOMALOUS = "anomalous"
BENIGN = "benign"


@dataclass(frozen=True)
class ThresholdConfig:
    q: float = 0.995

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"quantile must be in (0,1), got {self.q}")


@dataclass(frozen=True)
class Verdict:
    kind: str
    flow: FlowKey
    models_triggered: int
    score: Optional[float] = None       # min reconstruction error, stage 2
    activity: Optional[int] = None      # index of the judging key
    reason: Optional[str] = None        # stage-1 failure description


@dataclass
class Ensemble:
    profile: ActivityProfile
    submodels: Dict[ActivityKey, Tuple[AEModel, float]]
    feature_config: FeatureConfig


def fuzzy_match(profile: ActivityProfile, key: FlowKey) -> List[ActivityKey]:
    """Every activity key whose fields all accept the flow."""
    return [k for k in profile.keys
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
    candidates = list(profile.keys)
    for name, accept in levels:
        surviving = [k for k in candidates if accept(k)]
        if not surviving:
            return f"no activity key accepts the flow at the {name} level"
        candidates = surviving
    return "no activity key accepts the flow"


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
                   fcfg: FeatureConfig,
                   tcfg: TrainConfig = TrainConfig(),
                   thcfg: ThresholdConfig = ThresholdConfig(),
                   seed: int = 0) -> Ensemble:
    """Fit one autoencoder per activity key on its member flows and
    calibrate its threshold on the training reconstruction errors."""
    arch = AEArchitecture(input_len=2 * fcfg.r)
    submodels: Dict[ActivityKey, Tuple[AEModel, float]] = {}
    for i, key in enumerate(profile.keys):
        flows = [training_flows[f] for f in key.member_flows
                 if f in training_flows and training_flows[f]]
        if not flows:
            raise EmptyActivity(f"activity key {i} has no trainable flows")
        model = init_model(arch, seed + i)
        model, errors = fit(model, featurize_many(flows, fcfg), tcfg)
        submodels[key] = (model, calibrate_threshold(errors, thcfg.q))
    return Ensemble(profile, submodels, fcfg)


def detect_flows(ensemble: Ensemble, keys: Sequence[FlowKey],
                 table: Dict[FlowKey, Sequence[PacketRecord]]
                 ) -> List[Verdict]:
    """Two-stage verdicts for the flows ``keys`` (packets in ``table``), in
    that order.  Stage 1 runs per flow.  Stage 2 featurizes every matched
    flow into one matrix and makes one batched forward per activity key;
    each flow is judged by its matched key with the least error, the first
    in profile order on a tie."""
    profile = ensemble.profile
    column: Dict[ActivityKey, int] = {}
    for j, key in enumerate(profile.keys):
        column.setdefault(key, j)
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
        for key in matched:
            rows_of.setdefault(column[key], []).append(len(stage2))
        stage2.append(i)
        triggered.append(len(matched))

    X = featurize_many([table[keys[i]] for i in stage2],
                       ensemble.feature_config)
    best_score = np.full(len(stage2), np.inf)
    best_column = np.zeros(len(stage2), dtype=np.intp)
    for j in sorted(rows_of):
        rows = np.asarray(rows_of[j])
        model, _ = ensemble.submodels[profile.keys[j]]
        errors = reconstruction_error(model, X[rows])
        better = errors < best_score[rows]
        best_score[rows[better]] = errors[better]
        best_column[rows[better]] = j

    for row, i in enumerate(stage2):
        j = int(best_column[row])
        score = float(best_score[row])
        epsilon = ensemble.submodels[profile.keys[j]][1]
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
    flagged = np.array([v.kind != BENIGN for v in verdicts])
    is_attack = np.array([lab != "benign" for lab in labels])
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

def verdict_to_dict(v: Verdict) -> dict:
    d = {"flow_key": flow_key_to_dict(v.flow), "kind": v.kind,
         "models_triggered": v.models_triggered}
    if v.activity is not None:
        d["activity"] = v.activity
    if v.score is not None:
        d["score"] = v.score
    if v.reason is not None:
        d["reason"] = v.reason
    return d


def ensemble_to_dict(e: Ensemble) -> dict:
    from .clustering_tree import profile_to_dict
    entries = []
    for i, key in enumerate(e.profile.keys):
        model, epsilon = e.submodels[key]
        entries.append({"key_index": i,
                        "model": model_to_dict(model),
                        "epsilon": epsilon})
    return {
        "schema_version": ENSEMBLE_SCHEMA_VERSION,
        "profile": profile_to_dict(e.profile),
        "feature_config": {"r": e.feature_config.r,
                           "max_len": e.feature_config.max_len,
                           "max_gap": e.feature_config.max_gap},
        "submodels": entries,
    }


def ensemble_from_dict(doc: dict) -> Ensemble:
    from .clustering_tree import profile_from_dict
    check_schema_version(doc, ENSEMBLE_SCHEMA_VERSION, "ensemble")
    profile = profile_from_dict(doc["profile"])
    if "feature_config" not in doc:
        raise SchemaError("ensemble: missing field feature_config")
    try:
        fcfg = FeatureConfig(**doc["feature_config"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"ensemble feature_config: {exc}") from None
    n = len(profile.keys)
    if len(doc["submodels"]) != n:
        raise LengthMismatch("submodel count does not match profile keys")
    submodels = {}
    seen = set()
    for entry in doc["submodels"]:
        i = entry.get("key_index")
        if type(i) is not int or not 0 <= i < n:
            raise SchemaError(f"ensemble: key_index {i!r} is not an index "
                              f"of the {n} profile keys")
        if i in seen:
            raise SchemaError(f"ensemble: key_index {i} appears twice")
        seen.add(i)
        submodels[profile.keys[i]] = (model_from_dict(entry["model"]),
                                      float(entry["epsilon"]))
    return Ensemble(profile, submodels, fcfg)


def save_ensemble(path, e: Ensemble) -> None:
    with open(path, "w") as fh:
        json.dump(ensemble_to_dict(e), fh)
        fh.write("\n")


def load_ensemble(path) -> Ensemble:
    with open(path) as fh:
        return ensemble_from_dict(json.load(fh))
