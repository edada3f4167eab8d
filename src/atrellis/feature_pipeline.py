"""Flow-to-vector preprocessing: segmentation, characterization, filling,
normalization.

A flow's first r packets yield r normalized IP lengths followed by r
normalized inter-arrival gaps (first gap 0); short flows are zero-padded.
Lengths scale linearly by MAX_LEN; gaps scale as log(1+gap)/log(1+MAX_GAP)
so that millisecond and minute gaps both stay resolvable.  Everything is
clipped to [0, 1].
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import EmptyFlow, UnorderedTimestamps
from .traffic_model import PacketRecord

MAX_LEN = 1500.0        # bytes: the Ethernet MTU
MAX_GAP = 60.0          # seconds


def featurize(flow_packets: Sequence[PacketRecord], r: int) -> np.ndarray:
    """Feature vector of one flow, 2r values in [0,1]: r normalized lengths
    then r normalized gaps; the row of featurize_many's batch of one."""
    return featurize_many([flow_packets], r)[0]


def featurize_many(flows: Sequence[Sequence[PacketRecord]],
                   r: int) -> np.ndarray:
    """(N, 2r) matrix whose row i is the feature vector of flows[i]."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    heads = [flow[:r] for flow in flows]
    counts = np.fromiter(map(len, heads), dtype=np.intp, count=len(heads))
    if not counts.all():
        raise EmptyFlow("cannot featurize an empty flow")
    packets = [p for head in heads for p in head]
    valid = np.arange(r) < counts[:, None]
    ts = np.zeros((len(heads), r))
    ts[valid] = np.fromiter((p.ts for p in packets), dtype=float,
                            count=len(packets))
    gaps = np.zeros((len(heads), r))
    gaps[:, 1:] = np.where(valid[:, 1:], ts[:, 1:] - ts[:, :-1], 0.0)
    if np.any(gaps < 0):
        raise UnorderedTimestamps("flow packets must be time-ordered")

    lengths = np.zeros((len(heads), r))
    lengths[valid] = np.fromiter((p.length for p in packets), dtype=float,
                                 count=len(packets))
    lengths = np.clip(lengths / MAX_LEN, 0.0, 1.0)
    gaps = np.clip(np.log1p(gaps) / np.log1p(MAX_GAP), 0.0, 1.0)
    return np.concatenate([lengths, gaps], axis=1)

