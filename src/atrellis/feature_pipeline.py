"""Flow-to-vector preprocessing: segmentation, characterization, filling,
normalization.

A flow's first r packets yield r normalized IP lengths followed by r
normalized inter-arrival gaps (first gap 0); short flows are zero-padded.
Lengths scale linearly by MAX_LEN; gaps scale as log(1+gap)/log(1+MAX_GAP)
so that millisecond and minute gaps both stay resolvable.  Everything is
clipped to [0, 1].  A flow is read from its FlowTable record.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .errors import EmptyFlow, UnorderedTimestamps
from .traffic_model import COUNT, PAIRS

MAX_LEN = 1500.0        # bytes: the Ethernet MTU
MAX_GAP = 60.0          # seconds


def featurize(flow: list, r: int) -> np.ndarray:
    """Feature vector of one flow, 2r values in [0,1]: r normalized lengths
    then r normalized gaps; the row of featurize_many's batch of one."""
    return featurize_many([flow], r)[0]


def featurize_many(flows: Sequence[list], r: int) -> np.ndarray:
    """(N, 2r) matrix whose row i is the feature vector of the record
    flows[i]; a record that holds fewer (ts, length) pairs than min(count,
    r), as a table of a smaller r makes, raises a ValueError."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    end = PAIRS + 2 * r
    held = np.array([(min(len(flow), end) - PAIRS) // 2 for flow in flows],
                    dtype=np.intp)
    for flow, n in zip(flows, held.tolist()):
        if n < min(flow[COUNT], r):
            raise ValueError(f"a flow record holds {n} of its {flow[COUNT]} "
                             f"packets; featurize at r={r} needs a table "
                             f"of r >= {r}")
    if not held.all():
        raise EmptyFlow("cannot featurize an empty flow")
    pairs = np.fromiter(chain.from_iterable(flow[PAIRS:end] for flow in flows),
                        dtype=float, count=2 * int(held.sum())).reshape(-1, 2)
    valid = np.arange(r) < held[:, None]
    ts = np.zeros((len(flows), r))
    ts[valid] = pairs[:, 0]
    gaps = np.zeros((len(flows), r))
    gaps[:, 1:] = np.where(valid[:, 1:], ts[:, 1:] - ts[:, :-1], 0.0)
    if np.any(gaps < 0):
        raise UnorderedTimestamps("flow packets must be time-ordered")

    lengths = np.zeros((len(flows), r))
    lengths[valid] = pairs[:, 1]
    lengths = np.clip(lengths / MAX_LEN, 0.0, 1.0)
    gaps = np.clip(np.log1p(gaps) / np.log1p(MAX_GAP), 0.0, 1.0)
    return np.concatenate([lengths, gaps], axis=1)
