"""The seen/unseen protocol one video at a time, kept as the reference the
batched protocol in harness is checked against.

Each video's complement rows are ranked on their own: the video's
eligible pool is gathered from the bank's columns, scored, cut at the
k-th key with (score, video_id, clip_index) ties, and each row's set is
listed in (video_id, clip_index) order. Each video draws its rows in
order, one scalar draw at a time from the generator seeded with its
seed. The seeds, the draws and their order are those the batched
protocol must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from causalvqa.harness import ProtocolResult, evaluate
from causalvqa.mnse import Metric


def reference_topk(bank, queries, k, exclude_video_id):
    """Bank indices of each query row's k nearest eligible scenes in tie-rank
    order, k clamped to the pool size: [n_queries, k]."""
    pool = bank.eligible(exclude_video_id)
    if not len(pool):
        raise ValueError(f"no eligible bank entries for {exclude_video_id!r}")
    k = min(k, len(pool))
    if bank.metric is Metric.COSINE:
        raw = queries @ bank._matrix.T
        denom = np.linalg.norm(queries, axis=1)[:, None] * bank._norms
        keys = -np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)[:, pool]
    else:
        members = bank._matrix[pool]
        keys = np.stack([np.linalg.norm(members - q, axis=1) for q in queries])
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1]
    rank = bank._ties.rank[pool]
    top = np.empty((len(queries), k), dtype=np.int64)
    for i, row in enumerate(keys):
        cand = np.flatnonzero(row <= kth[i])
        chosen = cand[np.lexsort((rank[cand], row[cand]))[:k]]
        top[i] = chosen[np.argsort(rank[chosen])]
    return pool[top]


def reference_mnse_do(video, mask, bank, k, seed, exclude_video_id):
    video = video.copy()
    rows = np.flatnonzero(~mask)
    if len(rows):
        top = reference_topk(bank, video[rows], k, exclude_video_id)
        rng = np.random.default_rng(seed)
        picks = [int(rng.integers(0, top.shape[1])) for _ in rows]
        video[rows] = bank._matrix[top[np.arange(len(rows)), picks]]
    return video


def reference_random_do(video, mask, bank, seed, exclude_video_id):
    video = video.copy()
    rows = np.flatnonzero(~mask)
    if len(rows):
        pool = bank.eligible(exclude_video_id)
        if not len(pool):
            raise ValueError(f"no eligible bank entries for {exclude_video_id!r}")
        rng = np.random.default_rng(seed)
        picks = [int(rng.integers(0, len(pool))) for _ in rows]
        video[rows] = bank._matrix[pool[picks]]
    return video


def reference_protocol_videos(instances, masks, bank, seed, k):
    """(MNSE videos, random videos), one video at a time with seed
    seed * 1009 + i for video i."""
    masks = np.asarray(masks, dtype=bool)
    mnse_videos, random_videos = [], []
    for i, inst in enumerate(instances):
        s = seed * 1009 + i
        mnse_videos.append(reference_mnse_do(inst.video, masks[i], bank, k, s, inst.video_id))
        random_videos.append(reference_random_do(inst.video, masks[i], bank, s, inst.video_id))
    return mnse_videos, random_videos


def reference_protocol(model_a, model_b, instances, masks, bank, seed=0, neighbor_k=1):
    mnse_videos, random_videos = reference_protocol_videos(
        instances, masks, bank, seed, neighbor_k
    )
    clean = (evaluate(model_a, instances), evaluate(model_b, instances))
    seen = (evaluate(model_a, instances, mnse_videos), evaluate(model_b, instances, random_videos))
    unseen = (
        evaluate(model_a, instances, random_videos), evaluate(model_b, instances, mnse_videos)
    )
    deltas = {
        "drop_a_seen": clean[0].overall - seen[0].overall,
        "drop_b_seen": clean[1].overall - seen[1].overall,
        "drop_a_unseen": clean[0].overall - unseen[0].overall,
        "drop_b_unseen": clean[1].overall - unseen[1].overall,
    }
    return ProtocolResult(clean=clean, seen=seen, unseen=unseen, deltas=deltas)
