"""The seen/unseen protocol one video at a time, kept as the reference the
batched protocol in harness is checked against.

Each video's complement rows are ranked on their own: the video's
eligible pool is gathered from the bank's columns, scored, cut at the
k-th key with (score, video_id, clip_index) ties, and each row's set is
listed in (video_id, clip_index) order. One generator seeded with the
protocol's seed makes every draw, one scalar draw per replaced row in
row-major order: every nearest-scene draw, then every uniform draw. The
seed, the draws and their order are those the batched protocol must
reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from causalvqa.harness import ProtocolResult, evaluate
from causalvqa.mnse import Metric


def reference_pool(bank, exclude_video_id):
    """Bank indices of every scene a draw excluding this video may take:
    each scene whose "+"-joined video id does not name it."""
    return np.array([i for i, e in enumerate(bank.entries())
                     if exclude_video_id not in e.video_id.split("+")], dtype=np.int64)


def reference_topk(bank, queries, k, exclude_video_id):
    """Bank indices of each query row's k nearest eligible scenes in tie-rank
    order, k clamped to the pool size: [n_queries, k]."""
    pool = reference_pool(bank, exclude_video_id)
    if not len(pool):
        raise ValueError(f"no eligible bank entries for {exclude_video_id!r}")
    k = min(k, len(pool))
    if bank.metric is Metric.COSINE:
        raw = queries @ bank._columns
        denom = np.linalg.norm(queries, axis=1)[:, None] * bank._norms
        keys = -np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)[:, pool]
    else:
        members = bank._columns.T[pool]
        keys = np.stack([np.linalg.norm(members - q, axis=1) for q in queries])
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1]
    rank = bank._ties.rank[pool]
    top = np.empty((len(queries), k), dtype=np.int64)
    for i, row in enumerate(keys):
        cand = np.flatnonzero(row <= kth[i])
        chosen = cand[np.lexsort((rank[cand], row[cand]))[:k]]
        top[i] = chosen[np.argsort(rank[chosen])]
    return pool[top]


def reference_mnse_do(video, mask, bank, k, rng, exclude_video_id):
    video = video.copy()
    rows = np.flatnonzero(~mask)
    if len(rows):
        top = reference_topk(bank, video[rows], k, exclude_video_id)
        picks = [int(rng.integers(0, top.shape[1])) for _ in rows]
        video[rows] = bank._columns.T[top[np.arange(len(rows)), picks]]
    return video


def reference_random_do(video, mask, bank, rng, exclude_video_id):
    video = video.copy()
    rows = np.flatnonzero(~mask)
    if len(rows):
        pool = reference_pool(bank, exclude_video_id)
        if not len(pool):
            raise ValueError(f"no eligible bank entries for {exclude_video_id!r}")
        picks = [int(rng.integers(0, len(pool))) for _ in rows]
        video[rows] = bank._columns.T[pool[picks]]
    return video


def reference_protocol_videos(instances, masks, bank, seed, k):
    """(MNSE videos, random videos), one video at a time, every draw from
    one generator seeded with seed: all MNSE videos first."""
    masks = np.asarray(masks, dtype=bool)
    rng = np.random.default_rng(seed)
    mnse_videos = [
        reference_mnse_do(inst.video, mask, bank, k, rng, inst.video_id)
        for inst, mask in zip(instances, masks)
    ]
    random_videos = [
        reference_random_do(inst.video, mask, bank, rng, inst.video_id)
        for inst, mask in zip(instances, masks)
    ]
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
