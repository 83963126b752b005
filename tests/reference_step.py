"""The training step one sample at a time, kept as the reference the
stacked step in harness is checked against.

The draws come first, in the step's order: each drawable sample's random
question, then per such sample its do view's, positive's and substituted
negatives' rows, every partition ranked afresh (one kNN ranking per
negative) and picked among with the step's generator, one call per
partition. Then each sample runs its own clean pass (on gate-weighted clip
rows when it has gates, with those gates' gradients through the weights
written as a Jacobian product), its own augmented + do pass, its own
triplet pass with its own anchor row, and its own InfoNCE over one vector
per view. The draws, their order and the arithmetic of every row are those
the stacked step must reproduce. The per-sample mixup formula and a
one-triplet draw are kept here too.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from causalvqa import intervention as iv
from causalvqa.intervention import MemorySource
from reference_protocol import reference_pool

Array = np.ndarray


class ReferenceStep(NamedTuple):
    losses: list[list]  # per batch position: clean, augmented, then do answer loss
    cl_losses: list[float]
    positions: list[int]
    dgates: Array  # [B, n_clips]: the clean pass's plus each triplet's at its position
    videos: list[Array]  # every drawn video in draw order: do-video, positive, negatives


class Triplets(NamedTuple):
    """build_triplet_cached's inputs for S triplets."""

    v_star: Array  # [S, n_clips, video_dim]
    q_star: Array  # [S, text_dim]
    q_r: Array  # [S, text_dim]
    gates: Array  # [S, n_clips]
    subs: Array  # [S, n_negatives, n_clips, video_dim]: the positive, then each negative


def aligned(rows: Array, n: int) -> Array:
    """Partner rows cyclically repeated or truncated to n rows."""
    return rows[np.arange(n) % len(rows)] if n else rows[:0]


class ForcedRatios:
    """A stand-in for mixup_intervene's generator whose beta and uniform
    draws return forced mixing ratios, lam0 and lam1, where they are given,
    and otherwise draw from rng."""

    def __init__(self, rng, lam0=None, lam1=None):
        self.rng, self.lam0, self.lam1 = rng, lam0, lam1

    def beta(self, a, b):
        return self.rng.beta(a, b) if self.lam0 is None else self.lam0

    def uniform(self, low, high):
        return self.rng.uniform(low, high) if self.lam1 is None else self.lam1


def reference_mixup(x, mask, xp, pmask, cfg, rng):
    """One sample's mixup with its partner by the per-sample formula:
    (v_star, q_star, a_star), or None for a degenerate split. The ratios are
    drawn, lam0 then lam1, whenever both causal sets are nonempty, before
    an empty partner complement is found."""
    if not mask.any() or not pmask.any():
        return None
    lam0 = float(rng.beta(cfg.alpha, cfg.alpha))
    lam1 = float(rng.uniform(0.0, 1.0))
    if (~mask).any() and not (~pmask).any():
        return None
    c_hat, t_hat = x.video[mask], x.video[~mask]
    v_star = np.empty_like(x.video)
    v_star[mask] = lam0 * c_hat + (1.0 - lam0) * aligned(xp.video[pmask], len(c_hat))
    v_star[~mask] = lam1 * t_hat + (1.0 - lam1) * aligned(xp.video[~pmask], len(t_hat))
    q_star = lam0 * x.question + (1.0 - lam0) * xp.question
    a_star = lam0 * x.answers[x.gold] + (1.0 - lam0) * xp.answers[xp.gold]
    return v_star, q_star, a_star


def _swap(videos, rows, bank, candidates, rng):
    """Replace in place the rows of videos that the bool mask rows marks, in
    row-major order, by n draws in one integers call, draw i uniform among
    row i % m of candidates [m, width] padded with -1."""
    n = int(rows.sum())
    if n:
        which = np.arange(n) % len(candidates)
        chosen = candidates[which, rng.integers(0, (candidates >= 0).sum(axis=1)[which])]
        videos[rows] = bank._columns.T[chosen]


def draw_triplet(v_star, q_star, mask, gates, bank, q_r, cfg, rng, candidates) -> Triplets:
    """One triplet, drawn one partition at a time: the positive's complement
    substitutes, then each substituted negative's causal ones, each drawn
    with rng among candidates (complement, causal): the rows' topk, which
    every negative's copy cycles through, or one pool row for both."""
    complement, causal = candidates
    subs = np.repeat(v_star[None], cfg.n_negatives, axis=0)
    _swap(subs[:1], ~mask[None], bank, complement, rng)
    _swap(subs[1:], np.broadcast_to(mask, subs[1:].shape[:2]), bank, causal, rng)
    return Triplets(v_star[None], q_star[None], q_r[None], gates[None], subs[None])


def stack_triplets(triplets) -> Triplets:
    return Triplets(*(np.concatenate(part) for part in zip(*triplets)))


def reference_infonce(anchor, positive, negatives):
    """InfoNCE of one triplet, one dot product per similarity:
    (loss, danchor, dpositive, [dnegative per negative])."""
    sims = np.empty(1 + len(negatives))
    sims[0] = anchor @ positive
    for i, neg in enumerate(negatives):
        sims[1 + i] = anchor @ neg
    m = float(sims.max())
    e = np.exp(sims - m)
    z = float(e.sum())
    loss = m + np.log(z) - sims[0]
    p = e / z
    danchor = (p[0] - 1.0) * positive
    dnegatives = []
    for i, neg in enumerate(negatives):
        danchor += p[1 + i] * neg
        dnegatives.append(p[1 + i] * anchor)
    return float(loss), danchor, (p[0] - 1.0) * anchor, dnegatives


def triplet_aggregates(model, triplets: Triplets):
    """Aggregates [n_triplets, n_views, model_dim] of drawn triplets, each
    triplet's anchor (v_star with q_star) first and then the views
    build_triplet_cached builds, through one aggregate pass; with the
    caches triplet_gate_grads reads."""
    views, questions, cache = iv.build_triplet_cached(*triplets)
    videos = np.concatenate([triplets.v_star[:, None], views], axis=1)
    questions = np.concatenate([triplets.q_star[:, None], questions], axis=1)
    aggs, agg_cache = model.aggregate_forward(
        videos.reshape(-1, *videos.shape[2:]), questions.reshape(-1, questions.shape[-1])
    )
    return aggs.reshape(*videos.shape[:2], -1), (agg_cache, cache)


def triplet_gate_grads(model, daggs, caches):
    """Gate gradients [n_triplets, n_clips] of the gradient daggs of
    triplet_aggregates' output, through one aggregate backward; backbone
    gradients accumulate on the store."""
    agg_cache, cache = caches
    dvideo, _ = model.aggregate_backward(daggs.reshape(-1, daggs.shape[-1]), agg_cache)
    return iv.triplet_backward(dvideo.reshape(*daggs.shape[:2], *dvideo.shape[1:])[:, 1:], cache)


def _draw_substitutes(rows, bank, cfg, rng, exclude_video_id):
    if not len(rows):
        return rows
    if cfg.memory_source is MemorySource.MNSE:
        exclude = bank.codes([exclude_video_id] * len(rows))
        return bank.pick(bank.topk(rows, cfg.neighbor_k, exclude), rng)
    pool = reference_pool(bank, exclude_video_id)
    return bank._columns.T[pool[rng.integers(0, len(pool), size=len(rows))]]


def _blend(orig, subs, keep):
    out = keep * orig + (1.0 - keep) * subs
    same = np.all(subs == orig, axis=1)
    out[same] = orig[same]
    return out


def _triplet_pass(backbone, v_star, q_star, mask, gates, subs_pos, neg_subs, q_r):
    comp, caus = np.flatnonzero(~mask), np.flatnonzero(mask)
    views = np.repeat(v_star[None], len(neg_subs) + 3, axis=0)
    if comp.size:
        views[1, comp] = _blend(v_star[comp], subs_pos, gates[comp][:, None])
    if caus.size:
        keep = 1.0 - gates[caus][:, None]
        for i, subs in enumerate(neg_subs):
            views[2 + i, caus] = _blend(v_star[caus], subs, keep)
    questions = np.repeat(q_star[None], len(views), axis=0)
    questions[-1] = q_r
    aggs, views_cache = backbone.aggregate_forward(views, questions)
    return aggs, views_cache


def _triplet_backward(backbone, dagg, views_cache, v_star, mask, subs_pos, neg_subs):
    comp, caus = np.flatnonzero(~mask), np.flatnonzero(mask)
    dgates = np.zeros(len(mask))
    dviews, _ = backbone.aggregate_backward(dagg, views_cache)
    if comp.size:
        dgates[comp] += np.sum(dviews[1, comp] * (v_star[comp] - subs_pos), axis=1)
    if caus.size:
        for i, subs in enumerate(neg_subs):
            dgates[caus] += np.sum(dviews[2 + i, caus] * (subs - v_star[caus]), axis=1)
    return dgates


def _clean_pass(model, inst, gates):
    """One sample's answer loss on its clip rows weighted by gates / mean(gates)
    (its own rows without gates), and the gradient of that loss with respect
    to the gates (zero without gates)."""
    n = inst.n_clips
    if gates is None:
        video, dgates = inst.video, np.zeros(n)
    else:
        video = (gates / gates.mean())[:, None] * inst.video
    loss, _, grads = model.loss_and_grads(
        video[None], inst.question[None], inst.answers[None], np.array([inst.gold])
    )
    if gates is not None:
        dweights = (grads.video[0] * inst.video).sum(axis=1)
        m = gates.mean()
        # d(g_i / m)/d g_k = [i == k] / m - g_i / (n m^2)
        jacobian = np.eye(n) / m - np.outer(gates, np.ones(n)) / (n * m * m)
        dgates = jacobian.T @ dweights
    return loss[0], dgates


def reference_step(
    model, icfg, bank, instances, batch, masks, gates, mix, weigh, rng
) -> ReferenceStep:
    """One step's draws and passes, sample by sample: masks and gates
    [B, n_clips] are the batch's split and mix its mixup; with weigh, a
    mixed sample's clean pass weights its clips by its gates."""
    clean = [
        _clean_pass(model, instances[i], gates[j] if weigh and mix.valid[j] else None)
        for j, i in enumerate(batch)
    ]
    out = ReferenceStep([[loss] for loss, _ in clean], [], [], np.stack([g for _, g in clean]), [])
    mixed = [j for j in range(len(batch)) if mix.valid[j]]
    drawable = [j for j in mixed if len(reference_pool(bank, instances[batch[j]].video_id))]
    q_r = {}
    for j in drawable:
        raw = int(rng.integers(0, len(instances) - 1))
        q_r[j] = instances[raw + (raw >= batch[j])].question
    subs = {}
    for j in drawable:
        inst, mask, v_star = instances[batch[j]], masks[j], mix.v_star[j]
        v_do = inst.video.copy()
        v_do[~mask] = _draw_substitutes(inst.video[~mask], bank, icfg, rng, inst.video_id)
        subs_pos = _draw_substitutes(v_star[~mask], bank, icfg, rng, inst.video_id)
        neg_subs = [
            _draw_substitutes(v_star[mask], bank, icfg, rng, inst.video_id)
            for _ in range(icfg.n_negatives - 1)
        ]
        subs[j] = (v_do, subs_pos, neg_subs)
        out.videos.append(v_do)
        for rows, part in [(~mask, subs_pos)] + [(mask, s) for s in neg_subs]:
            video = v_star.copy()
            video[rows] = part
            out.videos.append(video)
    for j in mixed:
        inst, mask = instances[batch[j]], masks[j]
        v_star, q_star = mix.v_star[j], mix.q_star[j]
        answers_aug = inst.answers.copy()
        answers_aug[inst.gold] = mix.a_star[j]
        views = [(v_star, q_star, answers_aug)]
        if j in subs:
            views.append((subs[j][0], inst.question, inst.answers))
        videos, questions, answers = (np.stack(column) for column in zip(*views))
        losses, _, _ = model.loss_and_grads(
            videos, questions, answers, np.full(len(views), inst.gold)
        )
        out.losses[j].extend(losses)
        if j not in subs:
            continue
        _, subs_pos, neg_subs = subs[j]
        aggs, views_cache = _triplet_pass(
            model, v_star, q_star, mask, gates[j], subs_pos, neg_subs, q_r[j]
        )
        cl, danchor, dpositive, dnegatives = reference_infonce(aggs[0], aggs[1], list(aggs[2:]))
        dagg = np.stack([icfg.beta_cl * g for g in (danchor, dpositive, *dnegatives)])
        out.cl_losses.append(cl)
        out.positions.append(j)
        out.dgates[j] += _triplet_backward(
            model, dagg, views_cache, v_star, mask, subs_pos, neg_subs
        )
    return out
