"""Frame selection strategies over precomputed frame vectors.

Four families:

- MAR: saliency-guided sampling that takes most frames from the best
  moment window and tops up from equal temporal segments.
- Pool resampling: draw a fresh random subset of a larger frame pool
  each training iteration to wash out a fixed-grid sampling bias.
- Teacher-student: a small linear student scores frames by their video
  features alone, with a softmax over frames, and distills a given teacher
  frame distribution.
- RL: an agent grows a buffer of chosen frames (seeded with the question
  embedding) and a policy over remaining frames plus STOP, trained by
  REINFORCE against a sparse terminal reward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn_core as nc
from .features import SaliencyAnnotation

Array = np.ndarray


@dataclass(frozen=True)
class SamplerOutput:
    indices: tuple[int, ...]  # ascending frame indices
    provenance: tuple[str, ...]  # per-index tag: "moment", "segment_i", "policy", "pool"
    probs: Array | None = None  # per-frame distribution where the sampler defines one
    replacement_fallback: bool = False

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.provenance):
            raise ValueError("provenance must tag every selected index")
        if any(b < a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be sorted ascending")
        if self.probs is not None and abs(float(self.probs.sum()) - 1.0) > 1e-6:
            raise ValueError("probs must sum to 1")


# -- MAR ---------------------------------------------------------------------


@dataclass(frozen=True)
class MarConfig:
    total: int
    moment_count: int
    segment_count: int
    per_segment: int
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.total, self.moment_count, self.segment_count, self.per_segment) <= 0:
            raise ValueError("all counts must be positive")
        if self.total != self.moment_count + self.segment_count * self.per_segment:
            raise ValueError(
                f"total {self.total} != {self.moment_count} + "
                f"{self.segment_count} * {self.per_segment}"
            )


def mar16(seed: int = 0) -> MarConfig:
    return MarConfig(total=16, moment_count=8, segment_count=4, per_segment=2, seed=seed)


def mar32(seed: int = 0) -> MarConfig:
    """Same recipe as the 16-frame variant with twice the draw counts."""
    return MarConfig(total=32, moment_count=16, segment_count=4, per_segment=4, seed=seed)


def segment_bounds(n_frames: int, segment_count: int) -> list[tuple[int, int]]:
    """Equal spans by floor division; the last segment absorbs the remainder."""
    width = n_frames // segment_count
    bounds = [(i * width, (i + 1) * width) for i in range(segment_count - 1)]
    bounds.append(((segment_count - 1) * width, n_frames))
    return bounds


def _draw(
    rng: np.random.Generator, span: list[int], count: int, taken: set[int]
) -> tuple[list[int], bool]:
    """count distinct draws from span avoiding taken; with-replacement fallback.

    Drawing from the remaining pool replaces redraw-until-fresh: same
    support, still uniform, and it terminates.
    """
    if not span:
        raise ValueError("cannot draw from an empty span")
    available = [i for i in span if i not in taken]
    if len(available) >= count:
        picks = [int(x) for x in rng.choice(len(available), size=count, replace=False)]
        return [available[p] for p in picks], False
    picks = list(available)
    extra = count - len(picks)
    picks.extend(int(span[x]) for x in rng.integers(0, len(span), size=extra))
    return picks, True


def mar_sample(saliency: SaliencyAnnotation, cfg: MarConfig) -> SamplerOutput:
    """Moment-heavy saliency sampling: moment_count frames from the best
    window plus per_segment from each equal segment, no cross-phase
    duplicates, sorted output."""
    if not saliency.windows:
        raise ValueError("saliency has no moment windows")
    n = saliency.n_frames
    rng = np.random.default_rng(cfg.seed)
    # best window by score; ties take the earliest (start, end)
    best = min(saliency.windows, key=lambda w: (-w.score, w.start_frame, w.end_frame))
    fallback = False

    taken: set[int] = set()
    chosen: list[tuple[int, str]] = []
    span = list(range(best.start_frame, best.end_frame))
    picks, fb = _draw(rng, span, cfg.moment_count, taken)
    fallback |= fb
    for p in picks:
        chosen.append((p, "moment"))
    taken.update(picks)

    for s, (lo, hi) in enumerate(segment_bounds(n, cfg.segment_count)):
        picks, fb = _draw(rng, list(range(lo, hi)), cfg.per_segment, taken)
        fallback |= fb
        for p in picks:
            chosen.append((p, f"segment_{s}"))
        taken.update(picks)

    chosen.sort(key=lambda t: t[0])
    return SamplerOutput(
        indices=tuple(i for i, _ in chosen),
        provenance=tuple(tag for _, tag in chosen),
        replacement_fallback=fallback,
    )


# -- pool resampling -----------------------------------------------------------


def pcma80_resample(
    frame_pool: Array, seed: int, subsample: int = 16
) -> tuple[Array, SamplerOutput]:
    """Uniform without-replacement subsample of a frame pool; fresh per seed."""
    frame_pool = nc.as_f64(frame_pool)
    pool = frame_pool.shape[0]
    if pool < subsample:
        raise ValueError(f"pool of {pool} frames cannot yield {subsample}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(pool, size=subsample, replace=False))
    out = SamplerOutput(
        indices=tuple(int(i) for i in idx),
        provenance=tuple("pool" for _ in idx),
    )
    return frame_pool[idx], out


# -- teacher-student -------------------------------------------------------------


@dataclass(frozen=True)
class StudentConfig:
    video_dim: int
    model_dim: int = 32
    top_s: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.video_dim, self.model_dim, self.top_s) <= 0:
            raise ValueError("all dims and counts must be positive")


class StudentSampler:
    """Linear frame scorer trained to match a teacher distribution.

    Scores are video @ video_proj.w @ head.w per frame. Anything added to
    every frame's score alike (a projection bias, a head bias, a question
    vector) cancels in the softmax over frames, so the student has none.
    The head starts at zero so an untrained student is exactly uniform
    over frames.
    """

    def __init__(self, cfg: StudentConfig, store: nc.ParamStore | None = None):
        self.cfg = cfg
        if store is None:
            store = nc.ParamStore([
                ("video_proj.w", (cfg.video_dim, cfg.model_dim), cfg.video_dim),
                ("head.w", (cfg.model_dim,), None),
            ], cfg.seed)
        self.store = store

    def probs_forward(self, video: Array) -> tuple[Array, dict]:
        """Frame distribution for video [n_frames, video_dim]."""
        video = nc.as_f64(video)
        if video.ndim != 2 or video.shape[1] != self.cfg.video_dim:
            raise nc.DimMismatch(f"video shape {video.shape}, expected [*, {self.cfg.video_dim}]")
        h = video @ self.store["video_proj.w"]
        probs = nc.softmax(h @ self.store["head.w"])
        return probs, {"video": video, "h": h, "probs": probs}

    def probs_backward(self, dprobs: Array, cache: dict) -> None:
        store = self.store
        dscores = nc.softmax_backward(dprobs, cache["probs"])
        store.accumulate("head.w", cache["h"].T @ dscores)
        store.accumulate("video_proj.w", np.outer(cache["video"].T @ dscores, store["head.w"]))


def s3_student_probs(student: StudentSampler, video: Array) -> SamplerOutput:
    """Frame distribution plus the top-S selection (ties to lowest index)."""
    probs, _ = student.probs_forward(video)
    s = min(student.cfg.top_s, probs.shape[0])
    order = np.lexsort((np.arange(probs.shape[0]), -probs))
    idx = np.sort(order[:s])
    return SamplerOutput(
        indices=tuple(int(i) for i in idx),
        provenance=tuple("policy" for _ in idx),
        probs=probs,
    )


def s3_distill_grads(student: StudentSampler, video: Array, teacher: Array, lam: float) -> float:
    """Distillation term lam * KL(teacher || student); accumulates gradients."""
    probs, cache = student.probs_forward(video)
    if teacher.shape != probs.shape:
        raise nc.DimMismatch("teacher distribution length must match frame count")
    kl = nc.kl_divergence(teacher, probs)
    dprobs = lam * (-teacher / probs)
    student.probs_backward(dprobs, cache)
    return float(lam * kl)


# -- RL sampler ------------------------------------------------------------------


@dataclass(frozen=True)
class RlConfig:
    video_dim: int
    text_dim: int
    n_frames: int  # fixed frame pool size the policy head is built for
    model_dim: int = 32
    hidden_dim: int = 32
    n_heads: int = 4
    max_steps: int = 8
    gamma: float = 0.5  # selection-ratio penalty in the reward
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.video_dim, self.text_dim, self.model_dim, self.hidden_dim,
               self.n_heads, self.max_steps) <= 0:
            raise ValueError("dims and max_steps must be positive")
        if self.n_frames < 0:
            raise ValueError("n_frames must be nonnegative")
        if self.model_dim % self.n_heads != 0:
            raise nc.DimMismatch(
                f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


@dataclass
class RlEpisodeState:
    """One selection episode: a growing buffer whose first row is the
    projected question embedding."""

    question: Array
    frame_pool: Array
    buffer: list[Array]
    row_caches: list[tuple]
    selected: list[int] = field(default_factory=list)
    steps: int = 0
    done: bool = False
    log_probs: list[float] = field(default_factory=list)
    step_caches: list[dict] = field(default_factory=list)

    @property
    def n_selected(self) -> int:
        return len(self.selected)


class RlSampler:
    """State model over the episode buffer plus a two-layer MLP policy."""

    def __init__(self, cfg: RlConfig, store: nc.ParamStore | None = None):
        self.cfg = cfg
        n_actions = cfg.n_frames + 1  # frames plus STOP
        if store is None:
            store = nc.ParamStore([
                *nc.linear_layout("video_proj", cfg.video_dim, cfg.model_dim),
                *nc.linear_layout("text_proj", cfg.text_dim, cfg.model_dim),
                *nc.mha_layout("state.attn", cfg.model_dim),
                ("state.ln.gamma", (cfg.model_dim,), None),
                ("state.ln.beta", (cfg.model_dim,), None),
                ("policy.w1", (cfg.model_dim, cfg.hidden_dim), cfg.model_dim),
                ("policy.b1", (cfg.hidden_dim,), cfg.model_dim),
                # zero head: a fresh policy is uniform over available actions
                ("policy.w2", (cfg.hidden_dim, n_actions), None),
                ("policy.b2", (n_actions,), None),
            ], cfg.seed)
            store["state.ln.gamma"][...] = 1.0
        self.store = store

    def new_episode(self, question: Array, frame_pool: Array) -> RlEpisodeState:
        cfg = self.cfg
        question = nc.as_f64(question)
        frame_pool = nc.as_f64(frame_pool)
        if frame_pool.shape != (cfg.n_frames, cfg.video_dim):
            raise nc.DimMismatch(
                f"frame pool shape {frame_pool.shape}, expected ({cfg.n_frames}, {cfg.video_dim})"
            )
        if question.shape != (cfg.text_dim,):
            raise nc.DimMismatch(f"question shape {question.shape}")
        q_row, c_q = nc.linear_forward(
            question, self.store["text_proj.w"], self.store["text_proj.b"]
        )
        return RlEpisodeState(
            question=question,
            frame_pool=frame_pool,
            buffer=[q_row],
            row_caches=[("text", c_q)],
        )

    def _policy_forward(self, episode: RlEpisodeState) -> tuple[Array, dict]:
        store = self.store
        buf = np.stack(episode.buffer)
        attn, c_attn = nc.mha_forward(buf, store, "state.attn", self.cfg.n_heads)
        h = buf + attn
        state, c_ln = nc.layer_norm_forward(
            h[-1], store["state.ln.gamma"], store["state.ln.beta"]
        )
        z1, c1 = nc.linear_forward(state, store["policy.w1"], store["policy.b1"])
        a1, relu_mask = nc.relu_forward(z1)
        logits, c2 = nc.linear_forward(a1, store["policy.w2"], store["policy.b2"])
        masked = logits.copy()
        for i in episode.selected:
            masked[i] = -np.inf
        probs = nc.softmax(masked)
        cache = {
            "n_rows": buf.shape[0],
            "c_attn": c_attn,
            "c_ln": c_ln,
            "c1": c1,
            "relu_mask": relu_mask,
            "c2": c2,
            "probs": probs,
        }
        return probs, cache


def s3_rl_step(
    sampler: RlSampler,
    episode: RlEpisodeState,
    rng: np.random.Generator,
    action: int | None = None,
) -> RlEpisodeState:
    """Advance one step: sample an action (or replay a forced one), append
    the chosen frame to the buffer or stop; max_steps forces done."""
    if episode.done:
        raise RuntimeError("episode is already done")
    cfg = sampler.cfg
    stop_action = cfg.n_frames
    probs, cache = sampler._policy_forward(episode)
    if action is None:
        action = int(rng.choice(probs.shape[0], p=probs))
    elif probs[action] == 0.0:
        raise ValueError(f"action {action} is unavailable")
    episode.log_probs.append(float(np.log(probs[action])))
    cache["action"] = action
    episode.step_caches.append(cache)
    if action == stop_action:
        episode.done = True
    else:
        row, c_row = nc.linear_forward(
            episode.frame_pool[action],
            sampler.store["video_proj.w"],
            sampler.store["video_proj.b"],
        )
        episode.buffer.append(row)
        episode.row_caches.append(("video", c_row))
        episode.selected.append(action)
        if len(episode.selected) == cfg.n_frames:
            episode.done = True
    episode.steps += 1
    if episode.steps >= cfg.max_steps:
        episode.done = True
    return episode


def run_episode(
    sampler: RlSampler,
    question: Array,
    frame_pool: Array,
    rng: np.random.Generator,
) -> RlEpisodeState:
    episode = sampler.new_episode(question, frame_pool)
    while not episode.done:
        s3_rl_step(sampler, episode, rng)
    return episode


def s3_rl_reward(
    episode: RlEpisodeState, pred_loss: float, n_total_frames: int, gamma: float
) -> float:
    """Sparse terminal reward: -pred_loss - gamma * selected fraction."""
    if not episode.done:
        raise RuntimeError("reward is defined only for finished episodes")
    if n_total_frames <= 0:
        raise ValueError("n_total_frames must be positive")
    return float(-pred_loss - gamma * episode.n_selected / n_total_frames)


def reinforce_backward(sampler: RlSampler, episode: RlEpisodeState, advantage: float) -> None:
    """Accumulate policy-gradient contributions: descent on
    -advantage * sum_t log pi(a_t | s_t), backpropagated through the state
    model and the buffer row projections."""
    store = sampler.store
    dbuf_rows = [np.zeros(sampler.cfg.model_dim) for _ in episode.buffer]
    for cache in reversed(episode.step_caches):
        p = cache["probs"]
        dlogits = advantage * p.copy()
        dlogits[cache["action"]] -= advantage
        da1, dw2, db2 = nc.linear_backward(dlogits, cache["c2"])
        store.accumulate("policy.w2", dw2)
        store.accumulate("policy.b2", db2)
        dz1 = nc.relu_backward(da1, cache["relu_mask"])
        dstate, dw1, db1 = nc.linear_backward(dz1, cache["c1"])
        store.accumulate("policy.w1", dw1)
        store.accumulate("policy.b1", db1)
        dh_last, dgamma, dbeta = nc.layer_norm_backward(dstate, cache["c_ln"])
        store.accumulate("state.ln.gamma", dgamma)
        store.accumulate("state.ln.beta", dbeta)
        n_rows = cache["n_rows"]
        dh = np.zeros((n_rows, sampler.cfg.model_dim))
        dh[-1] = dh_last
        dbuf = dh + nc.mha_backward(dh, cache["c_attn"], store)
        for i in range(n_rows):
            dbuf_rows[i] += dbuf[i]
    for drow, (kind, c_row) in zip(dbuf_rows, episode.row_caches):
        _, dw, db = nc.linear_backward(drow, c_row)
        prefix = "text_proj" if kind == "text" else "video_proj"
        store.accumulate(f"{prefix}.w", dw)
        store.accumulate(f"{prefix}.b", db)
