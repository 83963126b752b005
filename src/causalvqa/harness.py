"""Experiment harness: run configs, the training loop, accuracy metrics
split by question type, the seen/unseen intervention robustness protocol,
the answer-video shortcut probe, and artifact writers.

Everything is driven by one JSON config and one seed; reruns with the
same config produce byte-identical metrics and curves.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import features, nn_core as nc
from .features import (
    ConfigError,
    Dataset,
    FormatError,
    Qtype,
    SyntheticSpec,
    VideoQAInstance,
    file_section,
    generate_synthetic,
    load_causal_masks,
    load_dataset,
    load_saliency,
    read_json,
    read_section,
    write_atomic,
)
from .intervention import (
    InterventionConfig,
    MemorySource,
    Mixup,
    build_triplet_cached,
    causal_mask,
    gate_backward,
    gate_forward,
    infonce_loss,
    mixup_intervene,
    total_loss,
    triplet_backward,
)
from .mnse import (
    MemoryBank,
    Metric,
    Regime,
    instance_scenes,
    mnse_do,
    random_do,
    stacked_scenes,
)
from .pcma import PcmaConfig, PcmaModel, model_layout, pcma_loss
from . import samplers as sm

Array = np.ndarray

METRICS_VERSION = 1
# Rows per stacked pass in evaluate and rl_train. Fewer, larger passes
# pay less per-pass overhead (the protocol scores each model's 60 rows
# of a 20-video set in one); the caches one pass holds grow with it, so
# the chunk bounds the peak memory of scoring a large set.
EVAL_CHUNK = 64
CURVE_HEADER = "step,erm_loss,cl_loss,total_loss"
OUTPUT_DIR_ENV = "CAUSALVQA_OUTPUT_DIR"


# -- optimizer ---------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    steps: int = 300
    batch_size: int = 16
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        problems = []
        if not (np.isfinite(self.lr) and self.lr >= 0):
            problems.append("lr must be finite and nonnegative")
        if self.steps < 0:
            problems.append("steps must be nonnegative")
        if self.batch_size < 1:
            problems.append("batch_size must be >= 1")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            problems.append("Adam betas must lie in [0, 1)")
        if not self.eps > 0:
            problems.append("eps must be positive")
        if problems:
            raise ValueError("; ".join(problems))


class AdamState:
    """First/second moments aligned with a store's flat params buffer; the
    first step allocates them."""

    def __init__(self) -> None:
        self.t = 0
        self.m = np.zeros(0)
        self.v = np.zeros(0)


def adam_step(store: nc.ParamStore, state: AdamState, cfg: OptimizerConfig) -> None:
    """One bias-corrected Adam update over the store's whole params buffer
    (Kingma & Ba, arXiv:1412.6980), element by element as per tensor."""
    g = store.flat_grads
    if state.t == 0:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.t += 1
    # a gradient whose square overflows would leave its parameter frozen at
    # m / inf = 0; one check of the bias-corrected second moment catches it
    with np.errstate(over="ignore", invalid="ignore"):
        state.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
        state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
        vhat = state.v / (1.0 - cfg.beta2**state.t)
    if not np.isfinite(vhat).all():
        raise nc.NumericsError("Adam second moment overflows: gradients too large")
    if cfg.lr == 0.0:
        return  # parameters must stay bit-identical
    mhat = state.m / (1.0 - cfg.beta1**state.t)
    store.flat_params -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)


# -- experiment config ---------------------------------------------------------


@dataclass(frozen=True)
class DataConfig:
    synthetic: SyntheticSpec | None = None
    manifest: str | None = None

    def __post_init__(self) -> None:
        if (self.synthetic is None) == (self.manifest is None):
            raise ValueError("exactly one of synthetic | manifest must be set")


@dataclass(frozen=True)
class BankConfig:
    regime: Regime = Regime.F2_DYNAMIC
    metric: Metric = Metric.COSINE
    window: int = 8

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True)
class ModelConfig:
    """Backbone hyperparameters; feature dims come from the dataset."""

    model_dim: int = 64
    n_heads: int = 4
    n_layers: int = 2
    tau: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        self.pcma(1, 1)  # PcmaConfig's rules; the real dims come from the dataset

    def pcma(self, video_dim: int, text_dim: int) -> PcmaConfig:
        return PcmaConfig(
            video_dim=video_dim,
            text_dim=text_dim,
            model_dim=self.model_dim,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
            tau=self.tau,
            seed=self.seed,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    intervention: InterventionConfig | None = None
    bank: BankConfig = field(default_factory=BankConfig)
    use_oracle_masks: bool = False
    output_dir: str | None = None

    @property
    def contrastive(self) -> bool:
        return self.intervention is not None and self.intervention.beta_cl > 0.0


def load_data(
    cfg: DataConfig, saliency: bool = False
) -> tuple[Dataset, list | None, Array | None]:
    """The dataset, saliency annotations and causal masks; ConfigError if
    the dataset is empty. Only frame sampling uses saliency, so its
    sidecar is parsed only when saliency is true; otherwise that slot is
    None."""
    if cfg.synthetic is not None:
        data, saliencies, masks = generate_synthetic(cfg.synthetic)
    else:
        # one parse of the manifest serves the payloads and both sidecars; it is
        # looked up on the features module, where the benchmark's tracer counts it
        manifest = features.read_manifest(cfg.manifest)
        data = load_dataset(cfg.manifest, manifest)
        saliencies = load_saliency(cfg.manifest, manifest) if saliency else None
        masks = load_causal_masks(cfg.manifest, manifest)
    if not len(data):
        raise ConfigError(["data: empty dataset"])
    return data, saliencies if saliency else None, masks


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    return read_section(raw, ExperimentConfig)


# -- metrics ---------------------------------------------------------------------


class CurveRow(NamedTuple):
    step: int
    erm_loss: float
    cl_loss: float
    total_loss: float


QTYPE_NAMES = {Qtype.CAUSAL: "causal", Qtype.TEMPORAL: "temporal", Qtype.DESCRIPTIVE: "descriptive"}


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy by question type plus run artifacts.

    overall is always the count-weighted mean of the per-type accuracies;
    a type with zero instances reports None, never 0.
    """

    counts: dict[str, int]
    corrects: dict[str, int]
    curves: tuple[CurveRow, ...] = ()
    deltas: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, correct in self.corrects.items():
            if not 0 <= correct <= self.counts.get(name, 0):
                raise ValueError(f"corrects[{name}] out of range")

    @property
    def n_total(self) -> int:
        return sum(self.counts.values())

    @property
    def overall(self) -> float:
        if self.n_total == 0:
            raise ValueError("empty report has no overall accuracy")
        return sum(self.corrects.values()) / self.n_total

    def acc(self, name: str) -> float | None:
        if self.counts.get(name, 0) == 0:
            return None
        return self.corrects[name] / self.counts[name]

    @property
    def acc_causal(self) -> float | None:
        return self.acc("causal")

    @property
    def acc_temporal(self) -> float | None:
        return self.acc("temporal")

    @property
    def acc_descriptive(self) -> float | None:
        return self.acc("descriptive")

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "acc_causal": self.acc_causal,
            "acc_temporal": self.acc_temporal,
            "acc_descriptive": self.acc_descriptive,
            "counts": dict(self.counts),
            "corrects": dict(self.corrects),
            "deltas": dict(self.deltas),
        }


def _report_from_predictions(data: Dataset, predictions: Array) -> MetricsReport:
    """Counts and corrects per question type, in Qtype order, from one
    bincount of 2 * qtype + correct."""
    tally = np.bincount(2 * data.qtype + (predictions == data.gold), minlength=2 * len(Qtype))
    names = [QTYPE_NAMES[q] for q in Qtype]
    return MetricsReport(counts=dict(zip(names, (tally[::2] + tally[1::2]).tolist())),
                         corrects=dict(zip(names, tally[1::2].tolist())))


def _scored_chunks(model: PcmaModel, data: Dataset, *videos: Array):
    """(slice, AnswerScores, samples) per pass over EVAL_CHUNK consecutive
    rows of the views videos stacked: row r is sample r % N under view
    r // N. A row's scores do not depend on the rows beside it; one pass
    per chunk bounds its arrays and caches."""
    stacked = np.concatenate(videos) if len(videos) > 1 else videos[0]
    for start in range(0, len(stacked), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        samples = np.arange(start, min(start + EVAL_CHUNK, len(stacked))) % len(data)
        # drop the cache at once, so no two chunks' caches are alive together
        result = model.forward_full(
            stacked[chunk], data.question[samples], data.answers[samples]
        )[0]
        yield chunk, result, samples


def evaluate_views(model: PcmaModel, data: Dataset, *videos: Array) -> list[MetricsReport]:
    """One evaluate report per view in videos, each [N, n_clips,
    video_dim], every view scored in one pass of their stacked rows."""
    predictions = np.empty(len(videos) * len(data), dtype=np.int64)
    for chunk, result, _ in _scored_chunks(model, data, *videos):
        predictions[chunk] = result.predicted
    return [_report_from_predictions(data, p) for p in predictions.reshape(len(videos), -1)]


def evaluate(model: PcmaModel, data: Dataset, videos: Array | None = None) -> MetricsReport:
    """Argmax-score accuracy per question type; videos [N, n_clips,
    video_dim] can override the dataset's to evaluate under interventions."""
    return evaluate_views(model, data, data.video if videos is None else videos)[0]


# -- training ---------------------------------------------------------------------


class TrainResult(NamedTuple):
    model: PcmaModel
    report: MetricsReport
    bank: MemoryBank | None
    skipped_interventions: int  # samples with no eligible bank scene
    skipped_mixups: int  # samples dropped on a degenerate causal split


def _batch_order(n: int, batch_size: int, rng: np.random.Generator):
    """Yield index batches forever, reshuffling whenever an epoch runs dry."""
    order = rng.permutation(n)
    pos = 0
    while True:
        if pos + batch_size > n:
            order = rng.permutation(n)
            pos = 0
        yield order[pos : pos + min(batch_size, n)]
        pos += batch_size


def _batch_splits(
    model: PcmaModel,
    video: Array,
    question: Array,
    icfg: InterventionConfig,
    masks: Array | None,
) -> tuple[Array, Array, dict | None]:
    """The batch's causal masks [B, n_clips] and gates: the oracle masks
    and their 0/1 gates when given, else the learned gates of one
    gate_forward over the batch, split by causal_mask, with the gate cache
    for backprop."""
    if masks is not None:
        return masks, masks.astype(np.float64), None
    gates, cache = gate_forward(model, video, question)
    return causal_mask(gates, icfg.topk_mode, icfg.k), gates, cache


class _Draws(NamedTuple):
    """One step's interventions as batch arrays, every random draw made."""

    mix: Mixup  # valid marks the samples with an augmented view
    gates: Array  # [B, n_clips] the split's gates
    drawn: Array  # [D] batch positions of the mixed samples with a do view and a triplet
    q_r: Array  # [D, text_dim] each triplet's random question
    views: Array  # [D, n_negatives + 1, n_clips, video_dim]: do view, positive, negatives


def _other_index(raw: Array, own: Array) -> Array:
    """Instance indices from raw draws in [0, N - 1), skipping each draw's
    own index: every other instance is hit by exactly one raw value."""
    return raw + (raw >= own)


def _draw_interventions(
    icfg: InterventionConfig,
    bank: MemoryBank,
    data: Dataset,
    batch: Array,
    video: Array,
    masks: Array,
    gates: Array,
    mix: Mixup,
    rng: np.random.Generator,
) -> _Draws:
    """The do view and triplet of each mixed sample the bank holds a scene
    for that it may draw, from two integers calls: one random question per
    such sample, then one pick for every substituted row, per sample in
    batch order its do view's complement rows, the positive's complement
    rows and each substituted negative's causal rows, each in clip order.
    Each draw names its row of bank.candidates: under random sourcing the
    sample's eligible scenes; under nearest-scene sourcing the row's topk,
    from one ranking of the do views' complement rows and every v_star
    row, whose causal rows every negative draws from again. The bank's
    blocks name data.ids, so a sample's dataset index is its code."""
    mixed = np.flatnonzero(mix.valid)
    drawn = mixed[bank.eligible_counts(batch[mixed]) > 0]
    own = batch[drawn]
    # every bank scene comes from the dataset, so a sample that may draw
    # one has another sample to take a question from
    raw = rng.integers(0, len(data) - 1, size=len(drawn))
    q_r = data.question[_other_index(raw, batch[drawn])]

    m = masks[drawn]
    n_views = icfg.n_negatives + 1
    swapped = np.concatenate(
        [np.repeat(~m[:, None], 2, axis=1), np.repeat(m[:, None], n_views - 2, axis=1)], axis=1
    )  # [D, n_views, n_clips]
    views = np.empty((len(drawn), n_views, *video.shape[1:]))
    views[:, 0] = video[drawn]
    views[:, 1:] = mix.v_star[drawn, None]
    which, view, clip = np.nonzero(swapped)
    if icfg.memory_source is MemorySource.RANDOM_BANK:
        candidates, rows = bank.candidates(own), which
    else:
        queried = np.stack([~m, np.ones_like(m)], axis=1)  # do rows, then every v_star row
        index = np.full(queried.shape, -1)
        index[queried] = np.arange(np.count_nonzero(queried))
        sources = np.stack([video[drawn], mix.v_star[drawn]], axis=1)
        candidates = bank.candidates(own[np.nonzero(queried)[0]], sources[queried], icfg.neighbor_k)
        rows = index[which, np.minimum(view, 1), clip]
    views[swapped] = bank.pick(candidates, rng, rows)
    return _Draws(mix, gates, drawn, q_r, views)


class _Step(NamedTuple):
    """One step's losses and gate gradients."""

    losses: list[list]  # per batch position: clean, then augmented and do answer losses
    cl_losses: list[float]  # per triplet, in batch order
    dgates: Array  # [B, n_clips] gate gradients of the clean rows plus each triplet's


def _stacked_step(
    model: PcmaModel,
    stacked: tuple,
    draws: _Draws | None,
    beta_cl: float,
    weigh: bool,
) -> _Step:
    """One backbone pass, forward and backward, over the stacked clean
    samples, the mixed samples' augmented views, the do views, and each
    triplet's views past its anchor, which is its sample's augmented view
    row. With weigh, a mixed sample's clean row is scored on clip rows
    weighted by gates / mean(gates), so answering pressure teaches the
    gates which clips matter and only relative gate values count. beta_cl
    times InfoNCE's gradient joins the anchor rows' answer gradient, and
    both sets of gate gradients, through the weights and through the
    blends, come off the pass's one video gradient. Parameter gradients
    accumulate on the store."""
    video, question, answers, golds = stacked
    b, n_clips = video.shape[:2]
    groups = [(video, question, answers, golds)]
    mixed = drawn = np.empty(0, dtype=np.int64)
    weighted = np.zeros(b, dtype=bool)
    if draws is not None:
        mix, drawn = draws.mix, draws.drawn
        mixed = np.flatnonzero(mix.valid)
        if weigh:
            weighted = mix.valid
            mean = draws.gates.mean(axis=1, keepdims=True)
            weights = draws.gates / mean
            groups[0] = (np.where(weighted[:, None, None], weights[..., None] * video, video),
                         question, answers, golds)
        # the intervened sample also carries the answering loss: the mixed
        # gold answer replaces the gold row at its position
        answers_aug = answers[mixed].copy()
        answers_aug[np.arange(len(mixed)), golds[mixed]] = mix.a_star[mixed]
        groups += [
            (mix.v_star[mixed], mix.q_star[mixed], answers_aug, golds[mixed]),
            (draws.views[:, 0], question[drawn], answers[drawn], golds[drawn]),
        ]
    rows_video, rows_question, rows_answers, rows_golds = (
        np.concatenate(column) for column in zip(*groups)
    )
    answered = len(rows_golds)
    extra, cl_losses = None, []
    if len(drawn):
        anchors = b + np.searchsorted(mixed, drawn)
        views, view_questions, triplet_cache = build_triplet_cached(
            mix.v_star[drawn], mix.q_star[drawn], draws.q_r, draws.gates[drawn],
            draws.views[:, 1:],
        )
        rows_video = np.concatenate([rows_video, views.reshape(-1, *video.shape[1:])])
        rows_question = np.concatenate(
            [rows_question, view_questions.reshape(-1, question.shape[1])]
        )

        def extra(aggs: Array) -> Array:
            past_anchor = aggs[answered:].reshape(*views.shape[:2], -1)
            losses, daggs = infonce_loss(np.concatenate([aggs[anchors, None], past_anchor], 1))
            cl_losses.extend(losses.tolist())
            daggs = beta_cl * daggs
            dagg = np.zeros_like(aggs)
            dagg[anchors] = daggs[:, 0]
            dagg[answered:] = daggs[:, 1:].reshape(-1, aggs.shape[1])
            return dagg

    losses, _, igrads = model.loss_and_grads(
        rows_video, rows_question, rows_answers, rows_golds, extra
    )

    step_losses = [[loss] for loss in losses[:b]]
    for j, loss in zip(np.concatenate([mixed, drawn]).tolist(), losses[b:]):
        step_losses[j].append(loss)
    dvideo = igrads.video
    dgates = np.zeros((b, n_clips))
    if weighted.any():
        dweights = (dvideo[:b] * video).sum(axis=2)
        dclean = (dweights - (weights * dweights).sum(axis=1, keepdims=True) / n_clips) / mean
        dgates[weighted] = dclean[weighted]
    if len(drawn):
        dgates[drawn] += triplet_backward(dvideo[answered:].reshape(views.shape), triplet_cache)
    return _Step(step_losses, cl_losses, dgates)


def train(
    cfg: ExperimentConfig,
    dataset: tuple[Dataset, list | None, Array | None] | None = None,
) -> TrainResult:
    """Adam on the answering loss, plus the weighted contrastive loss when
    an intervention config with beta_cl > 0 is present.

    Each step stacks its batch, runs one gate pass over it, and draws
    every intervention of the batch from the step's generator in one
    order: each sample's mixup ratios, lam0 then lam1, in batch order;
    one integers call for every drawable sample's random question; one
    pick for every substituted row (see _draw_interventions). Then one
    stacked backbone pass, forward and backward, runs over the clean
    samples, their augmented and do-intervened views and their triplets
    (see _stacked_step); answer-only training runs the same pass over the
    clean samples alone. A sample whose causal split is degenerate is left
    out of mixup (counted in skipped_mixups); one with no eligible bank
    scene keeps its answer rows but skips its do view and triplet (counted
    in skipped_interventions).

    Deterministic given the config; aborts with the step number if the
    loss goes non-finite.
    """
    data, _, masks = load_data(cfg.data) if dataset is None else dataset
    if cfg.use_oracle_masks and masks is None:
        raise ConfigError(["use_oracle_masks: dataset has no causal-mask sidecar"])
    video_dim, text_dim, n_clips = data.video_dim, data.text_dim, data.n_clips
    icfg = cfg.intervention
    use_cl = cfg.contrastive
    gated = use_cl and not cfg.use_oracle_masks
    if gated and icfg.topk_mode and icfg.k > n_clips:
        raise ConfigError([f"intervention.k: {icfg.k} is more than the data's {n_clips} clips"])
    model = PcmaModel(cfg.model.pcma(video_dim, text_dim), gated=gated)
    # without the contrastive term the total is the answering loss alone
    loss_cfg = icfg if use_cl else InterventionConfig(beta_cl=0.0)

    bank = None
    if use_cl:
        bank = MemoryBank(
            video_dim, metric=cfg.bank.metric, regime=cfg.bank.regime, window=cfg.bank.window
        )
        if cfg.bank.regime is Regime.F1_STATIC:
            bank.populate(instance_scenes(data)).freeze()
    oracle = np.asarray(masks, dtype=bool) if cfg.use_oracle_masks else None

    opt = cfg.optimizer
    state = AdamState()
    rng = np.random.default_rng(opt.seed)
    batches = _batch_order(len(data), opt.batch_size, rng)
    curves: list[CurveRow] = []
    skipped_interventions = 0
    skipped_mixups = 0

    for step in range(opt.steps):
        try:
            batch = next(batches)
            stacked = (data.video[batch], data.question[batch], data.answers[batch],
                       data.gold[batch])
            store = model.store
            store.zero_grads()

            draws, gate_cache = None, None
            if use_cl:
                split, gates, gate_cache = _batch_splits(
                    model, *stacked[:2], icfg, None if oracle is None else oracle[batch]
                )
                mix = mixup_intervene(
                    *stacked[:2], data.answers[batch, data.gold[batch]], split, icfg, rng
                )
                skipped_mixups += int(np.count_nonzero(~mix.valid))
                if cfg.bank.regime is not Regime.F1_STATIC:
                    # every block names data.ids, so a sample's dataset index is
                    # its code; under f3 each valid sample's blend with the next
                    # (the last with the first) goes in too
                    blends = None
                    if cfg.bank.regime is Regime.F3_DYNAMIC_MIXUP:
                        mixed = np.flatnonzero(mix.valid)
                        parents = np.c_[batch, np.roll(batch, -1)][mixed]
                        blends = stacked_scenes(mix.v_star[mixed], data.ids, parents)
                    bank.push_batch(stacked_scenes(stacked[0], data.ids, batch), blends)
                draws = _draw_interventions(
                    icfg, bank, data, batch, stacked[0], split, gates, mix, rng
                )
                skipped_interventions += int(np.count_nonzero(mix.valid)) - len(draws.drawn)
            out = _stacked_step(model, stacked, draws, loss_cfg.beta_cl, gate_cache is not None)
            if gate_cache is not None:
                gate_backward(model, out.dgates, gate_cache)
            # summed sample by sample (clean, augmented, do): one fixed order
            # keeps each step's loss reproducible to the bit
            erm_sum = 0.0
            for sample_losses in out.losses:
                for loss in sample_losses:
                    erm_sum += loss
            cl_sum = 0.0
            for cl in out.cl_losses:
                cl_sum += cl
            n_batch = len(batch)
            erm_mean = erm_sum / n_batch
            cl_mean = cl_sum / n_batch
            total = total_loss(erm_mean, cl_mean, loss_cfg)
            store.flat_grads *= 1.0 / n_batch
            adam_step(store, state, opt)
            curves.append(CurveRow(step, float(erm_mean), float(cl_mean), total))
        except nc.NumericsError as exc:
            raise nc.NumericsError(f"step {step}: {exc}") from None

    report = evaluate(model, data)
    report = MetricsReport(
        counts=report.counts, corrects=report.corrects, curves=tuple(curves)
    )
    return TrainResult(model, report, bank, skipped_interventions, skipped_mixups)


# -- checkpoints ----------------------------------------------------------------


# model.json holds {"version", "pcma": the PcmaConfig fields, "gated"}, and
# params.f32 the store's flat params buffer as little-endian float32 in
# model_layout order
CHECKPOINT_VERSION = 4


def save_checkpoint(model: PcmaModel, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"version": CHECKPOINT_VERSION, "pcma": asdict(model.cfg),
            "gated": "gate.w" in model.store}
    features.write_indexed(
        out / "model.json",
        {out / "params.f32": model.store.flat_params.astype("<f4").tobytes()},
        json.dumps(meta, sort_keys=True, indent=2) + "\n",
    )
    return out


@dataclass(frozen=True)
class _ModelJson:
    """model.json's sections besides its version."""

    pcma: PcmaConfig
    gated: bool


def load_checkpoint(out_dir: str | Path) -> PcmaModel:
    """The model saved in out_dir. FormatError names model.json when it is
    missing, its version is not CHECKPOINT_VERSION, or its pcma and gated
    sections do not read as PcmaConfig and a bool; it names params.f32
    when the payload is missing, holds a non-finite value, or holds more or
    fewer floats than the layout model.json describes."""
    path = Path(out_dir) / "model.json"
    meta = read_json(path)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {meta.get('version')!r}, "
                          f"expected {CHECKPOINT_VERSION}; retrain to write this version")
    saved = file_section(path, meta, _ModelJson)
    cfg, gated = saved.pcma, saved.gated
    payload = path.parent / "params.f32"
    values = features._read_payload(payload, "<f4")
    # the walk stops once it passes the stored float count, so outsized pcma
    # dims or layer counts cost nothing here
    layout, size = [], 0
    for name, shape, _ in model_layout(cfg, gated):
        layout.append((name, shape, None))
        size += math.prod(shape)
        if size > values.size:
            break
    if size != values.size:
        relation = "fewer" if size > values.size else "more"
        raise FormatError(
            f"{payload}: holds {values.size} floats, {relation} than {path.name} lays out"
        )
    features._require_finite_payload(str(payload), values)
    store = nc.ParamStore(layout)
    store.flat_params[...] = values
    return PcmaModel(cfg, store=store)


# -- seen/unseen robustness protocol ----------------------------------------------


class ProtocolResult(NamedTuple):
    clean: tuple[MetricsReport, MetricsReport]  # (model_a, model_b)
    seen: tuple[MetricsReport, MetricsReport]
    unseen: tuple[MetricsReport, MetricsReport]
    deltas: dict[str, float]


def seen_unseen_protocol(
    model_a: PcmaModel,
    model_b: PcmaModel,
    data: Dataset,
    masks: Array,
    bank: MemoryBank | None,
    seed: int = 0,
    neighbor_k: int = 1,
) -> ProtocolResult:
    """Cross-regime robustness: model A's intervener is nearest-scene
    replacement, model B's is random replacement. Seen = own intervener,
    unseen = the other's. Gold labels never change; only complement rows do:
    each video's draws exclude itself, one nearest-scene ranking covers
    every video's complement rows, and one generator seeded with seed
    draws every nearest-scene row and then every random row, each in one
    pick. Each model scores its clean, nearest-scene and random views in
    one stacked pass.
    """
    if bank is None or len(bank) == 0:
        raise ValueError("protocol needs a populated memory bank")
    masks = np.asarray(masks, dtype=bool)
    rng = np.random.default_rng(seed)
    codes = bank.codes(data.ids)
    mnse_videos = mnse_do(data.video, ~masks, bank, neighbor_k, rng, codes)
    random_videos = random_do(data.video, ~masks, bank, rng, codes)

    views = (data.video, mnse_videos, random_videos)
    clean_a, near_a, rand_a = evaluate_views(model_a, data, *views)
    clean_b, near_b, rand_b = evaluate_views(model_b, data, *views)
    clean, seen, unseen = (clean_a, clean_b), (near_a, rand_b), (rand_a, near_b)
    deltas = {
        "drop_a_seen": clean[0].overall - seen[0].overall,
        "drop_b_seen": clean[1].overall - seen[1].overall,
        "drop_a_unseen": clean[0].overall - unseen[0].overall,
        "drop_b_unseen": clean[1].overall - unseen[1].overall,
    }
    return ProtocolResult(clean=clean, seen=seen, unseen=unseen, deltas=deltas)


def _reseeded(cfg: ExperimentConfig, offset: int) -> ExperimentConfig:
    data = cfg.data
    if data.synthetic is not None:
        data = replace(
            data, synthetic=replace(data.synthetic, seed=data.synthetic.seed + offset)
        )
    return replace(
        cfg,
        data=data,
        model=replace(cfg.model, seed=cfg.model.seed + offset),
        optimizer=replace(cfg.optimizer, seed=cfg.optimizer.seed + offset),
    )


def robustness_experiment(
    base: ExperimentConfig,
    seeds: Sequence[int],
    baseline: InterventionConfig | None = None,
    neighbor_k_eval: int = 5,
    protocol_seed: int = 0,
) -> dict:
    """Train an intervention-augmented model (A) and a baseline (B) across
    seeds, then compare accuracy drops under held-out replacement operators.

    A is scored on the operator it never trained with. A baseline with its
    own intervention operator is compared strictly on the operator unseen by
    it; a plain baseline (no intervention) never saw either operator, so its
    reference drop is the mean of its drops under both.
    """
    if base.intervention is None:
        raise ValueError("robustness_experiment needs an intervention config for model A")
    rows = []
    for s in seeds:
        cfg_a = _reseeded(base, int(s))
        dataset = load_data(cfg_a.data)
        data, _, masks = dataset
        if masks is None:
            raise ValueError("robustness_experiment needs causal masks")
        # B differs from A only in its intervention: both train on one load
        res_a = train(cfg_a, dataset)
        res_b = train(replace(cfg_a, intervention=baseline), dataset)
        proto = seen_unseen_protocol(
            res_a.model,
            res_b.model,
            data,
            masks,
            res_a.bank,
            seed=protocol_seed,
            neighbor_k=neighbor_k_eval,
        )
        d = dict(proto.deltas)
        if baseline is None:
            d["drop_b_reference"] = 0.5 * (d["drop_b_seen"] + d["drop_b_unseen"])
        else:
            d["drop_b_reference"] = d["drop_b_unseen"]
        rows.append(
            {
                "seed": int(s),
                "clean_a": proto.clean[0].overall,
                "clean_b": proto.clean[1].overall,
                **d,
            }
        )
    mean_a = float(np.mean([r["drop_a_unseen"] for r in rows]))
    mean_ref = float(np.mean([r["drop_b_reference"] for r in rows]))
    return {
        "seeds": [int(s) for s in seeds],
        "baseline": "erm" if baseline is None else "intervention",
        "rows": rows,
        "mean_drop_intervened_unseen": mean_a,
        "mean_drop_baseline_reference": mean_ref,
        "mean_drop_baseline_unseen_strict": float(
            np.mean([r["drop_b_unseen"] for r in rows])
        ),
        "direction_holds": bool(mean_a <= mean_ref),
    }


# -- shortcut probe ----------------------------------------------------------------


def shortcut_probe(data: Dataset) -> MetricsReport:
    """Parameter-free diagnostic: answer choice nearest (by cosine) to the
    mean video row. High accuracy exposes answer leakage into the video
    features."""
    centers = data.video.mean(axis=1)
    answers = data.answers
    sims, _ = nc.cosine_forward(np.broadcast_to(centers[:, None, :], answers.shape), answers)
    return _report_from_predictions(data, np.argmax(sims.value, axis=1))


# -- RL sampler training -------------------------------------------------------------


class RlTrainResult(NamedTuple):
    sampler: sm.RlSampler
    mean_selected_fraction: float
    mean_pred_loss: float
    all_frames_loss: float
    rewards: tuple[float, ...]


def _pred_loss(model: PcmaModel, inst: VideoQAInstance, selected: Sequence[int]) -> float:
    """Answering loss restricted to the selected clips; an empty selection
    scores as an uninformed uniform guess."""
    if len(selected) == 0:
        return float(np.log(inst.answers.shape[0]))
    result, _ = model.forward_full(
        inst.video[sorted(selected)][None], inst.question[None], inst.answers[None]
    )
    loss, _ = pcma_loss(result, [inst.gold], model.cfg.tau)
    return float(loss[0])


def rl_train(
    backbone: PcmaModel,
    sampler: sm.RlSampler,
    data: Dataset,
    episodes: int,
    opt: OptimizerConfig,
    baseline_decay: float = 0.9,
) -> RlTrainResult:
    """REINFORCE with a moving-average baseline; the backbone stays frozen.

    Reward: -pred_loss - gamma * selected fraction, granted at episode end.
    """
    rng = np.random.default_rng(opt.seed)
    state = AdamState()
    baseline = 0.0
    rewards: list[float] = []
    tail_frac: list[float] = []
    tail_loss: list[float] = []
    tail = max(1, episodes // 5)
    for ep_idx in range(episodes):
        inst = data[int(rng.integers(0, len(data)))]
        episode = sm.run_episode(sampler, inst.question, inst.video, rng)
        loss = _pred_loss(backbone, inst, episode.selected)
        reward = sm.s3_rl_reward(episode, loss, inst.n_clips, sampler.cfg.gamma)
        advantage = reward - baseline
        sampler.store.zero_grads()
        # descent on -advantage * log-likelihood = ascent on expected reward
        sm.reinforce_backward(sampler, episode, advantage)
        adam_step(sampler.store, state, opt)
        baseline = baseline_decay * baseline + (1.0 - baseline_decay) * reward
        rewards.append(reward)
        if ep_idx >= episodes - tail:
            tail_frac.append(episode.n_selected / max(1, inst.n_clips))
            tail_loss.append(loss)
    # the all-frames reference loss, scored in stacked chunks
    all_frames = np.empty(len(data))
    for chunk, result, samples in _scored_chunks(backbone, data, data.video):
        all_frames[chunk], _ = pcma_loss(result, data.gold[samples], backbone.cfg.tau)
    return RlTrainResult(
        sampler=sampler,
        mean_selected_fraction=float(np.mean(tail_frac)),
        mean_pred_loss=float(np.mean(tail_loss)),
        all_frames_loss=float(np.mean(all_frames)),
        rewards=tuple(rewards),
    )


# -- artifacts -------------------------------------------------------------------


def resolve_output_dir(cfg_dir: str | None) -> Path:
    override = os.environ.get(OUTPUT_DIR_ENV)
    chosen = override or cfg_dir
    if not chosen:
        raise ConfigError(["output_dir: not set (config field or CAUSALVQA_OUTPUT_DIR)"])
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_metrics(payload: dict, path: str | Path) -> Path:
    body = json.dumps({"version": METRICS_VERSION, **payload}, sort_keys=True, indent=2)
    return write_atomic(path, body + "\n")


def write_curves(rows: Sequence[CurveRow], path: str | Path) -> Path:
    lines = [CURVE_HEADER]
    for r in rows:
        lines.append(f"{r.step},{r.erm_loss!r},{r.cl_loss!r},{r.total_loss!r}")
    return write_atomic(path, "\n".join(lines) + "\n")
