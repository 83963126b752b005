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
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_args, get_type_hints

import numpy as np

from . import features, nn_core as nc
from .features import (
    FormatError,
    Qtype,
    SyntheticSpec,
    VideoQAInstance,
    generate_synthetic,
    load_causal_masks,
    load_dataset,
    load_saliency,
    read_json,
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
    Scenes,
    instance_scenes,
    mnse_do,
    random_do,
    stacked_scenes,
)
from .pcma import PcmaConfig, PcmaModel, model_layout, pcma_loss
from . import samplers as sm

Array = np.ndarray

METRICS_VERSION = 1
# Instances per stacked pass in evaluate and rl_train: bounds the caches one
# pass holds, so scoring a large set does not raise peak memory.
EVAL_CHUNK = 32
CURVE_HEADER = "step,erm_loss,cl_loss,total_loss"
OUTPUT_DIR_ENV = "CAUSALVQA_OUTPUT_DIR"


class ConfigError(ValueError):
    """Carries one message per invalid config field."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class FieldError(ValueError):
    """A config dataclass's rejection of one named field."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(message)


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
    cfg: DataConfig,
) -> tuple[list[VideoQAInstance], list | None, Array | None]:
    """Instances plus optional saliency and causal-mask sidecars;
    ConfigError if there are no instances."""
    if cfg.synthetic is not None:
        data = generate_synthetic(cfg.synthetic)
    else:
        # one parse of the manifest serves the payloads and both sidecars; it is
        # looked up on the features module, where the benchmark's tracer counts it
        manifest = features.read_manifest(cfg.manifest)
        data = (
            load_dataset(cfg.manifest, manifest),
            load_saliency(cfg.manifest, manifest),
            load_causal_masks(cfg.manifest, manifest),
        )
    if not data[0]:
        raise ConfigError(["data: empty dataset"])
    return data


# -- config parsing (JSON sections -> config dataclasses) ------------------------


_JSON_KINDS = {
    bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
    type(None): "null",
}


@cache  # evaluating annotations takes ~0.1 ms a class, and parsing runs per config
def _schema(factory: Callable) -> tuple[dict[str, tuple], tuple[str, ...]]:
    """The accepted kinds of each of a dataclass's fields, and the names of
    the fields with no default."""
    hints = get_type_hints(factory)
    kinds = {f.name: get_args(hints[f.name]) or (hints[f.name],) for f in fields(factory)}
    required = tuple(
        f.name for f in fields(factory) if f.default is MISSING and f.default_factory is MISSING
    )
    return kinds, required


def _json_type_ok(value, kind) -> bool:
    """int takes no bool or float; float takes ints, but only finite values
    (no NaN, Infinity, or 1e400, which json parses as Infinity); bool only
    true/false."""
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            return False
        return kind is int or abs(value) <= sys.float_info.max  # false for NaN
    return isinstance(value, kind)


def build_section(problems: list[str], section: str, factory: Callable, raw: dict):
    """factory(**raw) for one JSON section ("" for the top level), each
    field read by its type hint: a dataclass field is a nested section, an
    Enum field is converted from its value, null is taken only where the
    hint allows None. Keys that name no field go to the factory, which
    rejects them. Returns None with one message appended per missing
    required field or value that does not fit its field, else one for the
    factory's own rejection."""

    def where(key: str | None) -> str:
        return ".".join(part for part in (section, key) if part)

    kinds_of, required = _schema(factory)
    reported = len(problems)
    problems.extend(f"{where(key)}: required" for key in required if key not in raw)
    kwargs = {}
    for key, value in raw.items():
        kinds = kinds_of.get(key, ())
        nested = [kind for kind in kinds if is_dataclass(kind)]
        if not kinds or (value is None and type(None) in kinds):
            kwargs[key] = value
        elif nested and isinstance(value, dict):
            kwargs[key] = build_section(problems, where(key), nested[0], value)
        elif nested:
            problems.append(f"{where(key)}: expected a JSON object")
        elif issubclass(kinds[0], Enum):
            try:
                kwargs[key] = kinds[0](value)
            except ValueError:
                problems.append(f"{where(key)}: unknown {value!r}")
        elif any(_json_type_ok(value, kind) for kind in kinds):
            kwargs[key] = value
        else:
            expected = " or ".join(_JSON_KINDS[kind] for kind in kinds)
            problems.append(f"{where(key)}: expected {expected}, got {json.dumps(value)}")
    if len(problems) > reported:
        return None
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"{where(exc.name if isinstance(exc, FieldError) else None)}: {exc}")
        return None


def read_section(raw: dict, factory: Callable):
    """factory built from the top-level keys of raw that name its fields;
    ConfigError lists every problem at once."""
    problems: list[str] = []
    names = _schema(factory)[0]
    built = build_section(problems, "", factory, {k: v for k, v in raw.items() if k in names})
    if problems:
        raise ConfigError(problems)
    return built


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


def _report_from_predictions(
    instances: Sequence[VideoQAInstance], predictions: Sequence[int]
) -> MetricsReport:
    counts = {name: 0 for name in QTYPE_NAMES.values()}
    corrects = {name: 0 for name in QTYPE_NAMES.values()}
    for inst, pred in zip(instances, predictions):
        name = QTYPE_NAMES[Qtype(inst.qtype)]
        counts[name] += 1
        corrects[name] += int(pred == inst.gold)
    return MetricsReport(counts=counts, corrects=corrects)


def _stacked(insts: Sequence[VideoQAInstance], videos: Sequence[Array] | None = None):
    """(videos, questions, answers, golds) of the instances stacked for one
    pass, videos overriding the instances' own row for row. A run has one
    clip count: np.stack raises ValueError on a mix."""
    return (
        np.stack([inst.video for inst in insts] if videos is None else videos),
        np.stack([inst.question for inst in insts]),
        np.stack([inst.answers for inst in insts]),
        np.array([inst.gold for inst in insts]),
    )


def _scored_chunks(model: PcmaModel, instances: Sequence[VideoQAInstance], videos=None):
    """(slice, AnswerScores, golds) per stacked pass over EVAL_CHUNK
    consecutive instances: stacking per chunk bounds one pass's arrays and
    caches."""
    for start in range(0, len(instances), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        video, question, answers, golds = _stacked(
            instances[chunk], None if videos is None else videos[chunk]
        )
        # drop the cache at once, so no two chunks' caches are alive together
        yield chunk, model.forward_full(video, question, answers)[0], golds


def evaluate(
    model: PcmaModel,
    instances: Sequence[VideoQAInstance],
    videos: Sequence[Array] | None = None,
) -> MetricsReport:
    """Argmax-score accuracy per question type; videos can be overridden
    row-for-row to evaluate under interventions."""
    predictions = np.empty(len(instances), dtype=np.int64)
    for chunk, result, _ in _scored_chunks(model, instances, videos):
        predictions[chunk] = result.predicted
    return _report_from_predictions(instances, predictions)


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
        yield [int(i) for i in order[pos : pos + min(batch_size, n)]]
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


def _mixed_samples(
    stacked: tuple, ids: list[str], masks: Array, icfg: InterventionConfig, rng: np.random.Generator
) -> tuple[Mixup, Scenes]:
    """Every sample of the stacked batch blended with the next one (the
    last with the first) in one mixup_intervene call, plus the valid
    samples' mixed clip rows as bank scenes with "a+b" provenance."""
    video, question, answers, golds = stacked
    mix = mixup_intervene(
        video, question, answers[np.arange(len(golds)), golds], masks, icfg, rng
    )
    mixed = np.flatnonzero(mix.valid)
    blend_ids = [f"{ids[j]}+{ids[(j + 1) % len(ids)]}" for j in mixed]
    return mix, stacked_scenes(mix.v_star[mixed], blend_ids)


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
    instances: Sequence[VideoQAInstance],
    batch: list[int],
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
    sample's eligible pool; under nearest-scene sourcing the row's topk,
    from one ranking of the do views' complement rows and every v_star
    row, whose causal rows every negative draws from again."""
    mixed = np.flatnonzero(mix.valid)
    drawn = mixed[bank.eligible_counts([instances[batch[j]].video_id for j in mixed]) > 0]
    own = [instances[batch[j]].video_id for j in drawn]
    # every bank scene comes from the instances, so a sample that may draw
    # one has another instance to take a question from
    raw = rng.integers(0, len(instances) - 1, size=len(drawn))
    others = _other_index(raw, np.asarray(batch)[drawn])
    q_r = np.array([instances[i].question for i in others])
    q_r = q_r.reshape(len(drawn), mix.q_star.shape[1])

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
        ids = [own[s] for s in np.nonzero(queried)[0]]
        sources = np.stack([video[drawn], mix.v_star[drawn]], axis=1)
        candidates = bank.candidates(ids, sources[queried], icfg.neighbor_k)
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
    dataset: tuple[list[VideoQAInstance], list | None, Array | None] | None = None,
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
    instances, _, masks = load_data(cfg.data) if dataset is None else dataset
    if cfg.use_oracle_masks and masks is None:
        raise ConfigError(["use_oracle_masks: dataset has no causal-mask sidecar"])
    video_dim, text_dim, n_clips = (
        instances[0].video_dim, instances[0].text_dim, instances[0].n_clips
    )
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
            bank.populate(instance_scenes(instances)).freeze()
    oracle = np.asarray(masks, dtype=bool) if cfg.use_oracle_masks else None

    opt = cfg.optimizer
    state = AdamState()
    rng = np.random.default_rng(opt.seed)
    batches = _batch_order(len(instances), opt.batch_size, rng)
    curves: list[CurveRow] = []
    skipped_interventions = 0
    skipped_mixups = 0

    for step in range(opt.steps):
        try:
            batch = next(batches)
            insts = [instances[i] for i in batch]
            stacked = _stacked(insts)
            store = model.store
            store.zero_grads()

            draws, gate_cache = None, None
            if use_cl:
                ids = [inst.video_id for inst in insts]
                split, gates, gate_cache = _batch_splits(
                    model, *stacked[:2], icfg, None if oracle is None else oracle[batch]
                )
                mix, mixup_rows = _mixed_samples(stacked, ids, split, icfg, rng)
                skipped_mixups += int(np.count_nonzero(~mix.valid))
                if cfg.bank.regime is not Regime.F1_STATIC:
                    bank.push_batch(
                        stacked_scenes(stacked[0], ids),
                        mixup_rows if cfg.bank.regime is Regime.F3_DYNAMIC_MIXUP else None,
                    )
                draws = _draw_interventions(
                    icfg, bank, instances, batch, stacked[0], split, gates, mix, rng
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

    report = evaluate(model, instances)
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
    try:
        saved = read_section(meta, _ModelJson)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
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
    instances: Sequence[VideoQAInstance],
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
    pick.
    """
    if bank is None or len(bank) == 0:
        raise ValueError("protocol needs a populated memory bank")
    videos = np.stack([inst.video for inst in instances])
    masks = np.asarray(masks, dtype=bool)
    rng = np.random.default_rng(seed)
    ids = [inst.video_id for inst in instances]
    mnse_videos = mnse_do(videos, ~masks, bank, neighbor_k, rng, ids)
    random_videos = random_do(videos, ~masks, bank, rng, ids)

    clean = (evaluate(model_a, instances), evaluate(model_b, instances))
    seen = (
        evaluate(model_a, instances, mnse_videos),
        evaluate(model_b, instances, random_videos),
    )
    unseen = (
        evaluate(model_a, instances, random_videos),
        evaluate(model_b, instances, mnse_videos),
    )
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
        instances, _, masks = dataset
        if masks is None:
            raise ValueError("robustness_experiment needs causal masks")
        # B differs from A only in its intervention: both train on one load
        res_a = train(cfg_a, dataset)
        res_b = train(replace(cfg_a, intervention=baseline), dataset)
        proto = seen_unseen_protocol(
            res_a.model,
            res_b.model,
            instances,
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


def shortcut_probe(instances: Sequence[VideoQAInstance]) -> MetricsReport:
    """Parameter-free diagnostic: answer choice nearest (by cosine) to the
    mean video row. High accuracy exposes answer leakage into the video
    features."""
    if not instances:
        return _report_from_predictions(instances, [])
    centers = np.stack([inst.video.mean(axis=0) for inst in instances])
    answers = np.stack([inst.answers for inst in instances])
    sims, _ = nc.cosine_forward(np.broadcast_to(centers[:, None, :], answers.shape), answers)
    return _report_from_predictions(instances, np.argmax(sims.value, axis=1))


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
    instances: Sequence[VideoQAInstance],
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
        inst = instances[int(rng.integers(0, len(instances)))]
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
    all_frames = np.empty(len(instances))
    for chunk, result, golds in _scored_chunks(backbone, instances):
        all_frames[chunk], _ = pcma_loss(result, golds, backbone.cfg.tau)
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
