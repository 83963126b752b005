"""Experiment harness: run configs, the training loop, accuracy metrics
split by question type, the seen/unseen intervention robustness protocol,
the answer-video shortcut probe, and artifact writers.

Everything is driven by one JSON config and one seed; reruns with the
same config produce byte-identical metrics and curves.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from itertools import chain, islice
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_args, get_type_hints

import numpy as np

from . import nn_core as nc
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
    CausalSplit,
    DegenerateSplitError,
    InterventionConfig,
    MemorySource,
    TripletDraw,
    build_triplet_cached,
    draw_triplet,
    gate_backward,
    gate_forward,
    gate_layout,
    infonce_loss,
    mixup_intervene,
    assemble_video,
    split_from_gates,
    total_loss,
    triplet_backward,
)
from .mnse import MemoryBank, Metric, Regime, Target, instance_scenes, mnse_do, random_do
from .pcma import PcmaConfig, PcmaModel, param_layout, pcma_loss
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
        if problems:
            raise ValueError("; ".join(problems))


class AdamState:
    """First/second moments aligned with a store's flat params buffer; the
    first step allocates them and fixes the store's layout."""

    def __init__(self) -> None:
        self.t = 0
        self.m = np.zeros(0)
        self.v = np.zeros(0)


def adam_step(store: nc.ParamStore, state: AdamState, cfg: OptimizerConfig) -> None:
    """One bias-corrected Adam update over the store's whole params buffer
    (Kingma & Ba, arXiv:1412.6980), element by element as per tensor."""
    g = store.flat_grads
    if state.t == 0:
        store.fix_layout()
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.t += 1
    state.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    if cfg.lr == 0.0:
        return  # parameters must stay bit-identical
    mhat = state.m / (1.0 - cfg.beta1**state.t)
    vhat = state.v / (1.0 - cfg.beta2**state.t)
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
    """Instances plus optional saliency and causal-mask sidecars."""
    if cfg.synthetic is not None:
        return generate_synthetic(cfg.synthetic)
    instances = load_dataset(cfg.manifest)
    return instances, load_saliency(cfg.manifest), load_causal_masks(cfg.manifest)


# -- config parsing (JSON dict -> ExperimentConfig) -----------------------------


_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number", type(None): "null"}
_field_types = cache(get_type_hints)  # evaluating annotations takes ~0.1 ms a class


def _json_type_ok(value, kind) -> bool:
    """int takes no bool or float, float takes ints, bool only true/false;
    enum and nested-spec fields are converted before the section is built."""
    if kind in (int, float):
        return isinstance(value, (int, kind)) and not isinstance(value, bool)
    return isinstance(value, kind) if kind in _JSON_KINDS else True


def build_section(problems: list[str], section: str, factory: Callable, kwargs: dict | None):
    """factory(**kwargs) for one config section ("" for the top level), or
    None with one message appended per JSON value whose type does not match
    its dataclass field, else one for the factory's own rejection."""
    if kwargs is None:
        return None

    def where(key: str | None) -> str:
        return ".".join(part for part in (section, key) if part)

    hints = _field_types(factory)
    mismatched = []
    for key, value in kwargs.items():
        kinds = get_args(hints.get(key)) or (hints.get(key),)
        if not any(_json_type_ok(value, kind) for kind in kinds):
            expected = " or ".join(_JSON_KINDS[kind] for kind in kinds)
            mismatched.append(f"{where(key)}: expected {expected}, got {json.dumps(value)}")
    if mismatched:
        problems.extend(mismatched)
        return None
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"{where(exc.name if isinstance(exc, FieldError) else None)}: {exc}")
        return None


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Build a validated config from a JSON dict.

    Collects one message per invalid field and reports them all at once.
    """
    problems: list[str] = []

    build = partial(build_section, problems)

    def section(parent: dict, key: str, name: str | None = None) -> dict | None:
        """A copy of parent[key] ({} when absent), or None if not an object."""
        value = parent.get(key, {})
        if not isinstance(value, dict):
            problems.append(f"{name or key}: expected a JSON object")
            return None
        return dict(value)

    def enum_field(kwargs: dict | None, key: str, enum_cls, name: str) -> None:
        if kwargs is not None and key in kwargs:
            try:
                kwargs[key] = enum_cls(kwargs[key])
            except ValueError:
                problems.append(f"{name}.{key}: unknown {kwargs.pop(key)!r}")

    data = None
    data_raw = section(raw, "data")
    if data_raw is None:
        pass  # reported by section()
    elif "synthetic" in data_raw:
        spec = build(
            "data.synthetic", SyntheticSpec, section(data_raw, "synthetic", "data.synthetic")
        )
        data = build("data", DataConfig, {"synthetic": spec}) if spec else None
    elif "manifest" in data_raw:
        data = build("data", DataConfig, {"manifest": str(data_raw["manifest"])})
    else:
        problems.append("data: required section with synthetic | manifest")

    model = build("model", ModelConfig, section(raw, "model"))
    optimizer = build("optimizer", OptimizerConfig, section(raw, "optimizer"))

    ikw = section(raw, "intervention") if "intervention" in raw else None
    enum_field(ikw, "memory_source", MemorySource, "intervention")
    intervention = build("intervention", InterventionConfig, ikw)

    bkw = section(raw, "bank")
    enum_field(bkw, "regime", Regime, "bank")
    enum_field(bkw, "metric", Metric, "bank")
    bank = build("bank", BankConfig, bkw)

    use_oracle = raw.get("use_oracle_masks", False)
    if not isinstance(use_oracle, bool):
        problems.append("use_oracle_masks: expected true/false")
        use_oracle = False
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        problems.append("output_dir: expected string path")
        output_dir = None

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        data=data,
        model=model,
        optimizer=optimizer,
        intervention=intervention,
        bank=bank,
        use_oracle_masks=use_oracle,
        output_dir=output_dir,
    )


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
    instances: Sequence[VideoQAInstance],
    predictions: Sequence[int],
    curves: tuple[CurveRow, ...] = (),
    deltas: dict[str, float] | None = None,
) -> MetricsReport:
    counts = {name: 0 for name in QTYPE_NAMES.values()}
    corrects = {name: 0 for name in QTYPE_NAMES.values()}
    for inst, pred in zip(instances, predictions):
        name = QTYPE_NAMES[Qtype(inst.qtype)]
        counts[name] += 1
        corrects[name] += int(pred == inst.gold)
    return MetricsReport(
        counts=counts, corrects=corrects, curves=curves, deltas=deltas or {}
    )


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
    insts: list[VideoQAInstance],
    icfg: InterventionConfig,
    masks: list[Array] | None,
) -> tuple[list[CausalSplit], dict | None]:
    """Causal splits from the oracle masks when given, else from the
    learned gates of one gate_forward over the batch, whose cache is
    returned for backprop."""
    if masks is not None:
        bool_masks = [np.asarray(m, dtype=bool) for m in masks]
        return [CausalSplit(mask=m, gates=m.astype(np.float64)) for m in bool_masks], None
    video, question, _, _ = _stacked(insts)
    gates, cache = gate_forward(model, video, question)
    return [split_from_gates(g, topk_mode=icfg.topk_mode, k=icfg.k) for g in gates], cache


def _mixed_samples(
    insts: list[VideoQAInstance],
    splits: list[CausalSplit],
    icfg: InterventionConfig,
    rng: np.random.Generator,
) -> tuple[list[tuple | None], list[tuple[Array, str, int]]]:
    """Each sample blended with the next one in the batch (the last with the
    first): (split, mixup, mixed video), or None when a split is degenerate;
    plus the mixed clip rows as bank scenes with "a+b" provenance."""
    prepared: list[tuple | None] = []
    mixup_rows = []
    for j, inst in enumerate(insts):
        partner = (j + 1) % len(insts)
        try:
            mix = mixup_intervene(inst, splits[j], insts[partner], splits[partner], icfg, rng)
        except DegenerateSplitError:
            prepared.append(None)
            continue
        v_star = assemble_video(splits[j].mask, mix.c_star, mix.t_star)
        prepared.append((splits[j], mix, v_star))
        blend_id = f"{inst.video_id}+{mix.partner_id}"
        mixup_rows.extend((row, blend_id, r) for r, row in enumerate(v_star))
    return prepared, mixup_rows


def _clean_pass(
    model: PcmaModel, insts: list[VideoQAInstance], gates: list[Array | None]
) -> tuple[Array, Array]:
    """Answer losses of the clean samples in one stacked pass, and gate
    gradients [B, n_clips], zero for samples given no gates. A sample given
    gates is scored on gate-weighted clip rows, so answering pressure
    teaches the gates which clips matter. Weights are mean-normalized: only
    relative gate values count, not the overall input scale."""
    weights = [None if g is None else g / g.mean() for g in gates]
    videos = [
        inst.video if w is None else w[:, None] * inst.video for inst, w in zip(insts, weights)
    ]
    losses, _, igrads = model.loss_and_grads(*_stacked(insts, videos))
    dgates = np.zeros(igrads.video.shape[:2])
    for r, w in enumerate(weights):
        if w is not None:
            dweights = (igrads.video[r] * insts[r].video).sum(axis=1)
            dgates[r] = (dweights - w @ dweights / len(w)) / gates[r].mean()
    return losses, dgates


def _do_complement(
    inst: VideoQAInstance, mask: Array, bank: MemoryBank, source: MemorySource, k: int, seed: int
) -> Array:
    """The instance's video with its complement rows replaced by bank scenes
    of other videos: drawn among each row's k nearest for MNSE, else uniform."""
    if source is MemorySource.MNSE:
        return mnse_do(inst.video, mask, bank, Target.COMPLEMENT, k, seed, inst.video_id)
    return random_do(inst.video, mask, bank, Target.COMPLEMENT, seed, inst.video_id)


class _Draws(NamedTuple):
    """Every random draw of one step's interventions, in batch order."""

    views: list[tuple]  # (batch position, video, question, answers, gold) per answer view
    triplets: list[tuple[int, TripletDraw]]  # (batch position, drawn triplet)


def _draw_interventions(
    icfg: InterventionConfig,
    bank: MemoryBank,
    instances: Sequence[VideoQAInstance],
    batch: list[int],
    prepared: list[tuple | None],
    rng: np.random.Generator,
) -> _Draws:
    """Each mixed sample's augmented view and, when the bank holds a scene
    it may draw, its do-intervened view and triplet. Per such sample the
    draws come in one order: the do seed and do-video, the random
    question's index, then the triplet substitutes. A sample with no
    eligible scene draws nothing."""
    views, triplets = [], []
    for j, entry in enumerate(prepared):
        if entry is None:
            continue
        inst = instances[batch[j]]
        split, mix, v_star = entry
        # the intervened sample also carries the answering loss: the mixed
        # gold answer replaces the gold row at its position
        answers_aug = inst.answers.copy()
        answers_aug[inst.gold] = mix.a_star
        views.append((j, v_star, mix.q_star, answers_aug, inst.gold))
        if not len(bank.eligible(inst.video_id)):
            continue
        # do-intervened sample: complement rows swapped for bank scenes,
        # gold unchanged, training the head itself to be invariant
        v_do = _do_complement(
            inst, split.mask, bank, icfg.memory_source, icfg.neighbor_k, int(rng.integers(2**32))
        )
        views.append((j, v_do, inst.question, inst.answers, inst.gold))
        r_idx = int(rng.integers(0, len(instances)))
        if len(instances) > 1 and r_idx == batch[j]:
            r_idx = (r_idx + 1) % len(instances)
        triplets.append((j, draw_triplet(
            v_star, mix.q_star, split, bank, instances[r_idx].question, icfg, rng, inst.video_id
        )))
    return _Draws(views, triplets)


class _Intervened(NamedTuple):
    """A step's intervened passes over its mixed samples."""

    losses: list[list]  # per batch position: augmented, then do answer loss
    cl_losses: list[float]  # per triplet, in batch order
    positions: list[int]  # batch position of each triplet
    dgates: Array  # [n_triplets, n_clips] gate gradients of the triplets


def _intervened_passes(
    model: PcmaModel,
    icfg: InterventionConfig,
    bank: MemoryBank,
    instances: Sequence[VideoQAInstance],
    batch: list[int],
    prepared: list[tuple | None],
    rng: np.random.Generator,
) -> _Intervened:
    """Draw every intervention of the batch, then run one stacked augmented
    + do pass and one stacked triplet pass, each cache dropped once its
    backward is done. Backbone gradients accumulate on the store."""
    draws = _draw_interventions(icfg, bank, instances, batch, prepared, rng)
    losses: list[list] = [[] for _ in batch]
    if draws.views:
        positions, *columns, golds = zip(*draws.views)
        view_losses, _, _ = model.loss_and_grads(
            *(np.stack(column) for column in columns), np.array(golds)
        )
        for j, loss in zip(positions, view_losses):
            losses[j].append(loss)
    if not draws.triplets:
        return _Intervened(losses, [], [], np.zeros((0, instances[batch[0]].n_clips)))
    positions, triplet_draws = zip(*draws.triplets)
    aggs, cache = build_triplet_cached(model, triplet_draws)
    cl_losses, daggs = infonce_loss(aggs)
    dgates = triplet_backward(model, icfg.beta_cl * daggs, cache)
    return _Intervened(losses, cl_losses.tolist(), list(positions), dgates)


def train(
    cfg: ExperimentConfig,
    dataset: tuple[list[VideoQAInstance], list | None, Array | None] | None = None,
) -> TrainResult:
    """Adam on the answering loss, plus the weighted contrastive loss when
    an intervention config with beta_cl > 0 is present.

    Each step runs one gate pass and one clean answer pass over the whole
    batch, draws every intervention of the batch, then runs one stacked
    augmented + do-intervened pass and one stacked triplet pass over all
    mixed samples. A sample whose causal split is degenerate
    is left out of mixup (counted in skipped_mixups); one with no eligible
    bank scene keeps its answer passes but skips its do-pass and triplet
    (counted in skipped_interventions).

    Deterministic given the config; aborts with the step number if the
    loss goes non-finite.
    """
    instances, _, masks = load_data(cfg.data) if dataset is None else dataset
    if not instances:
        raise ValueError("training needs at least one instance")
    if cfg.use_oracle_masks and masks is None:
        raise ConfigError(["use_oracle_masks: dataset has no causal-mask sidecar"])
    video_dim, text_dim = instances[0].video_dim, instances[0].text_dim
    model = PcmaModel(cfg.model.pcma(video_dim, text_dim))
    icfg = cfg.intervention
    use_cl = cfg.contrastive
    # without the contrastive term the total is the answering loss alone
    loss_cfg = icfg if use_cl else InterventionConfig(beta_cl=0.0)
    if use_cl and not cfg.use_oracle_masks:
        # create the gate parameters before the first Adam step fixes the layout
        gate_forward(model, instances[0].video[None], instances[0].question[None])

    bank = None
    if use_cl:
        bank = MemoryBank(
            video_dim, metric=cfg.bank.metric, regime=cfg.bank.regime, window=cfg.bank.window
        )
        if cfg.bank.regime is Regime.F1_STATIC:
            bank.populate(instance_scenes(instances)).freeze()

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
            store = model.store
            store.zero_grads()

            prepared: list[tuple | None] = [None] * len(batch)
            gate_cache = None
            if use_cl:
                splits, gate_cache = _batch_splits(
                    model, insts, icfg,
                    [masks[i] for i in batch] if cfg.use_oracle_masks else None,
                )
                prepared, mixup_rows = _mixed_samples(insts, splits, icfg, rng)
                skipped_mixups += sum(entry is None for entry in prepared)
                if cfg.bank.regime is not Regime.F1_STATIC:
                    bank.push_batch(
                        instance_scenes(insts),
                        mixup_rows if cfg.bank.regime is Regime.F3_DYNAMIC_MIXUP else None,
                    )

            clean, dgates = _clean_pass(model, insts, [
                entry[0].gates if gate_cache is not None and entry is not None else None
                for entry in prepared
            ])
            view_losses: list[list] = [[] for _ in batch]
            cl_losses: list[float] = []
            if use_cl:
                out = _intervened_passes(model, icfg, bank, instances, batch, prepared, rng)
                view_losses, cl_losses = out.losses, out.cl_losses
                skipped_interventions += (
                    sum(entry is not None for entry in prepared) - len(out.positions)
                )
                if gate_cache is not None:
                    dgates[out.positions] += out.dgates
                    gate_backward(model, dgates, gate_cache)
            # summed sample by sample (clean, augmented, do): one fixed order
            # keeps each step's loss reproducible to the bit
            erm_sum = 0.0
            for j, loss in enumerate(clean):
                erm_sum += loss
                for view_loss in view_losses[j]:
                    erm_sum += view_loss
            cl_sum = 0.0
            for cl in cl_losses:
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


def save_checkpoint(model: PcmaModel, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model.store.save(out / "params.json")
    write_atomic(
        out / "model.json",
        json.dumps({"version": nc.CHECKPOINT_VERSION, "pcma": asdict(model.cfg)},
                   sort_keys=True, indent=2)
        + "\n",
    )
    return out


def load_checkpoint(out_dir: str | Path) -> PcmaModel:
    """The model saved in out_dir; FormatError names model.json when its
    pcma section lacks a field, has an unknown one, or holds a value
    PcmaConfig rejects, and names params.json and the tensor when the
    stored tensors differ in name or shape from those the pcma section
    builds (with the gate tensors when gate.w is stored)."""
    path = Path(out_dir) / "model.json"
    meta = read_json(path)
    nc.check_checkpoint_version(path, meta.get("version"))
    problems: list[str] = []
    pcma = meta.get("pcma")
    cfg = build_section(problems, "pcma", PcmaConfig, pcma) if isinstance(pcma, dict) else None
    if cfg is None:
        raise FormatError(f"{path}: " + ("; ".join(problems) or "pcma: expected a JSON object"))
    params = path.parent / "params.json"
    store = nc.ParamStore.load(params)
    have = {name: store[name].shape for name in store.names()}
    layout = chain(param_layout(cfg), gate_layout(cfg.model_dim) if "gate.w" in store else ())
    # one tensor past the stored count is enough to find a mismatch, so
    # outsized pcma dims or layer counts cost nothing here
    want = {name: shape for name, shape, _ in islice(layout, len(have) + 1)}
    for name in sorted(have.keys() | want.keys()):
        if have.get(name) != want.get(name):
            raise FormatError(
                f"{params}: tensor {name}: stored shape {have.get(name, 'none')}, "
                f"{path.name} shape {want.get(name, 'none')}"
            )
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
    unseen = the other's. Gold labels never change; only complement rows do.
    """
    if bank is None or len(bank) == 0:
        raise ValueError("protocol needs a populated memory bank")
    masks = np.asarray(masks, dtype=bool)
    mnse_videos, random_videos = (
        [_do_complement(inst, masks[i], bank, source, neighbor_k, seed * 1009 + i)
         for i, inst in enumerate(instances)]
        for source in (MemorySource.MNSE, MemorySource.RANDOM_BANK)
    )

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
        cfg_b = replace(cfg_a, intervention=baseline)
        res_a = train(cfg_a)
        res_b = train(cfg_b)
        instances, _, masks = load_data(cfg_a.data)
        if masks is None:
            raise ValueError("robustness_experiment needs causal masks")
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
