"""Harness tests: metrics aggregation, config parsing, the training loop,
the seen/unseen robustness protocol, the shortcut probe, RL sampler
training, and artifact writers."""

import json
import os
import tempfile
import warnings
from dataclasses import fields, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import get_args, get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

import causalvqa.harness as hn
import causalvqa.mnse as mnse
import causalvqa.nn_core as nc
import causalvqa.samplers as sm
from causalvqa import features
from causalvqa.cli import cli_main
from causalvqa.features import (
    Dataset, FormatError, Qtype, SyntheticSpec, generate_synthetic, save_dataset,
)
from causalvqa.harness import (
    AdamState,
    BankConfig,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    MetricsReport,
    ModelConfig,
    OptimizerConfig,
    adam_step,
    evaluate,
    load_checkpoint,
    load_data,
    parse_experiment_config,
    resolve_output_dir,
    save_checkpoint,
    seen_unseen_protocol,
    shortcut_probe,
    train,
    write_curves,
    write_metrics,
)
from causalvqa.intervention import (
    InterventionConfig,
    MemorySource,
    gate_forward,
    mixup_intervene,
)
from causalvqa.mnse import (
    MemoryBank,
    Metric,
    Regime,
    instance_scenes,
    mnse_do,
    stacked_scenes,
)
from causalvqa.pcma import PcmaConfig, PcmaModel
from reference_adam import ReferenceAdam
from reference_protocol import reference_pool, reference_protocol, reference_protocol_videos
from gradcheck import assert_grad_matches
from reference_step import draw_triplet, reference_step, triplet_aggregates


def small_model(
    seed: int = 3, video_dim: int = 24, text_dim: int = 24, gated: bool = False
) -> PcmaModel:
    cfg = ModelConfig(model_dim=32, n_heads=4, n_layers=1, seed=seed)
    return PcmaModel(cfg.pcma(video_dim, text_dim), gated=gated)


def synth(n: int, seed: int = 0, **kw) -> tuple:
    defaults = dict(n_clips=8, video_dim=24, text_dim=24, noise_std=0.1)
    defaults.update(kw)
    return generate_synthetic(SyntheticSpec(n_instances=n, seed=seed, **defaults))


def batch_arrays(data: Dataset, batch) -> tuple:
    """(video, question, answers, gold) of the batch's samples, indexed as a
    training step indexes them."""
    return data.video[batch], data.question[batch], data.answers[batch], data.gold[batch]


def mixed_and_pushed(bank, data: Dataset, batch, stacked: tuple, split, icfg, rng):
    """A training step's mixup of the batch (each sample blended with the
    next, the last with the first) and, under f2 and f3, its push: the
    batch's scenes and, under f3, its valid samples' blends, every block
    naming data.ids with dataset indices as codes."""
    mix = mixup_intervene(*stacked[:2], data.answers[batch, data.gold[batch]], split, icfg, rng)
    if bank.regime is not Regime.F1_STATIC:
        blends = None
        if bank.regime is Regime.F3_DYNAMIC_MIXUP:
            mixed = np.flatnonzero(mix.valid)
            parents = np.c_[batch, np.roll(batch, -1)][mixed]
            blends = stacked_scenes(mix.v_star[mixed], data.ids, parents)
        bank.push_batch(stacked_scenes(stacked[0], data.ids, batch), blends)
    return mix


def rebuilt(data: Dataset, **changes) -> Dataset:
    """The Dataset of data's arrays, with the named ones replaced."""
    arrays = dict(ids=data.ids, video=data.video, question=data.question,
                  answers=data.answers, gold=data.gold, qtype=data.qtype)
    return Dataset(**{**arrays, **changes})


class TestLoadData:
    def test_a_manifest_is_parsed_once_per_load(self, tmp_path, monkeypatch):
        instances, saliencies, masks = synth(5, seed=2)
        save_dataset(instances, tmp_path / "d.json", saliencies=saliencies, causal_masks=masks)
        reads = []
        read = features.read_manifest
        monkeypatch.setattr(features, "read_manifest", lambda p: reads.append(p) or read(p))
        cfg = DataConfig(manifest=str(tmp_path / "d.json"))
        for saliency in (False, True):
            reads.clear()
            loaded, loaded_saliencies, loaded_masks = load_data(cfg, saliency=saliency)
            assert reads == [str(tmp_path / "d.json")]
            assert [i.video_id for i in loaded] == [i.video_id for i in instances]
            if saliency:
                assert len(loaded_saliencies) == 5
            else:
                assert loaded_saliencies is None
            np.testing.assert_array_equal(loaded_masks, masks)

    @pytest.mark.parametrize("source", ["manifest", "synthetic"])
    def test_saliency_is_read_only_when_asked_for(self, tmp_path, monkeypatch, source):
        spec = SyntheticSpec(n_instances=5, seed=2, n_clips=8, video_dim=24, text_dim=24)
        instances, saliencies, masks = generate_synthetic(spec)
        save_dataset(instances, tmp_path / "d.json", saliencies=saliencies, causal_masks=masks)

        def refuse(*args):
            raise AssertionError("the saliency sidecar was read")

        for owner in (features, hn):
            monkeypatch.setattr(owner, "load_saliency", refuse)
        cfg = (
            DataConfig(manifest=str(tmp_path / "d.json")) if source == "manifest"
            else DataConfig(synthetic=spec)
        )
        loaded, loaded_saliencies, loaded_masks = load_data(cfg)
        assert len(loaded) == 5 and loaded_saliencies is None
        np.testing.assert_array_equal(loaded_masks, masks)


# -- metrics ---------------------------------------------------------------------


class TestMetricsReport:
    def test_overall_is_count_weighted_mean(self):
        rep = MetricsReport(
            counts={"causal": 4, "temporal": 2, "descriptive": 4},
            corrects={"causal": 3, "temporal": 1, "descriptive": 0},
        )
        assert rep.overall == pytest.approx(4 / 10)
        assert rep.acc_causal == pytest.approx(3 / 4)
        assert rep.acc_temporal == pytest.approx(1 / 2)
        assert rep.acc_descriptive == 0.0

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_recount_identity_exact(self, counts, data):
        corrects = [data.draw(st.integers(min_value=0, max_value=c)) for c in counts]
        names = ("causal", "temporal", "descriptive")
        rep = MetricsReport(
            counts=dict(zip(names, counts)), corrects=dict(zip(names, corrects))
        )
        if sum(counts) == 0:
            with pytest.raises(ValueError):
                rep.overall
            return
        # overall is the exact count ratio; the count-weighted mean of the
        # per-type accuracies equals the same rational number
        assert rep.overall == sum(corrects) / sum(counts)
        weighted = sum(
            Fraction(c) * Fraction(k, c) for c, k in zip(counts, corrects) if c
        )
        assert weighted / sum(counts) == Fraction(sum(corrects), sum(counts))
        for name, c, k in zip(names, counts, corrects):
            if c == 0:
                assert rep.acc(name) is None
            else:
                assert rep.acc(name) == k / c

    def test_absent_type_is_none_never_zero(self):
        rep = MetricsReport(counts={"causal": 1}, corrects={"causal": 1})
        assert rep.acc_temporal is None
        assert rep.acc_descriptive is None
        assert rep.overall == 1.0
        d = rep.to_dict()
        assert d["acc_temporal"] is None and d["acc_causal"] == 1.0

    def test_corrects_beyond_counts_rejected(self):
        with pytest.raises(ValueError):
            MetricsReport(counts={"causal": 1}, corrects={"causal": 2})

    def test_to_dict_round_trips_through_json(self):
        rep = MetricsReport(counts={"causal": 2}, corrects={"causal": 1})
        parsed = json.loads(json.dumps(rep.to_dict()))
        assert parsed["overall"] == 0.5


class TestEvaluate:
    def test_untrained_model_scores_at_chance(self):
        # one initialisation alone scores anywhere in about [0.15, 0.27] on
        # this data, so chance is asserted of the mean over twelve
        instances, _, _ = synth(2000, seed=42)
        overall = np.mean([evaluate(small_model(seed=s), instances).overall for s in range(12)])
        assert 0.17 <= overall <= 0.23

    def test_single_causal_instance_report(self):
        instances, _, _ = synth(1, seed=22)
        inst = instances[0]
        assert inst.qtype is Qtype.CAUSAL
        model = small_model(seed=3)
        scores, _ = model.forward_full(inst.video[None], inst.question[None], inst.answers[None])
        predicted = int(scores.predicted[0])
        for gold, acc in ((predicted, 1.0), ((predicted + 1) % len(inst.answers), 0.0)):
            rep = evaluate(model, rebuilt(instances, gold=[gold]))
            assert rep.overall == acc
            assert rep.acc_causal == acc
            assert rep.acc_temporal is None
            assert rep.acc_descriptive is None

    def test_video_override_with_originals_is_identity(self):
        instances, _, _ = synth(20, seed=7)
        model = small_model()
        base = evaluate(model, instances)
        same = evaluate(model, instances, np.array(instances.video))
        assert base.counts == same.counts and base.corrects == same.corrects

    @staticmethod
    def _one_at_a_time(model, instances):
        """Reference predictions: one single-sample pass per instance."""
        preds = []
        for inst in instances:
            result, _ = model.forward_full(
                inst.video[None], inst.question[None], inst.answers[None]
            )
            preds.append(int(result.predicted[0]))
        return preds

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 63, 64, 65, 128, 129])
    def test_chunked_predictions_match_single_passes(self, n, monkeypatch):
        instances, _, _ = synth(n, seed=13)
        model = small_model(seed=4)
        seen = []
        monkeypatch.setattr(
            hn, "_report_from_predictions", lambda insts, preds: seen.append(list(preds))
        )
        evaluate(model, instances)
        assert seen == [self._one_at_a_time(model, instances)]

    def test_mixed_clip_counts_raise(self):
        # a run has one clip count: a Dataset holds one [N, n_clips, video_dim]
        # array, so neither evaluate nor train can be handed a mix
        eight, _, _ = synth(3, seed=1, n_clips=8)
        three, _, _ = synth(3, seed=2, n_clips=3)
        with pytest.raises(ValueError, match="inhomogeneous"):
            Dataset(
                [f"v{i}" for i in range(6)], [*eight.video, *three.video],
                *(np.concatenate([getattr(eight, name), getattr(three, name)])
                  for name in ("question", "answers", "gold", "qtype")),
            )


# -- config parsing ----------------------------------------------------------------


class TestConfigParsing:
    def test_minimal_config_parses(self):
        cfg = parse_experiment_config(
            {"data": {"synthetic": {"n_instances": 4, "video_dim": 8, "text_dim": 8}}}
        )
        assert cfg.data.synthetic.n_instances == 4
        assert cfg.intervention is None
        assert not cfg.contrastive

    def test_all_invalid_fields_reported_together(self):
        raw = {
            "data": {"synthetic": {"n_instances": 4, "video_dim": 0}},
            "optimizer": {"lr": -1.0, "batch_size": 0},
            "bank": {"regime": "f9"},
            "intervention": {"memory_source": "warp"},
        }
        with pytest.raises(ConfigError) as err:
            parse_experiment_config(raw)
        text = str(err.value)
        assert "data.synthetic" in text
        assert "lr must be finite and nonnegative" in text
        assert "batch_size must be >= 1" in text
        assert "bank.regime" in text
        assert "intervention.memory_source" in text
        assert len(err.value.problems) >= 4

    def test_enum_strings_coerced(self):
        cfg = parse_experiment_config(
            {
                "data": {"synthetic": {"n_instances": 2, "video_dim": 8, "text_dim": 8}},
                "intervention": {"memory_source": "mnse", "beta_cl": 0.5},
                "bank": {"regime": "f1", "metric": "l2"},
            }
        )
        assert cfg.intervention.memory_source is MemorySource.MNSE
        assert cfg.bank.regime is Regime.F1_STATIC
        assert cfg.bank.metric is Metric.L2
        assert cfg.contrastive

    def test_data_section_required(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment_config({})
        assert err.value.problems == ["data: required"]

    def test_null_takes_the_place_of_an_optional_section_only(self):
        data = {"synthetic": {"n_instances": 2, "video_dim": 8, "text_dim": 8}}
        cfg = parse_experiment_config({"data": data, "intervention": None, "output_dir": None})
        assert cfg.intervention is None and cfg.output_dir is None
        with pytest.raises(ConfigError) as err:
            parse_experiment_config({"data": data, "model": None, "bank": {"metric": None}})
        assert err.value.problems == ["model: expected a JSON object", "bank.metric: unknown None"]


# JSON values for the config property; integers stay small so that a model
# built from them stays small
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 64)
    | st.floats(-3, 64, allow_nan=False)
    | st.sampled_from(["x", "f1", "f3", "mnse", "random", "l2"]),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def json_section(cls):
    """JSON objects over the field names of one config dataclass."""
    names = [f.name for f in fields(cls)]
    return st.dictionaries(st.sampled_from(names), JSON_VALUES, max_size=len(names))


EXPERIMENT_JSON = st.fixed_dictionaries(
    {
        "data": st.fixed_dictionaries(
            {"synthetic": json_section(SyntheticSpec).map(lambda d: {"n_instances": 4, **d})}
        )
        | st.fixed_dictionaries({"manifest": JSON_VALUES})
        | JSON_VALUES,
    },
    optional={
        "model": json_section(ModelConfig) | JSON_VALUES,
        "optimizer": json_section(OptimizerConfig) | JSON_VALUES,
        "intervention": json_section(InterventionConfig) | JSON_VALUES,
        "bank": json_section(BankConfig) | JSON_VALUES,
        "use_oracle_masks": JSON_VALUES,
        "output_dir": JSON_VALUES,
    },
)


# small in-range values of each field kind, so that most configs drawn
# from these sections get past parsing and train
KIND_VALUES = {
    bool: st.booleans(), int: st.integers(1, 8), float: st.floats(0.01, 0.99),
    type(None): st.none(),
}


def typed_section(cls):
    """JSON objects over the fields of one config dataclass, each value of
    a kind its field's type hint takes."""
    hints = get_type_hints(cls)

    def values(hint):
        return st.one_of([
            st.sampled_from([m.value for m in kind]) if issubclass(kind, Enum)
            else KIND_VALUES[kind]
            for kind in get_args(hint) or (hint,)
        ])

    return st.fixed_dictionaries({}, optional={f.name: values(hints[f.name]) for f in fields(cls)})


TYPED_EXPERIMENT_JSON = st.fixed_dictionaries(
    {"data": st.fixed_dictionaries(
        {"synthetic": typed_section(SyntheticSpec).map(lambda d: {"n_instances": 4, **d})}
    )},
    optional={
        "model": typed_section(ModelConfig),
        "optimizer": typed_section(OptimizerConfig),
        "intervention": typed_section(InterventionConfig),
        "bank": typed_section(BankConfig),
        "use_oracle_masks": st.booleans(),
    },
)


# gen-data's keys, and the sampler section sample reads besides the
# experiment's
GEN_DATA_JSON = st.fixed_dictionaries(
    {"synthetic": (json_section(SyntheticSpec) | typed_section(SyntheticSpec))
     .map(lambda d: {"n_instances": 4, **d})},
    optional={"manifest": JSON_VALUES, "output_dir": JSON_VALUES},
)
SAMPLER_JSON = st.fixed_dictionaries({
    "kind": st.sampled_from(["mar16", "mar32", "pcma80"]) | JSON_VALUES,
}, optional={
    "seed": st.integers(-1, 8) | JSON_VALUES,
    "subsample": st.none() | st.integers(0, 20) | JSON_VALUES,
}) | JSON_VALUES


def _capped(raw: dict) -> dict:
    """raw with its training steps, instance count, clip count and feature
    dims capped, so that a run on it stays small."""
    caps = {"steps": 2, "n_instances": 8, "n_clips": 8, "video_dim": 8, "text_dim": 8}
    data = raw.get("data")
    sections = [raw.get("optimizer"), raw.get("synthetic"),
                data.get("synthetic") if isinstance(data, dict) else None]
    for section in sections:
        for key, value in section.items() if isinstance(section, dict) else ():
            if key in caps and type(value) is int:
                section[key] = min(value, caps[key])
    return raw


def _inputs_only(raw: dict) -> dict:
    """raw without the training keys, which the subcommands that train
    nothing refuse."""
    return {k: v for k, v in raw.items() if k in ("data", "output_dir")}


def _dims_of_8(raw: dict) -> dict:
    """raw with 8-dim synthetic features, the dims of a trained CLI test
    checkpoint."""
    synthetic = {**raw["data"]["synthetic"], "video_dim": 8, "text_dim": 8}
    return {**raw, "data": {"synthetic": synthetic}}


class TestConfigBoundary:
    @settings(max_examples=300, deadline=None)
    @given(raw=EXPERIMENT_JSON)
    def test_parsed_config_constructs_or_raises_config_error(self, raw):
        try:
            cfg = parse_experiment_config(raw)
        except ConfigError:
            return
        PcmaModel(cfg.model.pcma(4, 4))
        np.random.default_rng(cfg.optimizer.seed)
        if cfg.data.synthetic is not None:
            np.random.default_rng(cfg.data.synthetic.seed)

    # a fixed seed: each draw may train, so unseeded draws made this test's
    # time swing by half a minute between identical runs
    @seed(0)
    @settings(max_examples=40, deadline=None)
    @given(raw=(EXPERIMENT_JSON | TYPED_EXPERIMENT_JSON).map(_capped))
    def test_cli_train_exits_0_or_1(self, raw):
        # in process: the run either writes its artifacts or reports why not
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "train.json"
            path.write_text(json.dumps(raw))
            with mock.patch.dict(os.environ, {hn.OUTPUT_DIR_ENV: str(Path(tmp) / "out")}):
                assert cli_main(["train", "--config", str(path)]) in (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(run=st.one_of(
        st.tuples(st.just("probe"), (EXPERIMENT_JSON | TYPED_EXPERIMENT_JSON).map(_inputs_only)),
        st.tuples(
            st.just("sample"),
            st.tuples(EXPERIMENT_JSON | TYPED_EXPERIMENT_JSON, SAMPLER_JSON)
            .map(lambda pair: {**_inputs_only(pair[0]), "sampler": pair[1]}),
        ),
        st.tuples(st.just("gen-data"), GEN_DATA_JSON),
    ))
    def test_cli_probe_sample_gen_data_exit_0_or_1(self, run):
        # the subcommands that need no checkpoint, on drawn configs
        command, raw = run
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(_capped(raw)))
            with mock.patch.dict(os.environ, {hn.OUTPUT_DIR_ENV: str(Path(tmp) / "out")}):
                code = cli_main([command, "--config", str(path)])
        event(f"{command} exits {code}")
        assert code in (0, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["eval", "intervene-eval"]),
        raw=st.one_of(EXPERIMENT_JSON, TYPED_EXPERIMENT_JSON,
                      TYPED_EXPERIMENT_JSON.map(_dims_of_8)).map(_inputs_only).map(_capped),
        data=st.data(),
    )
    def test_cli_eval_and_intervene_eval_exit_0_or_1(self, cli_checkpoints, command, raw, data):
        # the subcommands that read checkpoints, on drawn configs naming a
        # trained checkpoint, most often the one of the data's feature dims,
        # a missing one or any JSON value
        synthetic = raw["data"].get("synthetic") if isinstance(raw["data"], dict) else None
        dim = synthetic.get("video_dim", 64) if isinstance(synthetic, dict) else 8
        fitting = cli_checkpoints[dim if dim in (8, 64) else 8]
        checkpoint = st.one_of(
            *[st.just(fitting)] * 3, st.sampled_from(list(cli_checkpoints.values())), JSON_VALUES
        )
        if command == "eval":
            keys = st.fixed_dictionaries({"checkpoint": checkpoint})
        else:
            keys = st.fixed_dictionaries(
                {"checkpoint_a": checkpoint, "checkpoint_b": checkpoint},
                optional={"neighbor_k": st.integers(-1, 8) | JSON_VALUES,
                          "seed": st.integers(-1, 8) | JSON_VALUES},
            )
        raw.update(data.draw(keys, label="checkpoint keys"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(raw))
            with mock.patch.dict(os.environ, {hn.OUTPUT_DIR_ENV: str(Path(tmp) / "out")}):
                code = cli_main([command, "--config", str(path)])
        event(f"{command} exits {code}")
        assert code in (0, 1)


@pytest.fixture(scope="module")
def cli_checkpoints(tmp_path_factory) -> dict:
    """Checkpoints trained for two steps on 8- and 64-dim synthetic data,
    keyed by their feature dim, and (under None) a path that holds no
    checkpoint."""
    root = tmp_path_factory.mktemp("cli_checkpoints")
    paths = {None: str(root / "missing")}
    for dim in (8, 64):
        cfg = parse_experiment_config({
            "data": {"synthetic": {"n_instances": 4, "n_clips": 4, "video_dim": dim,
                                   "text_dim": dim}},
            "model": {"model_dim": 4, "n_heads": 2, "n_layers": 1},
            "optimizer": {"steps": 2, "batch_size": 2},
        })
        paths[dim] = str(save_checkpoint(train(cfg).model, root / f"dim{dim}"))
    return paths


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory) -> dict[str, bytes]:
    out = save_checkpoint(small_model(seed=2), tmp_path_factory.mktemp("saved") / "ckpt")
    return {p.name: p.read_bytes() for p in out.iterdir()}


# a model.json edit: (key, value), where the key is a pcma field, "version",
# "gated", the whole "pcma" section or an unknown pcma field, and a value of
# None deletes the key
MODEL_JSON_EDITS = st.tuples(
    st.sampled_from(
        [f.name for f in fields(PcmaConfig)] + ["version", "gated", "pcma", "extra"]
    ),
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _scores(model: PcmaModel, instances) -> np.ndarray:
    result, _ = model.forward_full(
        np.stack([inst.video for inst in instances]),
        np.stack([inst.question for inst in instances]),
        np.stack([inst.answers for inst in instances]),
    )
    return result.scores


class TestCheckpointBoundary:
    def test_gated_save_load_save_is_byte_identical(self, tmp_path):
        model = small_model(seed=5, gated=True)
        model.store["gate.w"][...] = np.linspace(-1.0, 1.0, model.cfg.model_dim)
        first = save_checkpoint(model, tmp_path / "a")
        second = save_checkpoint(load_checkpoint(first), tmp_path / "b")
        assert json.loads((first / "model.json").read_text())["gated"] is True
        for name in ("params.f32", "model.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_checkpoint_save_load_save_is_byte_identical(self, tmp_path):
        first = save_checkpoint(small_model(seed=5), tmp_path / "a")
        second = save_checkpoint(load_checkpoint(first), tmp_path / "b")
        assert sorted(p.name for p in first.iterdir()) == ["model.json", "params.f32"]
        assert json.loads((first / "model.json").read_text())["gated"] is False
        for name in ("params.f32", "model.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_checkpoint_roundtrip_is_exact_at_f32(self, tmp_path):
        model = small_model(seed=3, gated=True)
        model.store["gate.w"][...] = np.linspace(-1.0, 1.0, model.cfg.model_dim)
        loaded = load_checkpoint(save_checkpoint(model, tmp_path / "ckpt"))
        assert loaded.cfg == model.cfg and loaded.store.names() == model.store.names()
        for name in model.store.names():
            want = model.store[name].astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(loaded.store[name], want)

    def test_failed_resave_leaves_no_loadable_checkpoint(self, tmp_path, monkeypatch):
        # the new payload is in place when writing model.json fails; the old
        # model.json must not pair the old config with the new parameters
        out = save_checkpoint(small_model(seed=1), tmp_path / "ckpt")
        real_replace, calls = os.replace, []

        def replace_failing_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(f"cannot replace {dst}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_second)
        with pytest.raises(OSError, match="model.json"):
            save_checkpoint(small_model(seed=2), out)
        monkeypatch.undo()
        with pytest.raises(FormatError, match=r"model\.json: file not found"):
            load_checkpoint(out)

    def test_resave_failing_at_the_payload_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        old = load_checkpoint(save_checkpoint(small_model(seed=1), tmp_path / "old"))
        out = save_checkpoint(old, tmp_path / "ckpt")

        def failing_replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="params.f32"):
            save_checkpoint(small_model(seed=2), out)
        monkeypatch.undo()
        loaded = load_checkpoint(out)
        assert loaded.cfg == old.cfg
        np.testing.assert_array_equal(loaded.store.flat_params, old.store.flat_params)

    def test_stored_tensor_missing_from_the_model_names_it(self, tmp_path):
        # a gated payload read as ungated has floats no tensor takes, and
        # the other way round too few
        for saved_gated, relation in ((True, "more"), (False, "fewer")):
            out = save_checkpoint(small_model(gated=saved_gated), tmp_path / str(saved_gated))
            meta = json.loads((out / "model.json").read_text())
            meta["gated"] = not saved_gated
            (out / "model.json").write_text(json.dumps(meta))
            with pytest.raises(
                FormatError, match=rf"params\.f32: holds \d+ floats, {relation} than model\.json"
            ):
                load_checkpoint(out)

    def test_truncated_payload_is_an_error(self, tmp_path):
        out = save_checkpoint(small_model(), tmp_path / "ckpt")
        payload = out / "params.f32"
        raw = payload.read_bytes()
        # truncated, extended, a partial float, no file
        for body in (raw[:-8], raw + bytes(8), raw[:-2], None):
            if body is None:
                payload.unlink()
            else:
                payload.write_bytes(body)
            with pytest.raises(FormatError, match=r"params\.f32"):
                load_checkpoint(out)

    def test_huge_declared_shape_is_truncated_before_any_allocation(self, tmp_path, monkeypatch):
        out = save_checkpoint(small_model(), tmp_path / "ckpt")
        meta = json.loads((out / "model.json").read_text())

        def no_alloc(*args, **kwargs):
            raise AssertionError("load allocated before checking the payload length")

        monkeypatch.setattr(nc.np, "zeros", no_alloc)
        for edit in ({"model_dim": 2**40}, {"n_layers": 10**12}):
            (out / "model.json").write_text(json.dumps({**meta, "pcma": {**meta["pcma"], **edit}}))
            with pytest.raises(FormatError, match=r"params\.f32: holds \d+ floats, fewer than"):
                load_checkpoint(out)

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.builds(
            SyntheticSpec,
            n_instances=st.integers(1, 6),
            seed=st.integers(0, 2**16),
            n_clips=st.integers(1, 6),
            video_dim=st.integers(1, 8),
            text_dim=st.integers(1, 8),
        ),
        n_heads=st.integers(1, 3),
        # from 4 up: at model_dim 2-3 a nearly cancelling aggregate can move
        # a score by about 1e-6 under float32 rounding (1 draw in ~3,000)
        head_dim=st.integers(4, 8),
        n_layers=st.integers(1, 2),
        model_seed=st.integers(0, 2**16),
        gated=st.booleans(),
    )
    def test_round_trip_keeps_every_prediction(
        self, spec, n_heads, head_dim, n_layers, model_seed, gated
    ):
        instances, _, _ = generate_synthetic(spec)
        cfg = ModelConfig(
            model_dim=n_heads * head_dim, n_heads=n_heads, n_layers=n_layers, seed=model_seed
        ).pcma(spec.video_dim, spec.text_dim)
        model = PcmaModel(cfg, gated=gated)
        with tempfile.TemporaryDirectory() as tmp:
            first = save_checkpoint(model, Path(tmp) / "a")
            loaded = load_checkpoint(first)
            second = save_checkpoint(loaded, Path(tmp) / "b")
            for name in ("params.f32", "model.json"):
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert loaded.cfg == cfg and loaded.store.names() == model.store.names()
        want, got = _scores(model, instances), _scores(loaded, instances)
        assert np.abs(want - got).max() <= 1e-6
        top_two = np.sort(want, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-6
        np.testing.assert_array_equal(want.argmax(axis=1)[clear], got.argmax(axis=1)[clear])

    @settings(max_examples=200, deadline=None)
    @given(
        flips=st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 255)), max_size=4),
        resize=st.integers(-9, 9),
        edits=st.lists(MODEL_JSON_EDITS, max_size=2),
    )
    def test_mutated_checkpoint_loads_or_raises_format_error(
        self, saved_checkpoint, flips, resize, edits
    ):
        files = dict(saved_checkpoint)
        payload = bytearray(files["params.f32"])
        for offset, byte in flips:
            payload[offset % len(payload)] = byte
        # a negative resize truncates the payload, a positive one extends it
        files["params.f32"] = bytes(payload[: len(payload) + resize] + bytes(max(resize, 0)))
        meta = json.loads(files["model.json"])
        for key, value in edits:
            target = meta if key in ("version", "gated", "pcma") else meta.get("pcma")
            if not isinstance(target, dict):
                continue
            if value is None:
                target.pop(key, None)
            else:
                target[key] = value
        files["model.json"] = json.dumps(meta).encode()
        with tempfile.TemporaryDirectory() as tmp:
            for name, body in files.items():
                (Path(tmp) / name).write_bytes(body)
            try:
                model = load_checkpoint(tmp)
            except FormatError:
                return
        assert all(np.isfinite(model.store[name]).all() for name in model.store.names())


# -- optimizer ---------------------------------------------------------------------


class TestAdam:
    def test_gradient_step_moves_against_gradient(self):
        store = nc.ParamStore([("w", (3,), None)])
        store.accumulate("w", np.array([1.0, -2.0, 0.0]))
        adam_step(store, AdamState(), OptimizerConfig(lr=0.1))
        w = store["w"]
        assert w[0] < 0 and w[1] > 0 and w[2] == 0.0

    def test_lr_zero_keeps_params_bit_identical(self):
        store = nc.ParamStore([("w", (3,), None)])
        store["w"][...] = [0.5, -1.5, 2.0]
        before = store["w"].copy()
        store.accumulate("w", np.array([10.0, 10.0, 10.0]))
        adam_step(store, AdamState(), OptimizerConfig(lr=0.0))
        assert store["w"].tobytes() == before.tobytes()

    def test_flat_step_matches_per_tensor_reference(self):
        flat, ref = small_model(seed=4, gated=True), small_model(seed=4, gated=True)
        names = flat.store.names()
        rng = np.random.default_rng(0)
        cfg = OptimizerConfig(lr=0.05)
        state, reference = AdamState(), ReferenceAdam()
        for _ in range(4):
            for model in (flat, ref):
                model.store.zero_grads()
            for name in names:
                g = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=flat.store[name].shape)
                flat.store.accumulate(name, g)
                ref.store.accumulate(name, g)
            adam_step(flat.store, state, cfg)
            reference.step(ref.store, cfg)
        for name in names:
            assert flat.store[name].tobytes() == ref.store[name].tobytes(), name

    def test_tensors_are_views_of_the_flat_buffers_after_growth(self):
        # a gated store: the gate tensors follow the backbone's in one buffer
        store = small_model(gated=True).store
        for name in store.names():
            assert np.shares_memory(store[name], store.flat_params), name
            assert np.shares_memory(store.grad(name), store.flat_grads), name
        assert store.flat_params.size == sum(store[name].size for name in store.names())

    def test_optimizer_config_reports_all_problems(self):
        with pytest.raises(ValueError) as err:
            OptimizerConfig(lr=-1.0, batch_size=0)
        assert "lr" in str(err.value) and "batch_size" in str(err.value)


# -- training ---------------------------------------------------------------------


def erm_config(instances_seed=0, n=60, steps=40, lr=1e-3, opt_seed=1, **data_kw):
    spec = SyntheticSpec(
        n_instances=n, seed=instances_seed, n_clips=8, video_dim=24, text_dim=24,
        noise_std=data_kw.pop("noise_std", 0.1), **data_kw,
    )
    return ExperimentConfig(
        data=DataConfig(synthetic=spec),
        model=ModelConfig(model_dim=32, n_heads=4, n_layers=1, seed=5),
        optimizer=OptimizerConfig(lr=lr, steps=steps, batch_size=8, seed=opt_seed),
    )


GATE_RECIPE = ExperimentConfig(
    data=DataConfig(
        synthetic=SyntheticSpec(
            n_instances=80, seed=0, n_clips=8, video_dim=24, text_dim=24, noise_std=0.1
        )
    ),
    model=ModelConfig(model_dim=32, n_heads=4, n_layers=1, seed=10),
    optimizer=OptimizerConfig(lr=1e-3, steps=100, batch_size=8, seed=0),
    intervention=InterventionConfig(
        alpha=2.0,
        beta_cl=0.2,
        n_negatives=3,
        memory_source=MemorySource.RANDOM_BANK,
        topk_mode=True,
        k=4,
        neighbor_k=5,
        seed=7,
    ),
    bank=BankConfig(regime=Regime.F2_DYNAMIC),
)


@pytest.fixture(scope="module")
def gate_run():
    result = train(GATE_RECIPE)
    instances, _, masks = load_data(GATE_RECIPE.data)
    return result, instances, np.asarray(masks, dtype=bool)


class TestTrain:
    def test_erm_training_learns(self):
        result = train(erm_config())
        assert result.report.overall > 0.5
        curves = result.report.curves
        assert len(curves) == 40
        assert curves[-1].erm_loss < curves[0].erm_loss
        assert all(r.cl_loss == 0.0 for r in curves)

    def test_lr_zero_control(self):
        cfg = erm_config(steps=5, lr=0.0)
        instances, _, _ = load_data(cfg.data)
        init_model = PcmaModel(cfg.model.pcma(24, 24))
        init_acc = evaluate(init_model, instances).overall
        result = train(cfg)
        for name in init_model.store.names():
            assert (
                result.model.store[name].tobytes() == init_model.store[name].tobytes()
            )
        assert result.report.overall == init_acc

    def test_same_config_same_curves(self):
        c1 = train(erm_config(steps=8)).report.curves
        c2 = train(erm_config(steps=8)).report.curves
        assert c1 == c2

    def test_total_combines_erm_and_cl_exactly(self, gate_run):
        result, _, _ = gate_run
        beta = GATE_RECIPE.intervention.beta_cl
        for row in result.report.curves:
            assert row.total_loss == row.erm_loss + beta * row.cl_loss
        assert any(row.cl_loss != 0.0 for row in result.report.curves)

    def test_beta_zero_matches_plain_erm_bit_exactly(self):
        plain = train(erm_config(steps=10))
        gated = replace(
            erm_config(steps=10),
            intervention=InterventionConfig(
                beta_cl=0.0, memory_source=MemorySource.MNSE, topk_mode=True, k=4
            ),
        )
        with_cfg = train(gated)
        assert plain.report.curves == with_cfg.report.curves
        for name in plain.model.store.names():
            assert (
                plain.model.store[name].tobytes()
                == with_cfg.model.store[name].tobytes()
            )

    def test_joint_training_separates_gates(self, gate_run):
        result, instances, masks = gate_run
        gaps = []
        for inst, mask in zip(instances, masks):
            gates, _ = gate_forward(result.model, inst.video[None], inst.question[None])
            gaps.append(gates[0][mask].mean() - gates[0][~mask].mean())
        assert float(np.mean(gaps)) > 0.01

    def test_trained_triplets_separate_positive_from_negatives(self, gate_run):
        result, instances, masks = gate_run
        icfg = GATE_RECIPE.intervention
        rng = np.random.default_rng(0)
        margins = []
        for inst, mask in zip(instances[:10], masks[:10]):
            drawn = draw_triplet(
                inst.video,
                inst.question,
                mask,
                mask.astype(np.float64),
                result.bank,
                instances[0].question,
                icfg,
                rng,
                candidates=(reference_pool(result.bank, inst.video_id)[None],) * 2,
            )
            (aggs,), _ = triplet_aggregates(result.model, drawn)

            def cos(a, b):
                return float(
                    a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                )

            pos = cos(aggs[0], aggs[1])
            negs = np.mean([cos(aggs[0], n) for n in aggs[2:]])
            margins.append(pos - negs)
        assert float(np.mean(margins)) > 0.0

    def test_non_finite_loss_aborts_with_step(self):
        cfg = replace(
            erm_config(n=8, steps=5),
            optimizer=OptimizerConfig(lr=1e155, steps=5, batch_size=4, seed=0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                with pytest.raises(nc.NumericsError, match=r"^step \d+:"):
                    train(cfg)

    @pytest.mark.parametrize("regime", [Regime.F2_DYNAMIC, Regime.F3_DYNAMIC_MIXUP])
    def test_nearest_scene_pool_larger_than_dynamic_bank(self, regime):
        # at step 0 the bank holds one batch: 56 (f2) or 104 (f3) scenes
        # are eligible for each sample, far fewer than neighbor_k
        cfg = replace(
            erm_config(steps=3),
            intervention=replace(
                GATE_RECIPE.intervention, memory_source=MemorySource.MNSE, neighbor_k=200
            ),
            bank=BankConfig(regime=regime),
        )
        curves = train(cfg).report.curves
        assert len(curves) == 3
        assert all(np.isfinite(r.total_loss) and r.cl_loss > 0.0 for r in curves)

    @pytest.mark.parametrize("source", [MemorySource.MNSE, MemorySource.RANDOM_BANK])
    @pytest.mark.parametrize("regime", [Regime.F2_DYNAMIC, Regime.F3_DYNAMIC_MIXUP])
    def test_empty_eligible_pool_skips_the_intervention(self, regime, source):
        # batch size 1: at step 0 the bank holds only the sample's own scenes
        # (and under f3 its "a+a" blend), so no scene is eligible for it
        base = erm_config(steps=2)
        cfg = replace(
            base,
            optimizer=replace(base.optimizer, batch_size=1),
            intervention=replace(
                GATE_RECIPE.intervention, memory_source=source, neighbor_k=200
            ),
            bank=BankConfig(regime=regime),
        )
        result = train(cfg)
        assert (result.skipped_interventions, result.skipped_mixups) == (1, 0)
        step0, step1 = result.report.curves
        assert step0.cl_loss == 0.0 and np.isfinite(step0.erm_loss)
        assert step1.cl_loss > 0.0

    def test_degenerate_splits_are_counted(self):
        instances, saliencies, masks = synth(6, seed=8)
        cfg = replace(
            erm_config(steps=3),
            intervention=replace(GATE_RECIPE.intervention, memory_source=MemorySource.MNSE),
            bank=BankConfig(regime=Regime.F1_STATIC),
            use_oracle_masks=True,
        )
        no_causal = np.zeros_like(np.asarray(masks, dtype=bool))
        result = train(cfg, dataset=(instances, saliencies, no_causal))
        assert result.skipped_mixups == 3 * 6
        assert result.skipped_interventions == 0
        assert all(r.cl_loss == 0.0 and r.erm_loss > 0.0 for r in result.report.curves)

    def test_checkpoint_round_trip(self, tmp_path):
        result = train(erm_config(steps=6))
        out = save_checkpoint(result.model, tmp_path / "ckpt")
        assert out == tmp_path / "ckpt"
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.cfg == result.model.cfg
        # at-rest precision is f32; a second round trip must be lossless
        save_checkpoint(loaded, tmp_path / "ckpt2")
        loaded2 = load_checkpoint(tmp_path / "ckpt2")
        for name in loaded.store.names():
            assert loaded.store[name].tobytes() == loaded2.store[name].tobytes()
            assert np.allclose(
                result.model.store[name], loaded.store[name], atol=1e-6, rtol=1e-6
            )
        instances, _, _ = load_data(erm_config().data)
        r1 = evaluate(loaded, instances)
        r2 = evaluate(loaded2, instances)
        assert r1.corrects == r2.corrects


class TestStackedStep:
    """The one-pass step against the one-sample-at-a-time reference: the
    same draws in the same order, bit-identical per-row losses, and
    parameter and gate gradients equal up to summation order."""

    @staticmethod
    def _inputs(source, oracle, regime, batch_size=4, degenerate=()):
        instances, _, masks = synth(10, seed=11)
        masks = np.asarray(masks, dtype=bool).copy()
        masks[list(degenerate)] = False
        model = PcmaModel(
            ModelConfig(model_dim=16, n_heads=2, n_layers=1, seed=5).pcma(24, 24),
            gated=not oracle,
        )
        icfg = InterventionConfig(
            alpha=2.0, beta_cl=0.7, n_negatives=3, memory_source=source, topk_mode=True, k=4,
            neighbor_k=5,
        )
        bank = MemoryBank(24, regime=regime)
        if regime is Regime.F1_STATIC:
            bank.populate(instance_scenes(instances)).freeze()
        rng = np.random.default_rng(7)
        batch = rng.permutation(len(instances))[:batch_size]
        stacked = batch_arrays(instances, batch)
        split, gates, _ = hn._batch_splits(
            model, *stacked[:2], icfg, masks[batch] if oracle else None
        )
        mix = mixed_and_pushed(bank, instances, batch, stacked, split, icfg, rng)
        return model, icfg, bank, instances, batch, split, gates, mix, rng

    @classmethod
    def _compare(cls, model, icfg, bank, instances, batch, masks, gates, mix, rng):
        # a learned split's gates weight the clean rows of the mixed samples
        weigh = "gate.w" in model.store
        start = rng.bit_generator.state

        def at_start():
            g = np.random.default_rng()
            g.bit_generator.state = start
            return g

        store = model.store
        store.zero_grads()
        ref_rng = at_start()
        ref = reference_step(
            model, icfg, bank, instances, batch, masks, gates, mix, weigh, ref_rng
        )
        ref_grads = {name: store.grad(name).copy() for name in store.names()}

        store.zero_grads()
        new_rng = at_start()
        stacked = batch_arrays(instances, batch)
        draws = hn._draw_interventions(
            icfg, bank, instances, batch, stacked[0], masks, gates, mix, new_rng
        )
        new = hn._stacked_step(model, stacked, draws, icfg.beta_cl, weigh)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        # per triplet: the do-video, the positive, then each negative
        videos = [video for views in draws.views for video in views]
        assert len(videos) == len(ref.videos)
        for got, want in zip(videos, ref.videos):
            np.testing.assert_array_equal(got, want)

        assert draws.drawn.tolist() == ref.positions
        assert [[float(x) for x in row] for row in new.losses] == [
            [float(x) for x in row] for row in ref.losses
        ]
        assert new.cl_losses == ref.cl_losses
        assert new.dgates.shape == (len(batch), instances.n_clips)
        np.testing.assert_allclose(new.dgates, ref.dgates, rtol=0, atol=1e-12)
        for name, want in ref_grads.items():
            np.testing.assert_allclose(store.grad(name), want, rtol=0, atol=1e-12)
        return new, draws.drawn.tolist()

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "learned"])
    @pytest.mark.parametrize("source", list(MemorySource))
    def test_matches_per_sample_reference(self, source, oracle, regime):
        inputs = self._inputs(source, oracle, regime)
        new, drawn = self._compare(*inputs)
        assert len(drawn) == 4
        assert all(len(row) == 3 for row in new.losses)

    @pytest.mark.parametrize("source", list(MemorySource))
    def test_f2_batch_of_one_skips_its_intervention(self, source):
        # the bank holds only the sample's own scenes: no do view, no triplet
        inputs = self._inputs(source, True, Regime.F2_DYNAMIC, batch_size=1)
        new, drawn = self._compare(*inputs)
        assert drawn == [] and new.cl_losses == []
        assert [len(row) for row in new.losses] == [2]

    def test_degenerate_split_leaves_the_sample_out(self):
        inputs = self._inputs(MemorySource.MNSE, True, Regime.F1_STATIC)
        mix = inputs[7]
        mix.valid[1] = False
        new, drawn = self._compare(*inputs)
        assert drawn == [0, 2, 3]
        assert len(new.losses[1]) == 1

    def test_every_split_degenerate(self):
        inputs = self._inputs(
            MemorySource.RANDOM_BANK, True, Regime.F3_DYNAMIC_MIXUP, degenerate=range(10)
        )
        assert not inputs[7].valid.any()
        new, drawn = self._compare(*inputs)
        assert drawn == [] and [len(row) for row in new.losses] == [1] * 4

    @pytest.mark.parametrize("source", list(MemorySource))
    def test_shared_anchor_row_gradients(self, source):
        # each mixed sample's augmented view is one row that carries both its
        # answering loss and its triplet's anchor; the step's total loss
        # (every answer loss plus beta_cl times every InfoNCE loss) against
        # central differences, draws held fixed
        model, icfg, bank, instances, batch, masks, gates, mix, rng = self._inputs(
            source, False, Regime.F1_STATIC
        )
        check = np.random.default_rng(3)
        for j in np.flatnonzero(mix.valid):  # an untrained gate scorer gives 0.5 everywhere
            gates[j] = check.uniform(0.1, 0.9, size=gates.shape[1])
        stacked = batch_arrays(instances, batch)
        draws = hn._draw_interventions(
            icfg, bank, instances, batch, stacked[0], masks, gates, mix, rng
        )
        assert len(draws.drawn)

        def total():
            out = hn._stacked_step(model, stacked, draws, icfg.beta_cl, True)
            return sum(sum(row) for row in out.losses) + icfg.beta_cl * sum(out.cl_losses)

        model.store.zero_grads()
        out = hn._stacked_step(model, stacked, draws, icfg.beta_cl, True)
        grads = {name: model.store.grad(name).copy() for name in model.store.names()}
        for j in draws.drawn:
            assert_grad_matches(total, gates[j], out.dgates[j], check, f"gates[{j}]")
        for name in ("video_proj.w", "text_proj.w", "layer0.cross.wv", "layer0.self.wo"):
            assert_grad_matches(total, model.store[name], grads[name], check, name)


class TestStepPasses:
    """A step runs one backbone pass, forward and backward, and a gated
    step one gate pass."""

    PASSES = [(PcmaModel, "aggregate_forward"), (PcmaModel, "aggregate_backward"),
              (hn, "gate_forward"), (hn, "gate_backward")]

    @staticmethod
    def _per_step_calls(cfg, monkeypatch, names=PASSES):
        counts = {}

        def counted(owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                counts[attr] += 1
                return original(*args, **kwargs)

            return wrapper

        for owner, attr in names:
            monkeypatch.setattr(owner, attr, counted(owner, attr))
        per_run = []
        for steps in (2, 5):
            counts.update({attr: 0 for _, attr in names})
            train(replace(cfg, optimizer=replace(cfg.optimizer, steps=steps)))
            per_run.append(dict(counts))
        # the final evaluation is the same in both runs
        return {attr: (per_run[1][attr] - per_run[0][attr]) / 3 for _, attr in names}

    def test_gated_contrastive_step(self, monkeypatch):
        cfg = replace(GATE_RECIPE, optimizer=replace(GATE_RECIPE.optimizer, batch_size=4))
        assert self._per_step_calls(cfg, monkeypatch) == {
            "aggregate_forward": 1, "aggregate_backward": 1, "gate_forward": 1, "gate_backward": 1,
        }

    def test_answer_only_step(self, monkeypatch):
        assert self._per_step_calls(erm_config(), monkeypatch) == {
            "aggregate_forward": 1, "aggregate_backward": 1, "gate_forward": 0, "gate_backward": 0,
        }


class TestContrastiveDraws:
    """The intervention draws of a contrastive step: one pick for every
    substituted row, each a scene its sample may draw, a uniform random
    question, and reruns that reproduce every artifact byte for byte."""

    def test_random_question_is_uniform_over_the_other_instances(self):
        for n in range(2, 9):
            raw = np.arange(n - 1)
            for own in range(n):
                hits = hn._other_index(raw, np.full(n - 1, own))
                assert sorted(hits.tolist()) == [i for i in range(n) if i != own]

    @pytest.mark.parametrize("source, regime, oracle", [
        (MemorySource.RANDOM_BANK, Regime.F3_DYNAMIC_MIXUP, False),
        (MemorySource.MNSE, Regime.F1_STATIC, True),
    ])
    def test_a_step_picks_once_and_makes_no_generator(self, monkeypatch, source, regime, oracle):
        cfg = replace(
            GATE_RECIPE,
            optimizer=replace(GATE_RECIPE.optimizer, batch_size=4),
            intervention=replace(GATE_RECIPE.intervention, memory_source=source),
            bank=BankConfig(regime=regime),
            use_oracle_masks=oracle,
        )
        calls = TestStepPasses._per_step_calls(
            cfg, monkeypatch, [(MemoryBank, "pick"), (np.random, "default_rng")]
        )
        assert calls == {"pick": 1, "default_rng": 0}

    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "learned"])
    @pytest.mark.parametrize("regime", ["f1", "f3"])
    @pytest.mark.parametrize("source", ["random", "mnse"])
    def test_contrastive_rerun_is_byte_identical(self, tmp_path, source, regime, oracle):
        path = tmp_path / "train.json"
        path.write_text(json.dumps({
            "data": {"synthetic": {"n_instances": 12, "seed": 2, "n_clips": 6, "video_dim": 8,
                                   "text_dim": 8, "noise_std": 0.3}},
            "model": {"model_dim": 8, "n_heads": 2, "n_layers": 1, "seed": 1},
            "optimizer": {"steps": 4, "batch_size": 4, "seed": 3},
            "intervention": {"alpha": 2.0, "beta_cl": 0.5, "n_negatives": 3, "topk_mode": True,
                             "k": 3, "neighbor_k": 4, "memory_source": source},
            "bank": {"regime": regime, "window": 2},
            "use_oracle_masks": oracle,
        }))
        runs = []
        for run in ("first", "second"):
            with mock.patch.dict(os.environ, {hn.OUTPUT_DIR_ENV: str(tmp_path / run)}):
                assert cli_main(["train", "--config", str(path)]) == 0
            runs.append({name: (tmp_path / run / name).read_bytes()
                         for name in ("metrics.json", "curves.csv")})
        assert runs[0] == runs[1]
        cl_losses = [float(line.split(",")[2])
                     for line in runs[0]["curves.csv"].decode().splitlines()[1:]]
        assert any(cl > 0.0 for cl in cl_losses)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_substitute_is_a_scene_its_sample_may_draw(self, data):
        # never a scene of the sample's own video nor a blend with it as a
        # parent, and under nearest-scene sourcing one of its row's topk;
        # rows a view does not substitute keep their own values
        regime = data.draw(st.sampled_from(list(Regime)), label="regime")
        source = data.draw(st.sampled_from(list(MemorySource)), label="source")
        oracle = data.draw(st.booleans(), label="oracle")
        batch_size = data.draw(st.integers(1, 8), label="batch size")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n_clips = 5
        instances, _, masks = synth(10, seed=seed, n_clips=n_clips, video_dim=6, text_dim=6)
        rng = np.random.default_rng(seed)
        masks = np.asarray(masks, dtype=bool).copy()
        for i, kind in enumerate(data.draw(
            st.lists(st.sampled_from(["planted", "none", "all", "random"]),
                     min_size=10, max_size=10), label="masks")):
            if kind != "planted":
                masks[i] = rng.random(n_clips) < 0.5 if kind == "random" else kind == "all"
        topk_mode = data.draw(st.booleans(), label="top-k split")
        k = data.draw(st.integers(1, n_clips), label="k") if topk_mode else None
        icfg = InterventionConfig(
            n_negatives=data.draw(st.integers(1, 3), label="negatives"), memory_source=source,
            topk_mode=topk_mode, k=k, neighbor_k=data.draw(st.integers(1, 4), label="neighbor k"),
        )
        model = small_model(video_dim=6, text_dim=6, gated=not oracle)
        if not oracle:  # gate.w starts at zero, which gives every clip 0.5
            model.store["gate.w"][...] = rng.normal(size=model.store["gate.w"].shape)
        bank = MemoryBank(6, regime=regime, window=2)
        if regime is Regime.F1_STATIC:
            bank.populate(instance_scenes(instances)).freeze()
        for _ in range(2):
            batch = rng.permutation(len(instances))[:batch_size]
            stacked = batch_arrays(instances, batch)
            split, gates, _ = hn._batch_splits(
                model, *stacked[:2], icfg, masks[batch] if oracle else None
            )
            mix = mixed_and_pushed(bank, instances, batch, stacked, split, icfg, rng)
            draws = hn._draw_interventions(
                icfg, bank, instances, batch, stacked[0], split, gates, mix, rng
            )
            entries = bank.entries()
            for s, j in enumerate(draws.drawn):
                own = instances.ids[batch[j]]
                views = draws.views[s]
                sources = [stacked[0][j]] + [mix.v_star[j]] * (len(views) - 1)
                swapped = [~split[j]] * 2 + [split[j]] * (len(views) - 2)
                for view, source_video, rows in zip(views, sources, swapped):
                    np.testing.assert_array_equal(view[~rows], source_video[~rows])
                    for clip in np.flatnonzero(rows):
                        parents = [e.video_id.split("+") for e in entries
                                   if np.array_equal(e.vector, view[clip])]
                        assert any(own not in p for p in parents)
                        if source is MemorySource.MNSE:
                            (top,) = bank.topk(source_video[clip][None], icfg.neighbor_k,
                                               bank.codes([own]))
                            near = bank._columns.T[top[top >= 0]]
                            assert (near == view[clip]).all(axis=1).any()
            event(f"{len(draws.drawn)} of {batch_size} samples drawn")


# -- robustness protocol -----------------------------------------------------------


@pytest.fixture(scope="module")
def trained_f3_bank():
    """The f3 bank after three contrastive steps on erm_config's data: two
    batches of scenes and their mixup blends in the window."""
    cfg = replace(
        erm_config(steps=3),
        intervention=replace(GATE_RECIPE.intervention, memory_source=MemorySource.MNSE),
        bank=BankConfig(regime=Regime.F3_DYNAMIC_MIXUP, window=2),
    )
    return train(cfg).bank


def returned(name: str, into: list):
    """Patch harness's binding of name to append each call's return value
    to into."""
    real = getattr(hn, name)

    def wrapped(*args, **kwargs):
        into.append(real(*args, **kwargs))
        return into[-1]

    return mock.patch.object(hn, name, wrapped)


class TestProtocol:
    def test_all_causal_masks_are_no_ops(self):
        instances, _, _ = synth(25, seed=3)
        masks = np.ones((25, 8), dtype=bool)
        bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
        bank.populate(instance_scenes(instances)).freeze()
        model_a, model_b = small_model(seed=1), small_model(seed=2)
        proto = seen_unseen_protocol(model_a, model_b, instances, masks, bank)
        clean_a, clean_b = proto.clean
        for pair in (proto.seen, proto.unseen):
            assert pair[0].corrects == clean_a.corrects
            assert pair[1].corrects == clean_b.corrects
        assert all(v == 0.0 for v in proto.deltas.values())

    def test_self_replacement_leaves_accuracy_clean(self):
        instances, _, masks = synth(10, seed=4)
        model = small_model(seed=1)
        clean = evaluate(model, instances)
        videos = []
        for i, (inst, mask) in enumerate(zip(instances, np.asarray(masks, dtype=bool))):
            bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
            bank.populate(instance_scenes(instances[i : i + 1])).freeze()
            videos.append(
                mnse_do(inst.video[None], ~mask[None], bank, k=1,
                        rng=np.random.default_rng(9), exclude=bank.codes([None]))[0]
            )
            assert np.array_equal(videos[-1], inst.video)
        replaced = evaluate(model, instances, np.stack(videos))
        assert replaced.corrects == clean.corrects

    def test_protocol_requires_populated_bank(self):
        instances, _, masks = synth(4, seed=5)
        model = small_model()
        with pytest.raises(ValueError):
            seen_unseen_protocol(model, model, instances, np.asarray(masks), None)
        empty = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
        with pytest.raises(ValueError):
            seen_unseen_protocol(model, model, instances, np.asarray(masks), empty)

    def test_video_with_no_eligible_scene_raises(self):
        # the bank holds only the protocol video's own scenes
        instances, _, masks = synth(1, seed=4)
        masks = np.asarray(masks, dtype=bool)
        assert not masks.all()
        bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
        bank.populate(instance_scenes(instances)).freeze()
        model = small_model()
        with pytest.raises(ValueError, match="^no eligible bank entries: "):
            seen_unseen_protocol(model, model, instances, masks, bank)
        with pytest.raises(ValueError, match="^no eligible bank entries: "):
            mnse.random_do(np.stack([instances[0].video]), ~masks, bank,
                           np.random.default_rng(0), bank.codes([instances[0].video_id]))

    def test_protocol_deterministic(self):
        instances, _, masks = synth(12, seed=6)
        bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
        bank.populate(instance_scenes(instances)).freeze()
        model_a, model_b = small_model(seed=1), small_model(seed=2)
        p1 = seen_unseen_protocol(
            model_a, model_b, instances, np.asarray(masks), bank, seed=3, neighbor_k=2
        )
        p2 = seen_unseen_protocol(
            model_a, model_b, instances, np.asarray(masks), bank, seed=3, neighbor_k=2
        )
        assert p1.deltas == p2.deltas

    @pytest.mark.parametrize("rows_per_chunk", [None, 3])
    @pytest.mark.parametrize("k", [1, 7, 10**6])
    @pytest.mark.parametrize("bank_kind", ["f1", "trained-f3"])
    def test_matches_per_video_reference(self, trained_f3_bank, bank_kind, k, rows_per_chunk):
        # the training data: under f3 some protocol videos and their "a+b"
        # blends are in the bank, so eligible counts differ row to row
        instances, _, masks = synth(60, seed=0)
        if bank_kind == "f1":
            bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
            bank.populate(instance_scenes(instances)).freeze()
        else:
            bank = trained_f3_bank
        chunk = mnse.RANK_CHUNK if rows_per_chunk is None else len(bank) * rows_per_chunk
        model_a, model_b = small_model(seed=1), small_model(seed=2)
        drawn = []
        with mock.patch.object(mnse, "RANK_CHUNK", chunk), returned("mnse_do", drawn), \
                returned("random_do", drawn):
            got = seen_unseen_protocol(model_a, model_b, instances, masks, bank, 3, k)
        # the intervened videos: mnse_do's, then random_do's
        mnse_videos, random_videos = drawn
        want_mnse, want_random = reference_protocol_videos(instances, masks, bank, 3, k)
        np.testing.assert_array_equal(mnse_videos, np.stack(want_mnse))
        np.testing.assert_array_equal(random_videos, np.stack(want_random))
        assert got == reference_protocol(model_a, model_b, instances, masks, bank, 3, k)

    @pytest.mark.parametrize("selection", ["prefix", "scattered", "robustness-bank"])
    def test_a_selection_matches_per_video_reference(self, selection):
        # the bank holds every video of the dataset the protocol's videos
        # are selected from; the protocol turns their ids into the bank's
        # codes, each video's dataset index, once per call
        if selection == "robustness-bank":
            base = replace(
                erm_config(n=16, steps=2),
                intervention=replace(GATE_RECIPE.intervention, memory_source=MemorySource.MNSE),
                bank=BankConfig(regime=Regime.F3_DYNAMIC_MIXUP),
                use_oracle_masks=True,
            )
            with mock.patch.object(hn, "seen_unseen_protocol",
                                   wraps=hn.seen_unseen_protocol) as spy:
                (row,) = hn.robustness_experiment(base, seeds=[0], neighbor_k_eval=3)["rows"]
            (call,) = spy.call_args_list
            model_a, model_b, data, masks, bank = call.args
            seed, k = call.kwargs["seed"], call.kwargs["neighbor_k"]
            rows = np.arange(len(data))
            assert data.ids is bank._ids
        else:
            instances, _, masks = synth(40, seed=11)
            bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
            bank.populate(instance_scenes(instances)).freeze()
            rows = np.arange(12) if selection == "prefix" else np.array([31, 4, 17, 0, 39, 22, 8])
            data = instances[:12] if selection == "prefix" else instances[rows]
            masks = np.asarray(masks, dtype=bool)[rows]
            model_a, model_b, seed, k = small_model(seed=1), small_model(seed=2), 3, 5
        assert bank.codes(data.ids).tolist() == rows.tolist()
        drawn = []
        with returned("mnse_do", drawn), returned("random_do", drawn):
            got = seen_unseen_protocol(model_a, model_b, data, masks, bank, seed, k)
        want_mnse, want_random = reference_protocol_videos(data, masks, bank, seed, k)
        np.testing.assert_array_equal(drawn[0], np.stack(want_mnse))
        np.testing.assert_array_equal(drawn[1], np.stack(want_random))
        assert got == reference_protocol(model_a, model_b, data, masks, bank, seed, k)
        if selection == "robustness-bank":
            assert row["drop_a_unseen"] == got.deltas["drop_a_unseen"]

    @pytest.mark.parametrize("n", [1, 10, 11, 21, 22, 32, 33])
    def test_stacked_scoring_equals_six_evaluate_calls(self, n):
        # each model scores its three views in one stacked pass; 3n rows
        # fit one chunk up to n = 21 (63 rows) and span chunk boundaries
        # from n = 22 (66 rows)
        instances, _, masks = synth(40, seed=7)
        bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
        bank.populate(instance_scenes(instances)).freeze()
        data, masks = instances[:n], np.asarray(masks, dtype=bool)[:n]
        model_a, model_b = small_model(seed=1), small_model(seed=2)
        drawn = []
        with returned("mnse_do", drawn), returned("random_do", drawn):
            got = seen_unseen_protocol(model_a, model_b, data, masks, bank, 3, 5)
        near, rand = drawn
        assert got.clean == (evaluate(model_a, data), evaluate(model_b, data))
        assert got.seen == (evaluate(model_a, data, near), evaluate(model_b, data, rand))
        assert got.unseen == (evaluate(model_a, data, rand), evaluate(model_b, data, near))
        assert hn.evaluate_views(model_a, data, near) == [evaluate(model_a, data, near)]

    def test_a_20_video_protocol_scores_each_model_in_one_pass(self):
        instances, _, masks = synth(20, seed=7)
        bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
        bank.populate(instance_scenes(instances)).freeze()
        model_a, model_b = small_model(seed=1), small_model(seed=2)
        real = PcmaModel.forward_full
        with mock.patch.object(PcmaModel, "forward_full", autospec=True, side_effect=real) as spy:
            seen_unseen_protocol(model_a, model_b, instances, masks, bank, 3, 5)
        calls = [(call.args[0], len(call.args[1])) for call in spy.call_args_list]
        assert calls == [(model_a, 60), (model_b, 60)]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_substitute_is_a_scene_its_video_may_draw(self, data):
        # a nearest-scene substitute is one of its row's topk; a random one
        # is never a scene of the video's own id nor a blend with it as a
        # parent; rows the protocol keeps keep their own values
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n_clips = 5
        instances, _, masks = synth(8, seed=seed, n_clips=n_clips, video_dim=6, text_dim=6)
        rng = np.random.default_rng(seed)
        masks = np.asarray(masks, dtype=bool).copy()
        for i, kind in enumerate(data.draw(
            st.lists(st.sampled_from(["planted", "none", "all", "random"]),
                     min_size=len(instances), max_size=len(instances)), label="masks")):
            if kind != "planted":
                masks[i] = rng.random(n_clips) < 0.5 if kind == "random" else kind == "all"
        ids = [inst.video_id for inst in instances]
        parent = st.integers(0, len(ids) - 1)
        pairs = data.draw(st.lists(st.tuples(parent, parent), max_size=6), label="blends")
        bank = MemoryBank(6).populate(instance_scenes(instances))
        if pairs:
            bank.populate(stacked_scenes(rng.normal(size=(len(pairs), 2, 6)), ids, pairs))
        k = data.draw(st.integers(1, 6), label="neighbor k")
        model = small_model(video_dim=6, text_dim=6)
        drawn = []
        with returned("mnse_do", drawn), returned("random_do", drawn):
            seen_unseen_protocol(model, model, instances, masks, bank, seed, k)
        mnse_videos, random_videos = drawn
        entries = bank.entries()
        for inst, mask, near, rand in zip(instances, masks, mnse_videos, random_videos):
            np.testing.assert_array_equal(near[mask], inst.video[mask])
            np.testing.assert_array_equal(rand[mask], inst.video[mask])
            tops = bank.topk(inst.video[~mask], k,
                             bank.codes([inst.video_id] * int((~mask).sum())))
            for clip, top in zip(np.flatnonzero(~mask), tops):
                assert (bank._columns.T[top[top >= 0]] == near[clip]).all(axis=1).any()
                parents = [e.video_id.split("+") for e in entries
                           if np.array_equal(e.vector, rand[clip])]
                assert any(inst.video_id not in p for p in parents)
        event(f"{int((~masks).sum())} of {masks.size} rows replaced")

    def test_robustness_experiment_loads_each_seed_once(self, monkeypatch):
        loads = []

        def counted(cfg):
            loads.append(cfg)
            return load_data(cfg)

        monkeypatch.setattr(hn, "load_data", counted)
        base = replace(
            erm_config(n=16, steps=2),
            intervention=replace(GATE_RECIPE.intervention, memory_source=MemorySource.MNSE),
            bank=BankConfig(regime=Regime.F1_STATIC),
            use_oracle_masks=True,
        )
        out = hn.robustness_experiment(base, seeds=[0, 1], neighbor_k_eval=3)
        assert len(loads) == 2 and [r["seed"] for r in out["rows"]] == [0, 1]

    def test_robustness_experiment_requires_intervention(self):
        with pytest.raises(ValueError):
            hn.robustness_experiment(erm_config(), seeds=[0])

    def test_reseeded_offsets_every_seed(self):
        cfg = erm_config()
        shifted = hn._reseeded(cfg, 5)
        assert shifted.data.synthetic.seed == cfg.data.synthetic.seed + 5
        assert shifted.model.seed == cfg.model.seed + 5
        assert shifted.optimizer.seed == cfg.optimizer.seed + 5


class TestInstancesStayImmutable:
    """Training and the protocol read instance features and never write them."""

    @staticmethod
    def _snapshot(instances):
        return [(i.video.tobytes(), i.question.tobytes(), i.answers.tobytes()) for i in instances]

    @staticmethod
    def _assert_unchanged(instances, before):
        assert TestInstancesStayImmutable._snapshot(instances) == before
        for inst in instances:
            for arr in (inst.video, inst.question, inst.answers):
                assert arr.dtype == np.float64 and not arr.flags.writeable

    def test_contrastive_train_and_protocol_leave_instances_untouched(self):
        instances, saliencies, masks = synth(24, seed=8)
        before = self._snapshot(instances)
        cfg = replace(
            erm_config(steps=3),
            intervention=replace(GATE_RECIPE.intervention, memory_source=MemorySource.MNSE),
            bank=BankConfig(regime=Regime.F3_DYNAMIC_MIXUP),
        )
        result = train(cfg, dataset=(instances, saliencies, masks))
        assert result.report.curves[-1].cl_loss > 0.0
        self._assert_unchanged(instances, before)

        bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
        bank.populate(instance_scenes(instances)).freeze()
        seen_unseen_protocol(
            result.model, small_model(), instances, np.asarray(masks), bank, neighbor_k=3
        )
        self._assert_unchanged(instances, before)

    def test_writing_into_features_raises(self):
        inst = synth(1)[0][0]
        with pytest.raises(ValueError, match="read-only"):
            inst.video[0, 0] = 1.0


# -- shortcut probe ----------------------------------------------------------------


class TestShortcutProbe:
    def test_leaky_data_exposes_shortcut(self):
        instances, _, _ = synth(
            300, seed=9, n_clips=16, video_dim=64, text_dim=64, leak_strength=0.9
        )
        assert shortcut_probe(instances).overall > 0.5

    def test_clean_data_scores_at_chance(self):
        instances, _, _ = synth(1000, seed=9, n_clips=16, video_dim=64, text_dim=64)
        assert 0.17 <= shortcut_probe(instances).overall <= 0.23

    def test_stacked_predictions_match_per_instance_cosine(self, monkeypatch):
        instances, _, _ = synth(40, seed=5, leak_strength=0.5)
        seen = []
        monkeypatch.setattr(
            hn, "_report_from_predictions", lambda insts, preds: seen.append(list(preds))
        )
        shortcut_probe(instances)
        want = []
        for inst in instances:
            center = np.broadcast_to(inst.video.mean(axis=0), inst.answers.shape)
            want.append(int(np.argmax(nc.cosine_forward(center, inst.answers)[0].value)))
        assert seen == [want]

    def test_positive_answer_rescale_is_invariant(self):
        instances, _, _ = synth(50, seed=12)
        base = shortcut_probe(instances)
        scaled = rebuilt(instances, answers=(7.5 * instances.answers).astype(np.float32))
        assert shortcut_probe(scaled).corrects == base.corrects


# -- RL sampler training -----------------------------------------------------------


class TestRlTraining:
    def test_empty_selection_costs_uniform_guess(self):
        instances, _, _ = synth(1, seed=2, video_dim=16, text_dim=16)
        model = PcmaModel(
            ModelConfig(model_dim=16, n_heads=2, n_layers=1, seed=4).pcma(16, 16)
        )
        assert hn._pred_loss(model, instances[0], []) == pytest.approx(np.log(5))

    def test_rl_training_runs_without_divergence(self):
        instances, _, _ = synth(12, seed=2, video_dim=16, text_dim=16)
        backbone = PcmaModel(
            ModelConfig(model_dim=16, n_heads=2, n_layers=1, seed=4).pcma(16, 16)
        )
        sampler = sm.RlSampler(
            sm.RlConfig(
                video_dim=16, text_dim=16, n_frames=8, model_dim=16,
                hidden_dim=16, n_heads=2, max_steps=8, gamma=0.5, seed=5,
            )
        )
        result = hn.rl_train(
            backbone, sampler, instances, episodes=40,
            opt=OptimizerConfig(lr=1e-3, steps=0, batch_size=1, seed=3),
        )
        assert len(result.rewards) == 40
        assert np.isfinite(result.rewards).all()
        assert 0.0 <= result.mean_selected_fraction <= 1.0
        assert np.isfinite(result.mean_pred_loss)
        assert np.isfinite(result.all_frames_loss)


# -- artifacts ---------------------------------------------------------------------


class TestArtifacts:
    def test_write_metrics_versioned_sorted(self, tmp_path):
        path = write_metrics({"b": 1, "a": 2}, tmp_path / "metrics.json")
        body = path.read_text()
        assert body.endswith("\n")
        parsed = json.loads(body)
        assert parsed["version"] == 1
        assert list(parsed) == sorted(parsed)

    def test_write_curves_round_trips_floats_exactly(self, tmp_path):
        rows = [
            hn.CurveRow(0, 1.0 / 3.0, 0.1 + 0.2, 2.0),
            hn.CurveRow(1, 5e-324, 1e308, 0.0),
        ]
        path = write_curves(rows, tmp_path / "curves.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "step,erm_loss,cl_loss,total_loss"
        for row, line in zip(rows, lines[1:]):
            step, erm, cl, total = line.split(",")
            assert int(step) == row.step
            assert float(erm) == row.erm_loss
            assert float(cl) == row.cl_loss
            assert float(total) == row.total_loss

    @pytest.mark.parametrize("artifact", ["metrics", "curves", "checkpoint"])
    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch, artifact):
        def write(value):
            if artifact == "metrics":
                write_metrics({"value": value}, tmp_path / "metrics.json")
            elif artifact == "curves":
                write_curves([hn.CurveRow(0, value, value, value)], tmp_path / "curves.csv")
            else:
                save_checkpoint(small_model(seed=value), tmp_path / "ckpt")

        def snapshot():
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        write(1)
        before = snapshot()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(2)
        assert snapshot() == before  # previous files intact, no temp file left

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(hn.OUTPUT_DIR_ENV, str(tmp_path / "env_dir"))
        assert resolve_output_dir(str(tmp_path / "cfg_dir")) == tmp_path / "env_dir"
        monkeypatch.delenv(hn.OUTPUT_DIR_ENV)
        assert resolve_output_dir(str(tmp_path / "cfg_dir")) == tmp_path / "cfg_dir"
        with pytest.raises(ConfigError):
            resolve_output_dir(None)
