"""Harness tests: metrics aggregation, config parsing, the training loop,
the seen/unseen robustness protocol, the shortcut probe, RL sampler
training, and artifact writers."""

import json
import os
import tempfile
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalvqa.harness as hn
import causalvqa.nn_core as nc
import causalvqa.samplers as sm
from causalvqa.features import FormatError, Qtype, SyntheticSpec, generate_synthetic
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
    build_triplet_cached,
    draw_triplet,
    ensure_gate_params,
    gate_forward,
)
from causalvqa.mnse import (
    MemoryBank,
    Metric,
    Regime,
    Target,
    instance_scenes,
    mnse_do,
)
from causalvqa.pcma import PcmaConfig, PcmaModel
from reference_adam import ReferenceAdam
from reference_step import reference_passes


def small_model(seed: int = 3, video_dim: int = 24, text_dim: int = 24) -> PcmaModel:
    cfg = ModelConfig(model_dim=32, n_heads=4, n_layers=1, seed=seed)
    return PcmaModel(cfg.pcma(video_dim, text_dim))


def synth(n: int, seed: int = 0, **kw) -> tuple:
    defaults = dict(n_clips=8, video_dim=24, text_dim=24, noise_std=0.1)
    defaults.update(kw)
    return generate_synthetic(SyntheticSpec(n_instances=n, seed=seed, **defaults))


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
        instances, _, _ = synth(2000, seed=42)
        rep = evaluate(small_model(seed=3), instances)
        assert 0.17 <= rep.overall <= 0.23

    def test_single_causal_instance_report(self):
        instances, _, _ = synth(1, seed=22)
        assert instances[0].qtype is Qtype.CAUSAL
        rep = evaluate(small_model(seed=3), instances)
        assert rep.overall == 1.0
        assert rep.acc_causal == 1.0
        assert rep.acc_temporal is None
        assert rep.acc_descriptive is None

    def test_video_override_with_originals_is_identity(self):
        instances, _, _ = synth(20, seed=7)
        model = small_model()
        base = evaluate(model, instances)
        same = evaluate(model, instances, [i.video for i in instances])
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

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 65])
    def test_chunked_predictions_match_single_passes(self, n, monkeypatch):
        instances, _, _ = synth(n, seed=13) if n else ([], None, None)
        model = small_model(seed=4)
        seen = []
        monkeypatch.setattr(
            hn, "_report_from_predictions", lambda insts, preds: seen.append(list(preds))
        )
        evaluate(model, instances)
        assert seen == [self._one_at_a_time(model, instances)]

    def test_mixed_clip_counts_raise(self):
        # a run has one clip count; a stacked pass over a mix cannot be built
        eight, _, _ = synth(3, seed=1, n_clips=8)
        three, _, _ = synth(3, seed=2, n_clips=3)
        instances = eight + three
        with pytest.raises(ValueError, match="same shape"):
            evaluate(small_model(seed=4), instances)
        # one batch covers the whole set, so the first step mixes the counts
        cfg = replace(erm_config(steps=1), optimizer=OptimizerConfig(batch_size=6, steps=1))
        with pytest.raises(ValueError, match="same shape"):
            train(cfg, dataset=(instances, None, None))


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
        assert any("data" in p for p in err.value.problems)


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


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory) -> dict[str, bytes]:
    out = save_checkpoint(small_model(seed=2), tmp_path_factory.mktemp("saved") / "ckpt")
    return {p.name: p.read_bytes() for p in out.iterdir()}


# a model.json edit: (key, value), where the key is a pcma field, "version",
# the whole "pcma" section or an unknown pcma field, and a value of None
# deletes the key
MODEL_JSON_EDITS = st.tuples(
    st.sampled_from([f.name for f in fields(PcmaConfig)] + ["version", "pcma", "extra"]),
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


class TestCheckpointBoundary:
    def test_gated_save_load_save_is_byte_identical(self, tmp_path):
        model = small_model(seed=5)
        ensure_gate_params(model)
        model.store.set_("gate.w", np.linspace(-1.0, 1.0, model.cfg.model_dim))
        first = save_checkpoint(model, tmp_path / "a")
        second = save_checkpoint(load_checkpoint(first), tmp_path / "b")
        for name in ("params.f32", "params.json", "model.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_stored_tensor_missing_from_the_model_names_it(self, tmp_path):
        model = small_model()
        ensure_gate_params(model)
        out = save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((out / "params.json").read_text())
        for spec in manifest["tensors"]:
            if spec["name"] == "gate.b":
                spec["name"] = "gate.bias"
        (out / "params.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=r"params\.json: tensor gate\.b: stored shape none"):
            load_checkpoint(out)

    @settings(max_examples=200, deadline=None)
    @given(
        flips=st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 255)), max_size=4),
        edits=st.lists(MODEL_JSON_EDITS, max_size=2),
    )
    def test_mutated_checkpoint_loads_or_raises_format_error(self, saved_checkpoint, flips, edits):
        files = dict(saved_checkpoint)
        payload = bytearray(files["params.f32"])
        for offset, byte in flips:
            payload[offset % len(payload)] = byte
        files["params.f32"] = bytes(payload)
        meta = json.loads(files["model.json"])
        for key, value in edits:
            target = meta if key in ("version", "pcma") else meta.get("pcma")
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
        store = nc.ParamStore(seed=0)
        store.add_zeros("w", (3,))
        store.accumulate("w", np.array([1.0, -2.0, 0.0]))
        adam_step(store, AdamState(), OptimizerConfig(lr=0.1))
        w = store["w"]
        assert w[0] < 0 and w[1] > 0 and w[2] == 0.0

    def test_lr_zero_keeps_params_bit_identical(self):
        store = nc.ParamStore(seed=0)
        store.add_zeros("w", (3,))
        store.set_("w", np.array([0.5, -1.5, 2.0]))
        before = store["w"].copy()
        store.accumulate("w", np.array([10.0, 10.0, 10.0]))
        adam_step(store, AdamState(), OptimizerConfig(lr=0.0))
        assert store["w"].tobytes() == before.tobytes()

    def test_flat_step_matches_per_tensor_reference(self):
        flat, ref = small_model(seed=4), small_model(seed=4)
        for model in (flat, ref):
            ensure_gate_params(model)  # the store grows after construction
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
        model = small_model()
        ensure_gate_params(model)
        store = model.store
        for name in store.names():
            assert np.shares_memory(store[name], store.flat_params), name
            assert np.shares_memory(store.grad(name), store.flat_grads), name
        assert store.flat_params.size == sum(store[name].size for name in store.names())

    def test_growing_after_the_first_step_raises(self):
        store = nc.ParamStore(seed=0)
        store.add("w", (3,))
        adam_step(store, AdamState(), OptimizerConfig())
        with pytest.raises(ValueError, match="optimizer"):
            store.add_zeros("b", (2,))

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
            from causalvqa.intervention import CausalSplit

            split = CausalSplit(mask=mask, gates=mask.astype(np.float64))
            drawn = draw_triplet(
                inst.video,
                inst.question,
                split,
                result.bank,
                instances[0].question,
                icfg,
                rng,
                exclude_video_id=inst.video_id,
            )
            (aggs,), _ = build_triplet_cached(result.model, [drawn])

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
    """The stacked intervened passes against the one-sample-at-a-time
    reference: the same draws in the same order, bit-identical per-row
    losses, and parameter and gate gradients equal up to summation order."""

    @staticmethod
    def _inputs(source, oracle, regime, batch_size=4, degenerate=()):
        instances, _, masks = synth(10, seed=11)
        masks = np.asarray(masks, dtype=bool).copy()
        masks[list(degenerate)] = False
        model = PcmaModel(ModelConfig(model_dim=16, n_heads=2, n_layers=1, seed=5).pcma(24, 24))
        icfg = InterventionConfig(
            alpha=2.0, beta_cl=0.7, n_negatives=3, memory_source=source, topk_mode=True, k=4,
            neighbor_k=5,
        )
        bank = MemoryBank(24, regime=regime)
        if regime is Regime.F1_STATIC:
            bank.populate(instance_scenes(instances)).freeze()
        rng = np.random.default_rng(7)
        batch = [int(i) for i in rng.permutation(len(instances))[:batch_size]]
        insts = [instances[i] for i in batch]
        splits, _ = hn._batch_splits(
            model, insts, icfg, [masks[i] for i in batch] if oracle else None
        )
        prepared, mixup_rows = hn._mixed_samples(insts, splits, icfg, rng)
        if regime is not Regime.F1_STATIC:
            bank.push_batch(
                instance_scenes(insts),
                mixup_rows if regime is Regime.F3_DYNAMIC_MIXUP else None,
            )
        return model, icfg, bank, instances, batch, prepared, rng

    @staticmethod
    def _compare(model, icfg, bank, instances, batch, prepared, rng):
        start = rng.bit_generator.state

        def at_start():
            g = np.random.default_rng()
            g.bit_generator.state = start
            return g

        store = model.store
        store.zero_grads()
        ref_rng = at_start()
        ref = reference_passes(model, icfg, bank, instances, batch, prepared, ref_rng)
        ref_grads = {name: store.grad(name).copy() for name in store.names()}

        draws = hn._draw_interventions(icfg, bank, instances, batch, prepared, at_start())
        do_videos = {}
        for j, video, *_ in draws.views:
            do_videos.setdefault(j, [])
            do_videos[j].append(video)
        videos = []
        for j, drawn in draws.triplets:
            videos += [do_videos[j][1], drawn.positive, *drawn.negatives]
        assert len(videos) == len(ref.videos)
        for got, want in zip(videos, ref.videos):
            np.testing.assert_array_equal(got, want)

        store.zero_grads()
        new_rng = at_start()
        new = hn._intervened_passes(model, icfg, bank, instances, batch, prepared, new_rng)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        assert new.positions == ref.positions
        assert [[float(x) for x in row] for row in new.losses] == [
            [float(x) for x in row] for row in ref.losses
        ]
        assert new.cl_losses == ref.cl_losses
        assert new.dgates.shape == (len(ref.positions), instances[0].n_clips)
        for got, want in zip(new.dgates, ref.dgates):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for name, want in ref_grads.items():
            np.testing.assert_allclose(store.grad(name), want, rtol=0, atol=1e-12)
        return new

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "learned"])
    @pytest.mark.parametrize("source", list(MemorySource))
    def test_matches_per_sample_reference(self, source, oracle, regime):
        inputs = self._inputs(source, oracle, regime)
        new = self._compare(*inputs)
        assert len(new.positions) == 4
        assert all(len(row) == 2 for row in new.losses)

    @pytest.mark.parametrize("source", list(MemorySource))
    def test_f2_batch_of_one_skips_its_intervention(self, source):
        # the bank holds only the sample's own scenes: no do view, no triplet
        inputs = self._inputs(source, True, Regime.F2_DYNAMIC, batch_size=1)
        new = self._compare(*inputs)
        assert new.positions == [] and new.cl_losses == []
        assert [len(row) for row in new.losses] == [1]

    def test_degenerate_split_leaves_the_sample_out(self):
        model, icfg, bank, instances, batch, prepared, rng = self._inputs(
            MemorySource.MNSE, True, Regime.F1_STATIC
        )
        prepared[1] = None
        new = self._compare(model, icfg, bank, instances, batch, prepared, rng)
        assert new.positions == [0, 2, 3]
        assert new.losses[1] == []

    def test_every_split_degenerate(self):
        inputs = self._inputs(
            MemorySource.RANDOM_BANK, True, Regime.F3_DYNAMIC_MIXUP, degenerate=range(10)
        )
        assert inputs[5] == [None] * 4
        new = self._compare(*inputs)
        assert new.positions == [] and new.losses == [[]] * 4


# -- robustness protocol -----------------------------------------------------------


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
        for inst, mask in zip(instances, np.asarray(masks, dtype=bool)):
            bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
            bank.populate(instance_scenes([inst])).freeze()
            videos.append(
                mnse_do(inst.video, mask, bank, Target.COMPLEMENT, k=1, seed=9)
            )
            assert np.array_equal(videos[-1], inst.video)
        replaced = evaluate(model, instances, videos)
        assert replaced.corrects == clean.corrects

    def test_protocol_requires_populated_bank(self):
        instances, _, masks = synth(4, seed=5)
        model = small_model()
        with pytest.raises(ValueError):
            seen_unseen_protocol(model, model, instances, np.asarray(masks), None)
        empty = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
        with pytest.raises(ValueError):
            seen_unseen_protocol(model, model, instances, np.asarray(masks), empty)

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
        scaled = [
            replace(inst, answers=(7.5 * inst.answers).astype(np.float32))
            for inst in instances
        ]
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
