from __future__ import annotations

import math

import numpy as np
import pytest

from causalvqa import intervention as iv
from causalvqa import nn_core as nc
from causalvqa.features import Qtype, VideoQAInstance
from causalvqa.mnse import MemoryBank
from causalvqa.pcma import PcmaConfig, PcmaModel
from gradcheck import assert_grad_matches
from reference_step import reference_infonce

VIDEO_DIM, TEXT_DIM = 10, 8


def make_model(seed=3):
    cfg = PcmaConfig(
        video_dim=VIDEO_DIM, text_dim=TEXT_DIM, model_dim=16, n_heads=4, n_layers=1, seed=seed
    )
    return PcmaModel(cfg)


def make_instance(rng, n_clips=6, video_id="x", gold=0, video=None):
    return VideoQAInstance(
        video_id=video_id,
        video=(
            video if video is not None else rng.normal(size=(n_clips, VIDEO_DIM))
        ).astype(np.float32),
        question=rng.normal(size=TEXT_DIM).astype(np.float32),
        answers=rng.normal(size=(5, TEXT_DIM)).astype(np.float32),
        gold=gold,
        qtype=Qtype.CAUSAL,
    )


def make_split(rng, n_clips=6, n_causal=3):
    gates = rng.uniform(0.05, 0.95, size=n_clips)
    return iv.split_from_gates(gates, topk_mode=True, k=n_causal)


def make_bank(rng, n=40, dim=VIDEO_DIM):
    bank = MemoryBank(bank_dim=dim)
    bank.populate([(rng.normal(size=dim), f"bankvid{i % 11}", i) for i in range(n)])
    return bank


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            iv.InterventionConfig(alpha=0.0)
        with pytest.raises(ValueError):
            iv.InterventionConfig(beta_cl=-0.1)
        with pytest.raises(ValueError):
            iv.InterventionConfig(n_negatives=0)
        with pytest.raises(ValueError):
            iv.InterventionConfig(topk_mode=True, k=None)


class TestGate:
    def test_zero_init_gates_are_exactly_half(self, rng):
        model = make_model()
        inst = make_instance(rng)
        gates, _ = iv.gate_forward(model, inst.video[None], inst.question[None])
        split = iv.split_from_gates(gates[0])
        np.testing.assert_array_equal(split.gates, np.full(6, 0.5))
        assert split.mask.all()  # ties resolve causal

    def test_topk_with_k_equal_n_clips_is_all_true(self, rng):
        model = make_model()
        inst = make_instance(rng)
        gates, _ = iv.gate_forward(model, inst.video[None], inst.question[None])
        split = iv.split_from_gates(gates[0], topk_mode=True, k=6)
        assert split.mask.all()

    def test_topk_marks_exactly_k_largest(self):
        gates = np.array([0.9, 0.1, 0.7, 0.7, 0.2])
        split = iv.split_from_gates(gates, topk_mode=True, k=2)
        np.testing.assert_array_equal(split.mask, [True, False, True, False, False])
        split3 = iv.split_from_gates(gates, topk_mode=True, k=3)
        np.testing.assert_array_equal(split3.mask, [True, False, True, True, False])

    def test_topk_ties_take_lowest_index(self):
        gates = np.full(4, 0.5)
        split = iv.split_from_gates(gates, topk_mode=True, k=2)
        np.testing.assert_array_equal(split.mask, [True, True, False, False])

    def test_threshold_mask_keeps_ties_causal(self):
        split = iv.split_from_gates(np.array([0.5, 0.49, 0.51]))
        np.testing.assert_array_equal(split.mask, [True, False, True])

    def test_ensure_gate_params_is_idempotent(self):
        model = make_model()
        iv.ensure_gate_params(model)
        names = model.store.names()
        iv.ensure_gate_params(model)
        assert model.store.names() == names

    def test_gate_gradients(self, rng):
        model = make_model()
        batch = 2  # gradients are summed over the stacked samples
        video = rng.normal(size=(batch, 5, VIDEO_DIM))
        question = rng.normal(size=(batch, TEXT_DIM))
        probe = rng.normal(size=(batch, 5))

        def loss():
            g, _ = iv.gate_forward(model, video, question)
            return float((g * probe).sum())

        model.store.zero_grads()
        gates, cache = iv.gate_forward(model, video, question)
        assert np.all((gates > 0) & (gates < 1))
        dvideo, dquestion = iv.gate_backward(model, probe, cache)
        assert_grad_matches(loss, video, dvideo, rng, "video")
        assert_grad_matches(loss, question, dquestion, rng, "question")
        for name in ("gate.w", "gate.b", "gate.attn.wq", "gate.attn.wo", "video_proj.w"):
            assert_grad_matches(loss, model.store[name], model.store.grad(name), rng, name)


class TestMixup:
    def test_lambda0_one_reproduces_anchor(self, rng):
        cfg = iv.InterventionConfig()
        x, xp = make_instance(rng, video_id="a"), make_instance(rng, video_id="b", gold=2)
        sx, sxp = make_split(rng), make_split(rng)
        r = iv.mixup_intervene(x, sx, xp, sxp, cfg, rng, lambda0=1.0)
        np.testing.assert_array_equal(r.c_star, x.video[sx.mask])
        np.testing.assert_array_equal(r.q_star, x.question)
        np.testing.assert_array_equal(r.a_star, x.answers[x.gold])
        assert r.partner_id == "b"

    def test_lambda0_zero_reproduces_partner(self, rng):
        cfg = iv.InterventionConfig()
        x, xp = make_instance(rng), make_instance(rng, gold=3)
        sx, sxp = make_split(rng, n_causal=3), make_split(rng, n_causal=3)
        r = iv.mixup_intervene(x, sx, xp, sxp, cfg, rng, lambda0=0.0)
        np.testing.assert_array_equal(r.q_star, xp.question)
        np.testing.assert_array_equal(r.a_star, xp.answers[xp.gold])

    def test_midpoint_of_ones_and_zeros(self, rng):
        cfg = iv.InterventionConfig()
        ones = make_instance(rng, video=np.ones((6, VIDEO_DIM)))
        zeros = make_instance(rng, video=np.zeros((6, VIDEO_DIM)))
        sx, sxp = make_split(rng), make_split(rng)
        r = iv.mixup_intervene(ones, sx, zeros, sxp, cfg, rng, lambda0=0.5, lambda1=0.25)
        np.testing.assert_array_equal(r.c_star, np.full_like(r.c_star, 0.5))
        np.testing.assert_array_equal(r.t_star, np.full_like(r.t_star, 0.25))

    def test_coordinates_stay_in_parent_interval(self, rng):
        cfg = iv.InterventionConfig(alpha=0.4)
        for trial in range(1000):
            x, xp = make_instance(rng), make_instance(rng, gold=1)
            sx = make_split(rng, n_causal=int(rng.integers(1, 6)))
            sxp = make_split(rng, n_causal=int(rng.integers(1, 6)))
            r = iv.mixup_intervene(x, sx, xp, sxp, cfg, rng)
            c_hat = x.video[sx.mask]
            c_pr = xp.video[sxp.mask][np.arange(c_hat.shape[0]) % int(sxp.mask.sum())]
            t_hat = x.video[~sx.mask]
            t_pr = xp.video[~sxp.mask][np.arange(t_hat.shape[0]) % int((~sxp.mask).sum())]
            for star, a, b in ((r.c_star, c_hat, c_pr), (r.t_star, t_hat, t_pr)):
                lo = np.minimum(a, b) - 1e-12
                hi = np.maximum(a, b) + 1e-12
                assert np.all((star >= lo) & (star <= hi))

    def test_t_star_depends_only_on_lambda1(self, rng):
        cfg = iv.InterventionConfig()
        x, xp = make_instance(rng), make_instance(rng)
        sx, sxp = make_split(rng), make_split(rng)
        r1 = iv.mixup_intervene(x, sx, xp, sxp, cfg, rng, lambda0=0.2, lambda1=0.6)
        r2 = iv.mixup_intervene(x, sx, xp, sxp, cfg, rng, lambda0=0.9, lambda1=0.6)
        np.testing.assert_array_equal(r1.t_star, r2.t_star)
        assert np.any(r1.c_star != r2.c_star)

    def test_empty_causal_raises(self, rng):
        cfg = iv.InterventionConfig()
        x, xp = make_instance(rng), make_instance(rng)
        empty = iv.CausalSplit(mask=np.zeros(6, dtype=bool), gates=np.full(6, 0.2))
        ok = make_split(rng)
        with pytest.raises(iv.DegenerateSplitError):
            iv.mixup_intervene(x, empty, xp, ok, cfg, rng)
        with pytest.raises(iv.DegenerateSplitError):
            iv.mixup_intervene(x, ok, xp, empty, cfg, rng)

    def test_partner_complement_empty_raises_when_needed(self, rng):
        cfg = iv.InterventionConfig()
        x, xp = make_instance(rng), make_instance(rng)
        all_causal = iv.CausalSplit(mask=np.ones(6, dtype=bool), gates=np.full(6, 0.9))
        ok = make_split(rng)
        with pytest.raises(iv.DegenerateSplitError):
            iv.mixup_intervene(x, ok, xp, all_causal, cfg, rng)
        # anchor with no complement needs nothing from the partner's
        r = iv.mixup_intervene(x, all_causal, xp, ok, cfg, rng)
        assert r.t_star.shape == (0, VIDEO_DIM)

    def test_seeded_determinism(self, rng):
        cfg = iv.InterventionConfig(alpha=0.7)
        x, xp = make_instance(rng), make_instance(rng)
        sx, sxp = make_split(rng), make_split(rng)
        r1 = iv.mixup_intervene(x, sx, xp, sxp, cfg, np.random.default_rng(5))
        r2 = iv.mixup_intervene(x, sx, xp, sxp, cfg, np.random.default_rng(5))
        assert r1.lambda0 == r2.lambda0 and r1.lambda1 == r2.lambda1
        np.testing.assert_array_equal(r1.c_star, r2.c_star)


class TestAssemble:
    def test_rows_land_at_mask_positions(self, rng):
        mask = np.array([True, False, False, True, False])
        c = rng.normal(size=(2, 4))
        t = rng.normal(size=(3, 4))
        v = iv.assemble_video(mask, c, t)
        np.testing.assert_array_equal(v[mask], c)
        np.testing.assert_array_equal(v[~mask], t)

    def test_reassembling_own_partitions_is_identity(self, rng):
        video = rng.normal(size=(6, 4))
        mask = np.array([False, True, True, False, True, False])
        v = iv.assemble_video(mask, video[mask], video[~mask])
        np.testing.assert_array_equal(v, video)

    def test_row_count_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            iv.assemble_video(np.array([True, False]), np.zeros((2, 3)), np.zeros((1, 3)))


def build_one(model, v_star, q_star, split, bank, q_r, cfg, rng, **kw):
    """One drawn triplet through the stacked forward: (aggregates [n_views,
    model_dim], cache, draw)."""
    drawn = iv.draw_triplet(v_star, q_star, split, bank, q_r, cfg, rng, **kw)
    (aggs,), cache = iv.build_triplet_cached(model, [drawn])
    return aggs, cache, drawn


class TestTriplet:
    def _pipeline(self, rng, cfg=None, model=None):
        model = model or make_model()
        cfg = cfg or iv.InterventionConfig(n_negatives=3)
        v_star = rng.normal(size=(6, VIDEO_DIM))
        q_star = rng.normal(size=TEXT_DIM)
        q_r = rng.normal(size=TEXT_DIM)
        split = make_split(rng)
        bank = make_bank(rng)
        return model, cfg, v_star, q_star, q_r, split, bank

    def test_self_bank_substitution_identity(self, rng):
        model, cfg, v_star, q_star, q_r, split, _ = self._pipeline(rng)
        bank = MemoryBank(bank_dim=VIDEO_DIM)
        comp = split.complement_indices
        bank.populate([(v_star[i], "self", int(i)) for i in comp])
        aggs, _, _ = build_one(
            model, v_star, q_star, split, bank, q_r, cfg, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(aggs[1], aggs[0])

    def test_single_negative_is_question_swap(self, rng):
        model, _, v_star, q_star, q_r, split, bank = self._pipeline(rng)
        cfg = iv.InterventionConfig(n_negatives=1)
        aggs, _, drawn = build_one(
            model, v_star, q_star, split, bank, q_r, cfg, np.random.default_rng(0)
        )
        assert len(aggs) == 3
        assert drawn.negatives.shape == (0, *v_star.shape)
        direct, _ = model.aggregate_forward(v_star[None], q_r[None])
        np.testing.assert_array_equal(aggs[2], direct[0])

    def test_negative_count_matches_config(self, rng):
        model, cfg, v_star, q_star, q_r, split, bank = self._pipeline(rng)
        for n in (1, 2, 5):
            c = iv.InterventionConfig(n_negatives=n)
            aggs, _, _ = build_one(
                model, v_star, q_star, split, bank, q_r, c, np.random.default_rng(1)
            )
            assert len(aggs) == 2 + n

    def test_empty_bank_raises(self, rng):
        model, cfg, v_star, q_star, q_r, split, _ = self._pipeline(rng)
        with pytest.raises(ValueError, match="empty"):
            iv.draw_triplet(
                v_star, q_star, split, MemoryBank(bank_dim=VIDEO_DIM), q_r,
                cfg, np.random.default_rng(0),
            )

    @pytest.mark.parametrize("source", [iv.MemorySource.MNSE, iv.MemorySource.RANDOM_BANK])
    def test_gate_gradients_through_contrastive_loss(self, rng, source):
        model, _, v_star, q_star, q_r, split, bank = self._pipeline(rng)
        cfg = iv.InterventionConfig(n_negatives=3, memory_source=source, neighbor_k=2)

        def run():
            aggs, cache, _ = build_one(
                model, v_star, q_star, split, bank, q_r, cfg, np.random.default_rng(42)
            )
            loss, grad = iv.infonce_loss(aggs)
            return float(loss), grad, cache

        def f():
            return run()[0]

        model.store.zero_grads()
        loss, grad, cache = run()
        (dgates,) = iv.triplet_backward(model, grad[None], cache)
        assert np.abs(dgates).max() > 0
        assert_grad_matches(f, split.gates, dgates, rng, "gates")
        for name in ("layer0.cross.wq", "video_proj.w", "text_proj.w", "layer0.self.wo"):
            assert_grad_matches(f, model.store[name], model.store.grad(name), rng, name)

    def test_stacked_triplets_match_one_at_a_time(self, rng):
        # three triplets of different splits through one stacked pass give
        # each triplet's own views bit for bit, and the same gradients
        model = make_model()
        cfg = iv.InterventionConfig(n_negatives=3, neighbor_k=3)
        bank = make_bank(rng)
        draws = [
            iv.draw_triplet(
                rng.normal(size=(6, VIDEO_DIM)), rng.normal(size=TEXT_DIM),
                make_split(rng, n_causal=c), bank, rng.normal(size=TEXT_DIM), cfg,
                np.random.default_rng(c),
            )
            for c in (1, 3, 6)
        ]
        model.store.zero_grads()
        aggs, cache = iv.build_triplet_cached(model, draws)
        _, grads = iv.infonce_loss(aggs)
        dgates = iv.triplet_backward(model, grads, cache)
        stacked = {n: model.store.grad(n).copy() for n in model.store.names()}
        model.store.zero_grads()
        for drawn, views, g, row in zip(draws, aggs, grads, dgates):
            (single,), single_cache = iv.build_triplet_cached(model, [drawn])
            np.testing.assert_array_equal(views, single)
            np.testing.assert_allclose(
                iv.triplet_backward(model, g[None], single_cache)[0], row, rtol=0, atol=1e-12
            )
        for name, grad in stacked.items():
            np.testing.assert_allclose(grad, model.store.grad(name), rtol=0, atol=1e-12)


class TestInfoNce:
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_equal_similarities_give_log_1_plus_n(self, rng, n):
        a = rng.normal(size=16)
        other = rng.normal(size=16)
        loss, _ = iv.infonce_loss(np.stack([a, other, *[other] * n]))
        assert loss == pytest.approx(math.log(1.0 + n), abs=1e-12)

    def test_dominant_positive_drives_loss_to_zero(self):
        a = np.array([1.0, 0.0])
        pos = np.array([30.0, 0.0])  # similarity 30
        neg = np.array([0.0, 30.0])  # similarity 0
        loss, _ = iv.infonce_loss(np.stack([a, pos, neg]))
        assert 0.0 < loss < 1e-9
        # and a still larger gap underflows cleanly to exactly zero
        huge, _ = iv.infonce_loss(np.stack([a, [200.0, 0.0], neg]))
        assert huge == 0.0

    def test_matches_direct_formula_evaluation(self, rng):
        a = rng.normal(size=16) * 0.3
        pos = rng.normal(size=16) * 0.3
        negs = [rng.normal(size=16) * 0.3 for _ in range(8)]
        aggs = np.stack([a, pos, *negs])
        loss, grad = iv.infonce_loss(aggs)
        assert grad.shape == aggs.shape
        # independent evaluation, no max-subtraction
        num = math.exp(float(a @ pos))
        den = num + sum(math.exp(float(a @ n)) for n in negs)
        assert loss == pytest.approx(-math.log(num / den), abs=1e-10)

        def f():
            return float(iv.infonce_loss(aggs)[0])

        # each view of aggs is perturbed in place through its row view
        for view, label in ((0, "anchor"), (1, "positive"), (2, "negative0"), (5, "negative3"),
                            (9, "negative7")):
            assert_grad_matches(f, aggs[view], grad[view], rng, label)

    def test_loss_is_positive_and_finite(self, rng):
        losses, _ = iv.infonce_loss(rng.normal(size=(20, 5, 8)))
        assert losses.shape == (20,)
        assert np.all((0.0 < losses) & (losses < math.inf))

    def test_batched_matches_per_triplet_reference(self, rng):
        # stacked triplets give every triplet's loss and gradients bit for
        # bit as the one-vector-per-view loop, over batch shapes and view
        # counts on both sides of numpy's eight-term pairwise summation
        for _ in range(100):
            lead = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            n_views, dim = int(rng.integers(3, 13)), int(rng.integers(1, 40))
            aggs = rng.normal(size=(*lead, n_views, dim)) * rng.uniform(0.1, 3.0)
            losses, grads = iv.infonce_loss(aggs)
            assert losses.shape == lead and grads.shape == aggs.shape
            for idx in np.ndindex(*lead):
                views = aggs[idx]
                loss, danchor, dpositive, dnegatives = reference_infonce(
                    views[0], views[1], list(views[2:])
                )
                assert float(losses[idx]) == loss
                want = np.stack([danchor, dpositive, *dnegatives])
                np.testing.assert_array_equal(grads[idx], want)

    def test_requires_a_negative(self):
        for shape in ((2, 3), (4, 2, 3), (3,)):
            with pytest.raises(ValueError):
                iv.infonce_loss(np.ones(shape))


class TestTotalLoss:
    def test_beta_zero_returns_erm(self):
        cfg = iv.InterventionConfig(beta_cl=0.0)
        assert iv.total_loss(1.234, 99.0, cfg) == 1.234

    def test_weighted_sum(self):
        cfg = iv.InterventionConfig(beta_cl=0.5)
        assert iv.total_loss(1.0, 2.0, cfg) == pytest.approx(2.0, abs=1e-15)

    def test_rejects_non_finite(self):
        cfg = iv.InterventionConfig()
        with pytest.raises(nc.NumericsError):
            iv.total_loss(float("nan"), 0.0, cfg)
