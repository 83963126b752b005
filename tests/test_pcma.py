from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalvqa import nn_core as nc
from causalvqa import pcma
from causalvqa.features import N_ANSWERS
from gradcheck import assert_grad_matches


def small_cfg(**kw):
    base = dict(video_dim=10, text_dim=8, model_dim=16, n_heads=4, n_layers=2, seed=5)
    base.update(kw)
    return pcma.PcmaConfig(**base)


def random_inputs(cfg, rng, n_clips=4, batch=1):
    """A batch of (video, question, answers): [B, n, vd], [B, td], [B, 5, td]."""
    video = rng.normal(size=(batch, n_clips, cfg.video_dim))
    question = rng.normal(size=(batch, cfg.text_dim))
    answers = rng.normal(size=(batch, N_ANSWERS, cfg.text_dim))
    return video, question, answers


def zero_attention_outputs(store):
    for name in store.names():
        if name.endswith(".wo") or name.endswith(".bo"):
            store.set_(name, np.zeros(store[name].shape))


class TestConfig:
    def test_validation(self):
        with pytest.raises(nc.DimMismatch):
            small_cfg(model_dim=10, n_heads=4)
        with pytest.raises(ValueError):
            small_cfg(tau=0.0)
        with pytest.raises(ValueError):
            small_cfg(n_layers=0)

    def test_seed_determinism(self, rng):
        cfg = small_cfg()
        m1, m2 = pcma.PcmaModel(cfg), pcma.PcmaModel(cfg)
        assert m1.store.names() == m2.store.names()
        for n in m1.store.names():
            np.testing.assert_array_equal(m1.store[n], m2.store[n])
        video, question, answers = random_inputs(cfg, rng)
        r1, _ = m1.forward_full(video, question, answers)
        r2, _ = m2.forward_full(video, question, answers)
        np.testing.assert_array_equal(r1.scores, r2.scores)


class TestLayer:
    def test_zeroed_output_projection_is_identity(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        zero_attention_outputs(model.store)
        v = rng.normal(size=(4, cfg.model_dim))
        q = rng.normal(size=(1, cfg.model_dim))
        out, _ = pcma.pcma_layer_forward(v, q, model.store, "layer0", cfg.n_heads)
        np.testing.assert_array_equal(out, v)

    def test_single_clip_shape(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        v = rng.normal(size=(1, cfg.model_dim))
        q = rng.normal(size=(1, cfg.model_dim))
        out, _ = pcma.pcma_layer_forward(v, q, model.store, "layer0", cfg.n_heads)
        assert out.shape == (1, cfg.model_dim)

    def test_question_gradient_nonzero_and_matches(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        v = rng.normal(size=(3, cfg.model_dim))
        q = rng.normal(size=(1, cfg.model_dim))

        def loss():
            out, _ = pcma.pcma_layer_forward(v, q, model.store, "layer0", cfg.n_heads)
            return float(out.sum())

        _, cache = pcma.pcma_layer_forward(v, q, model.store, "layer0", cfg.n_heads)
        dv, dq = pcma.pcma_layer_backward(np.ones((3, cfg.model_dim)), cache, model.store)
        assert np.abs(dq).max() > 0
        assert_grad_matches(loss, q, dq, rng, "question")
        assert_grad_matches(loss, v, dv, rng, "video")


class TestForward:
    def test_identical_answers_tie_break_to_zero(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, answers = random_inputs(cfg, rng)
        answers = np.tile(answers[:, 2:3], (1, N_ANSWERS, 1))
        result, _ = model.forward_full(video, question, answers)
        assert np.all(result.scores == result.scores[0, 0])
        assert result.predicted.tolist() == [0]

    def test_answer_rescaling_leaves_scores_unchanged(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, answers = random_inputs(cfg, rng)
        base, _ = model.forward_full(video, question, answers)
        scales = np.array([3.0, 0.1, 7.5, 1.0, 42.0])[None, :, None]
        scaled, _ = model.forward_full(video, question, answers * scales)
        np.testing.assert_allclose(scaled.scores, base.scores, atol=1e-12)
        assert scaled.predicted == base.predicted

    def test_answer_permutation_permutes_scores(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, answers = random_inputs(cfg, rng)
        base, _ = model.forward_full(video, question, answers)
        perm = np.array([3, 0, 4, 1, 2])
        permuted, _ = model.forward_full(video, question, answers[:, perm])
        np.testing.assert_allclose(permuted.scores, base.scores[:, perm], atol=1e-12)
        gold = 2
        base_loss, _ = pcma.pcma_loss(base, [gold], cfg.tau)
        new_gold = int(np.flatnonzero(perm == gold)[0])
        perm_loss, _ = pcma.pcma_loss(permuted, [new_gold], cfg.tau)
        assert perm_loss[0] == pytest.approx(base_loss[0], abs=1e-12)

    def test_clip_permutation_leaves_aggregate_unchanged(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, answers = random_inputs(cfg, rng, n_clips=6)
        base, _ = model.aggregate_forward(video, question)
        perm = rng.permutation(6)
        permuted, _ = model.aggregate_forward(video[:, perm], question)
        np.testing.assert_allclose(permuted, base, atol=1e-12)

    def test_residual_identity_path(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        zero_attention_outputs(model.store)
        video, question, answers = random_inputs(cfg, rng)
        result, _ = model.forward_full(video, question, answers)
        vp = video[0] @ model.store["video_proj.w"] + model.store["video_proj.b"]
        agg = vp.mean(axis=0)
        ap = answers[0] @ model.store["text_proj.w"]
        expect = np.array(
            [[nc.cosine_forward(agg, ap[i])[0].value for i in range(N_ANSWERS)]]
        )
        np.testing.assert_allclose(result.scores, expect, atol=1e-12)
        np.testing.assert_allclose(result.aggregated_video, agg[None], atol=1e-12)

    def test_dim_mismatch(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, answers = random_inputs(cfg, rng)
        with pytest.raises(nc.DimMismatch):
            model.forward_full(video[:, :, :-1], question, answers)
        with pytest.raises(nc.DimMismatch):
            model.forward_full(video, question[:, :-1], answers)
        with pytest.raises(nc.DimMismatch):
            model.forward_full(video, question, answers[:, :, :-1])
        with pytest.raises(nc.DimMismatch):
            model.forward_full(video[0], question[0], answers[0])


class TestLoss:
    def test_equal_scores_give_log5(self):
        result = pcma.AnswerScores(
            scores=np.full(N_ANSWERS, 0.3), predicted=0, aggregated_video=np.zeros(4)
        )
        loss, _ = pcma.pcma_loss(result, gold=1, tau=0.1)
        assert loss == pytest.approx(math.log(5.0), abs=1e-12)

    def test_unit_gap_at_default_tau_is_tiny(self):
        scores = np.zeros(N_ANSWERS)
        scores[3] = 1.0
        result = pcma.AnswerScores(scores=scores, predicted=3, aggregated_video=np.zeros(4))
        loss, _ = pcma.pcma_loss(result, gold=3, tau=0.1)
        assert loss < 0.001

    def test_score_gradient_matches(self, rng):
        scores = rng.normal(size=N_ANSWERS) * 0.5
        result = pcma.AnswerScores(scores=scores, predicted=0, aggregated_video=np.zeros(4))
        loss, dscores = pcma.pcma_loss(result, gold=2, tau=0.1)

        def f():
            r = pcma.AnswerScores(scores=scores, predicted=0, aggregated_video=np.zeros(4))
            val, _ = pcma.pcma_loss(r, gold=2, tau=0.1)
            return val

        assert_grad_matches(f, scores, dscores, rng, "scores")


class TestGradients:
    def test_training_loss_gradients(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, answers = random_inputs(cfg, rng)
        gold = [1]

        def loss():
            result, cache = model.forward_full(video, question, answers)
            val, _ = pcma.pcma_loss(result, gold, cfg.tau)
            return float(val[0])

        model.store.zero_grads()
        result, cache = model.forward_full(video, question, answers)
        _, dscores = pcma.pcma_loss(result, gold, cfg.tau)
        grads = model.backward_full(dscores, cache)
        assert_grad_matches(loss, video, grads.video, rng, "video")
        assert_grad_matches(loss, question, grads.question, rng, "question")
        assert_grad_matches(loss, answers, grads.answers, rng, "answers")
        for name in (
            "video_proj.w", "video_proj.b", "text_proj.w", "text_proj.b",
            "layer0.cross.wq", "layer0.self.wv", "layer1.cross.wo", "layer1.self.bq",
        ):
            assert_grad_matches(loss, model.store[name], model.store.grad(name), rng, name)

    def test_aggregate_path_gradients(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, _ = random_inputs(cfg, rng)
        probe = rng.normal(size=(1, cfg.model_dim))

        def loss():
            agg, _ = model.aggregate_forward(video, question)
            return float((agg * probe).sum())

        model.store.zero_grads()
        _, cache = model.aggregate_forward(video, question)
        dvideo, dquestion = model.aggregate_backward(probe, cache)
        assert_grad_matches(loss, video, dvideo, rng, "video")
        assert_grad_matches(loss, question, dquestion, rng, "question")


class TestBatchAxis:
    """A stacked pass over B samples equals B separate single-sample passes."""

    @given(
        batch=st.integers(1, 6),
        n_clips=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_stacked_pass_equals_per_row_passes(self, batch, n_clips, seed):
        g = np.random.default_rng(seed)
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, answers = random_inputs(cfg, g, n_clips=n_clips, batch=batch)
        gold = g.integers(0, N_ANSWERS, size=batch)

        model.store.zero_grads()
        losses, result, grads = model.loss_and_grads(video, question, answers, gold)
        stacked = {n: model.store.grad(n).copy() for n in model.store.names()}

        model.store.zero_grads()
        for b in range(batch):
            rows = slice(b, b + 1)
            loss_b, result_b, grads_b = model.loss_and_grads(
                video[rows], question[rows], answers[rows], gold[rows]
            )
            np.testing.assert_allclose(losses[rows], loss_b, rtol=0, atol=1e-12)
            np.testing.assert_allclose(result.scores[rows], result_b.scores, rtol=0, atol=1e-12)
            assert result.predicted[b] == result_b.predicted[0]
            for field in ("video", "question", "answers"):
                np.testing.assert_allclose(
                    getattr(grads, field)[rows], getattr(grads_b, field), rtol=0, atol=1e-12
                )
        for name, g_stacked in stacked.items():
            np.testing.assert_allclose(
                g_stacked, model.store.grad(name), rtol=1e-12, atol=1e-12, err_msg=name
            )

    def test_zero_norm_answer_scores_zero_and_is_flagged(self, rng):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        video, question, answers = random_inputs(cfg, rng, batch=3)
        answers[1, 2] = 0.0
        result, cache = model.forward_full(video, question, answers)
        assert result.scores[1, 2] == 0.0
        assert np.count_nonzero(result.scores == 0.0) == 1
        degenerate = cache["cos"][-1]
        assert degenerate.tolist() == [[i == 1 and j == 2 for j in range(N_ANSWERS)]
                                       for i in range(3)]
        grads = model.backward_full(np.ones((3, N_ANSWERS)), cache)
        np.testing.assert_array_equal(grads.answers[1, 2], 0.0)

    @pytest.mark.parametrize(
        "field, message",
        [("video", "aggregated video"), ("answers", "cosine input b")],
    )
    def test_non_finite_row_raises_for_the_batch(self, rng, field, message):
        cfg = small_cfg()
        model = pcma.PcmaModel(cfg)
        inputs = dict(zip(("video", "question", "answers"), random_inputs(cfg, rng, batch=4)))
        inputs[field][2, 0] = np.nan
        with pytest.raises(nc.NumericsError, match=f"^{message} contains non-finite values$"):
            model.forward_full(inputs["video"], inputs["question"], inputs["answers"])
