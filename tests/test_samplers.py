"""Frame sampler tests: MAR partitions, pool resampling statistics, the
teacher-student scorer, and the RL selection agent."""

import numpy as np
import pytest

import causalvqa.nn_core as nc
import causalvqa.samplers as sm
from causalvqa.features import MomentWindow, SaliencyAnnotation

from gradcheck import assert_grad_matches, dead_tensors


def annotation(n_frames, windows):
    return SaliencyAnnotation(
        scores=np.zeros(n_frames), windows=tuple(windows), n_frames=n_frames
    )


# -- SamplerOutput -----------------------------------------------------------


def test_output_rejects_unsorted_indices():
    with pytest.raises(ValueError, match="sorted"):
        sm.SamplerOutput(indices=(3, 1), provenance=("moment", "moment"))


def test_output_rejects_provenance_mismatch():
    with pytest.raises(ValueError, match="provenance"):
        sm.SamplerOutput(indices=(1, 2), provenance=("moment",))


def test_output_rejects_unnormalized_probs():
    with pytest.raises(ValueError, match="sum"):
        sm.SamplerOutput(indices=(0,), provenance=("policy",), probs=np.array([0.7]))


# -- MAR ---------------------------------------------------------------------


def test_mar_factories():
    c16, c32 = sm.mar16(), sm.mar32()
    assert (c16.total, c16.moment_count, c16.per_segment) == (16, 8, 2)
    assert (c32.total, c32.moment_count, c32.per_segment) == (32, 16, 4)
    for c in (c16, c32):
        assert c.total == c.moment_count + c.segment_count * c.per_segment


def test_mar_config_rejects_bad_arithmetic():
    with pytest.raises(ValueError, match="!="):
        sm.MarConfig(total=16, moment_count=8, segment_count=4, per_segment=3)
    with pytest.raises(ValueError, match="positive"):
        sm.MarConfig(total=0, moment_count=0, segment_count=4, per_segment=0)


def test_segment_bounds_even_split():
    assert sm.segment_bounds(64, 4) == [(0, 16), (16, 32), (32, 48), (48, 64)]


def test_segment_bounds_last_absorbs_remainder():
    assert sm.segment_bounds(10, 4) == [(0, 2), (2, 4), (4, 6), (6, 10)]


def test_mar16_partition_on_64_frames():
    # 8 draws from the best window [10, 30), 2 from each 16-frame segment
    sal = annotation(64, [MomentWindow(10, 30, 0.9), MomentWindow(40, 50, 0.2)])
    out = sm.mar_sample(sal, sm.mar16(seed=3))
    assert len(out.indices) == 16
    assert len(set(out.indices)) == 16
    assert not out.replacement_fallback
    assert list(out.indices) == sorted(out.indices)
    by_tag = {}
    for idx, tag in zip(out.indices, out.provenance):
        by_tag.setdefault(tag, []).append(idx)
    assert len(by_tag["moment"]) == 8
    assert all(10 <= i < 30 for i in by_tag["moment"])
    bounds = sm.segment_bounds(64, 4)
    for s, (lo, hi) in enumerate(bounds):
        seg = by_tag[f"segment_{s}"]
        assert len(seg) == 2
        assert all(lo <= i < hi for i in seg)


def test_mar32_partition_counts():
    sal = annotation(128, [MomentWindow(20, 60, 1.0)])
    out = sm.mar_sample(sal, sm.mar32(seed=11))
    assert len(out.indices) == 32
    assert len(set(out.indices)) == 32
    tags = list(out.provenance)
    assert tags.count("moment") == 16
    for s in range(4):
        assert tags.count(f"segment_{s}") == 4


def test_mar_tie_takes_earliest_window():
    sal = annotation(64, [MomentWindow(40, 60, 0.5), MomentWindow(5, 25, 0.5)])
    for seed in range(5):
        out = sm.mar_sample(sal, sm.mar16(seed=seed))
        moments = [i for i, t in zip(out.indices, out.provenance) if t == "moment"]
        assert all(5 <= i < 25 for i in moments)


def test_mar_short_window_flags_replacement():
    # window of 4 frames cannot supply 8 distinct moment picks
    sal = annotation(64, [MomentWindow(8, 12, 1.0)])
    out = sm.mar_sample(sal, sm.mar16(seed=0))
    assert out.replacement_fallback
    assert len(out.indices) == 16
    moments = [i for i, t in zip(out.indices, out.provenance) if t == "moment"]
    assert len(moments) == 8
    assert set(moments) <= set(range(8, 12))


def test_mar_no_fallback_keeps_indices_distinct():
    sal = annotation(48, [MomentWindow(0, 48, 1.0)])
    for seed in range(20):
        out = sm.mar_sample(sal, sm.mar16(seed=seed))
        assert not out.replacement_fallback
        assert len(set(out.indices)) == 16


def test_mar_deterministic_per_seed():
    sal = annotation(64, [MomentWindow(10, 30, 0.9)])
    a = sm.mar_sample(sal, sm.mar16(seed=7))
    b = sm.mar_sample(sal, sm.mar16(seed=7))
    assert a == b
    seen = {sm.mar_sample(sal, sm.mar16(seed=s)).indices for s in range(10)}
    assert len(seen) > 1


def test_mar_requires_windows():
    with pytest.raises(ValueError, match="window"):
        sm.mar_sample(annotation(64, []), sm.mar16())


def test_mar_total_exceeding_frames_falls_back():
    # 8 frames for 16 picks: every span exhausts and redraws with replacement
    sal = annotation(8, [MomentWindow(0, 8, 1.0)])
    out = sm.mar_sample(sal, sm.mar16(seed=2))
    assert out.replacement_fallback
    assert len(out.indices) == 16
    assert set(out.indices) <= set(range(8))


# -- pool resampling ---------------------------------------------------------


def test_resample_identity_when_pool_equals_subsample():
    pool = np.random.default_rng(0).normal(size=(16, 8))
    vecs, out = sm.pcma80_resample(pool, seed=5, subsample=16)
    assert out.indices == tuple(range(16))
    np.testing.assert_array_equal(vecs, pool)


def test_resample_draws_distinct_sorted_indices():
    pool = np.random.default_rng(1).normal(size=(80, 8))
    vecs, out = sm.pcma80_resample(pool, seed=9)
    assert len(out.indices) == 16
    assert len(set(out.indices)) == 16
    assert list(out.indices) == sorted(out.indices)
    assert all(0 <= i < 80 for i in out.indices)
    np.testing.assert_array_equal(vecs, pool[list(out.indices)])


def test_resample_deterministic_and_seed_sensitive():
    pool = np.zeros((80, 4))
    a = sm.pcma80_resample(pool, seed=3)[1]
    b = sm.pcma80_resample(pool, seed=3)[1]
    assert a.indices == b.indices
    c = sm.pcma80_resample(pool, seed=4)[1]
    assert a.indices != c.indices


def test_resample_frequency_is_uniform():
    # each of 80 frames should appear with frequency 16/80 = 0.2
    pool = np.zeros((80, 2))
    counts = np.zeros(80)
    n_draws = 10_000
    for seed in range(n_draws):
        _, out = sm.pcma80_resample(pool, seed=seed)
        counts[list(out.indices)] += 1
    freq = counts / n_draws
    assert np.all(np.abs(freq - 0.2) < 0.02)


def test_resample_rejects_small_pool():
    with pytest.raises(ValueError, match="pool"):
        sm.pcma80_resample(np.zeros((10, 4)), seed=0, subsample=16)


# -- teacher-student -----------------------------------------------------------


def student_fixture(n_frames=6, video_dim=7, seed=0, top_s=3):
    student = sm.StudentSampler(sm.StudentConfig(video_dim=video_dim, model_dim=8, top_s=top_s,
                                                 seed=seed))
    video = np.random.default_rng(seed + 100).normal(size=(n_frames, video_dim))
    return student, video


def test_student_fresh_head_is_uniform():
    student, video = student_fixture()
    out = sm.s3_student_probs(student, video)
    np.testing.assert_allclose(out.probs, np.full(6, 1 / 6), atol=1e-12)
    # uniform ties resolve to the lowest indices
    assert out.indices == (0, 1, 2)
    assert out.provenance == ("policy",) * 3


def test_student_single_frame_probability_one():
    student, video = student_fixture(n_frames=1)
    out = sm.s3_student_probs(student, video)
    np.testing.assert_allclose(out.probs, [1.0])
    assert out.indices == (0,)


def test_student_top_s_selects_highest_mass():
    student, video = student_fixture(top_s=2)
    rng = np.random.default_rng(5)
    student.store["head.w"][...] = rng.normal(size=8)
    out = sm.s3_student_probs(student, video)
    ranked = np.argsort(-out.probs, kind="stable")
    assert set(out.indices) == set(int(i) for i in ranked[:2])


def test_student_top_s_clamps_to_frame_count():
    student, video = student_fixture(n_frames=4, top_s=99)
    out = sm.s3_student_probs(student, video)
    assert out.indices == (0, 1, 2, 3)


def test_student_probs_sum_to_one_and_deterministic():
    student, video = student_fixture(seed=2)
    student.store["head.w"][...] = np.random.default_rng(8).normal(size=8)
    a = sm.s3_student_probs(student, video)
    b = sm.s3_student_probs(student, video)
    assert abs(a.probs.sum() - 1.0) < 1e-12
    np.testing.assert_array_equal(a.probs, b.probs)


def test_distill_gradients_match_finite_differences(rng):
    student, video = student_fixture(n_frames=5)
    store = student.store
    store["head.w"][...] = np.random.default_rng(3).normal(size=8) * 0.3
    teacher = np.random.default_rng(4).dirichlet(np.ones(5))
    lam = 0.7

    def loss():
        probs, _ = student.probs_forward(video)
        return float(lam * nc.kl_divergence(teacher, probs))

    store.zero_grads()
    value = sm.s3_distill_grads(student, video, teacher, lam)
    assert value == pytest.approx(loss())
    for name in ["head.w", "video_proj.w"]:
        assert_grad_matches(loss, store[name], store.grad(name), rng, label=name, n_probes=6)


def test_every_student_tensor_gets_a_gradient():
    student, video = student_fixture(n_frames=5)
    # the head starts at zero, which zeroes video_proj.w's gradient until a
    # first step moves it
    student.store["head.w"][...] = np.random.default_rng(3).normal(size=8)
    probs, cache = student.probs_forward(video)
    student.probs_backward(np.random.default_rng(4).normal(size=5), cache)
    assert dead_tensors(student.store, student.store.names()) == []


def test_distill_rejects_teacher_length_mismatch():
    student, video = student_fixture(n_frames=5)
    with pytest.raises(nc.DimMismatch):
        sm.s3_distill_grads(student, video, np.array([0.5, 0.5]), 1.0)


# -- RL sampler ------------------------------------------------------------------


def rl_fixture(n_frames=6, max_steps=8, seed=0):
    cfg = sm.RlConfig(
        video_dim=7, text_dim=5, n_frames=n_frames, model_dim=8,
        hidden_dim=6, n_heads=2, max_steps=max_steps, gamma=0.5, seed=seed,
    )
    sampler = sm.RlSampler(cfg)
    rng = np.random.default_rng(seed + 50)
    pool = rng.normal(size=(n_frames, 7))
    question = rng.normal(size=5)
    return sampler, pool, question


def test_episode_buffer_starts_with_question_embedding():
    sampler, pool, question = rl_fixture()
    ep = sampler.new_episode(question, pool)
    expected = question @ sampler.store["text_proj.w"] + sampler.store["text_proj.b"]
    assert len(ep.buffer) == 1
    np.testing.assert_array_equal(ep.buffer[0], expected)
    sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=2)
    np.testing.assert_array_equal(ep.buffer[0], expected)
    assert len(ep.buffer) == 2


def test_fresh_policy_uniform_over_frames_and_stop():
    sampler, pool, question = rl_fixture(n_frames=4)
    ep = sampler.new_episode(question, pool)
    probs, _ = sampler._policy_forward(ep)
    np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)


def test_selected_frames_leave_the_action_set():
    sampler, pool, question = rl_fixture()
    ep = sampler.new_episode(question, pool)
    sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=3)
    probs, _ = sampler._policy_forward(ep)
    assert probs[3] == 0.0
    assert abs(probs.sum() - 1.0) < 1e-12


def test_stop_action_finishes_episode():
    sampler, pool, question = rl_fixture()
    ep = sampler.new_episode(question, pool)
    sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=sampler.cfg.n_frames)
    assert ep.done
    assert ep.selected == []
    with pytest.raises(RuntimeError, match="done"):
        sm.s3_rl_step(sampler, ep, np.random.default_rng(0))


def test_empty_pool_stops_immediately():
    sampler, _, question = rl_fixture(n_frames=0)
    ep = run_deterministic(sampler, question, np.zeros((0, 7)))
    assert ep.done
    assert ep.selected == []
    assert ep.steps == 1


def run_deterministic(sampler, question, pool, seed=0):
    return sm.run_episode(sampler, question, pool, np.random.default_rng(seed))


def test_max_steps_forces_done():
    sampler, pool, question = rl_fixture(max_steps=3)
    ep = sampler.new_episode(question, pool)
    for action in (0, 1, 2):
        sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=action)
    assert ep.done
    assert ep.steps == 3
    assert ep.selected == [0, 1, 2]


def test_exhausting_the_pool_forces_done():
    sampler, pool, question = rl_fixture(n_frames=2, max_steps=10)
    ep = sampler.new_episode(question, pool)
    sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=0)
    sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=1)
    assert ep.done
    assert ep.selected == [0, 1]


def test_unavailable_action_rejected():
    sampler, pool, question = rl_fixture()
    ep = sampler.new_episode(question, pool)
    sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=1)
    with pytest.raises(ValueError, match="unavailable"):
        sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=1)


def test_run_episode_terminates_and_is_seeded():
    sampler, pool, question = rl_fixture(max_steps=5)
    a = run_deterministic(sampler, question, pool, seed=3)
    b = run_deterministic(sampler, question, pool, seed=3)
    assert a.done and b.done
    assert a.selected == b.selected
    assert a.steps <= 5


def test_reward_requires_done_and_matches_formula():
    sampler, pool, question = rl_fixture()
    ep = sampler.new_episode(question, pool)
    with pytest.raises(RuntimeError, match="finished"):
        sm.s3_rl_reward(ep, 0.4, 16, gamma=0.5)
    for action in (0, 1, 2, 3):
        sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=action)
    sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=sampler.cfg.n_frames)
    assert ep.done
    got = sm.s3_rl_reward(ep, 0.4, 16, gamma=0.5)
    assert got == pytest.approx(-0.4 - 0.5 * 4 / 16)
    with pytest.raises(ValueError, match="positive"):
        sm.s3_rl_reward(ep, 0.4, 0, gamma=0.5)


def test_reinforce_gradients_match_replay_finite_differences(rng):
    sampler, pool, question = rl_fixture(n_frames=5, max_steps=6, seed=4)
    store = sampler.store
    # non-degenerate policy head so masked softmax is informative
    head_rng = np.random.default_rng(9)
    store["policy.w2"][...] = head_rng.normal(size=store["policy.w2"].shape) * 0.3
    store["policy.b2"][...] = head_rng.normal(size=store["policy.b2"].shape) * 0.3
    actions = [2, 0, 4, sampler.cfg.n_frames]

    def replay():
        ep = sampler.new_episode(question, pool)
        for a in actions:
            sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=a)
        return ep

    def logprob_sum():
        return sum(replay().log_probs)

    store.zero_grads()
    # advantage -1 turns the descent direction into d(sum log pi)/d theta
    sm.reinforce_backward(sampler, replay(), advantage=-1.0)
    for name in ["policy.w2", "policy.b2", "policy.w1", "policy.b1",
                 "state.ln.gamma", "state.ln.beta", "state.attn.wq",
                 "state.attn.wo", "video_proj.w", "text_proj.w", "text_proj.b"]:
        assert_grad_matches(
            logprob_sum, store[name], store.grad(name), rng, label=name, n_probes=6
        )


def test_reinforce_advantage_scales_gradients():
    sampler, pool, question = rl_fixture(seed=6)
    actions = [1, 3]

    def fresh_episode():
        ep = sampler.new_episode(question, pool)
        for a in actions:
            sm.s3_rl_step(sampler, ep, np.random.default_rng(0), action=a)
        return ep

    store = sampler.store
    store.zero_grads()
    sm.reinforce_backward(sampler, fresh_episode(), advantage=1.0)
    g1 = store.grad("policy.w1").copy()
    store.zero_grads()
    sm.reinforce_backward(sampler, fresh_episode(), advantage=2.5)
    np.testing.assert_allclose(store.grad("policy.w1"), 2.5 * g1, rtol=1e-12)


def test_rl_config_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        sm.RlConfig(video_dim=4, text_dim=4, n_frames=-1)
    with pytest.raises(nc.DimMismatch):
        sm.RlConfig(video_dim=4, text_dim=4, n_frames=8, model_dim=9, n_heads=2)
    with pytest.raises(ValueError, match="gamma"):
        sm.RlConfig(video_dim=4, text_dim=4, n_frames=8, gamma=-0.1)


def test_rl_pool_shape_checked():
    sampler, pool, question = rl_fixture(n_frames=6)
    with pytest.raises(nc.DimMismatch):
        sampler.new_episode(question, pool[:4])
