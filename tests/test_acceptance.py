"""Acceptance suite.

One test per criterion so `pytest -v` prints one pass/fail line each.
Tolerances and runtime budgets are asserted inside the tests; each test
also prints its measured numbers for the log.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import causalvqa.intervention as iv
import causalvqa.nn_core as nc
import causalvqa.pcma as pcma
import causalvqa.samplers as sm
from causalvqa.cli import cli_main
from causalvqa.features import (
    SyntheticSpec,
    generate_synthetic,
    load_causal_masks,
    load_dataset,
    load_saliency,
    save_dataset,
)
from causalvqa.harness import (
    BankConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    OptimizerConfig,
    evaluate,
    load_data,
    robustness_experiment,
    rl_train,
    shortcut_probe,
    train,
)
from causalvqa.mnse import (
    MemoryBank,
    Metric,
    NeighborQuery,
    Regime,
    Scenes,
    instance_scenes,
    mnse_do,
    random_do,
)
from causalvqa.pcma import PcmaModel
from gradcheck import assert_grad_matches
from reference_step import ForcedRatios


def elapsed_under(t0: float, budget_s: float, label: str) -> float:
    dt = time.monotonic() - t0
    assert dt < budget_s, f"{label}: {dt:.1f}s exceeds the {budget_s:.0f}s budget"
    return dt


# -- 1. gradient suite ---------------------------------------------------------


def test_criterion_1_gradient_suite():
    """Every differentiable op passes central finite differences,
    rel err < 1e-4, >= 20 probes per tensor, < 60 s total."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    # attention layer (cross + self modal block)
    cfg = pcma.PcmaConfig(video_dim=10, text_dim=8, model_dim=16, n_heads=4,
                          n_layers=2, seed=5)
    model = PcmaModel(cfg)
    v = rng.normal(size=(3, cfg.model_dim))
    q = rng.normal(size=(1, cfg.model_dim))

    def layer_loss():
        out, _ = pcma.pcma_layer_forward(v, q, model.store, "layer0", cfg.n_heads)
        return float(out.sum())

    _, cache = pcma.pcma_layer_forward(v, q, model.store, "layer0", cfg.n_heads)
    model.store.zero_grads()
    dv, dq = pcma.pcma_layer_backward(np.ones((3, cfg.model_dim)), cache, model.store)
    assert_grad_matches(layer_loss, v, dv, rng, "attention.video")
    assert_grad_matches(layer_loss, q, dq, rng, "attention.question")
    for name in ("layer0.cross.wv", "layer0.cross.bo", "layer0.self.wo"):
        assert_grad_matches(layer_loss, model.store[name], model.store.grad(name),
                            rng, f"attention.{name}")

    # full answering loss, for one sample and for a stacked batch of three
    for batch, gold in ((1, [1]), (3, [1, 4, 0])):
        video = rng.normal(size=(batch, 4, cfg.video_dim))
        question = rng.normal(size=(batch, cfg.text_dim))
        answers = rng.normal(size=(batch, 5, cfg.text_dim))

        def full_loss():
            result, _ = model.forward_full(video, question, answers)
            val, _ = pcma.pcma_loss(result, gold, cfg.tau)
            return float(val.sum())

        model.store.zero_grads()
        result, cache = model.forward_full(video, question, answers)
        _, dscores = pcma.pcma_loss(result, gold, cfg.tau)
        grads = model.backward_full(dscores, cache)
        label = f"loss[B={batch}]"
        assert_grad_matches(full_loss, video, grads.video, rng, f"{label}.video")
        assert_grad_matches(full_loss, question, grads.question, rng, f"{label}.question")
        assert_grad_matches(full_loss, answers, grads.answers, rng, f"{label}.answers")
        for name in ("video_proj.w", "layer1.cross.wo", "text_proj.b"):
            assert_grad_matches(full_loss, model.store[name], model.store.grad(name),
                                rng, f"{label}.{name}")

    # contrastive loss over stacked views: anchor, positive, four negatives
    views = rng.normal(size=(6, 16)) * 0.3

    def nce_loss():
        return float(iv.infonce_loss(views)[0])

    _, nce_grad = iv.infonce_loss(views)
    assert_grad_matches(nce_loss, views[0], nce_grad[0], rng, "infonce.anchor")
    assert_grad_matches(nce_loss, views[1], nce_grad[1], rng, "infonce.positive")
    assert_grad_matches(nce_loss, views[2], nce_grad[2], rng, "infonce.neg0")

    # gate scorer
    gmodel = PcmaModel(cfg, gated=True)
    # gate.w starts at zero, which would zero every gradient behind it; a
    # generator of its own keeps the draws below unchanged
    gmodel.store["gate.w"][...] = np.random.default_rng(1).normal(size=cfg.model_dim)
    gvideo = rng.normal(size=(1, 5, cfg.video_dim))
    gquestion = rng.normal(size=(1, cfg.text_dim))
    probe = rng.normal(size=5)

    def gate_loss():
        g, _ = iv.gate_forward(gmodel, gvideo, gquestion)
        return float(g[0] @ probe)

    gmodel.store.zero_grads()
    _, gcache = iv.gate_forward(gmodel, gvideo, gquestion)
    dgv, dgq = iv.gate_backward(gmodel, probe[None], gcache)
    assert_grad_matches(gate_loss, gvideo, dgv, rng, "gate.video")
    assert_grad_matches(gate_loss, gquestion, dgq, rng, "gate.question")
    for name in ("gate.w", "gate.attn.wv", "gate.attn.bo"):
        assert_grad_matches(gate_loss, gmodel.store[name], gmodel.store.grad(name),
                            rng, f"gate.{name}")

    # student distillation divergence
    student = sm.StudentSampler(sm.StudentConfig(video_dim=7, model_dim=8, top_s=3, seed=0))
    # the head starts at zero, which would zero video_proj.w's gradient
    student.store["head.w"][...] = np.random.default_rng(2).normal(size=8)
    svideo = rng.normal(size=(5, 7))
    rng.normal(size=5)  # unread: keeps the teacher at its seeded draw
    teacher = rng.dirichlet(np.ones(5))
    lam = 0.7

    def kl_loss():
        probs, _ = student.probs_forward(svideo)
        return float(lam * nc.kl_divergence(teacher, probs))

    student.store.zero_grads()
    sm.s3_distill_grads(student, svideo, teacher, lam)
    for name in ("head.w", "video_proj.w"):
        assert_grad_matches(kl_loss, student.store[name], student.store.grad(name),
                            rng, f"student.{name}")

    dt = elapsed_under(t0, 60.0, "gradient suite")
    print(f"criterion 1 PASS: gradient suite clean in {dt:.1f}s")


# -- 2. kNN exactness ----------------------------------------------------------


def brute_force_knn(entries, vector, metric, k, exclude_video_id=None):
    scored = []
    for e in entries:
        if exclude_video_id is not None and exclude_video_id in e.video_id.split("+"):
            continue
        if metric is Metric.COSINE:
            denom = math.sqrt(float(e.vector @ e.vector)) * math.sqrt(
                float(vector @ vector))
            score = float(e.vector @ vector) / denom
            key = (-score, e.video_id, e.clip_index)
        else:
            diff = e.vector - vector
            score = math.sqrt(float(diff @ diff))
            key = (score, e.video_id, e.clip_index)
        scored.append((key, e, score))
    scored.sort(key=lambda row: row[0])
    return scored[:k]


def test_criterion_2_knn_matches_brute_force():
    """query_knn equals a full-scan oracle on 100 random banks, all
    k in {1,3,5}, zero mismatches, < 2 min."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    checked = 0
    for b in range(100):
        if b == 0:
            size, dim = 10_000, 128
        else:
            size = max(8, int(10 ** rng.uniform(1.0, 3.3)))
            dim = int(rng.integers(2, 129))
        metric = Metric.COSINE if b % 2 == 0 else Metric.L2
        vectors = rng.normal(size=(size, dim))
        ids = tuple(f"v{i}" for i in range(size // 4 + 1))
        scenes = Scenes(vectors, ids, np.arange(size) % len(ids), np.arange(size) % 7)
        bank = MemoryBank(dim, metric=metric, regime=Regime.F1_STATIC)
        bank.populate(scenes).freeze()
        entries = bank.entries()
        qv = rng.normal(size=dim)
        exclude = f"v{int(rng.integers(0, size // 4 + 1))}" if b % 3 == 0 else None
        for k in (1, 3, 5):
            got = bank.query_knn(
                NeighborQuery(vector=qv, k=k, exclude_video_id=exclude))
            want = brute_force_knn(entries, qv, metric, k, exclude)
            assert len(got) == len(want) == k
            for g, (_, e, score) in zip(got, want):
                assert (g.entry.video_id, g.entry.clip_index) == (e.video_id,
                                                                  e.clip_index)
                assert g.score == pytest.approx(score, rel=1e-9, abs=1e-9)
                assert np.array_equal(g.entry.vector, e.vector)
            checked += 1
    assert checked == 300
    dt = elapsed_under(t0, 120.0, "kNN exactness")
    print(f"criterion 2 PASS: 300 queries, zero mismatches, {dt:.1f}s")


# -- 3. intervention algebra -----------------------------------------------------


def _mix_pair(rng, n_clips=6, dim=12):
    instances, _, _ = generate_synthetic(
        SyntheticSpec(n_instances=2, seed=int(rng.integers(0, 2**31)),
                      n_clips=n_clips, video_dim=dim, text_dim=dim))
    x, xp = instances
    masks = []
    for _ in range(2):
        mask = np.zeros(n_clips, dtype=bool)
        hi = int(rng.integers(1, n_clips))
        mask[:hi] = True
        masks.append(mask)
    return x, masks[0], xp, masks[1]


def _mixup(x, mask, xp, pmask, cfg, rng, lambda0, lambda1):
    """x's mixup with partner xp through one batched call over the pair,
    its ratios forced to lambda0 and lambda1: (c_star, t_star, q_star, a_star)."""
    out = iv.mixup_intervene(
        np.stack([x.video, xp.video]), np.stack([x.question, xp.question]),
        np.stack([x.answers[x.gold], xp.answers[xp.gold]]), np.stack([mask, pmask]), cfg,
        ForcedRatios(rng, lambda0, lambda1),
    )
    assert out.valid[0]
    v_star = out.v_star[0]
    return SimpleNamespace(c_star=v_star[mask], t_star=v_star[~mask], q_star=out.q_star[0],
                           a_star=out.a_star[0])


def test_criterion_3_intervention_algebra():
    """Mixup identities hold coordinate-exactly over 1e3 draws; InfoNCE
    equal-similarity value is ln(1+N) to 1e-12; beta=0 reduces the total
    loss to plain ERM bit-exactly."""
    rng = np.random.default_rng(3)
    cfg = iv.InterventionConfig(alpha=2.0)

    def aligned(rows, n):
        """Partner rows cyclically repeated or truncated to n rows."""
        return rows[np.arange(n) % rows.shape[0]] if n else rows[:0]

    for _ in range(1000):
        x, mask, xp, pmask = _mix_pair(rng)
        lam0 = float(rng.uniform(0.0, 1.0))
        lam1 = float(rng.uniform(0.0, 1.0))
        out = _mixup(x, mask, xp, pmask, cfg, rng, lambda0=lam0, lambda1=lam1)
        video = x.video.astype(np.float64)
        pvideo = xp.video.astype(np.float64)
        c_hat = video[mask]
        t_hat = video[~mask]
        c_prime = aligned(pvideo[pmask], c_hat.shape[0])
        t_prime = aligned(pvideo[~pmask], t_hat.shape[0])
        # the blend must be the literal convex combination, bit for bit
        assert np.array_equal(out.c_star, lam0 * c_hat + (1.0 - lam0) * c_prime)
        assert np.array_equal(out.t_star, lam1 * t_hat + (1.0 - lam1) * t_prime)
        assert np.array_equal(
            out.q_star,
            lam0 * x.question.astype(np.float64)
            + (1.0 - lam0) * xp.question.astype(np.float64))
        assert np.array_equal(
            out.a_star,
            lam0 * x.answers.astype(np.float64)[x.gold]
            + (1.0 - lam0) * xp.answers.astype(np.float64)[xp.gold])

        # endpoints: ratio 1 reproduces the anchor exactly, and the
        # complement ratio never touches the causal blend (and vice versa)
        ends = _mixup(x, mask, xp, pmask, cfg, rng, lambda0=1.0, lambda1=1.0)
        assert np.array_equal(ends.c_star, c_hat)
        assert np.array_equal(ends.t_star, t_hat)
        assert np.array_equal(ends.q_star, x.question.astype(np.float64))
        other = _mixup(x, mask, xp, pmask, cfg, rng, lambda0=lam0, lambda1=1.0 - lam1)
        assert np.array_equal(other.c_star, out.c_star)
        assert np.array_equal(other.q_star, out.q_star)
        assert np.array_equal(other.a_star, out.a_star)

    for n in (1, 4, 8):
        loss, _ = iv.infonce_loss(np.full((2 + n, 9), 0.37))
        assert abs(loss - math.log(1 + n)) <= 1e-12

    zero = iv.InterventionConfig(beta_cl=0.0)
    vals = np.random.default_rng(5).normal(size=100) ** 2
    for erm, cl in zip(vals[:50], vals[50:]):
        assert iv.total_loss(float(erm), float(cl), zero) == float(erm)
    print("criterion 3 PASS: mixup exact over 1000 draws, "
          "InfoNCE ln(1+N) to 1e-12, beta=0 is ERM")


# -- 4. sampler contracts --------------------------------------------------------


def test_criterion_4_sampler_contracts():
    """MAR-16/32 emit 16/32 distinct indices in the 8+2x4 / 16+4x4 split;
    PCMA-80 per-index frequency is 0.2 +/- 0.02 over 1e4 draws; student
    probabilities sum to 1 within 1e-6."""
    instances, saliencies, _ = generate_synthetic(
        SyntheticSpec(n_instances=40, seed=6, n_clips=16, video_dim=16,
                      text_dim=16, frames_per_clip=8))
    for factory, total, moment, per_segment in ((sm.mar16, 16, 8, 2),
                                                (sm.mar32, 32, 16, 4)):
        for i, annotation in enumerate(saliencies):
            out = sm.mar_sample(annotation, factory(seed=i))
            assert len(out.indices) == total
            assert len(set(out.indices)) == total
            tags = Counter(out.provenance)
            assert tags["moment"] == moment
            for seg in range(4):
                assert tags[f"segment_{seg}"] == per_segment
            assert not out.replacement_fallback

    pool = np.random.default_rng(1).normal(size=(80, 8))
    hits = np.zeros(80)
    for seed in range(10_000):
        _, out = sm.pcma80_resample(pool, seed, subsample=16)
        hits[list(out.indices)] += 1
    freq = hits / 10_000
    assert np.all(np.abs(freq - 0.2) <= 0.02), (
        f"frequency range [{freq.min():.4f}, {freq.max():.4f}]")

    rng = np.random.default_rng(2)
    student = sm.StudentSampler(sm.StudentConfig(video_dim=12, model_dim=8, top_s=4, seed=3))
    # a fresh head is zero, which makes every distribution exactly uniform
    student.store["head.w"][...] = np.random.default_rng(4).normal(size=8)
    for _ in range(50):
        out = sm.s3_student_probs(student, rng.normal(size=(9, 12)))
        assert abs(float(np.sum(out.probs)) - 1.0) <= 1e-6
    print("criterion 4 PASS: MAR partitions exact, PCMA-80 freq in "
          f"[{freq.min():.3f}, {freq.max():.3f}], student probs normalized")


# -- 5. synthetic learning -------------------------------------------------------


def test_criterion_5_synthetic_learning():
    """300 steps on 500 planted instances reaches > 60% train accuracy
    (chance 20%); the lr=0 control stays at initialization; < 5 min."""
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        data=DataConfig(synthetic=SyntheticSpec(
            n_instances=500, seed=11, n_clips=8, video_dim=24, text_dim=24,
            noise_std=0.1)),
        model=ModelConfig(model_dim=32, n_heads=4, n_layers=1, seed=3),
        optimizer=OptimizerConfig(lr=1e-3, steps=300, batch_size=16, seed=0),
    )
    result = train(cfg)
    assert result.report.overall > 0.60, f"accuracy {result.report.overall:.3f}"

    frozen = replace(cfg, optimizer=OptimizerConfig(lr=0.0, steps=10,
                                                    batch_size=16, seed=0))
    instances, _, _ = load_data(cfg.data)
    init_acc = evaluate(PcmaModel(cfg.model.pcma(24, 24)), instances).overall
    control = train(frozen)
    assert control.report.overall == init_acc
    dt = elapsed_under(t0, 300.0, "synthetic learning")
    print(f"criterion 5 PASS: accuracy {result.report.overall:.3f} "
          f"(control {init_acc:.3f} unchanged) in {dt:.0f}s")


# -- 6. robustness direction -----------------------------------------------------


def test_criterion_6_robustness_direction():
    """Across 5 seeds, the intervention-trained model's unseen-operator
    accuracy drop is <= the baseline's reference drop; < 20 min."""
    t0 = time.monotonic()
    base = ExperimentConfig(
        data=DataConfig(synthetic=SyntheticSpec(
            n_instances=100, seed=0, n_clips=8, video_dim=24, text_dim=24,
            noise_std=0.5)),
        model=ModelConfig(model_dim=32, n_heads=4, n_layers=1, seed=10),
        optimizer=OptimizerConfig(lr=1e-3, steps=300, batch_size=8, seed=0),
        intervention=iv.InterventionConfig(
            alpha=2.0, beta_cl=1.0, n_negatives=3,
            memory_source=iv.MemorySource.MNSE, topk_mode=True, k=4,
            neighbor_k=200, seed=7),
        bank=BankConfig(regime=Regime.F1_STATIC),
        use_oracle_masks=True,
    )
    out = robustness_experiment(base, seeds=[0, 1, 2, 3, 4], neighbor_k_eval=200)
    mean_a = out["mean_drop_intervened_unseen"]
    strict = out["mean_drop_baseline_unseen_strict"]
    ref = out["mean_drop_baseline_reference"]
    assert out["direction_holds"], f"drop A {mean_a:.4f} vs reference {ref:.4f}"
    assert mean_a <= strict, f"drop A {mean_a:.4f} vs strict baseline {strict:.4f}"
    dt = elapsed_under(t0, 1200.0, "robustness direction")
    print(f"criterion 6 PASS: unseen drop {mean_a:.4f} <= baseline "
          f"{strict:.4f} (reference {ref:.4f}) over 5 seeds in {dt:.0f}s")


# -- 7. nearest-scene proximity ---------------------------------------------------


def test_criterion_7_mnse_proximity():
    """Replaced complement rows stay closer (cosine) to the originals under
    nearest-scene replacement than under random replacement, 500+ rows."""
    instances, _, masks = generate_synthetic(
        SyntheticSpec(n_instances=150, seed=13, n_clips=8, video_dim=24,
                      text_dim=24, noise_std=0.5))
    masks = np.asarray(masks, dtype=bool)
    bank = MemoryBank(24, metric=Metric.COSINE, regime=Regime.F1_STATIC)
    bank.populate(instance_scenes(instances)).freeze()

    def row_cosines(do_fn, **kw):
        vals = []
        for i, inst in enumerate(instances):
            video = inst.video.astype(np.float64)
            out = do_fn(video[None], ~masks[i][None], bank,
                        rng=np.random.default_rng(17 * i + 1),
                        exclude=bank.codes([inst.video_id]), **kw)[0]
            for r in np.flatnonzero(~masks[i]):
                a, b = video[r], out[r]
                vals.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
        return np.array(vals)

    near = row_cosines(mnse_do, k=1)
    rand = row_cosines(random_do)
    assert near.size >= 500 and rand.size >= 500
    assert near.mean() > rand.mean(), (
        f"mnse {near.mean():.4f} vs random {rand.mean():.4f}")
    print(f"criterion 7 PASS: mean cosine mnse {near.mean():.4f} > "
          f"random {rand.mean():.4f} over {near.size} replacements")


# -- 8. shortcut probe -----------------------------------------------------------


def test_criterion_8_shortcut_probe():
    """The parameter-free probe scores > 50% when the answer leaks into the
    video (leak 0.9) and 20% +/- 3% on clean data (leak 0)."""
    leaky, _, _ = generate_synthetic(
        SyntheticSpec(n_instances=300, seed=9, n_clips=16, video_dim=64,
                      text_dim=64, leak_strength=0.9))
    leak_acc = shortcut_probe(leaky).overall
    assert leak_acc > 0.50, f"leaky accuracy {leak_acc:.3f}"

    clean, _, _ = generate_synthetic(
        SyntheticSpec(n_instances=1000, seed=9, n_clips=16, video_dim=64,
                      text_dim=64, leak_strength=0.0))
    clean_acc = shortcut_probe(clean).overall
    assert 0.17 <= clean_acc <= 0.23, f"clean accuracy {clean_acc:.3f}"
    print(f"criterion 8 PASS: leak 0.9 -> {leak_acc:.3f}, "
          f"leak 0 -> {clean_acc:.3f}")


# -- 9. determinism and round-trip -------------------------------------------------


def test_criterion_9_determinism_round_trip(tmp_path, monkeypatch):
    """Rerunning a CLI command with the same config reproduces metrics.json
    and curves.csv byte for byte; dataset save/load is bit-exact."""
    out = tmp_path / "run"
    monkeypatch.setenv("CAUSALVQA_OUTPUT_DIR", str(out))
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "data": {"synthetic": {"n_instances": 16, "seed": 0, "n_clips": 8,
                               "video_dim": 16, "text_dim": 16,
                               "noise_std": 0.1}},
        "model": {"model_dim": 16, "n_heads": 2, "n_layers": 1, "seed": 3},
        "optimizer": {"lr": 1e-3, "steps": 5, "batch_size": 4, "seed": 1},
        "intervention": {"beta_cl": 0.2, "topk_mode": True, "k": 3,
                         "n_negatives": 2, "memory_source": "random"},
        "bank": {"regime": "f2"},
    }))
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    first = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in ((out / "metrics.json"), (out / "curves.csv"))}
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    second = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in ((out / "metrics.json"), (out / "curves.csv"))}
    assert first == second

    instances, saliencies, masks = generate_synthetic(
        SyntheticSpec(n_instances=10, seed=4, n_clips=8, video_dim=16,
                      text_dim=16))
    manifest = tmp_path / "data" / "set.json"
    save_dataset(instances, manifest, saliencies=saliencies, causal_masks=masks)
    loaded = load_dataset(manifest)
    for a, b in zip(loaded, instances):
        assert a.video_id == b.video_id and a.gold == b.gold and a.qtype == b.qtype
        assert np.array_equal(a.video, b.video)
        assert np.array_equal(a.question, b.question)
        assert np.array_equal(a.answers, b.answers)
    assert np.array_equal(np.asarray(load_causal_masks(manifest)),
                          np.asarray(masks))
    reloaded_sal = load_saliency(manifest)
    for a, b in zip(reloaded_sal, saliencies):
        assert np.array_equal(a.scores, b.scores)
        assert a.windows == b.windows
        assert a.n_frames == b.n_frames
    print("criterion 9 PASS: CLI rerun byte-identical, dataset round-trip exact")


# -- soft criterion: RL sampler -----------------------------------------------------


def test_s3_rl_soft_criterion():
    """Reported, non-gating: the RL sampler should converge to <= 50% of
    frames with prediction loss no more than 10% above using all frames.
    Only absence of divergence is asserted."""
    instances, _, _ = generate_synthetic(
        SyntheticSpec(n_instances=12, seed=2, n_clips=8, video_dim=16,
                      text_dim=16, noise_std=0.1))
    backbone = PcmaModel(
        ModelConfig(model_dim=16, n_heads=2, n_layers=1, seed=4).pcma(16, 16))
    sampler = sm.RlSampler(sm.RlConfig(
        video_dim=16, text_dim=16, n_frames=8, model_dim=16, hidden_dim=16,
        n_heads=2, max_steps=8, gamma=0.5, seed=5))
    result = rl_train(backbone, sampler, instances, episodes=200,
                      opt=OptimizerConfig(lr=1e-3, steps=0, batch_size=1, seed=3))
    assert np.isfinite(result.rewards).all()
    assert np.isfinite(result.mean_pred_loss)
    frugal = result.mean_selected_fraction <= 0.50
    close = result.mean_pred_loss <= 1.10 * result.all_frames_loss
    verdict = "PASS" if (frugal and close) else "MISS (non-gating)"
    print(f"soft criterion S3-RL {verdict}: selected "
          f"{result.mean_selected_fraction:.1%} of frames, pred loss "
          f"{result.mean_pred_loss:.3f} vs all-frames {result.all_frames_loss:.3f}")
