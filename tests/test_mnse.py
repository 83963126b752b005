from __future__ import annotations

import gc
import math
import tracemalloc
import weakref
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from causalvqa import mnse
from causalvqa.features import SyntheticSpec, generate_synthetic
from causalvqa.mnse import (
    BankEntry,
    MemoryBank,
    Metric,
    NeighborQuery,
    Regime,
    RegimeError,
    Scenes,
)
from reference_protocol import reference_mnse_do, reference_pool, reference_random_do


def oracle_knn(entries, qv, k, metric, exclude=None):
    """Independent full-scan reference: per-row dot products, python sort."""
    qn = math.sqrt(float(np.dot(qv, qv)))
    scored = []
    for e in entries:
        if exclude is not None and exclude in e.video_id.split("+"):
            continue
        if metric is Metric.COSINE:
            nv = math.sqrt(float(np.dot(e.vector, e.vector)))
            s = float(np.dot(e.vector, qv)) / (nv * qn) if nv > 0 and qn > 0 else 0.0
            key = (-s, e.video_id, e.clip_index)
        else:
            diff = e.vector - qv
            s = math.sqrt(float(np.dot(diff, diff)))
            key = (s, e.video_id, e.clip_index)
        scored.append((key, e, s))
    scored.sort(key=lambda t: t[0])
    return [(e, s) for _, e, s in scored[:k]]


def oracle_set(entries, qv, k, metric, exclude=None):
    """oracle_knn's k nearest in the bank's tie-rank order: (video_id,
    clip_index), then bank order."""
    at = {id(e): i for i, e in enumerate(entries)}
    want = oracle_knn(entries, qv, k, metric, exclude)
    return sorted(want, key=lambda t: (t[0].video_id, t[0].clip_index, at[id(t[0])]))


def scenes(vectors, videos, clips, video_ids=None):
    """The rows as one Scenes block, each row's video an id or a blend's
    (parent, parent) pair of ids, as codes into the tuple video_ids (by
    default the distinct ids the rows name, in order): [n] codes if every
    row is plain, else [n, 2] parent codes. Every block of one bank must
    name the same video_ids."""
    pairs = [(v, None) if isinstance(v, str) else v for v in videos]
    if video_ids is None:
        video_ids = dict.fromkeys(p for pair in pairs for p in pair if p is not None)
    code = {v: i for i, v in enumerate(video_ids)}
    codes = np.array([[code[a], -1 if b is None else code[b]] for a, b in pairs],
                     dtype=np.int64).reshape(-1, 2)
    if all(isinstance(v, str) for v in videos):
        codes = codes[:, 0]
    return Scenes(np.array(vectors, dtype=np.float64), tuple(video_ids), codes, np.array(clips))


def drawable(bank, exclude):
    """Bank indices a uniform draw excluding this video can take, in bank
    order: the u-th eligible scene of its candidates for every u."""
    eligible = bank.candidates(bank.codes([exclude]))
    n = int(eligible.counts[0])
    return eligible.nth(np.zeros(n, dtype=np.int64), np.arange(n))


def scored_ranking(bank, queries, k, excludes):
    """bank._ranked's indices, each row excluding the video id excludes
    names, and the score at each, padded with NaN as the indices are with
    -1: each chunk's keys are read as the ranking hands them to _first_k,
    so every row's score is the key it was ranked by."""
    chunks, real = [], mnse._first_k

    def first_k(keys, *rest):
        chunks.append(keys.copy())
        return real(keys, *rest)

    with mock.patch.object(mnse, "_first_k", first_k):
        top = bank._ranked(queries, k, bank.codes(excludes))[0]
    keys = np.concatenate(chunks) if chunks else np.empty((0, len(bank)))
    at = np.take_along_axis(keys, np.maximum(top, 0), axis=1)
    at[top < 0] = np.nan
    return top, -at if bank.metric is Metric.COSINE else at


def random_bank(rng, n=200, dim=16, metric=Metric.COSINE, regime=Regime.F1_STATIC, more=()):
    """A bank of n scenes of random videos vid0, vid1, ...; its video ids
    name every such video, then the ids in more, for later blocks."""
    bank = MemoryBank(bank_dim=dim, metric=metric, regime=regime)
    videos = tuple(f"vid{i}" for i in range(max(2, n // 8)))
    rows = [(rng.normal(size=dim), f"vid{int(rng.integers(0, len(videos)))}") for _ in range(n)]
    bank.populate(scenes([v for v, _ in rows], [vid for _, vid in rows], range(n), videos + more))
    return bank


class TestRegimes:
    def test_populate_grows_bank(self, rng):
        bank = random_bank(rng, n=100)
        assert len(bank) == 100

    def test_frozen_static_bank_rejects_populate(self, rng):
        bank = random_bank(rng, n=10)
        bank.freeze()
        assert bank.frozen
        with pytest.raises(RegimeError):
            bank.populate(scenes([np.zeros(16)], ["x"], [0]))

    def test_static_bank_rejects_push_batch(self, rng):
        bank = random_bank(rng, n=10)
        with pytest.raises(RegimeError):
            bank.push_batch(scenes([np.zeros(16)], ["x"], [0]))

    def test_freeze_requires_static_regime(self, rng):
        bank = MemoryBank(bank_dim=4, regime=Regime.F2_DYNAMIC)
        with pytest.raises(RegimeError):
            bank.freeze()

    def test_dynamic_window_evicts_old_batches(self, rng):
        bank = MemoryBank(bank_dim=4, regime=Regime.F2_DYNAMIC, window=2)
        ids = tuple(f"batch{t}" for t in range(5))
        for t in range(5):
            bank.push_batch(scenes([rng.normal(size=4)], [f"batch{t}"], [0], ids))
        ids = {e.video_id for e in bank.entries()}
        assert ids == {"batch3", "batch4"}

    def test_dynamic_contents_are_pure_function_of_window(self, rng):
        ids = tuple(f"b{t}" for t in range(4))
        batches = [scenes(rng.normal(size=(3, 4)), [f"b{t}"] * 3, range(3), ids) for t in range(4)]
        a = MemoryBank(bank_dim=4, regime=Regime.F2_DYNAMIC, window=2)
        for b in batches:
            a.push_batch(b)
        b_bank = MemoryBank(bank_dim=4, regime=Regime.F2_DYNAMIC, window=2)
        for b in batches[-2:]:
            b_bank.push_batch(b)
        for x, y in zip(a.entries(), b_bank.entries()):
            np.testing.assert_array_equal(x.vector, y.vector)
            assert (x.video_id, x.clip_index) == (y.video_id, y.clip_index)

    def test_mixup_rows_stored_bit_exact_under_f3(self, rng):
        bank = MemoryBank(bank_dim=8, regime=Regime.F3_DYNAMIC_MIXUP)
        lam = 0.37
        v_a, v_b = rng.normal(size=8), rng.normal(size=8)
        vstar = lam * v_a + (1.0 - lam) * v_b
        bank.push_batch(
            scenes([v_a, v_b], ["a", "b"], [0, 0]),
            mixup_scenes=scenes([vstar], [("a", "b")], [0]),
        )
        stored = [e for e in bank.entries() if e.video_id == "a+b"]
        assert len(stored) == 1
        # recompute independently and bit-compare
        np.testing.assert_array_equal(stored[0].vector, lam * v_a + (1.0 - lam) * v_b)

    def test_f2_rejects_mixup_rows(self, rng):
        bank = MemoryBank(bank_dim=4, regime=Regime.F2_DYNAMIC)
        with pytest.raises(RegimeError):
            bank.push_batch(scenes([np.zeros(4)], ["a"], [0]),
                            mixup_scenes=scenes([np.ones(4)], [("a", "b")], [0]))

    def test_dim_mismatch_rejected(self, rng):
        bank = MemoryBank(bank_dim=4)
        with pytest.raises(ValueError):
            bank.populate(scenes([np.zeros(5)], ["x"], [0]))


class TestQueryKnn:
    def test_stored_entry_ranks_first_with_cosine_one(self, rng):
        bank = random_bank(rng, n=50)
        target = bank.entries()[17]
        out = bank.query_knn(NeighborQuery(vector=target.vector, k=1))
        assert out[0].score == pytest.approx(1.0, abs=1e-12)
        assert (out[0].entry.video_id, out[0].entry.clip_index) == (
            target.video_id,
            target.clip_index,
        )

    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.L2])
    def test_matches_brute_force_oracle(self, rng, metric):
        bank = random_bank(rng, n=1000, dim=64, metric=metric)
        for trial in range(5):
            qv = rng.normal(size=64)
            got = bank.query_knn(NeighborQuery(vector=qv, k=5))
            expect = oracle_knn(bank.entries(), qv, 5, metric)
            for g, (e, s) in zip(got, expect):
                assert (g.entry.video_id, g.entry.clip_index) == (e.video_id, e.clip_index)
                assert g.score == pytest.approx(s, abs=1e-9)

    def test_exclusion_filters_video(self, rng):
        bank = random_bank(rng, n=60)
        some_id = bank.entries()[0].video_id
        out = bank.query_knn(
            NeighborQuery(vector=rng.normal(size=16), k=10, exclude_video_id=some_id)
        )
        assert all(n.entry.video_id != some_id for n in out)

    def test_exclusion_covers_mixup_parents(self, rng):
        bank = MemoryBank(bank_dim=4)
        bank.populate(scenes([rng.normal(size=4), rng.normal(size=4)], [("a", "b"), "c"], [0, 0]))
        out = bank.query_knn(NeighborQuery(vector=np.ones(4), k=1, exclude_video_id="b"))
        assert out[0].entry.video_id == "c"

    def test_k_exceeding_eligible_entries_raises(self, rng):
        bank = MemoryBank(bank_dim=4)
        bank.populate(scenes(rng.normal(size=(3, 4)), ["only"] * 3, range(3)))
        with pytest.raises(ValueError, match="eligible"):
            bank.query_knn(NeighborQuery(vector=np.ones(4), k=1, exclude_video_id="only"))
        with pytest.raises(ValueError, match="eligible"):
            bank.query_knn(NeighborQuery(vector=np.ones(4), k=4))

    def test_exact_duplicates_tie_break_lexicographically(self):
        v = np.array([1.0, 2.0, 3.0])
        bank = MemoryBank(bank_dim=3)
        bank.populate(scenes([v, v, v], ["zeta", "alpha", "alpha"], [4, 9, 2]))
        out = bank.query_knn(NeighborQuery(vector=v, k=3))
        order = [(n.entry.video_id, n.entry.clip_index) for n in out]
        assert order == [("alpha", 2), ("alpha", 9), ("zeta", 4)]

    def test_zero_norm_entries_score_zero_under_cosine(self, rng):
        bank = MemoryBank(bank_dim=3)
        bank.populate(scenes([np.zeros(3), [1.0, 0, 0]], ["z", "a"], [0, 0]))
        out = bank.query_knn(NeighborQuery(vector=np.array([1.0, 0, 0]), k=2))
        assert out[0].entry.video_id == "a"
        assert out[1].score == 0.0


class TestSampleNeighbor:
    """The top-k pools that nearest-scene draws sample from."""

    def test_top3_subset_of_top5(self, rng):
        bank = random_bank(rng, n=50)
        qv = rng.normal(size=16)
        t3 = {(n.entry.video_id, n.entry.clip_index) for n in bank.query_knn(NeighborQuery(vector=qv, k=3))}
        t5 = {(n.entry.video_id, n.entry.clip_index) for n in bank.query_knn(NeighborQuery(vector=qv, k=5))}
        assert t3 <= t5


class TestInterventions:
    def _bank_and_video(self, rng, dim=8, n_clips=6):
        bank = random_bank(rng, n=100, dim=dim)
        video = rng.normal(size=(n_clips, dim))
        mask = np.zeros(n_clips, dtype=bool)
        mask[:3] = True
        return bank, video, mask

    def test_empty_target_partition_returns_input(self, rng):
        bank, video, _ = self._bank_and_video(rng)
        all_causal = np.ones(video.shape[0], dtype=bool)
        out = mnse.mnse_do(video[None], ~all_causal[None], bank, 1, rng, bank.codes([None]))[0]
        np.testing.assert_array_equal(out, video)

    def test_nontarget_rows_bit_identical(self, rng):
        bank, video, mask = self._bank_and_video(rng)
        out = mnse.mnse_do(video[None], ~mask[None], bank, 3, np.random.default_rng(1),
                           bank.codes([None]))[0]
        np.testing.assert_array_equal(out[mask], video[mask])
        assert np.any(out[~mask] != video[~mask])

    def test_self_rows_in_bank_give_identity(self, rng):
        dim, n_clips = 8, 4
        video = rng.normal(size=(n_clips, dim))
        bank = MemoryBank(bank_dim=dim)
        ids = ("self", "other")
        bank.populate(scenes(video, ["self"] * n_clips, range(n_clips), ids))
        bank.populate(scenes([rng.normal(size=dim) for _ in range(20)], ["other"] * 20, range(20),
                             ids))
        mask = np.array([True, True, False, False])
        out = mnse.mnse_do(video[None], mask[None], bank, 1, np.random.default_rng(3),
                           bank.codes([None]))[0]
        np.testing.assert_array_equal(out, video)

    def test_mnse_do_closer_than_random_do(self, rng):
        spec = SyntheticSpec(
            n_instances=70, seed=21, n_clips=16, video_dim=32, text_dim=32,
            causal_fraction=0.5,
        )
        insts, _, masks = generate_synthetic(spec)
        bank = MemoryBank(bank_dim=32)
        bank.populate(mnse.instance_scenes(insts))

        def mean_replaced_cosine(do_fn, seed_base):
            sims = []
            count = 0
            for i, (inst, mask) in enumerate(zip(insts, masks)):
                if count >= 500:
                    break
                video = inst.video
                out = do_fn(video, mask, i)
                for r in np.flatnonzero(~mask):
                    a, b = out[r], video[r]
                    sims.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
                    count += 1
            assert count >= 500
            return float(np.mean(sims))

        mnse_mean = mean_replaced_cosine(
            lambda v, m, i: mnse.mnse_do(
                v[None], ~m[None], bank, k=1, rng=np.random.default_rng(i),
                exclude=bank.codes([insts[i].video_id]),
            )[0],
            0,
        )
        rand_mean = mean_replaced_cosine(
            lambda v, m, i: mnse.random_do(
                v[None], ~m[None], bank, rng=np.random.default_rng(i),
                exclude=bank.codes([insts[i].video_id]),
            )[0],
            0,
        )
        assert mnse_mean > rand_mean

    def test_nearest_scene_draws_cover_the_k_set_evenly(self):
        # k=5 over 2,000 seeds: each replaced row draws every member of its
        # k nearest scenes, each 400 times in expectation, within 5 sigma
        rng = np.random.default_rng(2024)
        bank, video, mask = self._bank_and_video(rng)
        k, n_seeds = 5, 2000
        rows = np.flatnonzero(~mask)
        members = [
            np.array([e.vector for e, _ in oracle_set(bank.entries(), video[r], k, Metric.COSINE)])
            for r in rows
        ]
        counts = np.zeros((len(rows), k), dtype=int)
        for seed in range(n_seeds):
            out = mnse.mnse_do(
                video[None], ~mask[None], bank, k, np.random.default_rng(seed), bank.codes([None])
            )[0]
            for i, r in enumerate(rows):
                hit = np.flatnonzero((members[i] == out[r]).all(axis=1))
                assert len(hit) == 1, f"seed {seed}, row {r}: drew outside its k-set"
                counts[i, hit[0]] += 1
        sigma = math.sqrt(n_seeds * (1 / k) * (1 - 1 / k))
        assert counts.min() > 0
        assert np.abs(counts - n_seeds / k).max() <= 5 * sigma, counts

    def test_deterministic_given_seed(self, rng):
        bank, video, mask = self._bank_and_video(rng)
        none = bank.codes([None])
        a = mnse.mnse_do(video[None], mask[None], bank, 3, np.random.default_rng(7), none)
        b = mnse.mnse_do(video[None], mask[None], bank, 3, np.random.default_rng(7), none)
        np.testing.assert_array_equal(a, b)
        c = mnse.random_do(video[None], mask[None], bank, np.random.default_rng(7), none)
        d = mnse.random_do(video[None], mask[None], bank, np.random.default_rng(7), none)
        np.testing.assert_array_equal(c, d)



def _ids(entries):
    return [(e.video_id, e.clip_index) for e in entries]


class TestBatchedTopK:
    """The batched ranking behind MemoryBank.topk equals oracle_knn row by row."""

    def _tied_bank(self, rng, metric, queries):
        # per query: two strictly closer scenes, then six exact duplicates
        # under shuffled (video_id, clip_index), so every k in 3..7 cuts
        # through the tie; background rows and mixup provenance around them
        bank = MemoryBank(bank_dim=queries.shape[1], metric=metric)
        rows = [(rng.normal(size=queries.shape[1]), f"v{i % 5}", i) for i in range(40)]
        rows += [(rng.normal(size=queries.shape[1]), pair, i)
                 for i, pair in enumerate([("a", "b"), ("b", "c"), ("c", "v1"), ("a", "v2")] * 3)]
        for j, q in enumerate(queries):
            delta = 0.05 * rng.normal(size=q.shape)
            rows += [(q + 0.25 * delta, "c", 100 + j), (q + 0.5 * delta, "a", 100 + j)]
            dup = q + delta
            for vid, clip in [("zeta", j), (("a", "b"), j), ("alpha", 9 + j), ("b", j),
                              ("alpha", 2 + j), (("c", "a"), j)]:
                rows.append((dup.copy(), vid, clip))
        order = rng.permutation(len(rows))
        bank.populate(scenes(*zip(*(rows[i] for i in order))))
        return bank

    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.L2])
    @pytest.mark.parametrize("exclude", [None, "a", "b", "absent"])
    def test_topk_matches_oracle_at_tied_boundaries(self, rng, metric, exclude):
        queries = rng.normal(size=(4, 8))
        bank = self._tied_bank(rng, metric, queries)
        pool = reference_pool(bank, exclude)
        rows = bank.entries()
        for k in (1, 3, 4, 5, 7, len(pool)):
            top, scores = scored_ranking(bank, queries, k, [exclude] * len(queries))
            assert top.shape == scores.shape == (len(queries), k)
            for qv, got, got_scores in zip(queries, top, scores):
                want = oracle_set(rows, qv, k, metric, exclude)
                assert _ids(rows[i] for i in got) == _ids(e for e, _ in want)
                np.testing.assert_allclose(
                    got_scores, [s for _, s in want], rtol=1e-9, atol=1e-9
                )

    def test_draw_clamps_k_and_stays_inside_topk(self, rng):
        queries = rng.normal(size=(3, 8))
        bank = self._tied_bank(rng, Metric.COSINE, queries)
        pool = reference_pool(bank, "a")
        excludes = bank.codes(["a"] * len(queries))
        top = bank.topk(queries, 5, excludes)
        allowed = [{bank.entries()[i].vector.tobytes() for i in row} for row in top]
        for seed in range(40):
            draw_rng = np.random.default_rng(seed)
            for got, ok in zip(bank.pick(bank.topk(queries, 5, excludes), draw_rng), allowed):
                assert got.tobytes() in ok
        clamped = bank.pick(bank.topk(queries, 10**6, excludes), np.random.default_rng(1))
        full = bank.pick(bank.topk(queries, len(pool), excludes), np.random.default_rng(1))
        np.testing.assert_array_equal(clamped, full)

    def test_draw_with_nothing_eligible_raises(self):
        bank = MemoryBank(bank_dim=2)
        bank.populate(scenes(np.ones((2, 2)), ["only", ("x", "only")], [0, 1]))
        with pytest.raises(ValueError, match="eligible"):
            mnse.random_do(np.ones((1, 1, 2)), np.ones((1, 1), dtype=bool), bank,
                           np.random.default_rng(0), bank.codes(["only"]))
        with pytest.raises(ValueError, match="eligible"):
            bank.pick(bank.topk(np.ones((1, 2)), 3, bank.codes(["only"])), np.random.default_rng(0))

    @staticmethod
    def _f3_bank(rng, metric):
        """An f3 bank of blends and repeated vectors, with queries near and
        on its scenes and one exclude id per query, one the bank never saw."""
        bank = MemoryBank(4, metric=metric, regime=Regime.F3_DYNAMIC_MIXUP, window=2)
        ids = ["a"] * 6 + ["b"] * 3 + ["c"] * 2
        vectors = rng.normal(size=(len(ids), 4))
        vectors[7] = vectors[2]  # a "b" scene ties an "a" scene
        blends = [("a", "b"), ("a", "b"), ("b", "c")]
        bank.push_batch(scenes(vectors, ids, [0, 1, 2, 3, 4, 5, 0, 1, 2, 0, 1]),
                        scenes(np.concatenate([vectors[:2], vectors[9:10]]), blends, [0, 1, 0]))
        queries = np.concatenate([rng.normal(size=(3, 4)), vectors[[2, 0]]])
        return bank, queries, ["a", "b", "c", "absent", None]

    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.L2])
    def test_one_call_mixes_clamped_and_full_rows(self, rng, metric):
        # f3 blends, repeated vectors and an exclude id the bank never saw:
        # each row of one call has its own clamped k and its own ties
        bank, queries, excludes = self._f3_bank(rng, metric)
        entries, n = bank.entries(), len(bank)
        for k in (1, 2, 3, 5, 7, n - 1, n, 10**6):
            top = bank.topk(queries, k, bank.codes(excludes))
            wanted = [oracle_set(entries, q, k, metric, ex) for q, ex in zip(queries, excludes)]
            assert top.shape == (len(queries), max(map(len, wanted)))
            for row, want in zip(top, wanted):
                assert [(e.video_id, e.clip_index, e.vector.tobytes()) for e in
                        (entries[i] for i in row[: len(want)])] == [
                    (e.video_id, e.clip_index, e.vector.tobytes()) for e, _ in want]
                assert (row[len(want) :] == -1).all()

    @staticmethod
    def _overflow_bank(metric):
        """A bank of scenes big, -big and 1 of videos a, b and c, and big:
        query big keys b as an overflow (an L2 distance of inf, or a
        cosine of inf / inf = NaN) and a and c finitely; query 1 keys
        every scene finitely."""
        big = 1e200 if metric is Metric.COSINE else 1e154
        bank = MemoryBank(bank_dim=1, metric=metric)
        return bank.populate(scenes([[big], [-big], [1.0]], ["a", "b", "c"], [0, 0, 0])), big

    def _cases(self, rng, metric):
        """(case, bank, query, k, exclude id) for each of a tie at the k-th
        key, a k clamped to the eligible count, an f3 bank and an
        overflowing key."""
        queries = rng.normal(size=(4, 8))
        tied = self._tied_bank(rng, metric, queries)
        for q in queries:
            for k in (1, 3, 4, 5, 7):
                yield "tie", tied, q, k, None
            for ex in ("a", "b", "absent"):
                yield "clamp", tied, q, len(reference_pool(tied, ex)), ex
        f3, f3_queries, excludes = self._f3_bank(rng, metric)
        for q, ex in zip(f3_queries, excludes):
            for k in range(1, len(reference_pool(f3, ex)) + 1):
                yield "f3", f3, q, k, ex
        overflow, big = self._overflow_bank(metric)
        for q, ex in (([big], "a"), ([big], None), ([1.0], None), ([-big], "c")):
            for k in range(1, len(reference_pool(overflow, ex)) + 1):
                yield "overflow", overflow, np.array(q), k, ex

    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.L2])
    def test_topk_is_the_set_query_knn_scores(self, rng, metric):
        # topk reads no score; query_knn, which does, finds the same set
        def scene_set(found):
            return sorted((e.video_id, e.clip_index, e.vector.tobytes()) for e in found)

        for case, bank, q, k, ex in self._cases(rng, metric):
            entries = bank.entries()
            with np.errstate(over="ignore", invalid="ignore"):
                top = bank.topk(q[None], k, bank.codes([ex]))[0]
                found = bank.query_knn(NeighborQuery(vector=q, k=k, exclude_video_id=ex))
            assert scene_set(entries[i] for i in top) == scene_set(n.entry for n in found), case

    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.L2])
    def test_query_knn_scores_are_the_keys_it_was_ranked_by(self, rng, metric):
        # each score is its scene's ranking key (negated under cosine), bit
        # for bit, in (key, tie rank) order
        for case, bank, q, k, ex in self._cases(rng, metric):
            entries = bank.entries()
            with np.errstate(over="ignore", invalid="ignore"):
                top, scores = scored_ranking(bank, q[None], k, [ex])
                found = bank.query_knn(NeighborQuery(vector=q, k=k, exclude_video_id=ex))
            best = np.argsort(-scores[0] if metric is Metric.COSINE else scores[0], kind="stable")
            assert np.array([n.score for n in found]).tobytes() == scores[0, best].tobytes(), case
            assert [n.entry.vector.tobytes() for n in found] == [
                entries[i].vector.tobytes() for i in top[0, best]], case

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.L2])
    def test_a_chunk_with_an_overflowing_key_is_clamped_alone(self, metric, at):
        # one row per chunk: only the big query's chunk, row at, holds a
        # non-finite key (b's), which still ranks as the largest finite
        # float, before the excluded a
        bank, big = self._overflow_bank(metric)
        queries, excludes = np.array([[big], [1.0]]), ["a", None]
        if at:
            queries, excludes = queries[::-1], excludes[::-1]
        chunk = len(bank) * (1 if metric is Metric.COSINE else bank.bank_dim)
        with mock.patch.object(mnse, "RANK_CHUNK", chunk), np.errstate(over="ignore",
                                                                        invalid="ignore"):
            top, scores = scored_ranking(bank, queries, 2, excludes)
            found = bank.query_knn(NeighborQuery(vector=np.array([big]), k=2,
                                                 exclude_video_id="a"))
        largest = np.finfo(np.float64).max
        ids = [e.video_id for e in bank.entries()]
        assert [ids[i] for i in top[at]] == ["b", "c"]
        b_score = -largest if metric is Metric.COSINE else largest
        assert scores[at, 0] == b_score
        assert [(n.entry.video_id, n.score) for n in found] == [
            ("c", float(scores[at, 1])), ("b", b_score)]
        assert np.isfinite(scores[1 - at]).all()


class TestPerRowExclusion:
    """topk with one exclude id per row, ranking every row in one pass of
    row chunks, equals oracle_knn row by row."""

    VIDEOS = ["v0", "v1", "v2", "v3"]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_batched_topk_matches_the_oracle_row_by_row(self, data):
        metric = data.draw(st.sampled_from(list(Metric)), label="metric")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        dim = 4
        # scene vectors come from a small pool, so exact duplicates (tied
        # keys) recur under different (video_id, clip_index)
        pool = rng.normal(size=(data.draw(st.integers(1, 6), label="pool"), dim))
        if data.draw(st.booleans(), label="zero_scene"):
            pool[0] = 0.0  # a zero norm: cosine 0 against every query
        owners = st.sampled_from(self.VIDEOS + [("v0", "v1"), ("v2", "v0"), ("v3", "v3")])
        rows = data.draw(
            st.lists(st.tuples(owners, st.integers(0, len(pool) - 1)), min_size=1, max_size=30),
            label="scenes",
        )
        bank = MemoryBank(bank_dim=dim, metric=metric).populate(
            scenes([pool[p] for _, p in rows], [vid for vid, _ in rows], range(len(rows)))
        )
        rows_per_chunk = data.draw(st.integers(1, 4), label="rows_per_chunk")
        n_queries = data.draw(
            st.integers(max(1, rows_per_chunk - 1), 2 * rows_per_chunk + 1), label="n_queries"
        )
        # queries near pool vectors put duplicate scenes around the k-th key
        queries = pool[rng.integers(0, len(pool), n_queries)] + 0.3 * rng.normal(
            size=(n_queries, dim)
        )
        if data.draw(st.booleans(), label="zero_query"):
            queries[0] = 0.0
        excludes = data.draw(
            st.lists(st.sampled_from([None, "absent"] + self.VIDEOS),
                     min_size=n_queries, max_size=n_queries),
            label="excludes",
        )
        k = data.draw(st.integers(1, len(rows) + 2), label="k")
        entries = bank.entries()
        wanted = [oracle_set(entries, q, k, metric, ex) for q, ex in zip(queries, excludes)]
        chunk = len(bank) * rows_per_chunk * (dim if metric is Metric.L2 else 1)
        with mock.patch.object(mnse, "RANK_CHUNK", chunk):
            if not all(wanted):
                with pytest.raises(ValueError, match="eligible"):
                    bank.topk(queries, k, bank.codes(excludes))
                return
            top, scores = scored_ranking(bank, queries, k, excludes)
            assert np.array_equal(bank.topk(queries, k, bank.codes(excludes)), top)
        assert top.shape == scores.shape == (n_queries, max(map(len, wanted)))
        for row, row_scores, want in zip(top, scores, wanted):
            m = len(want)
            assert _ids(entries[i] for i in row[:m]) == _ids(e for e, _ in want)
            np.testing.assert_allclose(row_scores[:m], [s for _, s in want], rtol=1e-9, atol=1e-9)
            assert (row[m:] == -1).all() and np.isnan(row_scores[m:]).all()
        # each row draws uniformly over its own ranked list, never its
        # padding: one generator, one draw per row in row order
        seed = int(rng.integers(2**32))
        got = bank.pick(top, np.random.default_rng(seed))
        oracle_rng = np.random.default_rng(seed)
        for vector, want in zip(got, wanted):
            chosen, _ = want[int(oracle_rng.integers(0, len(want)))]
            np.testing.assert_array_equal(vector, chosen.vector)

    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.L2])
    def test_an_overflowing_key_never_returns_an_excluded_scene(self, metric):
        # finite vectors whose L2 distance overflows to inf, or whose cosine
        # is inf / inf = NaN: the eligible scene still ranks before "a"
        bank = MemoryBank(bank_dim=1, metric=metric).populate(
            scenes([[1e200], [-1e200]], ["a", "b"], [0, 0])
        )
        query = np.array([1e200])
        with np.errstate(over="ignore", invalid="ignore"):
            top = bank.topk(query[None], 2, bank.codes(["a"]))
            got = bank.query_knn(NeighborQuery(vector=query, k=1, exclude_video_id="a"))
        assert [bank.entries()[i].video_id for i in top[0]] == ["b"]
        assert [n.entry.video_id for n in got] == ["b"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_query_raises(self, rng, bad):
        bank = random_bank(rng, n=20, dim=4)
        queries = rng.normal(size=(3, 4))
        queries[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            bank.topk(queries, 2, bank.codes(["vid0", None, "vid1"]))
        with pytest.raises(ValueError, match="finite"):
            bank.query_knn(NeighborQuery(vector=queries[1], k=2))


class TestColumnViewRefresh:
    """Queries and draws follow every populate and push_batch."""

    @staticmethod
    def _assert_matches_entries(bank, queries, exclude, seed):
        entries = bank.entries()
        for qv in queries:
            got = bank.query_knn(NeighborQuery(vector=qv, k=3, exclude_video_id=exclude))
            want = oracle_knn(entries, qv, 3, bank.metric, exclude)
            assert _ids(n.entry for n in got) == _ids(e for e, _ in want)
        excludes = bank.codes([exclude] * len(queries))
        nearest = bank.pick(bank.topk(queries, 1, excludes), np.random.default_rng(0))
        for got, qv in zip(nearest, queries):
            best, _ = oracle_knn(entries, qv, 1, bank.metric, exclude)[0]
            np.testing.assert_array_equal(got, best.vector)
        eligible = [e for e in entries if exclude not in e.video_id.split("+")]
        oracle_rng = np.random.default_rng(seed)
        want = [eligible[int(oracle_rng.integers(0, len(eligible)))].vector for _ in queries]
        got = bank.pick(bank.candidates(excludes), np.random.default_rng(seed))
        np.testing.assert_array_equal(got, np.stack(want))

    def test_populate_refreshes_columns(self, rng):
        new = tuple(f"new{i}" for i in range(4))
        bank = random_bank(rng, n=30, dim=6, more=new)
        queries = rng.normal(size=(len(new), 6))
        self._assert_matches_entries(bank, queries, "vid1", seed=5)
        bank.populate(scenes(queries, new, range(len(new)), bank._ids))
        self._assert_matches_entries(bank, queries, "vid1", seed=5)

    @pytest.mark.parametrize("regime", [Regime.F2_DYNAMIC, Regime.F3_DYNAMIC_MIXUP])
    def test_push_batch_eviction_refreshes_columns(self, rng, regime):
        bank = MemoryBank(bank_dim=6, regime=regime, window=2)
        queries = rng.normal(size=(4, 6))
        video_ids = tuple(f"b{t}{v}" for t in range(3) for v in ("v0", "v1", "v2", "q"))

        def batch(t, planted=None):
            vectors, ids = list(rng.normal(size=(9, 6))), [f"b{t}v{i % 3}" for i in range(9)]
            clips = list(range(9))
            if planted is not None:
                vectors += list(planted)
                ids += [f"b{t}q"] * len(planted)
                clips += list(range(len(planted)))
            mixup = None
            if regime is Regime.F3_DYNAMIC_MIXUP:
                mixup = scenes(rng.normal(size=(4, 6)), [(f"b{t}v0", f"b{t}v1")] * 4, range(4),
                               video_ids)
            return scenes(vectors, ids, clips, video_ids), mixup

        bank.push_batch(*batch(0, planted=queries))
        bank.push_batch(*batch(1))
        self._assert_matches_entries(bank, queries, "b1v0", seed=11)
        bank.push_batch(*batch(2))  # evicts batch 0 and its planted nearest scenes
        assert all(not e.video_id.startswith("b0") for e in bank.entries())
        self._assert_matches_entries(bank, queries, "b1v0", seed=11)


class TestRankThenPick:
    """A nearest-scene draw is topk (one ranking per query set) followed by
    pick, and a uniform draw is pick over the eligible pool, which follows
    every change of the bank."""

    @staticmethod
    def _fresh_pool(bank, exclude):
        return [i for i, e in enumerate(bank.entries())
                if exclude is None or exclude not in e.video_id.split("+")]

    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.L2])
    @pytest.mark.parametrize("exclude", [None, "vid1", "absent"])
    def test_topk_then_pick_equals_the_nearest_scene_draw(self, rng, metric, exclude):
        bank = random_bank(rng, n=60, dim=6, metric=metric)
        entries = bank.entries()
        queries = rng.normal(size=(5, 6))
        excludes = bank.codes([exclude] * len(queries))
        for k in (1, 4, 10**6):
            top = bank.topk(queries, k, excludes)
            pool = self._fresh_pool(bank, exclude)
            assert top.shape == (len(queries), min(k, len(pool)))
            seed = int(rng.integers(2**32))
            got = bank.pick(top, np.random.default_rng(seed))
            drawn = bank.pick(bank.topk(queries, k, excludes), np.random.default_rng(seed))
            np.testing.assert_array_equal(got, drawn)
            oracle_rng = np.random.default_rng(seed)
            for qv, row, vector in zip(queries, top, got):
                want = oracle_set(entries, qv, min(k, len(pool)), metric, exclude)
                assert _ids(entries[i] for i in row) == _ids(e for e, _ in want)
                chosen, _ = want[int(oracle_rng.integers(0, len(want)))]
                np.testing.assert_array_equal(vector, chosen.vector)

    def test_one_ranking_serves_every_draw(self, rng):
        bank = random_bank(rng, n=60, dim=6)
        queries = rng.normal(size=(3, 6))
        top = bank.topk(queries, 5, bank.codes(["vid2"] * len(queries)))
        for seed in range(5):
            np.testing.assert_array_equal(
                bank.pick(top, np.random.default_rng(seed)),
                bank.pick(bank.topk(queries, 5, bank.codes(["vid2"] * 3)),
                          np.random.default_rng(seed)),
            )

    def test_uniform_candidates_are_each_ids_eligible_pool(self, rng):
        bank = random_bank(rng, n=40, dim=6, more=("only",))
        bank.populate(scenes(rng.normal(size=(2, 6)), ["only", ("vid1", "only")], [0, 0],
                             bank._ids))
        excludes = ["vid1", None, "only", "vid1", "absent"]
        got = bank.candidates(bank.codes(excludes))
        pools = [reference_pool(bank, ex) for ex in excludes]
        assert list(got.counts) == [len(pool) for pool in pools]
        for i, pool in enumerate(pools):
            assert list(pool) == self._fresh_pool(bank, excludes[i])
            assert list(got.nth(np.full(len(pool), i), np.arange(len(pool)))) == list(pool)
        # every draw names its row: draw i is uniform over pools[i], all
        # drawn in one integers call
        drawn = bank.pick(got, np.random.default_rng(3))
        oracle = np.random.default_rng(3)
        picks = oracle.integers(0, [len(pool) for pool in pools])
        want = [bank.entries()[pool[j]].vector for pool, j in zip(pools, picks)]
        np.testing.assert_array_equal(drawn, np.stack(want))
        lone = MemoryBank(bank_dim=2).populate(scenes(np.ones((2, 2)), ["a", ("a", "b")], [0, 0]))
        assert list(lone.candidates(lone.codes(["a", "a"])).counts) == [0, 0]

    def test_a_uniform_draw_with_nothing_eligible_raises(self, rng):
        # a video that owns every scene, alone or as a blend's parent
        bank = MemoryBank(2).populate(
            scenes(rng.normal(size=(3, 2)), ["only", "only", ("x", "only")], [0, 1, 0]))
        eligible = bank.candidates(bank.codes(["x", "only"]))
        assert list(eligible.counts) == [2, 0]
        draws = np.random.default_rng(4)
        state = draws.bit_generator.state
        message = "^no eligible bank entries: all 3 belong to 'only'$"
        for rows in (None, np.array([0, 1, 0])):
            with pytest.raises(ValueError, match=message):
                bank.pick(eligible, draws, rows)
        with pytest.raises(ValueError, match=message):
            mnse.random_do(np.ones((2, 1, 2)), np.ones((2, 1), dtype=bool), bank, draws,
                           bank.codes(["x", "only"]))
        assert draws.bit_generator.state == state
        assert bank.pick(eligible, draws, np.array([0, 0])).shape == (2, 2)
        empty = MemoryBank(2)
        with pytest.raises(ValueError, match="^memory bank is empty$"):
            empty.pick(empty.candidates(empty.codes([None])), draws)

    def test_topk_rejects_k_below_one_and_an_empty_pool(self):
        bank = MemoryBank(bank_dim=2).populate(scenes([np.ones(2)], ["only"], [0]))
        with pytest.raises(ValueError, match="k must be"):
            bank.topk(np.ones((1, 2)), 0, bank.codes([None]))
        with pytest.raises(ValueError, match="eligible"):
            bank.topk(np.ones((1, 2)), 1, bank.codes(["only"]))

    @pytest.mark.parametrize("excludes", ["o", "oo", [None], [None, None, None]])
    def test_topk_takes_one_exclude_id_per_row(self, excludes):
        # a bare id is refused where ids become codes, a code list of
        # another length by the ranking
        bank = MemoryBank(bank_dim=2).populate(scenes([np.ones(2)] * 2, ["o", "p"], [0, 0]))
        with pytest.raises(ValueError, match="one video id .or None. per row|one exclude code"):
            bank.topk(np.ones((2, 2)), 1, bank.codes(excludes))

    def test_eligible_is_the_pool_of_each_video(self, rng):
        bank = random_bank(rng, n=40, dim=6)
        pool = drawable(bank, "vid1")
        assert list(pool) == self._fresh_pool(bank, "vid1")
        other = drawable(bank, "vid2")
        assert list(other) == self._fresh_pool(bank, "vid2")
        assert list(drawable(bank, "vid1")) == list(pool)

    @pytest.mark.parametrize("n, m", [(1, 1), (4, 7), (9, 2), (16, 40), (33, 200)])
    def test_a_pool_pick_is_the_uniform_draw(self, rng, n, m):
        # n draws that all name one video's eligible pool of m scenes are
        # the scenes the uniform draw pool[integers(0, m, size=n)] takes,
        # and leave the generator where that draw leaves it
        owners = rng.permutation(["x"] * (m + 1) + [f"v{i}" for i in range(m)])
        bank = MemoryBank(4).populate(
            scenes(rng.normal(size=(len(owners), 4)), owners, [0] * len(owners))
        )
        eligible = bank.candidates(bank.codes(["x"]))
        pool = reference_pool(bank, "x")
        assert list(pool) == list(np.flatnonzero(owners != "x"))
        for seed in range(5):
            got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
            got = bank.pick(eligible, got_rng, np.zeros(n, dtype=np.int64))
            np.testing.assert_array_equal(
                got, bank._columns.T[pool[want_rng.integers(0, len(pool), size=n)]]
            )
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_more_draws_than_rows_cycle_through_the_rows(self, rng):
        bank = random_bank(rng, n=60, dim=6)
        top = bank.topk(rng.normal(size=(3, 6)), 5, bank.codes(["vid2"] * 3))
        for seed in range(5):
            np.testing.assert_array_equal(
                bank.pick(top, np.random.default_rng(seed), np.arange(4 * len(top)) % len(top)),
                bank.pick(np.tile(top, (4, 1)), np.random.default_rng(seed)),
            )

    def test_memo_is_refreshed_after_populate(self, rng):
        bank = random_bank(rng, n=30, dim=6, more=("new",))
        before = drawable(bank, "vid1")
        bank.populate(scenes(rng.normal(size=(3, 6)), ["new"] * 3, range(3), bank._ids))
        after = drawable(bank, "vid1")
        assert len(after) == len(before) + 3
        assert list(after) == self._fresh_pool(bank, "vid1")

    @pytest.mark.parametrize("regime", [Regime.F2_DYNAMIC, Regime.F3_DYNAMIC_MIXUP])
    def test_memo_is_refreshed_after_an_evicting_push_batch(self, rng, regime):
        bank = MemoryBank(bank_dim=4, regime=regime, window=2)
        ids = ("b0", "b1", "b2", "x")

        def push(t, n):
            mixup = None
            if regime is Regime.F3_DYNAMIC_MIXUP:
                mixup = scenes([rng.normal(size=4)], [(f"b{t}", "x")], [0], ids)
            bank.push_batch(scenes(rng.normal(size=(n, 4)), [f"b{t}"] * n, range(n), ids), mixup)

        push(0, 5)
        push(1, 2)
        before = drawable(bank, "x")
        push(2, 1)  # evicts batch 0
        after = drawable(bank, "x")
        assert len(after) == len(before) - 4
        assert list(after) == self._fresh_pool(bank, "x")
        assert list(drawable(bank, None)) == list(range(len(bank)))


class TestCallerArraysNotAliased:
    """The bank keeps its own copy of every scene vector."""

    @staticmethod
    def _bank_and_scenes():
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        bank = MemoryBank(bank_dim=2).populate(scenes([a, b], ["a", "b"], [0, 0]))
        return bank, a

    @staticmethod
    def _nearest(bank):
        (hit,) = bank.query_knn(NeighborQuery(vector=np.array([1.0, 0.1]), k=1))
        return hit

    def _assert_original(self, hit):
        assert hit.entry.video_id == "a"
        np.testing.assert_array_equal(hit.entry.vector, [1.0, 0.0])
        assert hit.score == pytest.approx(1.0 / math.sqrt(1.01), abs=1e-15)
        assert not hit.entry.vector.flags.writeable

    def test_mutation_after_first_query(self):
        bank, a = self._bank_and_scenes()
        self._assert_original(self._nearest(bank))
        a[:] = [0.0, -1.0]
        self._assert_original(self._nearest(bank))

    def test_mutation_before_first_query(self):
        bank, a = self._bank_and_scenes()
        a[:] = [0.0, -1.0]
        self._assert_original(self._nearest(bank))
        np.testing.assert_array_equal(bank.entries()[0].vector, [1.0, 0.0])


class TestOneCopyPerScene:
    """The column matrix of a single populate is the entries' own block."""

    def test_static_bank_matrix_shares_the_entry_vectors(self, rng):
        bank = random_bank(rng, n=50, dim=6).freeze()
        bank.query_knn(NeighborQuery(vector=rng.normal(size=6), k=3))
        matrix = bank._columns.T
        entries = bank.entries()
        assert all(np.shares_memory(matrix, e.vector) for e in entries)
        np.testing.assert_array_equal(matrix, np.stack([e.vector for e in entries]))

    def test_a_stacked_scenes_block_is_kept_without_a_copy(self, rng):
        block = mnse.stacked_scenes(rng.normal(size=(5, 8, 6)), [f"v{i}" for i in range(5)])
        bank = MemoryBank(bank_dim=6).populate(block)
        assert np.shares_memory(bank._columns, block.matrix)
        assert bank._columns.flags.c_contiguous and not bank._columns.flags.writeable

    def test_several_blocks_are_concatenated_in_entry_order(self, rng):
        bank = MemoryBank(bank_dim=4, regime=Regime.F3_DYNAMIC_MIXUP, window=2)
        ids = ("v0", "v1", "v2", "w")
        for step in range(3):
            bank.push_batch(
                scenes(rng.normal(size=(3, 4)), [f"v{step}"] * 3, range(3), ids),
                scenes(rng.normal(size=(2, 4)), [(f"v{step}", "w")] * 2, range(2), ids),
            )
        entries = bank.entries()
        assert len(entries) == 2 * 5
        np.testing.assert_array_equal(
            bank._columns.T, np.stack([e.vector for e in entries])
        )


class TestTopKProperties:
    """topk is the brute-force k-nearest set in tie-rank order on banks of
    Scenes blocks with duplicates planted across the k-th key; pick stays
    inside its rows; batched draws equal the protocol's scalar reference."""

    IDS = ["a", "b", "c"]
    BLENDS = [("a", "b"), ("c", "a"), ("b", "b")]

    @classmethod
    def _video_ids(cls, data):
        """A bank's video ids: IDS in any order, with or without an id that
        no scene names."""
        unused = data.draw(st.sampled_from([[], ["0"], ["zz"]]), label="unused id")
        return tuple(data.draw(st.permutations(cls.IDS + unused), label="video ids"))

    @staticmethod
    def _block(data, rng, dim, ids, queries, video_ids):
        """Rows around the queries: near ones, a run of exact duplicates
        and far ones, under repeated (video, clip_index) keys, a video an id
        or a blend's pair, as codes into the bank's video_ids."""
        n_near, n_dup, n_far = (data.draw(st.integers(0, m)) for m in (3, 6, 4))
        q = queries[data.draw(st.integers(0, len(queries) - 1))]
        dup = q + 0.3 * rng.normal(size=dim)
        vectors = [q + 0.05 * rng.normal(size=dim) for _ in range(n_near)]
        vectors += [dup.copy() for _ in range(n_dup)]
        vectors += [rng.normal(size=dim) for _ in range(n_far)]
        keys = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 3)),
                                  min_size=len(vectors), max_size=len(vectors)))
        videos = [vid for vid, _ in keys]
        matrix = np.array(vectors).reshape(len(keys), dim)
        return scenes(matrix, videos, np.array([c for _, c in keys], dtype=np.int64), video_ids)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_topk_is_the_brute_force_set_in_tie_rank_order(self, data):
        regime = data.draw(st.sampled_from(list(Regime)), label="regime")
        metric = data.draw(st.sampled_from(list(Metric)), label="metric")
        dim = data.draw(st.integers(1, 4), label="dim")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        queries = rng.normal(size=(data.draw(st.integers(1, 5), label="n_queries"), dim))
        bank = MemoryBank(dim, metric=metric, regime=regime, window=3)
        video_ids = self._video_ids(data)
        for _ in range(data.draw(st.integers(1, 3), label="calls")):
            block = self._block(data, rng, dim, self.IDS + self.BLENDS, queries, video_ids)
            if regime is Regime.F1_STATIC:
                bank.populate(block)
            elif regime is Regime.F3_DYNAMIC_MIXUP and data.draw(st.booleans()):
                bank.push_batch(block, self._block(data, rng, dim, self.BLENDS, queries, video_ids))
            else:
                bank.push_batch(block)
        if not len(bank):
            return
        excludes = data.draw(st.lists(st.sampled_from(self.IDS + [None, "absent"]),
                                      min_size=len(queries), max_size=len(queries)),
                             label="excludes")
        # keyed by code, each row's eligible scenes are those whose name
        # does not hold its excluded id
        codes = bank.codes(excludes)
        pools = [reference_pool(bank, ex) for ex in excludes]
        assert list(bank.eligible_counts(codes)) == [len(pool) for pool in pools]
        eligible = bank.candidates(codes)
        for i, pool in enumerate(pools):
            assert list(eligible.nth(np.full(len(pool), i), np.arange(len(pool)))) == list(pool)
        k = data.draw(st.integers(1, len(bank) + 2), label="k")
        entries = bank.entries()
        wanted = [oracle_set(entries, q, k, metric, ex) for q, ex in zip(queries, excludes)]
        if not all(wanted):
            with pytest.raises(ValueError, match="eligible"):
                bank.topk(queries, k, codes)
            return
        top, scores = scored_ranking(bank, queries, k, excludes)
        assert np.array_equal(bank.topk(queries, k, codes), top)
        assert top.shape == scores.shape == (len(queries), max(map(len, wanted)))
        for row, row_scores, want in zip(top, scores, wanted):
            m = len(want)
            assert _ids(entries[i] for i in row[:m]) == _ids(e for e, _ in want)
            assert [entries[i].vector.tobytes() for i in row[:m]] == [
                e.vector.tobytes() for e, _ in want
            ]
            np.testing.assert_allclose(row_scores[:m], [s for _, s in want], rtol=1e-9, atol=1e-9)
            assert (row[m:] == -1).all() and np.isnan(row_scores[m:]).all()
        # the case the tie-rank selection serves: a row's k-th key equals
        # the key just past the largest k
        width = top.shape[1] + 1
        for q, ex, want in zip(queries, excludes, wanted):
            keys = sorted(s if metric is Metric.L2 else -s
                          for _, s in oracle_knn(entries, q, len(bank), metric, ex))
            keys += [math.inf] * (len(bank) - len(keys))
            if width < len(bank) and keys[len(want) - 1] == keys[width - 1]:
                event("a tie crosses the partition")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_pick_returns_only_members_of_its_row(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n = data.draw(st.integers(1, 12), label="bank size")
        bank = MemoryBank(3).populate(scenes(rng.normal(size=(n, 3)), ["v"] * n, range(n)))
        lengths = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6), label="lengths")
        candidates = np.full((len(lengths), max(lengths)), -1, dtype=np.int64)
        for row, m in zip(candidates, lengths):
            row[:m] = rng.choice(n, size=m, replace=False)
        got = bank.pick(candidates, np.random.default_rng(data.draw(st.integers(0, 99))))
        matrix = bank._columns.T
        assert got.shape == (len(lengths), 3)
        for vector, row, m in zip(got, candidates, lengths):
            assert any(np.array_equal(vector, matrix[i]) for i in row[:m])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batched_draws_equal_the_scalar_reference(self, data):
        # mnse_do then random_do on one generator draw what the protocol's
        # reference draws one scalar at a time, video by video
        insts, _, masks = generate_synthetic(SyntheticSpec(
            n_instances=12, seed=data.draw(st.integers(0, 99), label="data seed"), n_clips=5,
            video_dim=6, text_dim=6, causal_fraction=0.4,
        ))
        bank = MemoryBank(bank_dim=6).populate(mnse.instance_scenes(insts))
        subset = data.draw(st.lists(st.integers(0, len(insts) - 1), min_size=1, max_size=6,
                                    unique=True), label="videos")
        target = data.draw(st.sampled_from(["causal", "complement"]), label="target")
        k = data.draw(st.integers(1, 70), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        masks = np.asarray(masks, dtype=bool)[subset]
        rows = masks if target == "causal" else ~masks
        if data.draw(st.booleans(), label="one video untouched"):
            rows[0] = False
        ids = [insts[i].video_id for i in subset]
        videos = np.stack([insts[i].video for i in subset])
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        near = mnse.mnse_do(videos, rows, bank, k, got_rng, bank.codes(ids))
        rand = mnse.random_do(videos, rows, bank, got_rng, bank.codes(ids))
        want_near = [reference_mnse_do(v, ~r, bank, k, want_rng, vid)
                     for v, r, vid in zip(videos, rows, ids)]
        want_rand = [reference_random_do(v, ~r, bank, want_rng, vid)
                     for v, r, vid in zip(videos, rows, ids)]
        np.testing.assert_array_equal(near, np.stack(want_near))
        np.testing.assert_array_equal(rand, np.stack(want_rand))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _outcome(call):
    """call()'s result, or the type and message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def _neighbors(found):
    return [(n.entry.vector.tobytes(), n.entry.video_id, n.entry.clip_index, n.score)
            for n in found] if isinstance(found, list) else found


class TestKeptColumns:
    """A bank's columns after pushes answer as a fresh bank of the live
    blocks and hold no reference back to the bank, and it keeps the one
    tuple of video ids its blocks name."""

    IDS = TestTopKProperties.IDS
    BLENDS = TestTopKProperties.BLENDS

    @staticmethod
    def _assert_same_answers(bank, fresh, queries, excludes):
        # each bank's own codes: a bank whose blocks all went names no ids
        codes, fresh_codes = bank.codes(excludes), fresh.codes(excludes)
        for got, want in zip(bank._excluded(codes), fresh._excluded(fresh_codes)):
            np.testing.assert_array_equal(got, want)
        for ex in excludes:
            np.testing.assert_array_equal(drawable(bank, ex), drawable(fresh, ex))
        for k in (1, 3):
            got = _outcome(lambda: bank.topk(queries, k, codes))
            want = _outcome(lambda: fresh.topk(queries, k, fresh_codes))
            if isinstance(want, tuple):
                assert got == want
            else:
                np.testing.assert_array_equal(got, want)
        for q, ex in zip(queries, excludes):
            query = NeighborQuery(vector=q, k=max(1, min(2, len(drawable(fresh, ex)))),
                                  exclude_video_id=ex)
            assert _neighbors(_outcome(lambda: bank.query_knn(query))) == _neighbors(
                _outcome(lambda: fresh.query_knn(query))
            )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_pushes_answer_as_a_fresh_bank_of_the_live_blocks(self, data):
        regime = data.draw(st.sampled_from([Regime.F2_DYNAMIC, Regime.F3_DYNAMIC_MIXUP]),
                           label="regime")
        metric = data.draw(st.sampled_from(list(Metric)), label="metric")
        window = data.draw(st.integers(1, 3), label="window")
        dim = data.draw(st.integers(1, 3), label="dim")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        queries = rng.normal(size=(3, dim))
        bank = MemoryBank(dim, metric=metric, regime=regime, window=window)
        live: deque[list[Scenes]] = deque(maxlen=window)
        block, video_ids = TestTopKProperties._block, TestTopKProperties._video_ids(data)
        for _ in range(data.draw(st.integers(1, 5), label="pushes")):
            if data.draw(st.booleans(), label="rank before the push"):
                _outcome(lambda: bank.topk(queries, 2, bank.codes([None] * len(queries))))
            batch = [block(data, rng, dim, self.IDS + self.BLENDS, queries, video_ids)]
            if regime is Regime.F3_DYNAMIC_MIXUP and data.draw(st.booleans(), label="mixup"):
                batch.append(block(data, rng, dim, self.BLENDS, queries, video_ids))
            bank.push_batch(*batch)
            live.append(batch)
            fresh = MemoryBank(dim, metric=metric)
            for scenes_block in (b for pushed in live for b in pushed):
                fresh.populate(scenes_block)
            assert len(bank) == len(fresh)
            assert [(e.vector.tobytes(), e.video_id, e.clip_index) for e in bank.entries()] == [
                (e.vector.tobytes(), e.video_id, e.clip_index) for e in fresh.entries()
            ]
            # a blend's name excludes nothing: no video has it
            excludes = data.draw(st.lists(st.sampled_from(self.IDS + ["a+b", None, "x"]),
                                          min_size=len(queries), max_size=len(queries)),
                                 label="excludes")
            self._assert_same_answers(bank, fresh, queries, excludes)

    def test_the_id_table_holds_each_id_once(self, rng):
        # every push brings fresh videos and blends of each with the next,
        # and one video seen in every push; every block names one tuple of
        # all the videos, which the bank keeps as given, with one code each
        bank = MemoryBank(4, regime=Regime.F3_DYNAMIC_MIXUP, window=2)
        video_ids = ("x",) + tuple(f"s{t}v{i}" for t in range(50) for i in range(2))
        for t in range(50):
            own = np.array([0, 1 + 2 * t, 2 + 2 * t])
            blends = np.c_[own[:2], own[1:]]
            bank.push_batch(mnse.stacked_scenes(rng.normal(size=(3, 2, 4)), video_ids, own),
                            mnse.stacked_scenes(rng.normal(size=(2, 2, 4)), video_ids, blends))
            live = min(t + 1, 2)
            assert len(bank) == 10 * live
            # own[1]'s two rows and the four of its two blends are not eligible
            assert len(drawable(bank, video_ids[own[1]])) == len(bank) - 6
            assert len(drawable(bank, "x")) == len(bank) - 4 * live
        assert bank._ids is video_ids
        assert bank._index == {v: i for i, v in enumerate(video_ids)}

    def test_a_dropped_bank_is_freed_by_reference_counting(self, rng):
        enabled = gc.isenabled()
        gc.disable()
        try:
            bank = MemoryBank(4, regime=Regime.F3_DYNAMIC_MIXUP, window=2)
            ids = ("a", "b")
            bank.push_batch(scenes(rng.normal(size=(3, 4)), ["a"] * 3, range(3), ids),
                            scenes(rng.normal(size=(2, 4)), [("a", "b")] * 2, range(2), ids))
            bank.topk(rng.normal(size=(2, 4)), 2, bank.codes(["b", "b"]))
            ref = weakref.ref(bank)
            del bank
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestFeatureMajorLayout:
    """The bank keeps its scenes feature-major, yet every row norm, cosine
    key and L2 key equals, bit for bit, one computed from a row-major,
    C-ordered copy of its scenes, and a row's keys do not depend on the
    rows ranked with it. Norms and L2 keys are NumPy reductions over
    C-ordered rows on any bank. Cosine keys come from a BLAS matrix
    product, whose kernels may differ in the last bit between shapes;
    they are pinned on banks of whole 8-clip videos, as the CLI's data
    builds, at dims up to 24 (OpenBLAS with AVX-512 kernels differs, for
    instance, at a bank size of 1 to 4 modulo 8 from dim 16 up)."""

    IDS = ["v0", "v1", "v2", "v3", "v4"]

    @classmethod
    def _bank(cls, data, rng, metric, dim, n_clips):
        """A bank built through populate, or pushes that evict (window 2)
        with f3 blends, from stacked_scenes blocks or row-major copies."""
        regime = data.draw(st.sampled_from(list(Regime)), label="regime")
        bank = MemoryBank(dim, metric=metric, regime=regime, window=2)
        video_ids = tuple(cls.IDS)

        def block(codes, parents=None):
            videos = rng.normal(size=(len(codes), n_clips, dim))
            stacked = mnse.stacked_scenes(videos, video_ids, codes if parents is None else parents)
            if data.draw(st.booleans(), label="row-major block"):
                return stacked._replace(matrix=np.ascontiguousarray(stacked.matrix))
            return stacked

        for _ in range(data.draw(st.integers(1, 4), label="calls")):
            ids = data.draw(st.lists(st.sampled_from(cls.IDS), min_size=1, max_size=5), label="ids")
            codes = np.array([video_ids.index(v) for v in ids])
            if regime is Regime.F1_STATIC:
                bank.populate(block(codes))
            elif regime is Regime.F3_DYNAMIC_MIXUP and data.draw(st.booleans(), label="blends"):
                # video j blended with video len(ids) - 1 - j
                bank.push_batch(block(codes), block(codes, np.c_[codes, codes[::-1]]))
            else:
                bank.push_batch(block(codes))
        return bank

    @staticmethod
    def _reference_scores(rows, queries, metric):
        """Every scene's score for each query row, from C-ordered rows."""
        if metric is Metric.L2:
            return np.linalg.norm(rows[None] - queries[:, None], axis=2)
        keys = np.multiply.outer(-np.linalg.norm(queries, axis=1), np.linalg.norm(rows, axis=1))
        return -((queries @ rows.T) / keys)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_norms_and_keys_equal_a_row_major_copys(self, data):
        metric = data.draw(st.sampled_from(list(Metric)), label="metric")
        if metric is Metric.L2:
            dim, n_clips = data.draw(st.integers(1, 40), label="dim"), data.draw(st.integers(1, 9))
        else:
            dim, n_clips = data.draw(st.sampled_from([9, 16, 24]), label="dim"), 8
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        bank = self._bank(data, rng, metric, dim, n_clips)
        rows = np.stack([e.vector for e in bank.entries()])
        assert rows.flags.c_contiguous and bank._columns.flags.c_contiguous
        assert bank._columns.shape == (dim, len(bank))
        assert bank._norms.tobytes() == np.linalg.norm(rows, axis=1).tobytes()
        queries = rng.normal(size=(data.draw(st.integers(2, 6), label="queries"), dim))
        top, scores = scored_ranking(bank, queries, len(bank), [None] * len(queries))
        want = np.take_along_axis(self._reference_scores(rows, queries, metric), top, axis=1)
        assert scores.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_rows_keys_do_not_depend_on_the_rows_ranked_with_it(self, data):
        metric = data.draw(st.sampled_from(list(Metric)), label="metric")
        dim = data.draw(st.sampled_from([9, 16, 24]), label="dim")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        bank = self._bank(data, rng, metric, dim, 8)
        n_queries = data.draw(st.integers(2, 9), label="queries")
        queries = rng.normal(size=(n_queries, dim))
        excludes = data.draw(st.lists(st.sampled_from(self.IDS[:2] + [None, "absent"]),
                                      min_size=n_queries, max_size=n_queries), label="excludes")
        k = data.draw(st.integers(1, len(bank)), label="k")
        split = data.draw(st.integers(1, n_queries - 1), label="split")
        per_chunk = data.draw(st.sampled_from([None, 1, 2, 3]), label="rows per chunk")
        chunk = mnse.RANK_CHUNK if per_chunk is None else (
            len(bank) * per_chunk * (dim if metric is Metric.L2 else 1))
        with mock.patch.object(mnse, "RANK_CHUNK", chunk):
            whole = _outcome(lambda: scored_ranking(bank, queries, k, excludes))
            if isinstance(whole[0], type):
                return  # a row with nothing eligible raises in either form
            halves = [scored_ranking(bank, queries[rows], k, excludes[rows])
                      for rows in (slice(None, split), slice(split, None))]
        entries = bank.entries()
        for i, (top, scores) in enumerate(zip(*whole)):
            part_top, part_scores = halves[i >= split]
            at = i if i < split else i - split
            m = int((top >= 0).sum())
            assert np.array_equal(part_top[at][:m], top[:m])
            assert part_scores[at][:m].tobytes() == scores[:m].tobytes()
            # query_knn ranks its one row alone: best first, ties in tie-rank order
            query = NeighborQuery(vector=queries[i], k=m, exclude_video_id=excludes[i])
            got = bank.query_knn(query)
            best = np.argsort(-scores[:m] if metric is Metric.COSINE else scores[:m], kind="stable")
            assert [(n.entry.video_id, n.entry.clip_index) for n in got] == _ids(
                entries[j] for j in top[best])
            assert np.array([n.score for n in got]).tobytes() == scores[best].tobytes()

    def test_a_ranking_peaks_below_the_protocols_uniform_pools(self):
        # the intervene-eval geometry: 600 videos of 8 clips at dim 24; the
        # protocol ranks 4 rows of each of 20 videos at k = 200. The bound
        # is the tracemalloc peak of the same 20 videos' padded uniform
        # pools, which the protocol built until uniform draws were read off
        # the exclusion index: 1,807,432 B, the least of three calls on
        # this bank (Python 3.11.7, NumPy 2.4.6); the ranking then peaked
        # at 1,376,799 B
        rng = np.random.default_rng(0)
        videos = rng.normal(size=(600, 8, 24))
        ids = [f"v{i:03d}" for i in range(600)]
        bank = MemoryBank(24).populate(mnse.stacked_scenes(videos, ids)).freeze()
        queries = videos[:20, :4].reshape(80, 24)
        excludes = bank.codes([v for v in ids[:20] for _ in range(4)])
        bank.topk(queries[:2], 200, excludes[:2])  # derive norms, ties and the exclusion index

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ranking = peak(lambda: bank.topk(queries, 200, excludes))
        pools = 1_807_432
        assert ranking <= pools, f"ranking peaked at {ranking} B, the pools at {pools} B"


class TestParentCodes:
    """Scenes carry integer parents: a plain scene one, a blend two, and
    the bank names a blend "a+b" only to list and order it."""

    def test_ties_follow_joined_names_not_parent_tuples(self, rng):
        # ' ' and '*' sort below '+': "a" < "a b" < "a*" < "a+b", while the
        # parent tuple ("a", "b") would sort before ("a b",)
        v = rng.normal(size=4)
        bank = MemoryBank(4).populate(scenes(
            [v, v, v, v, -v], [("a", "b"), "a*", "a b", "a", "b"], [0] * 5))
        (top,) = bank.topk(v[None], 4, bank.codes([None]))
        assert [bank.entries()[i].video_id for i in top] == ["a", "a b", "a*", "a+b"]
        got = bank.query_knn(NeighborQuery(vector=v, k=4))
        assert [n.entry.video_id for n in got] == ["a", "a b", "a*", "a+b"]

    def test_a_self_blend_is_listed_once_and_excluded_by_its_video(self, rng):
        bank = MemoryBank(4).populate(
            scenes(rng.normal(size=(3, 4)), ["a", ("a", "a"), "b"], [0, 0, 0]))
        assert [e.video_id for e in bank.entries()] == ["a", "a+a", "b"]
        rows, starts = bank._part_rows
        (code,) = bank.codes(["a"])
        assert list(rows[starts[code] : starts[code + 1]]) == [0, 1]
        assert len(rows) == 3
        assert list(bank.eligible_counts(bank.codes(["a", "b", None]))) == [1, 2, 3]
        assert list(drawable(bank, "a")) == [2]
        assert bank.topk(rng.normal(size=(1, 4)), 3, bank.codes(["a"])).tolist() == [[2]]

    def test_stacked_scenes_repeat_each_videos_parents_over_its_clips(self, rng):
        block = mnse.stacked_scenes(rng.normal(size=(2, 3, 4)), ["a", "b"], [[0, 1], [1, 1]])
        assert block.codes.tolist() == [[0, 1]] * 3 + [[1, 1]] * 3
        assert block.clips.tolist() == [0, 1, 2] * 2
        bank = MemoryBank(4).populate(block)
        assert [e.video_id for e in bank.entries()] == ["a+b"] * 3 + ["b+b"] * 3

    @pytest.mark.parametrize("codes", [
        [[0, 2]],  # a second parent outside the video ids
        [[2, -1]],  # a first parent outside them
        [[-1, 0]],  # a first parent of -1
        [[0, -2]],
    ])
    def test_parents_outside_the_video_ids_are_refused(self, codes):
        bank = MemoryBank(2)
        with pytest.raises(ValueError, match="outside the 2 video ids"):
            bank.populate(Scenes(np.ones((1, 2)), ["a", "b"], np.array(codes), np.zeros(1)))
        assert len(bank) == 0

    @pytest.mark.parametrize("codes, clips", [
        (np.zeros((1, 3), dtype=np.int64), np.zeros(1)),  # three parents
        (np.zeros((2, 2), dtype=np.int64), np.zeros(1)),  # more codes than rows
        (np.zeros((1, 2), dtype=np.int64), np.zeros(2)),  # more clips than rows
        (np.zeros((1, 1, 2), dtype=np.int64), np.zeros(1)),
    ])
    def test_a_shape_mismatch_is_refused(self, codes, clips):
        with pytest.raises(ValueError, match="scene matrix shape"):
            MemoryBank(2).populate(Scenes(np.ones((1, 2)), ["a", "b"], codes, clips))

    def test_a_non_finite_blend_is_named_by_its_parents(self):
        bank = MemoryBank(2, regime=Regime.F3_DYNAMIC_MIXUP)
        with pytest.raises(ValueError, match=r"^scene vector for a\+b:1 is non-finite$"):
            bank.push_batch(scenes(np.ones((1, 2)), ["a"], [0], ("a", "b")),
                            scenes([[1.0, 1.0], [np.inf, 0.0]], [("a", "b")] * 2, [0, 1]))
        assert len(bank) == 0


class TestOneIdTuple:
    """Every block of a bank names one tuple of video ids, and a draw
    excludes a video by its code, the id's index in that tuple."""

    @staticmethod
    def _block(ids, rows=1):
        return scenes(np.ones((rows, 2)), [ids[0]] * rows, range(rows), ids)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_a_block_naming_other_video_ids_is_refused(self, regime):
        bank = MemoryBank(2, regime=regime)
        add = bank.populate if regime is Regime.F1_STATIC else bank.push_batch
        ids = ("a", "b")
        add(self._block(ids))
        for other in (("b", "a"), ("a", "b", "c"), ("a",)):
            with pytest.raises(ValueError, match="^a block names other video ids"):
                add(self._block(other))
        assert len(bank) == 1
        # the same ids as a new tuple or a list, and a block without rows
        # naming other ids, are taken; the bank keeps its first tuple
        for same in (tuple(["a", "b"]), ["a", "b"]):
            add(self._block(same))
        add(self._block(("z",), rows=0))
        assert len(bank) == 3 and bank._ids is ids

    def test_a_push_whose_blocks_name_two_tuples_changes_nothing(self):
        bank = MemoryBank(2, regime=Regime.F3_DYNAMIC_MIXUP)
        with pytest.raises(ValueError, match="^a block names other video ids"):
            bank.push_batch(self._block(("a", "b")), self._block(("b", "a")))
        assert len(bank) == 0 and bank._ids == () and bank._index == {}
        bank.push_batch(self._block(("b", "a")))
        assert bank._ids == ("b", "a") and bank._index == {"b": 0, "a": 1}

    def test_repeated_video_ids_are_refused(self):
        bank = MemoryBank(2)
        with pytest.raises(ValueError, match="^a block's video ids repeat$"):
            bank.populate(self._block(("a", "b", "a")))
        assert len(bank) == 0 and bank._ids == ()

    def test_codes_map_none_and_unknown_ids_to_exclude_nothing(self, rng):
        empty = MemoryBank(2)
        assert empty.codes([None, "a"]).tolist() == [0, 0]
        assert empty.eligible_counts(empty.codes([None, "a"])).tolist() == [0, 0]
        ids = ("a", "b", "c")
        bank = MemoryBank(2, regime=Regime.F3_DYNAMIC_MIXUP).push_batch(
            scenes(rng.normal(size=(4, 2)), ["a", "b", "c", "c"], [0, 0, 0, 1], ids),
            scenes(rng.normal(size=(2, 2)), [("a", "b"), ("c", "c")], [0, 0], ids),
        )
        excludes = [None, "absent", "a+b", "c", "a", "b"]
        codes = bank.codes(excludes)
        assert codes.tolist() == [3, 3, 3, 2, 0, 1]
        assert bank.codes(ids).tolist() == bank.codes(list(ids)).tolist() == [0, 1, 2]
        pools = [reference_pool(bank, ex) for ex in excludes]
        assert bank.eligible_counts(codes).tolist() == [6, 6, 6, 3, 4, 4]
        assert bank.eligible_counts(codes).tolist() == [len(pool) for pool in pools]
        eligible = bank.candidates(codes)
        for i, pool in enumerate(pools):
            assert eligible.nth(np.full(len(pool), i), np.arange(len(pool))).tolist() == list(pool)
        with pytest.raises(ValueError, match="not a string"):
            bank.codes("a")
        for bad in ([-1], [4], [[0]]):
            for call in (bank.eligible_counts, bank.candidates,
                         lambda c: bank.topk(np.ones((len(c), 2)), 1, c)):
                with pytest.raises(ValueError, match=r"codes in \[0, 3\]|one exclude code"):
                    call(bad)
