from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalvqa import nn_core as nc
from gradcheck import assert_grad_matches


# (name, shape, fan_in) layouts: distinct names, shapes with zero-size dims,
# fan_in None (a zero tensor) or an int
LAYOUTS = st.lists(
    st.tuples(
        st.text("abc.", min_size=1, max_size=4),
        st.lists(st.integers(0, 4), max_size=3).map(tuple),
        st.none() | st.integers(1, 50),
    ),
    max_size=6,
    unique_by=lambda entry: entry[0],
)

# values a max must pass through exactly: NaN (np.nan's sign), both
# infinities and both zeros
SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
AXIS_LENGTHS = [1, 5, 8, 16]
# and the lengths at which NumPy's pairwise sum of a row changes branch:
# below 8 values in order, eight lanes up to 128, halves above
SUM_LENGTHS = sorted(AXIS_LENGTHS + [7, 9, 15, 17, 128, 129, 136, 257])


def with_specials(rng, shape, share):
    """Normal draws of shape with about share of them replaced by SPECIALS;
    share None draws only +-0.0."""
    if share is None:
        return rng.choice([0.0, -0.0], size=shape)
    x = rng.normal(size=shape)
    hit = rng.random(shape) < share
    x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return x


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits_but_nan_signs(a, b) -> bool:
    """same_bits, but for the sign and payload of a NaN: which of two NaNs
    an addition passes on follows NumPy's code path for the array's size
    (a scalar, a short or a long loop), not the order of the sum."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(nan, np.isnan(b))
            and same_bits(np.where(nan, 0.0, a), np.where(nan, 0.0, b)))


def np_max(x, axis=-1):
    """The max the numerics took before axis_max."""
    return np.max(x, axis=axis, keepdims=True)


class TestParamStore:
    def test_seeded_init_is_deterministic(self):
        a = nc.ParamStore([("w", (4, 3), 4)], seed=7)
        b = nc.ParamStore([("w", (4, 3), 4)], seed=7)
        np.testing.assert_array_equal(a["w"], b["w"])
        c = nc.ParamStore([("w", (4, 3), 4)], seed=8)
        assert not np.array_equal(a["w"], c["w"])

    def test_init_respects_fan_in_bound(self):
        s = nc.ParamStore([("w", (100, 50), 100)], seed=0)
        assert np.all(np.abs(s["w"]) <= 1.0 / math.sqrt(100))

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            nc.ParamStore([("w", (2, 2), 2), ("w", (2, 2), 2)])
        with pytest.raises(ValueError):
            nc.ParamStore([("w", (2, 2), 2), ("w", (2, 2), None)])

    @settings(max_examples=200, deadline=None)
    @given(layout=LAYOUTS, seed=st.integers(0, 2**32 - 1))
    def test_store_matches_a_scalar_reference(self, layout, seed):
        s = nc.ParamStore(layout, seed)
        rng = np.random.default_rng(seed)
        for name, shape, fan_in in layout:
            want = np.zeros(shape)
            if fan_in is not None:
                bound = 1.0 / math.sqrt(fan_in)
                for idx in np.ndindex(shape):
                    want[idx] = rng.uniform(-bound, bound)
            assert s[name].tobytes() == want.tobytes() and s[name].shape == shape, name
            assert not s.grad(name).any() and s.grad(name).shape == shape, name
        sizes = [math.prod(shape) for _, shape, _ in layout]
        assert s.flat_params.size == s.flat_grads.size == sum(sizes)
        assert s.names() == sorted(name for name, _, _ in layout)
        # every tensor and gradient is a view of the flat buffers, in layout order
        s.flat_params[...] = np.arange(sum(sizes))
        s.flat_grads[...] = -np.arange(sum(sizes))
        start = 0
        for (name, _, _), size in zip(layout, sizes):
            np.testing.assert_array_equal(s[name].ravel(), np.arange(start, start + size))
            np.testing.assert_array_equal(s.grad(name).ravel(), -np.arange(start, start + size))
            if size:
                assert np.shares_memory(s[name], s.flat_params), name
                assert np.shares_memory(s.grad(name), s.flat_grads), name
            start += size

    def test_grad_accumulate_and_zero(self):
        s = nc.ParamStore([("w", (2, 2), 2)], seed=0)
        s.accumulate("w", np.ones((2, 2)))
        s.accumulate("w", np.ones((2, 2)))
        np.testing.assert_array_equal(s.grad("w"), 2 * np.ones((2, 2)))
        s.zero_grads()
        np.testing.assert_array_equal(s.grad("w"), np.zeros((2, 2)))


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        y, _ = nc.linear_forward(x, w, b)
        np.testing.assert_allclose(y, x @ w + b)

    def test_dim_mismatch_raises(self, rng):
        with pytest.raises(nc.DimMismatch):
            nc.linear_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 3)])
    def test_bias_added_in_place_is_x_at_w_plus_b_bit_for_bit(self, rng, shape):
        x, w, b = rng.normal(size=shape), rng.normal(size=(3, 5)), rng.normal(size=5)
        assert same_bits(nc.linear_forward(x, w, b)[0], x @ w + b)

    def test_gradients(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        probe = rng.normal(size=(4, 5))

        def loss():
            y, _ = nc.linear_forward(x, w, b)
            return float((y * probe).sum())

        _, cache = nc.linear_forward(x, w, b)
        dx, dw, db = nc.linear_backward(probe, cache)
        assert_grad_matches(loss, x, dx, rng, "x")
        assert_grad_matches(loss, w, dw, rng, "w")
        assert_grad_matches(loss, b, db, rng, "b")


    def test_leading_axes_sum_weight_gradients(self, rng):
        x = rng.normal(size=(2, 4, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        probe = rng.normal(size=(2, 4, 5))

        def loss():
            y, _ = nc.linear_forward(x, w, b)
            return float((y * probe).sum())

        y, cache = nc.linear_forward(x, w, b)
        np.testing.assert_array_equal(y[1], nc.linear_forward(x[1], w, b)[0])
        dx, dw, db = nc.linear_backward(probe, cache)
        assert_grad_matches(loss, x, dx, rng, "x")
        assert_grad_matches(loss, w, dw, rng, "w")
        assert_grad_matches(loss, b, db, rng, "b")


class TestAxisMax:
    """axis_max against np.max(..., keepdims=True), compared by bits: NaN,
    +-inf and +-0.0 must come out as np.max's, not merely equal."""

    @pytest.mark.parametrize("share", [0.05, 0.4, 1.0, None])
    @pytest.mark.parametrize("length", AXIS_LENGTHS)
    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
    def test_is_np_max_bit_for_bit_on_any_axis(self, rng, lead, length, share):
        for at in range(len(lead) + 1):
            shape = lead[:at] + (length,) + lead[at:]
            for _ in range(10):
                x = with_specials(rng, shape, share)
                for axis in (at, at - len(shape)):
                    assert same_bits(nc.axis_max(x, axis), np_max(x, axis)), (shape, axis, x)

    @pytest.mark.parametrize("length", SUM_LENGTHS)
    def test_softmax_is_the_max_subtraction_formula_bit_for_bit(self, rng, length):
        def formula(x, axis):
            shifted = x - np.max(x, axis=axis, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=axis, keepdims=True)

        for share in (0.0, 0.1, None):
            for axis in (0, 1, 2, -1):
                shape = [3, 2, 4]
                shape[axis] = length
                x = with_specials(rng, tuple(shape), share)
                with np.errstate(invalid="ignore"):
                    assert same_bits(nc.softmax(x, axis), formula(x, axis))

    @pytest.mark.parametrize("length", SUM_LENGTHS)
    def test_softmax_backward_is_the_formula_bit_for_bit(self, rng, length):
        def formula(dy, y, axis):
            return y * (dy - (dy * y).sum(axis, keepdims=True))

        for share in (0.0, 0.1, None):
            for axis in (0, 1, 2, -1):
                shape = [3, 2, 4]
                shape[axis] = length
                dy, y = (with_specials(rng, tuple(shape), share) for _ in range(2))
                with np.errstate(invalid="ignore"):
                    got, want = nc.softmax_backward(dy, y, axis), formula(dy, y, axis)
                assert same_bits_but_nan_signs(got, want), (shape, axis)

    @pytest.mark.parametrize("length", SUM_LENGTHS)
    def test_cross_entropy_is_the_np_max_formula_bit_for_bit(self, rng, length):
        # finite logits only (it rejects others), zeros of both signs
        for share in (0.0, 0.5, None):
            z = with_specials(rng, (6, length), share)
            z[~np.isfinite(z)] = 0.0
            z[0] *= 1e300
            gold = rng.integers(0, length, size=6)
            got = nc.softmax_cross_entropy(z, gold)
            with mock.patch.object(nc, "axis_max", np_max):
                want = nc.softmax_cross_entropy(z, gold)
            assert all(map(same_bits, got, want))


class TestPairwiseSum:
    @pytest.mark.parametrize("share", [0.0, 0.1, None])
    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
    def test_is_np_sum_of_c_ordered_rows_bit_for_bit(self, rng, lead, share):
        for length in list(range(0, 41)) + [64, 127, 128, 129, 136, 200, 257, 300]:
            rows = with_specials(rng, lead + (length,), share) * rng.uniform(1e-3, 1e3)
            lanes = np.moveaxis(rows, -1, 0).copy()
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = nc.pairwise_sum(lanes), rows.sum(axis=-1)
                squares = nc.pairwise_sum(lanes, np.square), np.square(rows).sum(axis=-1)
            assert same_bits_but_nan_signs(got, want), length
            assert same_bits_but_nan_signs(*squares), length
            # np.sum adds a row's sum to 0.0, so -0.0 alone sums to +0.0
            zeros = np.full(lead + (length,), -0.0)
            assert same_bits(nc.pairwise_sum(np.moveaxis(zeros, -1, 0)), zeros.sum(axis=-1))


class TestSoftmax:
    def test_uniform_input_gives_uniform_output(self):
        y = nc.softmax(np.zeros(5))
        np.testing.assert_allclose(y, np.full(5, 0.2))

    def test_large_logits_are_stable(self):
        y = nc.softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y.sum(), 1.0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, vals, shift):
        x = np.array(vals)
        y = nc.softmax(x)
        assert abs(float(y.sum()) - 1.0) < 1e-9
        np.testing.assert_allclose(nc.softmax(x + shift), y, atol=1e-9)

    def test_backward(self, rng):
        x = rng.normal(size=(3, 6))
        probe = rng.normal(size=(3, 6))

        def loss():
            return float((nc.softmax(x) * probe).sum())

        y = nc.softmax(x)
        dx = nc.softmax_backward(probe, y)
        assert_grad_matches(loss, x, dx, rng, "x")


class TestLayerNorm:
    def test_output_is_normalized(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(5, 16))
        y, _ = nc.layer_norm_forward(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_gradients(self, rng):
        x = rng.normal(size=(4, 8))
        gamma = rng.normal(size=8)
        beta = rng.normal(size=8)
        probe = rng.normal(size=(4, 8))

        def loss():
            y, _ = nc.layer_norm_forward(x, gamma, beta)
            return float((y * probe).sum())

        _, cache = nc.layer_norm_forward(x, gamma, beta)
        dx, dgamma, dbeta = nc.layer_norm_backward(probe, cache)
        assert_grad_matches(loss, x, dx, rng, "x")
        assert_grad_matches(loss, gamma, dgamma, rng, "gamma")
        assert_grad_matches(loss, beta, dbeta, rng, "beta")


def test_relu_gradient(rng):
    x = rng.normal(size=(5, 7))
    probe = rng.normal(size=(5, 7))

    def loss():
        y, _ = nc.relu_forward(x)
        return float((y * probe).sum())

    _, mask = nc.relu_forward(x)
    dx = nc.relu_backward(probe, mask)
    assert_grad_matches(loss, x, dx, rng, "x")


class TestAttention:
    def _setup(self, rng, dim=16, n_heads=4):
        store = nc.ParamStore(nc.mha_layout("attn", dim), seed=11)
        x = rng.normal(size=(5, dim))
        return store, x

    def test_output_shape(self, rng):
        store, x = self._setup(rng)
        out, (*_, attn) = nc.mha_forward(x, store, "attn", 4)
        assert out.shape == (5, 16)
        assert attn.shape == (4, 5, 5)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_single_key_output_ignores_query_content(self, rng):
        """single_key_forward equals multi-head attention of any queries
        into one key row, computed in full with its query and key
        projections, and its gradients pass finite differences."""
        store, q = self._setup(rng)
        kv = rng.normal(size=(1, 16))
        p = {nm: store[f"attn.{nm}"] for nm in nc.MHA_PARAMS}
        out, cache = nc.single_key_forward(kv, store, "attn")
        assert out.shape == (1, 16)

        def heads(t):  # [rows, 16] -> [4 heads, rows, 4]
            return t.reshape(len(t), 4, 4).swapaxes(0, 1)

        for queries in (q, rng.normal(size=(3, 16))):
            scores = heads(queries @ p["wq"] + p["bq"]) @ heads(kv @ p["wk"]).swapaxes(1, 2)
            attn = nc.softmax(scores / 2.0)
            ctx = (attn @ heads(kv @ p["wv"] + p["bv"])).swapaxes(0, 1).reshape(len(queries), 16)
            np.testing.assert_allclose(ctx @ p["wo"] + p["bo"], np.broadcast_to(out, queries.shape),
                                       atol=1e-12)
        probe = rng.normal(size=(5, 16))

        def loss():
            return float((nc.single_key_forward(kv, store, "attn")[0] * probe).sum())

        store.zero_grads()
        dkv = nc.single_key_backward(probe, cache, store)
        assert_grad_matches(loss, kv, dkv, rng, "kv_in")
        for nm in nc.SINGLE_KEY_PARAMS:
            full = f"attn.{nm}"
            assert_grad_matches(loss, store[full], store.grad(full), rng, full)
        assert not store.grad("attn.wq").any() and not store.grad("attn.wk").any()

    def test_permuting_rows_permutes_outputs(self, rng):
        store, x = self._setup(rng)
        out, _ = nc.mha_forward(x, store, "attn", 4)
        perm = rng.permutation(5)
        out_p, _ = nc.mha_forward(x[perm], store, "attn", 4)
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_dim_mismatch_raises(self, rng):
        store, x = self._setup(rng)
        with pytest.raises(nc.DimMismatch):
            nc.mha_forward(x[:, :8], store, "attn", 4)
        with pytest.raises(nc.DimMismatch):
            nc.mha_forward(x, store, "attn", 3)

    def test_gradients_all_tensors(self, rng):
        store, x = self._setup(rng)
        probe = rng.normal(size=(5, 16))

        def loss():
            out, _ = nc.mha_forward(x, store, "attn", 4)
            return float((out * probe).sum())

        store.zero_grads()
        _, cache = nc.mha_forward(x, store, "attn", 4)
        dx = nc.mha_backward(probe, cache, store)
        assert_grad_matches(loss, x, dx, rng, "x_in")
        for nm in nc.MHA_PARAMS:
            full = f"attn.{nm}"
            assert_grad_matches(loss, store[full], store.grad(full), rng, full)

    def test_leading_axes_match_per_slice_calls(self, rng):
        store, _ = self._setup(rng)
        x = rng.normal(size=(3, 5, 16))
        probe = rng.normal(size=(3, 5, 16))

        def loss():
            out, _ = nc.mha_forward(x, store, "attn", 4)
            return float((out * probe).sum())

        out, cache = nc.mha_forward(x, store, "attn", 4)
        *_, attn = cache
        assert attn.shape == (3, 4, 5, 5)
        for i in range(3):
            np.testing.assert_array_equal(out[i], nc.mha_forward(x[i], store, "attn", 4)[0])
        store.zero_grads()
        dx = nc.mha_backward(probe, cache, store)
        assert_grad_matches(loss, x, dx, rng, "x_in")
        for full in ("attn.wv", "attn.bo"):
            assert_grad_matches(loss, store[full], store.grad(full), rng, full)

    def test_identity_projections_give_hand_computed_softmax(self):
        d = 3
        store = nc.ParamStore((name, shape, None) for name, shape, _ in nc.mha_layout("attn", d))
        for nm in ("wq", "wk", "wv", "wo"):
            store[f"attn.{nm}"][...] = np.eye(d)
        x = np.eye(d)  # orthonormal one-hot rows
        out, (*_, attn) = nc.mha_forward(x, store, "attn", 1)
        scale = 1.0 / math.sqrt(d)
        # brute-force softmax of the score matrix x @ x.T * scale == I * scale
        diag = math.exp(scale) / (math.exp(scale) + (d - 1))
        off = 1.0 / (math.exp(scale) + (d - 1))
        expect = np.full((d, d), off) + np.eye(d) * (diag - off)
        np.testing.assert_allclose(attn[0], expect, atol=1e-12)
        np.testing.assert_allclose(out, expect @ x, atol=1e-12)
        # non-orthogonal rows break the within-row off-diagonal uniformity
        x2 = x.copy()
        x2[0] = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        _, (*_, attn2) = nc.mha_forward(x2, store, "attn", 1)
        attn2 = attn2[0]
        assert abs(attn2[1, 0] - attn2[1, 2]) > 1e-3
        # unequal norms break the uniformity across rows
        x3 = x.copy()
        x3[0] *= 2.0
        _, (*_, attn3) = nc.mha_forward(x3, store, "attn", 1)
        attn3 = attn3[0]
        assert abs(attn3[0, 1] - attn3[1, 2]) > 1e-3


class TestCosine:
    def test_identical_vectors_give_one(self, rng):
        v = rng.normal(size=12)
        res = nc.cosine_forward(v, v)[0]
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert not res.degenerate

    def test_known_geometry(self):
        assert nc.cosine_forward([1.0, 0.0], [0.0, 1.0])[0].value == pytest.approx(0.0)
        assert nc.cosine_forward([1.0, 0.0], [-2.0, 0.0])[0].value == pytest.approx(-1.0)
        assert nc.cosine_forward([3.0, 0.0], [5.0, 0.0])[0].value == pytest.approx(1.0)
        got = nc.cosine_forward([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])[0].value
        expect = 32.0 / math.sqrt(14.0 * 77.0)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.9746318, abs=1e-7)

    def test_zero_norm_is_degenerate_zero(self):
        res = nc.cosine_forward(np.zeros(4), np.ones(4))[0]
        assert res.value == 0.0
        assert res.degenerate

    def test_scale_invariance(self, rng):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        r1 = nc.cosine_forward(a, b)[0].value
        r2 = nc.cosine_forward(3.7 * a, 0.2 * b)[0].value
        assert r1 == pytest.approx(r2, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_value_always_in_unit_interval(self, seed):
        g = np.random.default_rng(seed)
        a = g.normal(size=5) * 10.0 ** g.integers(-6, 6)
        b = g.normal(size=5) * 10.0 ** g.integers(-6, 6)
        res = nc.cosine_forward(a, b)[0]
        assert -1.0 <= res.value <= 1.0

    def test_gradients(self, rng):
        a = rng.normal(size=9)
        b = rng.normal(size=9)

        def loss():
            res, _ = nc.cosine_forward(a, b)
            return res.value

        _, cache = nc.cosine_forward(a, b)
        da, db = nc.cosine_backward(1.0, cache)
        assert_grad_matches(loss, a, da, rng, "a")
        assert_grad_matches(loss, b, db, rng, "b")

    def test_degenerate_backward_is_zero(self):
        _, cache = nc.cosine_forward(np.zeros(3), np.ones(3))
        da, db = nc.cosine_backward(1.0, cache)
        np.testing.assert_array_equal(da, np.zeros(3))
        np.testing.assert_array_equal(db, np.zeros(3))


    def test_rows_match_vector_calls(self, rng):
        a = rng.normal(size=(3, 4, 6))
        b = rng.normal(size=(3, 4, 6))
        b[2, 1] = 0.0
        res, cache = nc.cosine_forward(a, b)
        assert res.value.shape == res.degenerate.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                one = nc.cosine_forward(a[i, j], b[i, j])[0]
                assert res.value[i, j] == one.value
                assert res.degenerate[i, j] == one.degenerate
        assert res.value[2, 1] == 0.0 and res.degenerate.sum() == 1
        probe = rng.normal(size=(3, 4))

        def loss():
            r, _ = nc.cosine_forward(a, b)
            return float((r.value * probe).sum())

        da, db = nc.cosine_backward(probe, cache)
        np.testing.assert_array_equal(db[2, 1], 0.0)
        assert_grad_matches(loss, a, da, rng, "a")
        assert_grad_matches(loss, b, db, rng, "b")


class TestCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        loss, _ = nc.softmax_cross_entropy(np.zeros(5), gold=2)
        assert loss == pytest.approx(math.log(5.0), abs=1e-12)

    def test_gradient_is_softmax_minus_onehot(self, rng):
        z = rng.normal(size=5)
        loss, grad = nc.softmax_cross_entropy(z, gold=3)
        expect = nc.softmax(z)
        expect[3] -= 1.0
        np.testing.assert_allclose(grad, expect, atol=1e-12)

        def f():
            val, _ = nc.softmax_cross_entropy(z, gold=3)
            return val

        assert_grad_matches(f, z, grad, rng, "logits")

    def test_confident_correct_gives_small_loss(self):
        z = np.array([10.0, -10.0, -10.0])
        loss, _ = nc.softmax_cross_entropy(z, gold=0)
        assert loss < 1e-8

    def test_large_logits_are_stable(self):
        loss, grad = nc.softmax_cross_entropy(np.array([1e5, 0.0]), gold=1)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_rows_match_vector_calls(self, rng):
        z = rng.normal(size=(4, 5)) * 3.0
        gold = np.array([0, 4, 2, 2])
        loss, grad = nc.softmax_cross_entropy(z, gold)
        assert loss.shape == (4,)
        for i in range(4):
            one_loss, one_grad = nc.softmax_cross_entropy(z[i], int(gold[i]))
            assert loss[i] == pytest.approx(one_loss, abs=1e-15)
            np.testing.assert_array_equal(grad[i], one_grad)
        with pytest.raises(nc.DimMismatch):
            nc.softmax_cross_entropy(z, gold[:3])

    def test_gold_out_of_range_raises(self):
        with pytest.raises(IndexError):
            nc.softmax_cross_entropy(np.zeros(5), gold=5)


class TestKlDivergence:
    def test_identical_distributions_give_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert nc.kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        expect = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert nc.kl_divergence(p, q) == pytest.approx(expect, abs=1e-12)

    def test_support_violation_is_infinite(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert nc.kl_divergence(p, q) == math.inf

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            nc.kl_divergence(np.array([0.7, 0.7]), np.array([0.5, 0.5]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        g = np.random.default_rng(seed)
        p = g.dirichlet(np.ones(4))
        q = g.dirichlet(np.ones(4))
        assert nc.kl_divergence(p, q) >= -1e-12
