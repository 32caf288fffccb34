import math
import weakref

import numpy as np
import pytest

from tijepa import numerics as numerics_module
from tijepa.errors import NumericalError, ShapeError
from tijepa.numerics import (
    AttentionParams,
    Tensor,
    active_tape,
    add,
    attention,
    backward,
    block_distance,
    check_gradients,
    cross_entropy_logits,
    gather_rows,
    gradient_suite,
    layer_norm,
    linear,
    matmul,
    mlp,
    no_grad,
)


def t(data, requires_grad=False, dtype=np.float32):
    return Tensor(np.array(data), requires_grad, dtype=dtype)


class TestTensor:
    def test_shape_matches_data(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        assert x.shape == (2, 2)
        assert x.size == 4
        assert x.dtype == np.float32

    def test_grad_starts_empty(self):
        assert t([1.0], requires_grad=True).grad is None

    def test_nan_rejected(self):
        with pytest.raises(NumericalError):
            Tensor([1.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(NumericalError):
            Tensor([float("inf")])


class TestMatmul:
    def test_identity(self):
        eye = t([[1.0, 0.0], [0.0, 1.0]])
        a = t([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(matmul(eye, a).data, a.data)
        np.testing.assert_array_equal(matmul(a, eye).data, a.data)

    def test_hand_arithmetic(self):
        out = matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (5, 7)).astype(np.float32)
        b = rng.uniform(-1, 1, (7, 3)).astype(np.float32)
        expected = np.zeros((5, 3), dtype=np.float64)
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    expected[i, j] += float(a[i, k]) * float(b[k, j])
        out = matmul(t(a), t(b)).data
        assert np.abs(out - expected).max() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t([[1.0, 2.0]]), t([[1.0, 2.0]]))


class TestLayerNorm:
    def test_constant_row_collapses_to_zero(self):
        out = layer_norm(t([[5.0, 5.0, 5.0]]), t([1.0, 1.0, 1.0]), t([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_closed_form(self):
        # (x - mean) / std with population std 1 -> [-1, 1] as eps -> 0
        out = layer_norm(t([[1.0, 3.0]]), t([1.0, 1.0]), t([0.0, 0.0]), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_zero_gain_yields_bias(self):
        out = layer_norm(t([[2.0, -7.0, 0.5]]), t([0.0, 0.0, 0.0]), t([4.0, 5.0, 6.0]))
        np.testing.assert_allclose(out.data, [[4.0, 5.0, 6.0]])

    def test_bad_eps(self):
        with pytest.raises(ShapeError):
            layer_norm(t([[1.0, 2.0]]), t([1.0, 1.0]), t([0.0, 0.0]), eps=0.0)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-4), (np.float64, 1e-10)])
    @pytest.mark.parametrize("shape, constant_row", [((6,), False), ((6,), True),
                                                     ((4, 6), True), ((2, 3, 6), True)])
    def test_forward_and_gradients_match_a_float64_reference(self, shape, constant_row,
                                                             dtype, rtol, inner):
        eps = 1e-5
        rng = np.random.default_rng(len(shape))
        x = rng.uniform(-2.0, 2.0, shape)
        if constant_row:
            x.reshape(-1, 6)[-1] = 0.75
        gain, bias = rng.uniform(0.5, 1.5, 6), rng.uniform(-1.0, 1.0, 6)
        g = rng.uniform(-1.0, 1.0, shape)
        xt, gt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gain, bias))
        out = layer_norm(xt, gt, bt, eps)
        backward(inner(out, g))

        # float64 reference: each row's Jacobian written out as a matrix
        rows, grads = x.reshape(-1, 6), g.reshape(-1, 6)
        sigma = np.sqrt(rows.var(axis=1) + eps)
        xh = (rows - rows.mean(axis=1, keepdims=True)) / sigma[:, None]
        dx = np.stack([(gr * gain) @ ((np.eye(6) - 1.0 / 6 - np.outer(h, h) / 6) / s)
                       for gr, h, s in zip(grads, xh, sigma)])
        y = (xh * gain + bias).reshape(shape)
        np.testing.assert_allclose(out.data, y, rtol=rtol, atol=rtol)
        np.testing.assert_allclose(xt.grad, dx.reshape(shape), rtol=rtol, atol=rtol)
        np.testing.assert_allclose(gt.grad, (grads * xh).sum(axis=0), rtol=rtol, atol=rtol)
        np.testing.assert_allclose(bt.grad, grads.sum(axis=0), rtol=rtol, atol=rtol)


def gelu(v):
    """tanh-approximation GELU of one float32 value, through ``mlp`` with identity weights."""
    one, zero = t([[1.0]]), t([0.0])
    return mlp(t([[v]]), one, zero, one, zero).data[0, 0]


def reference_mlp(x, w1, b1, w2, b2, g):
    """The op sequence ``linear`` -> ``gelu`` -> ``linear`` ran before ``mlp`` was
    one record, written out in numpy: the output and the gradients of
    ``sum(out * g)`` with respect to x, w1, b1, w2 and b2."""
    c, k = math.sqrt(2.0 / math.pi), 0.044715
    h = x @ w1
    h += b1
    th = h * h
    th *= c * k
    th += c
    th *= h
    np.tanh(th, out=th)
    u = th + 1.0
    u *= h
    u *= 0.5
    y = u @ w2
    y += b2
    gb2 = np.ones(g.shape[0], dtype=g.dtype) @ g
    gu, gw2 = g @ w2.T, u.T @ g
    d_inner = h * h
    d_inner *= 3.0 * c * k
    d_inner += c
    dh = th * th
    np.subtract(1.0, dh, out=dh)
    dh *= h
    dh *= d_inner
    dh += th
    dh += 1.0
    dh *= 0.5
    dh *= gu
    gb1 = np.ones(dh.shape[0], dtype=dh.dtype) @ dh
    return y, [dh @ w1.T, x.T @ dh, gb1, gw2, gb2]


class TestMlp:
    def test_gelu_at_zero(self):
        assert gelu(0.0) == 0.0

    def test_gelu_asymptote(self):
        assert abs(gelu(10.0) - 10.0) < 1e-3

    def test_gelu_at_one(self):
        # tanh approximation evaluates to ~0.84119 at x=1
        assert abs(gelu(1.0) - 0.8412) < 5e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_the_linear_gelu_linear_sequence(self, dtype, inner):
        rng = np.random.default_rng(7)
        shapes = ((5, 4), (4, 16), (16,), (16, 4), (4,), (5, 4))
        arrays = [rng.normal(0.0, 1.0, shape).astype(dtype) for shape in shapes]
        active_tape().clear()
        params = [t(a, requires_grad=True, dtype=dtype) for a in arrays[:5]]
        out = mlp(*params)
        assert [op for op, *_ in active_tape()] == ["mlp"]
        backward(inner(out, arrays[5]))
        ref, ref_grads = reference_mlp(*arrays)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == ref.tobytes()
        for p, ref_g in zip(params, ref_grads):
            assert p.grad.dtype == dtype
            assert p.grad.tobytes() == ref_g.tobytes()

    @pytest.mark.parametrize("shapes", [
        ((3, 4), (5, 8), (8,), (8, 4), (4,)),     # x's width is not w1's rows
        ((3, 4), (4, 8), (7,), (8, 4), (4,)),     # b1 is not w1's width
        ((3, 4), (4, 8), (8,), (6, 4), (4,)),     # w2's rows are not the hidden width
        ((3, 4), (4, 8), (8,), (8, 4), (5,)),     # b2 is not w2's width
        ((3, 4), (4, 8), (1, 8), (8, 4), (4,)),   # a 2-D bias
        ((4,), (4, 8), (8,), (8, 4), (4,)),       # a 1-D input
    ])
    def test_mismatched_shapes_raise(self, shapes):
        with pytest.raises(ShapeError, match="mlp: incompatible shapes"):
            mlp(*(t(np.ones(shape)) for shape in shapes))


def reference_attention(xq, xkv, params, heads, q_sizes, kv_sizes, g):
    """float64 loop over segments and heads with a query-major softmax: the
    output of ``attention`` and the gradients of ``sum(out * g)`` with respect
    to ``xq``, ``xkv`` and every parameter, keyed as in ``named_parameters``."""
    w = {name: t.data.astype(np.float64) for name, t in params.named_parameters().items()}
    q, k, v = xq @ w["wq"] + w["bq"], xkv @ w["wk"], xkv @ w["wv"] + w["bv"]
    dh = q.shape[1] // heads
    c = 1.0 / math.sqrt(dh)
    merged, dq, dk, dv = (np.zeros_like(a) for a in (q, q, k, v))
    dmerged = g @ w["wo"].T
    q_starts, kv_starts = np.cumsum((0,) + q_sizes), np.cumsum((0,) + kv_sizes)
    for i in range(len(q_sizes)):
        qs = slice(q_starts[i], q_starts[i + 1])
        ks = slice(kv_starts[i], kv_starts[i + 1])
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = q[qs, cols] @ k[ks, cols].T * c
            a = np.exp(scores - scores.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            merged[qs, cols] = a @ v[ks, cols]
            da = dmerged[qs, cols] @ v[ks, cols].T
            ds = a * (da - (da * a).sum(axis=1, keepdims=True))
            dv[ks, cols] += a.T @ dmerged[qs, cols]
            dq[qs, cols] += ds @ k[ks, cols] * c
            dk[ks, cols] += ds.T @ q[qs, cols] * c
    grads = {"xq": dq @ w["wq"].T, "xkv": dk @ w["wk"].T + dv @ w["wv"].T,
             "wq": xq.T @ dq, "bq": dq.sum(axis=0), "wk": xkv.T @ dk,
             "wv": xkv.T @ dv, "bv": dv.sum(axis=0), "wo": merged.T @ g, "bo": g.sum(axis=0)}
    return merged @ w["wo"] + w["bo"], grads


class TestAttention:
    @staticmethod
    def identity_params(dim):
        params = AttentionParams(dim, None).requires_grad_(False)  # biases already zero
        for w in (params.wq, params.wk, params.wv, params.wo):
            w.data[...] = np.eye(dim)
        return params

    def test_single_token_returns_value_projection(self):
        rng = np.random.default_rng(0)
        params = self.identity_params(4)
        params.wv = Tensor(rng.normal(0, 1, (4, 4)).astype(np.float32))
        kv = t(rng.normal(0, 1, (1, 4)))
        out = attention(t(rng.normal(0, 1, (1, 4))), kv, params, heads=2)
        np.testing.assert_allclose(out.data, kv.data @ params.wv.data, rtol=1e-6)

    def test_uniform_keys_average_values(self):
        rng = np.random.default_rng(1)
        params = self.identity_params(4)
        kv = np.tile(rng.normal(0, 1, (1, 4)).astype(np.float32), (5, 1))
        kv[:, :] = kv[0]  # identical rows -> constant scores -> weights 1/Tk
        v = rng.normal(0, 1, (5, 4)).astype(np.float32)
        params.wv = Tensor(np.eye(4, dtype=np.float32))
        # distinct values but identical keys: replace kv rows for V by feeding
        # a params.wv that maps keys to per-row values is impossible with
        # shared kv, so check via the weights-equal path: output == mean of V
        # where V comes from the shared kv rows (all equal) -> output == row.
        out = attention(t(rng.normal(0, 1, (3, 4))), t(kv), params, heads=2)
        np.testing.assert_allclose(out.data, np.tile(kv[0], (3, 1)), rtol=1e-5)

    def test_against_per_head_oracle(self):
        rng = np.random.default_rng(5)
        d, heads = 8, 2
        q = rng.uniform(-1, 1, (3, d)).astype(np.float32)
        kv = rng.uniform(-1, 1, (5, d)).astype(np.float32)
        params = AttentionParams(d, rng)
        out = attention(t(q), t(kv), params, heads).data

        def np_softmax(x):
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        qp = q @ params.wq.data + params.bq.data
        kp = kv @ params.wk.data
        vp = kv @ params.wv.data + params.bv.data
        dh = d // heads
        pieces = []
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = qp[:, sl] @ kp[:, sl].T / math.sqrt(dh)
            pieces.append(np_softmax(scores) @ vp[:, sl])
        expected = np.concatenate(pieces, axis=1) @ params.wo.data + params.bo.data
        assert np.abs(out - expected).max() < 1e-6

    def test_width_not_divisible(self):
        params = AttentionParams(6, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            attention(t(np.zeros((2, 6))), t(np.zeros((2, 6))), params, heads=4)
        # keys and values, or queries, of a width other than the projections'
        params = AttentionParams(8, np.random.default_rng(0))
        for q, kv in (((2, 8), (3, 6)), ((2, 6), (3, 8)), ((8,), (3, 8))):
            with pytest.raises(ShapeError):
                attention(t(np.zeros(q)), t(np.zeros(kv)), params, heads=2)

    def test_segments_match_attention_per_segment(self):
        rng = np.random.default_rng(6)
        params = AttentionParams(8, rng, std=0.5)
        x = t(rng.uniform(-1, 1, (7, 8)))
        out = attention(x, x, params, 2, segments=(2, 4, 1)).data
        row = 0
        for n in (2, 4, 1):
            part = t(x.data[row:row + n])
            expected = attention(part, part, params, 2).data
            assert np.abs(out[row:row + n] - expected).max() < 1e-6
            row += n

    def test_no_gradient_crosses_a_segment(self, inner):
        rng = np.random.default_rng(7)
        params = AttentionParams(8, rng, std=0.5)
        x = t(rng.uniform(-1, 1, (7, 8)), requires_grad=True)
        out = attention(x, x, params, 2, segments=(2, 4, 1))
        backward(inner(gather_rows(out, [2, 3, 4, 5]), np.ones((4, 8))))
        assert np.abs(x.grad[2:6]).max() > 0
        np.testing.assert_array_equal(x.grad[:2], 0.0)
        np.testing.assert_array_equal(x.grad[6:], 0.0)

    def test_segments_must_tile_the_rows(self):
        params = AttentionParams(4, np.random.default_rng(0))
        x = t(np.zeros((5, 4)))
        for segments in ((2, 2), (2, 4), (5, 0), ()):
            with pytest.raises(ShapeError):
                attention(x, x, params, 2, segments=segments)
        with pytest.raises(ShapeError):
            attention(x, t(np.zeros((3, 4))), params, 2, segments=(5,))

    def test_cross_segments_pair_each_query_segment_with_its_keys(self):
        rng = np.random.default_rng(10)
        params = AttentionParams(8, rng, std=0.5)
        # the second case pads queries narrower than keys, as the predictor's last block does
        for q_sizes, kv_sizes in (((2, 4, 1), (3, 1, 2)), ((1, 3, 2), (4, 5, 3))):
            q = t(rng.uniform(-1, 1, (sum(q_sizes), 8)))
            kv = t(rng.uniform(-1, 1, (sum(kv_sizes), 8)))
            out = attention(q, kv, params, 2, q_sizes, kv_sizes).data
            q_row = kv_row = 0
            for nq, nk in zip(q_sizes, kv_sizes):
                expected = attention(t(q.data[q_row:q_row + nq]),
                                     t(kv.data[kv_row:kv_row + nk]), params, 2).data
                assert np.abs(out[q_row:q_row + nq] - expected).max() < 1e-6
                q_row, kv_row = q_row + nq, kv_row + nk

    def test_query_and_key_segment_counts_must_agree(self):
        params = AttentionParams(4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            attention(t(np.zeros((5, 4))), t(np.zeros((3, 4))), params, 2, (2, 3), (3,))

    @pytest.mark.parametrize("q_sizes, kv_sizes", [
        ((3, 3, 3), None),
        ((2, 4, 3), (5, 1, 3)),
        ((1, 2, 1), (4, 5, 3)),
        ((4, 6, 2), (2, 3, 1)),
    ], ids=["equal_segments", "padded_cross_keys", "queries_narrower", "keys_narrower"])
    def test_matches_float64_reference_with_gradients(self, q_sizes, kv_sizes, inner):
        rng = np.random.default_rng(12)
        d, heads = 8, 2
        params = AttentionParams(d, rng, std=0.5).astype(np.float64)
        for b in (params.bq, params.bv, params.bo):
            b.data[:] = rng.uniform(-1, 1, d)
        xq = Tensor(rng.uniform(-1, 1, (sum(q_sizes), d)), True, dtype=np.float64)
        xkv = xq if kv_sizes is None else Tensor(rng.uniform(-1, 1, (sum(kv_sizes), d)), True,
                                                 dtype=np.float64)
        g = rng.uniform(-1, 1, xq.shape)
        out = attention(xq, xkv, params, heads, q_sizes, kv_sizes)
        backward(inner(out, g))
        expected, grads = reference_attention(xq.data, xkv.data, params, heads, q_sizes,
                                              q_sizes if kv_sizes is None else kv_sizes, g)
        assert np.abs(out.data - expected).max() < 1e-10
        if kv_sizes is None:
            grads["xq"] = grads["xq"] + grads.pop("xkv")
        else:
            assert np.abs(xkv.grad - grads.pop("xkv")).max() < 1e-10
        assert np.abs(xq.grad - grads.pop("xq")).max() < 1e-10
        for name, param in params.named_parameters().items():
            assert np.abs(param.grad - grads[name]).max() < 1e-10, name

    def test_other_segments_rows_do_not_see_a_segments_keys(self):
        rng = np.random.default_rng(13)
        params = AttentionParams(8, rng, std=0.5)
        q_sizes, kv_sizes = (3, 2, 4), (4, 5, 2)
        q = t(rng.uniform(-1, 1, (9, 8)))
        kv = rng.uniform(-1, 1, (11, 8)).astype(np.float32)
        before = attention(q, t(kv), params, 2, q_sizes, kv_sizes).data
        kv[4:9] = rng.uniform(-1, 1, (5, 8))  # segment 1's keys and values
        after = attention(q, t(kv), params, 2, q_sizes, kv_sizes).data
        np.testing.assert_array_equal(after[:3], before[:3])
        np.testing.assert_array_equal(after[5:], before[5:])
        assert np.abs(after[3:5] - before[3:5]).max() > 0

    def test_one_call_records_eight_tape_entries(self):
        params = AttentionParams(8, np.random.default_rng(8))
        x = t(np.random.default_rng(9).uniform(-1, 1, (3, 8)))
        active_tape().clear()
        attention(x, x, params, 2)
        ops = sorted(op for op, *_ in active_tape())
        active_tape().clear()
        assert ops == ["add"] * 3 + ["attention"] + ["matmul"] * 4


class TestPaddingWidth:
    """A segment's rows must not depend on how wide its batch pads it. Each side
    is padded to its own longest segment, so that rests on one fact: padding
    adds exact zeros at the end of every sum over keys or queries, both in the
    key-major softmax reductions and in the in-order K loop of the BLAS
    products. A BLAS that splits or reorders that loop fails here first."""

    @staticmethod
    def attend(inner, q, k, v, g, heads, segments=None, kv_segments=None):
        q, k, v = (t(a, requires_grad=True) for a in (q, k, v))
        out = numerics_module._attention_heads(q, k, v, heads, segments, kv_segments)
        backward(inner(out, g))
        return out.data, q.grad, k.grad, v.grad

    @pytest.mark.parametrize("q_sizes, kv_sizes", [
        ((4, 6, 2), (2, 3, 1)),
        ((64, 64, 64, 64), (24, 31, 27, 29)),
        ((1, 17, 3, 40, 2), None),
    ], ids=["keys_narrower", "fusion_shape", "self_spread"])
    def test_each_segment_matches_the_segment_run_alone(self, q_sizes, kv_sizes, inner):
        rng = np.random.default_rng(14)
        d, heads = 32, 2
        key_sizes = q_sizes if kv_sizes is None else kv_sizes
        q, g = (rng.uniform(-1, 1, (sum(q_sizes), d)).astype(np.float32) for _ in range(2))
        k, v = (rng.uniform(-1, 1, (sum(key_sizes), d)).astype(np.float32) for _ in range(2))
        batched = self.attend(inner, q, k, v, g, heads, q_sizes, kv_sizes)
        q_row = kv_row = 0
        for nq, nk in zip(q_sizes, key_sizes):
            qs, ks = slice(q_row, q_row + nq), slice(kv_row, kv_row + nk)
            alone = self.attend(inner, q[qs], k[ks], v[ks], g[qs], heads)
            for what, got, rows, want in zip(("out", "dq", "dk", "dv"), batched,
                                             (qs, qs, ks, ks), alone):
                assert got[rows].tobytes() == want.tobytes(), (what, nq, nk)
            q_row, kv_row = q_row + nq, kv_row + nk


class TestBackward:
    def test_linear_case(self, inner):
        x = np.array([2.0, -1.0, 3.0], dtype=np.float32)
        w = t([1.0, 1.0, 1.0], requires_grad=True)
        loss = inner(w, x)
        backward(loss)
        np.testing.assert_array_equal(w.grad, x)

    def test_square(self):
        w = t([[1.0, 2.0]], requires_grad=True)
        loss = block_distance(w, t([[0.0, 0.0]]), [1.0])  # the sum of w's squares
        backward(loss)
        np.testing.assert_allclose(w.grad, [[2.0, 4.0]])

    def test_non_scalar_loss_rejected(self):
        w = t([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(add(w, w))

    def test_off_path_leaf_grad_stays_none(self, inner):
        w = t([1.0, 2.0], requires_grad=True)
        unused = t([3.0, 4.0], requires_grad=True)
        add(unused, unused)  # recorded but not connected to the loss
        loss = inner(w, [1.0, 1.0])
        backward(loss)
        assert unused.grad is None
        assert len(active_tape()) == 0

    def test_tape_cleared_after_backward(self, inner):
        w = t([1.0], requires_grad=True)
        backward(inner(w, [1.0]))
        assert len(active_tape()) == 0

    def test_gradient_accumulates_across_backwards(self, inner):
        w = t([1.0], requires_grad=True)
        backward(inner(w, [3.0]))
        backward(inner(w, [4.0]))
        np.testing.assert_allclose(w.grad, [7.0])

    def test_a_shared_gradient_array_is_never_written_in_place(self, inner):
        # add hands one gradient array to both a and b; a's second contribution,
        # from the product recorded before the add, must not reach b through it
        rng = np.random.default_rng(0)
        a, b, r0, r1 = (rng.uniform(-1.0, 1.0, (2, 3)).astype(np.float32) for _ in range(4))
        a, b = t(a, requires_grad=True), t(b, requires_grad=True)
        z0 = inner(a, r0)
        y = add(a, b)
        backward(add(z0, inner(y, r1)))
        np.testing.assert_array_equal(b.grad, r1)
        np.testing.assert_array_equal(a.grad, r0 + r1)

    def test_an_array_only_a_later_record_holds_is_freed_before_earlier_records_run(self, inner):
        a = t([1.0, 2.0, 3.0], requires_grad=True)
        seen_by_first = []
        held = np.array([2.0, 2.0, 2.0], dtype=np.float32)
        held_ref = weakref.ref(held)

        def first_back(g):
            seen_by_first.append(held_ref())
            return (g,)

        y = numerics_module._record("first", (a,), a.data.copy(), first_back)
        z = numerics_module._record("later", (y,), y.data * held, lambda g, h=held: (g * h,))
        del held
        assert held_ref() is not None  # the later record's backward still holds it
        backward(inner(z, [1.0, 1.0, 1.0]))
        assert seen_by_first == [None]
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])

    def test_intermediate_outputs_end_without_grad(self, inner):
        w = t([1.0, 2.0], requires_grad=True)
        y = add(w, w)
        loss = inner(y, [1.0, 2.0])
        backward(loss)
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_a_loss_without_grad_empties_the_tape_and_leaves_grads_none(self):
        w = t([1.0, 2.0], requires_grad=True)
        add(w, w)  # recorded; the loss below does not depend on it
        backward(t(3.0))
        assert len(active_tape()) == 0
        assert w.grad is None

    def test_no_grad_blocks_recording(self):
        w = t([1.0], requires_grad=True)
        with no_grad():
            out = add(w, w)
        assert not out.requires_grad
        assert len(active_tape()) == 0


class TestGradientSuite:
    def test_every_primitive_passes_fd(self, monkeypatch):
        import inspect
        import re

        from tijepa import numerics

        exercised = set()
        record = numerics._record

        def noted(op, *args):
            exercised.add(op)
            return record(op, *args)

        monkeypatch.setattr(numerics, "_record", noted)
        results = gradient_suite(seed=0)
        for name, err in results:
            assert err < 1e-4, f"{name}: relative error {err}"
        # check_gradients' own head records block_distance (l2) on every check, so only the
        # suite's own checks show that both of its branches are FD-checked
        names = {name for name, _ in results}
        assert {"block_distance_l2", "block_distance_l1"} <= names
        # every op the module can put on the tape ran under a check
        ops = set(re.findall(r'_record\("(\w+)"', inspect.getsource(numerics)))
        assert ops and ops <= exercised, f"ops without an FD check: {sorted(ops - exercised)}"

    def test_check_gradients_catches_a_wrong_gradient(self):
        from tijepa import numerics

        x = Tensor(np.array([[0.7, -0.3]]), requires_grad=True, dtype=np.float64)

        def bad_double(a):
            # forward doubles, but claims a triple gradient
            return numerics._record("bad_double", (a,), a.data * 2.0,
                                    lambda g: (g * 3.0,))

        err = check_gradients(lambda: bad_double(x), [x])
        assert err > 1e-2

    def test_check_gradients_rejects_a_1d_output(self):
        # the l2 head that scores a non-scalar output takes rows
        x = Tensor(np.array([0.7, -0.3]), requires_grad=True, dtype=np.float64)
        with pytest.raises(ShapeError, match="block_distance"):
            check_gradients(lambda: add(x, x), [x])

    def test_check_gradients_rejects_a_non_finite_forward(self):
        from tijepa import numerics

        x = Tensor(np.array([[0.7, -0.3]]), requires_grad=True, dtype=np.float64)

        def nan_forward(a):
            return numerics._record("nan_forward", (a,), a.data * np.nan, lambda g: (g,))

        with pytest.raises(NumericalError, match="non-finite loss in gradient check"):
            check_gradients(lambda: nan_forward(x), [x])

    def test_check_gradients_rejects_a_non_finite_gradient(self):
        from tijepa import numerics

        x = Tensor(np.array([[0.7, -0.3]]), requires_grad=True, dtype=np.float64)

        def nan_backward(a):
            return numerics._record("nan_backward", (a,), a.data * 2.0, lambda g: (g * np.nan,))

        with pytest.raises(NumericalError, match="non-finite analytic gradient"):
            check_gradients(lambda: nan_backward(x), [x])

    @pytest.mark.parametrize("nan_at_point", [False, True])
    def test_check_gradients_rejects_a_loss_non_finite_at_or_off_the_point(self, nan_at_point):
        from tijepa import numerics

        x = Tensor(np.array([[0.7, -0.3]]), requires_grad=True, dtype=np.float64)

        def nan_on_one_side(a):
            # NaN either only at the point itself or only once it moves by h
            at_point = np.array_equal(a.data, [[0.7, -0.3]])
            out = a.data * np.nan if at_point == nan_at_point else a.data * 2.0
            return numerics._record("nan_on_one_side", (a,), out, lambda g: (g * 2.0,))

        with pytest.raises(NumericalError, match="non-finite loss in gradient check"):
            check_gradients(lambda: nan_on_one_side(x), [x])

    def test_duplicate_gather_indices_accumulate(self, inner):
        x = t([[1.0, 1.0], [2.0, 2.0]], requires_grad=True)
        out = gather_rows(x, [0, 0, 1])
        assert not np.shares_memory(out.data, x.data)
        backward(inner(out, np.ones((3, 2))))
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


class TestCrossEntropyOp:
    def test_uniform_logits(self):
        loss = cross_entropy_logits(t([[0.0, 0.0, 0.0]]), [1])
        assert abs(loss.item() - math.log(3.0)) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            cross_entropy_logits(t([[0.0, 0.0]]), [2])


class TestDeterminism:
    def test_bit_identical_composite(self):
        def run():
            rng = np.random.default_rng(11)
            q = t(rng.uniform(-1, 1, (4, 8)), requires_grad=True)
            kv = t(rng.uniform(-1, 1, (6, 8)))
            params = AttentionParams(8, rng)
            out = attention(q, kv, params, 4)
            loss = block_distance(out, t(np.zeros(out.shape)), np.ones(len(out.data)))
            backward(loss)
            return loss.item(), q.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_an_out_of_place_add_of_the_product(self, dtype, inner):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(0.0, 1.0, shape) for shape in ((5, 4), (4, 3), (3,), (5, 3))]

        def run(forward):
            active_tape().clear()
            x, w, b = (t(a, requires_grad=True, dtype=dtype) for a in arrays[:3])
            out = forward(x, w, b)
            ops = [op for op, *_ in active_tape()]
            product = active_tape()[0][2]
            backward(inner(out, arrays[3]))
            return out, product, ops, [p.grad for p in (x, w, b)]

        out, product, ops, grads = run(linear)
        ref, ref_product, ref_ops, ref_grads = run(lambda x, w, b: add(matmul(x, w), b))
        assert ops == ref_ops == ["matmul", "add"]
        assert out.data.dtype == ref.data.dtype == dtype
        assert out.data.tobytes() == ref.data.tobytes()
        for g, ref_g in zip(grads, ref_grads):
            assert g.tobytes() == ref_g.tobytes()
        # the bias went into the product's own array
        assert np.shares_memory(out.data, product.data)
        assert not np.shares_memory(ref.data, ref_product.data)

    def test_a_wider_bias_widens_the_output_as_add_does(self):
        x, w = t(np.ones((2, 3))), t(np.ones((3, 2)))
        b = t([0.5, 1e-12], dtype=np.float64)
        out = linear(x, w, b)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.data, add(matmul(x, w), b).data)

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError, match="add: incompatible shapes"):
            linear(t(np.ones((2, 3))), t(np.ones((3, 2))), t([1.0, 2.0, 3.0]))


class TestShapes:
    def test_bias_add_reduces_gradient(self, inner):
        x = t(np.ones((3, 2)), requires_grad=True)
        b = t([1.0, 2.0], requires_grad=True)
        backward(inner(add(x, b), np.ones((3, 2))))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])
