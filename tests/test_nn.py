import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import agvoice
from agvoice.errors import (
    EvenKernel,
    IndivisibleHeads,
    NonFiniteEvaluation,
    ShapeMismatch,
)
from agvoice.nn import (
    BLOCK_ROWS,
    affine,
    attention_backward,
    conv1d,
    glu_gated_conv,
    gradcheck,
    multi_head_attention,
    row_blocks,
    scaled_dot_attention,
    sigmoid,
)
from oracles import loop_affine, loop_attention, loop_conv1d, loop_glu, loop_mha, loop_softmax_row, softmax_rows


def mha_params(rng, d):
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = rng.standard_normal((d, d)) * 0.4
    for name in ("bq", "bk", "bv", "bo"):
        p[name] = rng.standard_normal(d) * 0.1
    return p


# Row counts around the block edges of row_blocks, and a 60 s clip's T.
BLOCKED_T = (1, 2, 128, 129, 255, 256, 257, 385, 513, 5164)
# Every (in, out) a T-row operand meets in the model: paper scale (C=512)
# and the desk config (C=64), d = 192.
AFFINE_SHAPES = [
    (80, 512), (512, 512), (512, 192), (512, 64), (64, 512), (2, 192), (80, 192), (192, 192),
    (80, 64), (64, 64), (64, 8), (8, 64), (64, 192),
]
# (C_out, C_in, k, dilation) of every conv: the Res2 group convs at C=512
# and C=64, and the mel encoder's GLU.
CONV_SHAPES = [(64, 64, 3, d) for d in (2, 3, 4)] + [(8, 8, 3, d) for d in (2, 3, 4)] + [(384, 192, 3, 1)]


class TestAffine:
    def test_identity(self, rng):
        x = rng.standard_normal((4, 3))
        assert np.array_equal(affine(x, np.eye(3), np.zeros(3)), x)

    def test_zero_input_gives_bias(self, rng):
        b = rng.standard_normal(5)
        y = affine(np.zeros((3, 2)), rng.standard_normal((2, 5)), b)
        assert np.array_equal(y, np.tile(b, (3, 1)))

    def test_matches_loop(self, rng):
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
        assert np.max(np.abs(affine(x, w, b) - loop_affine(x, w, b))) < 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            affine(rng.standard_normal((3, 4)), rng.standard_normal((5, 2)), np.zeros(2))

    @pytest.mark.parametrize("n_in, n_out", AFFINE_SHAPES)
    def test_blocked_is_one_whole_product(self, rng, n_in, n_out):
        # bit for bit, with float32 weights as loaded; and in place (out=x)
        # where the shape allows, as the Res2 output conv runs it
        w = rng.uniform(-0.1, 0.1, (n_in, n_out)).astype(np.float32)
        b = rng.uniform(-0.1, 0.1, n_out).astype(np.float32)
        for t in BLOCKED_T:
            x = rng.standard_normal((t, n_in))
            whole = x @ w
            whole += b
            assert np.array_equal(affine(x, w, b), whole), t
            if n_in == n_out:
                assert np.array_equal(affine(x, w, b, out=x), whole), t

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_blas_buffer_stays_one_block(self):
        # OpenBLAS keeps its packing buffer resident, and the part a product
        # touches grows with the left operand's rows (tracemalloc cannot see
        # it). Whole, this product left the output plus ~10.8 MB; in row
        # blocks, the output plus ~1.3 MB (one BLAS thread). The child reads
        # its own high-water mark (VmHWM): ru_maxrss would start from this
        # process's, since the child is forked from it.
        script = textwrap.dedent(
            """
            import numpy as np
            from agvoice.nn import affine
            def hwm_kib():
                with open("/proc/self/status") as f:
                    return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
            rng = np.random.default_rng(0)
            x, w, b = rng.random((5164, 512)), rng.random((512, 512)), np.zeros(512)
            before = hwm_kib()
            y = affine(x, w, b)
            print(hwm_kib() - before, y.nbytes)
            """
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(Path(agvoice.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        grew_kib, out_bytes = map(int, run.stdout.split())
        assert grew_kib * 1024 < out_bytes + 4 * 2**20


class TestConv1d:
    def test_pointwise_identity(self):
        x = np.random.default_rng(0).standard_normal((6, 3))
        kernels = np.eye(3)[:, :, None]
        assert np.allclose(conv1d(x, kernels), x, atol=1e-15)

    def test_constant_signal_interior(self, rng):
        kernels = rng.standard_normal((2, 3, 3))
        x = np.tile(rng.standard_normal(3), (9, 1))
        y = conv1d(x, kernels, dilation=1)
        expected = np.array([kernels[co].sum(axis=1) @ x[0] for co in range(2)])
        assert np.allclose(y[1:-1], expected, atol=1e-12)

    def test_matches_loop_with_dilation(self, rng):
        x = rng.standard_normal((7, 3))
        kernels = rng.standard_normal((2, 3, 3))
        assert np.max(np.abs(conv1d(x, kernels, 2) - loop_conv1d(x, kernels, 2))) < 1e-12

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(EvenKernel):
            conv1d(rng.standard_normal((5, 2)), rng.standard_normal((2, 2, 4)))

    @pytest.mark.parametrize("c_out, c_in, k, dilation", CONV_SHAPES)
    def test_blocked_is_one_whole_product(self, rng, c_out, c_in, k, dilation):
        # bit for bit: each tap as one whole product of the padded input by
        # its float32 kernel slice, added in tap order
        kernels = rng.uniform(-0.1, 0.1, (c_out, c_in, k)).astype(np.float32)
        pad = dilation * (k - 1) // 2
        for t in BLOCKED_T:
            x = rng.standard_normal((t, c_in))
            xpad = np.pad(x, ((pad, pad), (0, 0)))
            whole = np.zeros((t, c_out))
            for j in range(k):
                whole += xpad[j * dilation : j * dilation + t] @ kernels[:, :, j].T
            assert np.array_equal(conv1d(x, kernels, dilation), whole), t


class TestSoftmax:
    def test_uniform(self):
        out = softmax_rows(np.full((2, 5), 3.7))
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_stability(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_matches_extended_precision(self, rng):
        row = rng.uniform(-30, 30, size=9)
        assert np.max(np.abs(softmax_rows(row[None, :])[0] - loop_softmax_row(row))) < 1e-12

    def test_rows_sum_to_one(self, rng):
        x = rng.uniform(-1e4, 1e4, size=(20, 7))
        assert np.max(np.abs(softmax_rows(x).sum(axis=1) - 1.0)) < 1e-9


class TestAttention:
    def test_singleton_key_ignores_query(self, rng):
        k = rng.standard_normal((1, 4))
        v = rng.standard_normal((1, 4))
        for _ in range(3):
            tr = scaled_dot_attention(rng.standard_normal((3, 4)), k, v)
            assert np.allclose(tr.output, np.tile(v, (3, 1)), atol=1e-15)

    def test_saturated_logit_selects_row(self, rng):
        d = 4
        k = np.vstack([np.eye(d)[0] * 100.0, rng.standard_normal((2, d))])
        v = rng.standard_normal((3, d))
        q = np.eye(d)[0:1] * 10.0
        tr = scaled_dot_attention(q, k, v)
        assert np.max(np.abs(tr.output[0] - v[0])) < 1e-12

    def test_matches_loop(self, rng):
        q, k, v = rng.standard_normal((2, 4)), rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        for mode in ("sqrt", "linear"):
            tr = scaled_dot_attention(q, k, v, mode)
            assert np.max(np.abs(tr.output - loop_attention(q, k, v, mode))) < 1e-12

    def test_convexity(self, rng):
        for _ in range(20):
            q, k, v = rng.standard_normal((3, 5)), rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
            out = scaled_dot_attention(q, k, v).output
            assert (out <= v.max(axis=0) + 1e-12).all()
            assert (out >= v.min(axis=0) - 1e-12).all()

    def test_scale_modes_agree_at_d1(self, rng):
        q, k, v = rng.standard_normal((2, 1)), rng.standard_normal((3, 1)), rng.standard_normal((3, 1))
        a = scaled_dot_attention(q, k, v, "sqrt")
        b = scaled_dot_attention(q, k, v, "linear")
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("mode,s", [("sqrt", 5.0**0.5), ("linear", 5.0)])
    def test_weights_are_softmax_rows_inputs_untouched(self, rng, mode, s):
        # the softmax is built in place in the score array; 30x logits reach exp underflow
        q, k, v = rng.standard_normal((7, 5)) * 30.0, rng.standard_normal((11, 5)), rng.standard_normal((11, 3))
        before = [a.copy() for a in (q, k, v)]
        tr = scaled_dot_attention(q, k, v, mode)
        assert np.array_equal(tr.weights, softmax_rows((q @ k.T) / s))
        assert all(np.array_equal(a, b) for a, b in zip((q, k, v), before))

    def test_deterministic(self, rng):
        q, k, v = rng.standard_normal((2, 3)), rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        a = scaled_dot_attention(q, k, v)
        b = scaled_dot_attention(q.copy(), k.copy(), v.copy())
        assert np.array_equal(a.output, b.output)


class TestAttentionBackward:
    def test_zero_dout(self, rng):
        q, k, v = rng.standard_normal((2, 3)), rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        tr = scaled_dot_attention(q, k, v)
        grads = attention_backward(tr, q, k, v, np.zeros_like(tr.output))
        assert all(not g.any() for g in grads)

    def test_uniform_weights_dv(self, rng):
        # equal logits: dV spreads dOut evenly across keys
        q = np.zeros((3, 2))
        k = rng.standard_normal((4, 2))
        v = rng.standard_normal((4, 2))
        tr = scaled_dot_attention(q, k, v)
        d_out = rng.standard_normal((3, 2))
        _, _, dv = attention_backward(tr, q, k, v, d_out)
        assert np.allclose(dv, np.tile(d_out.sum(axis=0) / 4.0, (4, 1)), atol=1e-12)

    def test_finite_differences(self, rng):
        for _ in range(5):
            q, k, v = rng.standard_normal((2, 3)), rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
            d_out = rng.standard_normal((2, 3))

            def f(xs):
                return float((scaled_dot_attention(xs[0], xs[1], xs[2]).output * d_out).sum())

            def g(xs):
                tr = scaled_dot_attention(xs[0], xs[1], xs[2])
                return list(attention_backward(tr, xs[0], xs[1], xs[2], d_out))

            assert gradcheck(f, g, [q, k, v]) < 1e-6

    def test_sign_flip_detected(self, rng):
        q, k, v = rng.standard_normal((2, 3)), rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        d_out = rng.standard_normal((2, 3))

        def f(xs):
            return float((scaled_dot_attention(xs[0], xs[1], xs[2]).output * d_out).sum())

        def g_bad(xs):
            tr = scaled_dot_attention(xs[0], xs[1], xs[2])
            dq, dk, dv = attention_backward(tr, xs[0], xs[1], xs[2], d_out)
            dv = dv.copy()
            dv[0, 0] = -dv[0, 0]  # seeded fault
            return [dq, dk, dv]

        assert gradcheck(f, g_bad, [q, k, v]) > 1e-2


class TestMultiHead:
    def test_single_token_ignores_query(self, rng):
        d = 8
        p = mha_params(rng, d)
        token = rng.standard_normal((1, d))
        outs = [multi_head_attention(rng.standard_normal((1, d)), token, token, 2, p) for _ in range(3)]
        assert np.allclose(outs[0], outs[1], atol=1e-15)
        assert np.allclose(outs[0], outs[2], atol=1e-15)

    def test_identity_projections_reduce_to_attention(self, rng):
        d = 4
        p = {n: np.eye(d) for n in ("wq", "wk", "wv", "wo")}
        p.update({n: np.zeros(d) for n in ("bq", "bk", "bv", "bo")})
        q, kv = rng.standard_normal((1, d)), rng.standard_normal((3, d))
        out = multi_head_attention(q, kv, kv, 1, p)
        ref = scaled_dot_attention(q, kv, kv).output
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_matches_loop(self, rng):
        d = 8
        p = mha_params(rng, d)
        q, kv = rng.standard_normal((1, d)), rng.standard_normal((4, d))
        out = multi_head_attention(q, kv, kv, 2, p)
        assert np.max(np.abs(out - loop_mha(q, kv, kv, 2, p))) < 1e-12

    def test_indivisible_heads(self, rng):
        with pytest.raises(IndivisibleHeads):
            multi_head_attention(rng.standard_normal((1, 6)), rng.standard_normal((2, 6)), rng.standard_normal((2, 6)), 4, mha_params(rng, 6))


class TestGlu:
    def test_zero_gate_half(self, rng):
        c = 3
        kernels = np.zeros((2 * c, c, 3))
        kernels[:c] = rng.standard_normal((c, c, 3))
        x = rng.standard_normal((5, c))
        out = glu_gated_conv(x, kernels, np.zeros(2 * c))
        assert np.allclose(out, 0.5 * conv1d(x, kernels[:c]), atol=1e-12)

    def test_saturated_gate(self, rng):
        c = 2
        kernels = np.zeros((2 * c, c, 1))
        kernels[:c, :, 0] = np.eye(c)
        bias = np.concatenate([np.zeros(c), np.full(c, 50.0)])
        x = rng.standard_normal((4, c))
        assert np.max(np.abs(glu_gated_conv(x, kernels, bias) - x)) < 1e-12

    def test_matches_loop(self, rng):
        c = 3
        x = rng.standard_normal((6, c))
        kernels = rng.standard_normal((2 * c, c, 3))
        bias = rng.standard_normal(2 * c)
        assert np.max(np.abs(glu_gated_conv(x, kernels, bias) - loop_glu(x, kernels, bias))) < 1e-12

    @pytest.mark.parametrize(
        "t", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + BLOCK_ROWS // 2 + 1, 2 * BLOCK_ROWS + 1]
    )
    def test_blocked_is_one_whole_conv(self, rng, t):
        # bit for bit: a block's rows, halo rows included, meet the same
        # kernels through the same products; d is the model's d_model
        d = 192
        x = rng.standard_normal((t, d))
        kernels = rng.standard_normal((2 * d, d, 3))
        bias = rng.standard_normal(2 * d)
        y = conv1d(x, kernels) + bias
        assert np.array_equal(glu_gated_conv(x, kernels, bias), y[:, :d] * sigmoid(y[:, d:]))

    @pytest.mark.parametrize("t", [0, 5, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize(
        "shape, error", [((16, 8, 4), EvenKernel), ((16, 7, 3), ShapeMismatch), ((16, 8), ShapeMismatch)],
        ids=["even", "c_in", "ndim"],
    )
    def test_blocked_keeps_conv_checks(self, rng, t, shape, error):
        with pytest.raises(error):
            glu_gated_conv(rng.standard_normal((t, 8)), rng.standard_normal(shape), np.zeros(16))

    def test_peak_memory_below_two_and_a_half_outputs(self, rng):
        # the T x d output and one block's work; the whole conv held its
        # padded input, sum, tap product, biased copy and gate (~5 T x d)
        t, d = 8000, 32
        x = rng.standard_normal((t, d))
        kernels, bias = rng.standard_normal((2 * d, d, 3)), rng.standard_normal(2 * d)
        tracemalloc.start()
        try:
            glu_gated_conv(x, kernels, bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * t * d * 8


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 128, 129, 257, 258, 384, 385, 512, 513, 1000, 5165])
    def test_cover_in_order_with_no_short_block(self, n):
        blocks = row_blocks(n)
        assert [i for s in blocks for i in range(n)[s]] == list(range(n))
        assert len(blocks) == max(-(-n // BLOCK_ROWS), 1)
        heights = [s.stop - s.start for s in blocks]
        assert max(heights) <= BLOCK_ROWS
        if n >= BLOCK_ROWS // 2:
            assert min(heights) >= BLOCK_ROWS // 2


class TestGradcheck:
    def test_linear_map_is_exact(self, rng):
        w = rng.standard_normal((3, 2))

        def f(xs):
            return float((xs[0] @ w).sum())

        def g(xs):
            return [np.tile(w.sum(axis=1), (xs[0].shape[0], 1))]

        assert gradcheck(f, g, [rng.standard_normal((4, 3))]) < 1e-9

    def test_non_finite_reported(self):
        def f(xs):
            with np.errstate(invalid="ignore"):  # the step below zero makes log return NaN on purpose
                return float(np.log(xs[0]).sum())

        def g(xs):
            return [1.0 / xs[0]]

        with pytest.raises(NonFiniteEvaluation):
            gradcheck(f, g, [np.array([1e-6])], h=1e-5)
