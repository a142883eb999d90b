"""Dense kernels the backbone and aggregation stages are built from.

Every kernel computes in float64 and is pure and deterministic. Loaded
parameters are float32; numpy converts them exactly wherever they meet
a float64 operand, and `affine` casts its input, so two parameters (the
token bank through the fusion projections) also meet in float64. The
dense attention kernel returns its Tq x Tk softmax weights with the
output (AttentionTrace), so `attention_backward`, the one backward pass
(an analytic oracle for `gradcheck`; nothing trains), does not have to
recompute them. Only this dense kernel keeps weights: a full aggregation
level over state keys calls it on row blocks of queries and keeps just the
output (one keyed by the F0 prompt does not call it). The weights are
built by `exp_scores` in the one Tq x Tk array the score product
returns, so a call holds one such array, not the five a composed
softmax makes; the last aggregation level uses `exp_scores` alone.

Every product of a T-row operand by a weight matrix (`affine`, each
`conv1d` tap) runs one row block at a time (`row_blocks`): OpenBLAS keeps
its packing buffer resident for the rest of the process, and the part of
it a product touches grows with the left operand's row count. A
5164 x 512 by 512 x 512 product left 10.8 MB resident whole and 1.1 MB in
256-row blocks (one BLAS thread).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EvenKernel,
    IndivisibleHeads,
    MissingParameter,
    NonFiniteEvaluation,
    ShapeMismatch,
)

# Rows per block of a row-blocked product. A 3 s clip (T = 255 frames) is
# one block, so short clips run every product whole.
BLOCK_ROWS = 256


class _ParamView(dict):
    def __missing__(self, key):
        raise MissingParameter("missing parameter %r" % key)


def param_group(params, prefix):
    """All tensors named `prefix.<rest>`, keyed by `<rest>`.

    Parameter names are dotted paths (`agg.level1.wq`); every layer reads
    its own tensors through this one view, which raises MissingParameter
    for a name that is not there.
    """
    p = prefix + "."
    return _ParamView({k[len(p):]: v for k, v in params.items() if k.startswith(p)})


@dataclass(frozen=True)
class AttentionTrace:
    output: np.ndarray   # Tq x d
    weights: np.ndarray  # Tq x Tk, rows sum to 1


def row_blocks(n):
    """Slices that cover n rows in order: ceil(n / BLOCK_ROWS) blocks of
    near-equal height, none longer than BLOCK_ROWS rows nor shorter than
    BLOCK_ROWS // 2 unless n is; n = 0 gives one empty slice.

    Every product and every attention score block over T rows uses these
    blocks. OpenBLAS picks its GEMM kernel by shape, and a product of a
    few rows can round differently from the same rows inside a larger
    product; with no short block, a blocked product is bit for bit the
    whole one (checked by the tests at every shape the model uses).
    """
    k = max(-(-n // BLOCK_ROWS), 1)
    edges = [i * n // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def affine(x, w, b, out=None):
    """y = x @ w + b for x: T x in, w: in x out, b: out.

    The product runs one row block at a time into `out`, a new T x out
    array unless one is given; `out` may be x itself (in == out), since
    numpy buffers an operand that overlaps its output. A float32 w is
    cast to float64 once per call.
    """
    x, w, b = np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64), np.asarray(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatch("affine: %s @ %s + %s" % (x.shape, w.shape, b.shape))
    y = np.empty((x.shape[0], w.shape[1])) if out is None else out
    for s in row_blocks(x.shape[0]):
        np.matmul(x[s], w, out=y[s])
        y[s] += b
    return y


def conv1d(x, kernels, dilation=1):
    """Same-padded dilated cross-correlation along time.

    x: T x C_in, kernels: C_out x C_in x k (k odd), output: T x C_out.
    Each tap's product runs one row block at a time into one block's
    buffer, and the taps are added into the output in order. matmul casts
    a float32 tap per product and frees it; holding all k casts raised a
    3 s clip's peak RSS by 1.7 MB (the mel encoder's 384 x 192 x 3 GLU).
    """
    x, kernels = np.asarray(x), np.asarray(kernels)
    if x.ndim != 2 or kernels.ndim != 3 or kernels.shape[1] != x.shape[1]:
        raise ShapeMismatch("conv1d: x %s kernels %s" % (x.shape, kernels.shape))
    k = kernels.shape[2]
    if k % 2 == 0:
        raise EvenKernel("kernel width must be odd, got %d" % k)
    t = x.shape[0]
    pad = dilation * (k - 1) // 2
    xpad = np.zeros((t + 2 * pad, x.shape[1]))
    xpad[pad : pad + t] = x
    out = np.zeros((t, kernels.shape[0]))
    blocks = row_blocks(t)
    tap = np.empty((max(s.stop - s.start for s in blocks), kernels.shape[0]))
    for s in blocks:
        n = s.stop - s.start
        for j in range(k):
            lo = s.start + j * dilation
            out[s] += np.matmul(xpad[lo : lo + n], kernels[:, :, j].T, out=tap[:n])
    return out


def score_scale(d, scale_mode):
    """The divisor s of Q K^T: sqrt(d), or d in `linear` mode."""
    if scale_mode == "sqrt":
        return np.sqrt(float(d))
    if scale_mode == "linear":
        return float(d)
    raise ValueError("unknown scale_mode %r" % scale_mode)


def exp_scores(q, k, scale_mode="sqrt"):
    """exp(Q K^T / s - row max): the softmax weights before each row is divided by its sum.

    Every step works in place on the one Tq x Tk array of the product,
    and the values are bit for bit those a composed max-subtracted softmax
    computes on the way.
    """
    w = q @ k.T
    w /= score_scale(q.shape[1], scale_mode)
    w -= w.max(axis=-1, keepdims=True)
    return np.exp(w, out=w)


def scaled_dot_attention(q, k, v, scale_mode="sqrt") -> AttentionTrace:
    """softmax(Q K^T / s) V with s = sqrt(d) or s = d (`linear` mode).

    The weights equal a composed max-subtracted softmax of (Q K^T) / s
    exactly.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2 or q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeMismatch("attention: Q %s K %s V %s" % (q.shape, k.shape, v.shape))
    weights = exp_scores(q, k, scale_mode)
    weights /= weights.sum(axis=-1, keepdims=True)
    return AttentionTrace(weights @ v, weights)


def attention_backward(trace: AttentionTrace, q, k, v, d_out, scale_mode="sqrt"):
    """Gradients of sum(output * d_out) w.r.t. Q, K, V.

    `trace` must come from scaled_dot_attention on the same Q, K, V; the
    softmax Jacobian is applied row by row through the cached weights.
    """
    q, k, v, d_out = (np.asarray(a) for a in (q, k, v, d_out))
    if d_out.shape != trace.output.shape:
        raise ShapeMismatch("d_out %s vs output %s" % (d_out.shape, trace.output.shape))
    a = trace.weights
    s = score_scale(q.shape[1], scale_mode)
    d_v = a.T @ d_out
    d_a = d_out @ v.T
    d_logits = a * (d_a - np.sum(d_a * a, axis=1, keepdims=True))
    d_q = d_logits @ k / s
    d_k = d_logits.T @ q / s
    return d_q, d_k, d_v


def project_qkv(xs, params):
    """The wq/bq, wk/bk, wv/bv projections of the (query, key, value) inputs."""
    return [affine(x, params["w" + n], params["b" + n]) for n, x in zip("qkv", xs)]


def multi_head_attention(q, k, v, heads, params):
    """Projected multi-head attention.

    params holds wq/bq, wk/bk, wv/bv (d x d, d) and the output projection
    wo/bo. Returns (output, head_weights); for a single query row the
    weights come back as heads x Tk.
    """
    d = np.shape(q)[1]
    if d % heads:
        raise IndivisibleHeads("d=%d not divisible by %d heads" % (d, heads))
    proj = project_qkv((q, k, v), params)
    hd = d // heads
    traces = [scaled_dot_attention(*(p[:, h * hd : (h + 1) * hd] for p in proj), "sqrt") for h in range(heads)]
    out = affine(np.concatenate([tr.output for tr in traces], axis=1), params["wo"], params["bo"])
    hw = np.stack([tr.weights for tr in traces])
    if np.shape(q)[0] == 1:
        hw = hw[:, 0, :]
    return out, hw


def glu_gated_conv(x, kernels, bias):
    """Gated linear unit over a same-padded conv.

    kernels: 2C x C x k, bias: 2C. The first C output channels are the
    content half a, the last C the gate half b; output = a * sigmoid(b).

    Runs over row blocks: each block convolves its rows of x plus (k-1)/2
    halo rows at each end and keeps its own rows, which are those of the
    whole conv; so only the T x C output grows with T.
    """
    x, kernels = np.asarray(x), np.asarray(kernels)
    c = x.shape[1]
    if kernels.ndim != 3 or kernels.shape[0] != 2 * c or bias.shape != (2 * c,):
        raise ShapeMismatch("glu: kernels %s bias %s for C=%d" % (kernels.shape, bias.shape, c))
    halo = (kernels.shape[2] - 1) // 2
    out = np.empty((x.shape[0], c))
    for s in row_blocks(x.shape[0]):
        lo = max(s.start - halo, 0)
        y = conv1d(x[lo : s.stop + halo], kernels)[s.start - lo : s.stop - lo]
        y += bias
        np.multiply(y[:, :c], sigmoid(y[:, c:]), out=out[s])
    return out


def gradcheck(f, grad, xs, h=1e-5, abs_floor=1e-8) -> float:
    """Central-difference check of an analytic gradient.

    f(xs) -> scalar, grad(xs) -> list of arrays matching xs. Every
    coordinate of every input is perturbed by +-h; returns the worst
    relative error (with `abs_floor` absolute clamp).
    """
    xs = [np.ascontiguousarray(x, dtype=np.float64) for x in xs]
    analytic = grad(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        flat = x.reshape(-1)
        ana = np.asarray(analytic[i]).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = f(xs)
            flat[j] = orig - h
            fm = f(xs)
            flat[j] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NonFiniteEvaluation("f non-finite at arg %d index %d" % (i, j))
            num = (fp - fm) / (2.0 * h)
            rel = abs(ana[j] - num) / max(abs(num), abs(ana[j]), abs_floor)
            worst = max(worst, rel)
    return worst
