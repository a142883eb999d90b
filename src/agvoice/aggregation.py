"""Two-level cross-attention aggregation and the final embedding.

The frame states from the speaker backbone are prompted with encoded F0
(level 1), optionally probed again with the mel encoding (level 2), and
the time-mean of the result is fused with a bank of learned tokens
through multi-head attention. Only that mean of the last level is used,
so the last level computes it directly. Every Table-3-style ablation is
a `mode` of the same forward.

The F0 encoder is a two-layer ReLU MLP of one scalar per frame, so on
each of at most d + 1 pieces of that scalar its states, and a level's
keys and values, are affine in it. A full level keyed by the F0 prompt
attends through those pieces: O(T·T') elementwise work over the T'
distinct voiced F0 values plus T×R×d products for R pieces, and no
T×T'×d product.
"""

from dataclasses import dataclass

import numpy as np

from .audio_io import CANONICAL_RATE, AudioBuffer, resample
from .backbone import backbone_forward
from .config import ENCODERS, AggregationConfig, BackboneConfig, config_hash
from .dsp import F0Contour, MelSpectrogram, mel_spectrogram, yin_f0
# The writers and the binary reader are named here too, for the benchmark: its workload code imports
# them from here, and its tracer wraps them on this module. `embed` looks its writers up here, so their
# span sees every write; no command reads through this name, so the tracer's `embedding_from_bytes`
# span reads 0 calls and is kept only so the tracer finds the name.
from .embedding import SpeakerEmbedding, embedding_from_bytes, embedding_to_bytes, embedding_to_json  # noqa: F401
from .errors import EmptyContour, ShapeMismatch
from .nn import (
    affine,
    exp_scores,
    glu_gated_conv,
    multi_head_attention,
    param_group,
    project_qkv,
    relu,
    row_blocks,
    scaled_dot_attention as dense_attention,
    score_scale,
)


@dataclass(frozen=True, eq=False)
class F0Prompt:
    """The encoded F0 cue of T frames, kept as the encoder's input and weights.

    A voiced frame's feature is (u, 1) with u = ln(f0 / 100), an unvoiced
    frame's (0, 0), so every unvoiced frame has one state. `u` holds the
    distinct voiced u in ascending order, `counts` how many frames have
    each, and `index` each frame's position in `u`, or -1 when unvoiced.
    """

    u: np.ndarray
    counts: np.ndarray
    index: np.ndarray
    params: dict

    def __len__(self):
        return len(self.index)

    def states(self) -> np.ndarray:
        """T x d: every frame's state through the two-layer MLP."""
        p = self.params
        feat = np.zeros((len(self), 2))
        voiced = self.index >= 0
        feat[voiced, 0] = self.u[self.index[voiced]]
        feat[voiced, 1] = 1.0
        h = relu(affine(feat, p["fc1.weight"], p["fc1.bias"]))
        return affine(h, p["fc2.weight"], p["fc2.bias"])

    def project_pieces(self, pairs):
        """The distinct states as pieces on which they are affine in u, through each (w, b) of `pairs`.

        The keys are the unvoiced state (u = 0), when a frame has it, then
        the voiced u in ascending order, with their frame counts. In a voiced
        frame the hidden layer is relu(u * a + c) with a = fc1.weight[0] and
        c = fc1.weight[1] + fc1.bias; consecutive voiced keys with one sign
        pattern of u * a + c form a piece. Each unit's sign changes at most
        once along the sorted u, so there are at most d + 1 voiced pieces.
        The unvoiced piece has slope 0 and hidden layer relu(fc1.bias). On
        piece r a key's state is u * alpha_r + beta_r, so through (w, b) it
        is u * alpha_r w + (beta_r w + b): one PieceKeys per pair, all with
        the same keys and pieces.
        """
        p = self.params
        w1, b1, w2 = (np.asarray(p[n], dtype=np.float64) for n in ("fc1.weight", "fc1.bias", "fc2.weight"))
        a, c = w1[0], w1[1] + b1
        active = np.multiply.outer(self.u, a) + c > 0
        starts = np.flatnonzero(np.any(active[1:] != active[:-1], axis=1)) + 1
        starts = np.append(0, starts)[: len(self.u)]  # no voiced key, no voiced piece
        slope, icpt = active[starts] * a, active[starts] * c  # the hidden layer on each piece
        u, counts = self.u, self.counts
        unvoiced = np.count_nonzero(self.index < 0)
        if unvoiced:
            u, counts, starts = np.append(0.0, u), np.append(unvoiced, counts), np.append(0, starts + 1)
            slope, icpt = np.vstack([np.zeros_like(a), slope]), np.vstack([relu(b1), icpt])
        slope, icpt = slope @ w2, affine(icpt, w2, p["fc2.bias"])  # the states on each piece

        def basis(w, b):
            w = np.asarray(w, dtype=np.float64)
            return np.stack([slope @ w, affine(icpt, w, b)], axis=1).reshape(2 * len(starts), -1)

        return [PieceKeys(u, counts, starts, basis(w, b)) for w, b in pairs]


def encode_f0(contour: F0Contour, params) -> F0Prompt:
    """F0 contour -> the prompt of a two-layer MLP over (ln(f0/100) if voiced else 0, voiced flag).

    Unvoiced frames all map to one shared state.
    """
    if len(contour) == 0:
        raise EmptyContour("empty F0 contour")
    v = contour.voiced
    u, inverse, counts = np.unique(np.log(contour.f0_hz[v] / 100.0), return_inverse=True, return_counts=True)
    index = np.full(len(contour), -1)
    index[v] = inverse
    return F0Prompt(u, counts, index, params)


def encode_mel(mel: MelSpectrogram, params) -> np.ndarray:
    """Mel frames -> T x d states: two FC+ReLU blocks then a gated conv."""
    h = relu(affine(mel.frames, params["fc1.weight"], params["fc1.bias"]))
    h = relu(affine(h, params["fc2.weight"], params["fc2.bias"]))
    return glu_gated_conv(h, params["glu.kernels"], params["glu.bias"])


def _check_aligned(h_query, h_kv):
    # Mel and F0 share one framing, so every stream has the same T; a
    # difference is a framing bug, not something to trim away.
    if len(h_query) != len(h_kv):
        raise ShapeMismatch("stage query has %d frames, keys %d" % (len(h_query), len(h_kv)))


def _column_sums(q, k, scale_mode):
    """Column sums of softmax(Q K^T / s): each row of exp scores times 1 / its sum, added up.

    The scores live only inside this call, so a caller's loop holds one
    block of them at a time.
    """
    e = exp_scores(q, k, scale_mode)
    return (1.0 / e.sum(axis=1)) @ e


@dataclass(frozen=True, eq=False)
class PieceKeys:
    """An F0 prompt's T' distinct states through one projection (a level's keys or values), each affine
    in its u on its piece (`F0Prompt.project_pieces`).

    Key j stands for counts[j] frames. On piece r, from key starts[r] up
    to the next start, key j is u[j] * basis[2r] + basis[2r + 1]. `shape`
    is that of the T' x d matrix the pieces stand for.
    """

    u: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    basis: np.ndarray

    @property
    def shape(self):
        return (len(self.u), self.basis.shape[1])


def scaled_dot_attention(q, k, v, scale_mode="sqrt"):
    """softmax(q k^T / s) v for one row block of a full level's queries.

    State keys and values go to the dense kernel (`nn.scaled_dot_attention`).
    With PieceKeys, q holds each query's dot products with `k.basis` and v
    is the value basis: on piece r a value is u * v[2r] + v[2r + 1]. A
    query scores piece r's keys as u * A_r + B_r, a product over 2, not
    over d. Each is affine in u on its piece, so a row's largest score is
    at a piece's first or last key. The output row is the sum over pieces
    of sum(w * u) v[2r] + sum(w) v[2r + 1], divided by sum(w), where w is a
    key's exp score times its count.

    Every full level calls this under this name once per row block, so
    perfbench's tracer counts each block's scores, whatever the keys.
    """
    if not isinstance(k, PieceKeys):
        return dense_attention(q, k, v, scale_mode).output
    u, starts, rows = k.u, k.starts, q.shape[0]
    n = len(starts)
    ends = np.append(starts[1:], len(u))
    coef = q.T.copy().reshape(n, 2, rows)
    coef /= score_scale(k.shape[1], scale_mode)
    a, b = coef[:, 0], coef[:, 1]
    b -= np.maximum(a * u[starts, None] + b, a * u[ends - 1, None] + b).max(axis=0)
    u1 = np.stack([u, np.ones_like(u)], axis=1)
    sums = u1.T * k.counts  # a key's weights in sum(w * u) and in sum(w)
    buf = np.empty(np.max(ends - starts) * rows)
    w = np.empty((n, 2, rows))
    for r, (lo, hi) in enumerate(zip(starts, ends)):
        e = np.matmul(u1[lo:hi], coef[r], out=buf[: (hi - lo) * rows].reshape(hi - lo, rows))
        np.exp(e, out=e)
        np.matmul(sums[:, lo:hi], e, out=w[r])
    out = w.reshape(2 * n, rows).T @ v
    out /= w[:, 1].sum(axis=0)[:, None]
    return out


def cross_attention_stage(h_query, h_kv, params, scale_mode="sqrt", pooled=False):
    """One aggregation level: project q/k/v, attend, no residual.

    Both inputs must have the same frame count T; either may be an
    F0Prompt. The scores are computed one row block of queries
    (`row_blocks`) at a time against all of K (`scaled_dot_attention`);
    each row's softmax sees every key, so each output row is the dense
    kernel's (up to BLAS rounding) while at most BLOCK_ROWS x T weights
    exist at a time. A full level keyed by an F0Prompt attends through
    its pieces (`PieceKeys`), its query projection folded into their
    basis; any other use of a prompt takes its states.

    Returns (output, None); the T x T weights are never held, so there is
    no trace to return. The output is T x d, or with `pooled` the 1 x d
    mean of its rows, for a last level whose rows are only averaged. Each
    softmax row sums to 1, so that mean is (column-mean of A) h_kv Wv + bv:
    the pooled form makes no V projection, no A V product and no
    normalised weights.
    """
    _check_aligned(h_query, h_kv)
    if isinstance(h_query, F0Prompt):
        h_query = h_query.states()
    if isinstance(h_kv, F0Prompt) and pooled:
        h_kv = h_kv.states()
    if pooled:
        q, k = project_qkv((h_query, h_kv), params)  # two inputs: Q and K only
        col = np.zeros(k.shape[0])
        for s in row_blocks(q.shape[0]):
            col += _column_sums(q[s], k, scale_mode)
        col /= q.shape[0]
        return affine((col @ h_kv)[None], params["wv"], params["bv"]), None
    if isinstance(h_kv, F0Prompt):
        k, v = h_kv.project_pieces([(params["wk"], params["bk"]), (params["wv"], params["bv"])])
        v = v.basis
        q = affine(h_query, np.asarray(params["wq"], dtype=np.float64) @ k.basis.T, params["bq"] @ k.basis.T)
    else:
        q, k, v = project_qkv((h_query, h_kv, h_kv), params)
    out = np.empty((q.shape[0], v.shape[1]))
    for s in row_blocks(q.shape[0]):
        out[s] = scaled_dot_attention(q[s], k, v, scale_mode)
    return out, None


def level1_attention(h_sv, h_prompt, params, scale_mode="sqrt", pooled=False):
    """Prompt the backbone frame states with the encoded local/global cue; pooled when it is the last level."""
    out, _ = cross_attention_stage(h_sv, h_prompt, params, scale_mode, pooled)
    return out


def level2_attention(h_query, h_ca1, params, scale_mode="sqrt"):
    """Probe the level-1 aggregate with the remaining cue as queries: the last level, so 1 x d."""
    out, _ = cross_attention_stage(h_query, h_ca1, params, scale_mode, pooled=True)
    return out


def split_and_fuse(pooled, tokens, heads, params):
    """Fuse the aggregate with the learned token bank.

    `pooled`, the time-mean of the last level's states, queries the tokens
    via multi-head attention; the attention-weighted sum of the (projected)
    tokens is the embedding.
    """
    if tokens.ndim != 2 or tokens.shape[1:] != pooled.shape:
        raise ShapeMismatch("tokens %s vs pooled state %s" % (tokens.shape, pooled.shape))
    return multi_head_attention(pooled[None, :], tokens, tokens, heads, params)[0]


def _encode(cue, mel, contour, params):
    p = param_group(params, ENCODERS[cue])
    return encode_f0(contour, p) if cue == "f0" else encode_mel(mel, p)


def aggregate(h_sv, z, mel, contour, params, cfg: AggregationConfig):
    """Mode dispatch over already-computed intermediate representations."""
    cues = cfg.cues
    if not cues:
        return z
    sm = cfg.scale_mode
    prompt, p1 = _encode(cues[0], mel, contour, params), param_group(params, "level1")
    # Only the time-mean of the last level is used, so that level is pooled.
    if len(cues) == 1:
        h = level1_attention(h_sv, prompt, p1, sm, pooled=True)
    else:
        h = level1_attention(h_sv, prompt, p1, sm)
        del prompt  # level 2 has its own cue
        h = level2_attention(_encode(cues[1], mel, contour, params), h, param_group(params, "level2"), sm)
    # A pooled level's one row is its own mean; perfbench/test_smoke.py runs both levels full and needs the mean.
    pooled = h.mean(axis=0)
    if cfg.splitting:
        return split_and_fuse(pooled, params["tokens"], cfg.heads, param_group(params, "fuse"))
    return pooled


def front_end(buf: AudioBuffer, agg_cfg: AggregationConfig):
    """Raw audio -> (mel frames, F0 contour or None when the mode has no F0 cue).

    The buffer is resampled to CANONICAL_RATE if it is not already there.
    The model needs nothing else of the samples, so a buffer the caller
    does not keep is freed when this returns, before the backbone runs.
    `extract_embedding` cannot promise that where the caller's frame holds
    a call's arguments until it returns, as Python 3.10's does.
    """
    if buf.sample_rate_hz != CANONICAL_RATE:
        buf = resample(buf, CANONICAL_RATE)
    return mel_spectrogram(buf), (yin_f0(buf) if "f0" in agg_cfg.cues else None)


def embed_features(mel, contour, store, backbone_cfg: BackboneConfig, agg_cfg: AggregationConfig) -> SpeakerEmbedding:
    """The front end's output -> speaker embedding for the configured mode; `store` is a ParamStore (weights module)."""
    bb = backbone_forward(mel, param_group(store.entries, "backbone"))
    vec = aggregate(bb.frame_states, bb.pooled, mel, contour, param_group(store.entries, "agg"), agg_cfg)
    return SpeakerEmbedding(vec, agg_cfg.mode, config_hash(backbone_cfg, agg_cfg))


def extract_embedding(buf: AudioBuffer, store, backbone_cfg: BackboneConfig, agg_cfg: AggregationConfig) -> SpeakerEmbedding:
    """Raw audio -> speaker embedding: `front_end`, then `embed_features`.

    The samples are dropped once the mel and F0 views are made, so the
    backbone runs without them unless the caller holds the buffer.
    """
    mel, contour = front_end(buf, agg_cfg)
    del buf
    return embed_features(mel, contour, store, backbone_cfg, agg_cfg)
