"""Two-level cross-attention aggregation and the final embedding.

The frame states from the speaker backbone are prompted with encoded F0
(level 1), optionally probed again with the mel encoding (level 2), and
the time-mean of the result is fused with a bank of learned tokens
through multi-head attention. Only that mean of the last level is used,
so the last level computes it directly. Every Table-3-style ablation is
a `mode` of the same forward.
"""

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
    scaled_dot_attention,
)

# Query rows per attention block in an aggregation level: a level holds at
# most ATTENTION_ROWS x T weights instead of T x T.
ATTENTION_ROWS = 256


def encode_f0(contour: F0Contour, params) -> np.ndarray:
    """F0 contour -> T x d states via a two-layer MLP.

    Per-frame features are (ln(f0/100) if voiced else 0, voiced flag), so
    unvoiced frames all map to one shared embedding.
    """
    if len(contour) == 0:
        raise EmptyContour("empty F0 contour")
    feat = np.zeros((len(contour), 2))
    v = contour.voiced
    feat[v, 0] = np.log(contour.f0_hz[v] / 100.0)
    feat[v, 1] = 1.0
    h = relu(affine(feat, params["fc1.weight"], params["fc1.bias"]))
    return affine(h, params["fc2.weight"], params["fc2.bias"])


def encode_mel(mel: MelSpectrogram, params) -> np.ndarray:
    """Mel frames -> T x d states: two FC+ReLU blocks then a gated conv."""
    h = relu(affine(mel.frames, params["fc1.weight"], params["fc1.bias"]))
    h = relu(affine(h, params["fc2.weight"], params["fc2.bias"]))
    return glu_gated_conv(h, params["glu.kernels"], params["glu.bias"])


def _check_aligned(h_query, h_kv):
    # Mel and F0 share one framing, so every stream has the same T; a
    # difference is a framing bug, not something to trim away.
    if h_query.shape[0] != h_kv.shape[0]:
        raise ShapeMismatch("stage query has %d frames, keys %d" % (h_query.shape[0], h_kv.shape[0]))


def _column_sums(q, k, scale_mode):
    """Column sums of softmax(Q K^T / s): each row of exp scores times 1 / its sum, added up.

    The scores live only inside this call, so a caller's loop holds one
    block of them at a time.
    """
    e = exp_scores(q, k, scale_mode)
    return (1.0 / e.sum(axis=1)) @ e


def cross_attention_stage(h_query, h_kv, params, scale_mode="sqrt", pooled=False):
    """One aggregation level: project q/k/v, attend, no residual.

    Both inputs must have the same frame count T. The scores are computed
    in blocks of ATTENTION_ROWS query rows against all of K; each row's
    softmax sees every key, so each output row is the dense kernel's (up
    to BLAS rounding) while only ATTENTION_ROWS x T weights exist at a
    time.

    Returns (output, None); the T x T weights are never held, so there is
    no trace to return. The output is T x d, or with `pooled` the 1 x d
    mean of its rows, for a last level whose rows are only averaged. Each
    softmax row sums to 1, so that mean is (column-mean of A) h_kv Wv + bv:
    the pooled form makes no V projection, no A V product and no
    normalised weights.
    """
    _check_aligned(h_query, h_kv)
    if pooled:
        q, k = project_qkv((h_query, h_kv), params)  # two inputs: Q and K only
        col = np.zeros(k.shape[0])
        for i in range(0, q.shape[0], ATTENTION_ROWS):
            col += _column_sums(q[i : i + ATTENTION_ROWS], k, scale_mode)
        col /= q.shape[0]
        return affine((col @ h_kv)[None], params["wv"], params["bv"]), None
    q, k, v = project_qkv((h_query, h_kv, h_kv), params)
    out = np.empty((q.shape[0], v.shape[1]))
    for i in range(0, q.shape[0], ATTENTION_ROWS):
        out[i : i + ATTENTION_ROWS] = scaled_dot_attention(q[i : i + ATTENTION_ROWS], k, v, scale_mode).output
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
    out, _ = multi_head_attention(pooled[None, :], tokens, tokens, heads, params)
    return out[0]


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
