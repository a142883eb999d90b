"""Two-level cross-attention aggregation and the final embedding.

The frame states from the speaker backbone are prompted with encoded F0
(level 1), optionally probed again with the mel encoding (level 2), and
the result is fused with a bank of learned tokens through multi-head
attention. Every Table-3-style ablation is a `mode` of the same forward.
"""

import hashlib
import json
import struct
from dataclasses import dataclass, fields

import numpy as np

from .audio_io import CANONICAL_RATE, AudioBuffer, resample
from .backbone import DILATIONS, RES2_SCALE, BackboneConfig, backbone_forward, require_positive_int
from .dsp import N_MELS, F0Contour, MelSpectrogram, mel_spectrogram, yin_f0
from .errors import EmptyContour, IndivisibleHeads, InvalidConfig, ShapeMismatch
from .nn import (
    SCALE_MODES,
    affine,
    attention_backward,
    glu_gated_conv,
    multi_head_attention,
    multi_head_attention_backward,
    param_group,
    project_qkv,
    project_qkv_backward,
    relu,
    scaled_dot_attention,
)

# Mode -> cues in level order: "f0" is the encoded pitch contour, "me" the
# mel prompt encoding. The first cue prompts the backbone states (level 1),
# the second probes that result (level 2); no cue leaves the pooled z.
MODES = {
    "SE": (),
    "SE_F0": ("f0",),
    "SE_ME": ("me",),
    "SE_F0_then_ME": ("f0", "me"),
    "SE_ME_then_F0": ("me", "f0"),
}
# Cue -> the parameter group of its encoder, under `agg.`.
ENCODERS = {"f0": "f0_enc", "me": "mel_enc"}
# The backbone shape no config sets; config_hash and weight files still carry it.
FIXED_FIELDS = {"in_dim": N_MELS, "scale": RES2_SCALE, "dilations": DILATIONS}
# Query rows per attention block in an aggregation level: a level holds at
# most ATTENTION_ROWS x T weights instead of T x T.
ATTENTION_ROWS = 256


@dataclass(frozen=True)
class AggregationConfig:
    mode: str = "SE_F0_then_ME"
    splitting: bool = True
    n_tokens: int = 8
    heads: int = 4
    d_model: int = 192
    scale_mode: str = "sqrt"

    def __post_init__(self):
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise InvalidConfig("unknown mode %r" % (self.mode,))
        if not isinstance(self.scale_mode, str) or self.scale_mode not in SCALE_MODES:
            raise InvalidConfig("unknown scale_mode %r" % (self.scale_mode,))
        if not isinstance(self.splitting, bool):
            raise InvalidConfig("splitting must be true or false, got %r" % (self.splitting,))
        for name in ("n_tokens", "heads", "d_model"):
            require_positive_int(name, getattr(self, name))
        if self.d_model % self.heads:
            raise IndivisibleHeads("d_model=%d vs heads=%d" % (self.d_model, self.heads))

    @property
    def cues(self):
        return MODES[self.mode]


@dataclass(frozen=True)
class SpeakerEmbedding:
    vector: np.ndarray
    mode: str
    config_hash: str


def config_fields(backbone_cfg: BackboneConfig, agg_cfg: AggregationConfig) -> dict:
    """FIXED_FIELDS and every field of both configs by name; the shared d_model is the backbone's."""
    return {**FIXED_FIELDS, **{f.name: getattr(cfg, f.name) for cfg in (agg_cfg, backbone_cfg) for f in fields(cfg)}}


def configs_from_fields(values: dict):
    """(BackboneConfig, AggregationConfig) from field values; absent fields keep their defaults."""
    return tuple(
        cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
        for cls in (BackboneConfig, AggregationConfig)
    )


def config_hash(backbone_cfg: BackboneConfig, agg_cfg: AggregationConfig) -> str:
    """64-bit hex digest over everything that shapes the forward pass."""
    blob = json.dumps(config_fields(backbone_cfg, agg_cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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


def cross_attention_stage(h_query, h_kv, params, scale_mode="sqrt"):
    """One aggregation level: project q/k/v, attend, no residual.

    Both inputs must have the same frame count T. The output is computed
    in blocks of ATTENTION_ROWS query rows against all of K and V; each
    row's softmax sees every key, so each row is the dense kernel's (up
    to BLAS rounding) while only ATTENTION_ROWS x T weights exist at a
    time. Returns (output, None): the T x T weights are never held, so
    there is no trace to return.
    """
    _check_aligned(h_query, h_kv)
    q, k, v = project_qkv((h_query, h_kv, h_kv), params)
    out = np.empty((q.shape[0], v.shape[1]))
    for i in range(0, q.shape[0], ATTENTION_ROWS):
        out[i : i + ATTENTION_ROWS] = scaled_dot_attention(q[i : i + ATTENTION_ROWS], k, v, scale_mode).output
    return out, None


def level1_attention(h_sv, h_prompt, params, scale_mode="sqrt"):
    """Prompt the backbone frame states with the encoded local/global cue."""
    out, _ = cross_attention_stage(h_sv, h_prompt, params, scale_mode)
    return out


def level2_attention(h_query, h_ca1, params, scale_mode="sqrt"):
    """Probe the level-1 aggregate with the remaining cue as queries."""
    out, _ = cross_attention_stage(h_query, h_ca1, params, scale_mode)
    return out


def cross_attention_stage_backward(hq, hk, params, d_out, scale_mode="sqrt"):
    """Gradients of sum(stage_output * d_out) w.r.t. the stage projections."""
    _check_aligned(hq, hk)
    xs = (hq, hk, hk)
    proj = project_qkv(xs, params)
    trace = scaled_dot_attention(*proj, scale_mode)
    grads, _ = project_qkv_backward(xs, params, attention_backward(trace, *proj, d_out, scale_mode))
    return grads


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


def split_and_fuse_backward(pooled, tokens, heads, params, d_out):
    """Gradients of sum(fused * d_out) w.r.t. fusion params and tokens."""
    grads, _dq, dk, dv = multi_head_attention_backward(pooled[None, :], tokens, tokens, heads, params, d_out[None, :])
    grads["tokens"] = dk + dv
    return grads


def _encode(cue, mel, contour, params):
    p = param_group(params, ENCODERS[cue])
    return encode_f0(contour, p) if cue == "f0" else encode_mel(mel, p)


def aggregate(h_sv, z, mel, contour, params, cfg: AggregationConfig):
    """Mode dispatch over already-computed intermediate representations."""
    cues = cfg.cues
    if not cues:
        return z
    sm = cfg.scale_mode
    h = level1_attention(h_sv, _encode(cues[0], mel, contour, params), param_group(params, "level1"), sm)
    if len(cues) == 2:
        h = level2_attention(_encode(cues[1], mel, contour, params), h, param_group(params, "level2"), sm)
    pooled = h.mean(axis=0)
    if cfg.splitting:
        return split_and_fuse(pooled, params["tokens"], cfg.heads, param_group(params, "fuse"))
    return pooled


def extract_embedding(buf: AudioBuffer, store, backbone_cfg: BackboneConfig, agg_cfg: AggregationConfig) -> SpeakerEmbedding:
    """Raw audio -> speaker embedding for the configured mode.

    The buffer is resampled to CANONICAL_RATE if it is not already there.
    `store` is a ParamStore (weights module).
    """
    if buf.sample_rate_hz != CANONICAL_RATE:
        buf = resample(buf, CANONICAL_RATE)
    mel = mel_spectrogram(buf)
    contour = yin_f0(buf) if "f0" in agg_cfg.cues else None
    bb = backbone_forward(mel, param_group(store.entries, "backbone"))
    vec = aggregate(bb.frame_states, bb.pooled, mel, contour, param_group(store.entries, "agg"), agg_cfg)
    return SpeakerEmbedding(vec, agg_cfg.mode, config_hash(backbone_cfg, agg_cfg))


EMBEDDING_MAGIC = b"AGVE0001"


def embedding_to_json(emb: SpeakerEmbedding) -> str:
    return json.dumps(
        {
            "mode": emb.mode,
            "d": len(emb.vector),
            "config_hash": emb.config_hash,
            "values": [float(np.float32(v)) for v in emb.vector],
        },
        sort_keys=True,
    )


def embedding_from_json(text: str) -> SpeakerEmbedding:
    obj = json.loads(text)
    values, d = obj["values"], obj["d"]
    # json gives bool for true/false, so exact types keep them out
    if type(values) is not list or not all(type(v) in (int, float) for v in values):
        raise ShapeMismatch("values must be a flat list of numbers")
    if type(d) is not int or len(values) != d:
        raise ShapeMismatch("declared d=%r but %d values" % (d, len(values)))
    try:
        vec = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ShapeMismatch("a value is too large for float64") from None
    return SpeakerEmbedding(vec, obj["mode"], obj["config_hash"])


def embedding_to_bytes(emb: SpeakerEmbedding) -> bytes:
    return (
        EMBEDDING_MAGIC
        + struct.pack("<I", len(emb.vector))
        + np.asarray(emb.vector, dtype="<f4").tobytes()
    )


def embedding_from_bytes(data: bytes) -> SpeakerEmbedding:
    """A binary embedding; the format stores neither mode nor config hash, so both are empty."""
    if data[:8] != EMBEDDING_MAGIC:
        raise ShapeMismatch("bad embedding magic")
    if len(data) < 12:
        raise ShapeMismatch("truncated embedding header")
    (d,) = struct.unpack_from("<I", data, 8)
    if len(data) != 12 + 4 * d:
        raise ShapeMismatch("embedding payload is %d bytes, d=%d needs %d" % (len(data) - 12, d, 4 * d))
    return SpeakerEmbedding(np.frombuffer(data, dtype="<f4", offset=12).astype(np.float64), "", "")
