"""ECAPA-style frame encoder.

Three dilated SE-Res2 blocks over 1x1-projected mel frames, multi-layer
feature aggregation, then two heads: an affine frame projection giving
the per-frame states H, and channel-dependent attentive statistics
pooling giving the utterance-level vector z.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import MelSpectrogram
from .errors import IndivisibleScale, InvalidConfig
from .nn import affine, conv1d, param_group, relu, sigmoid, softmax_rows


def require_positive_int(name, value):
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise InvalidConfig("%s must be a positive integer, got %r" % (name, value))


# The ECAPA-TDNN shape the paper uses: each SE-Res2 block splits its
# channels into RES2_SCALE groups, one block per dilation. The input is
# the front end's N_MELS bands.
RES2_SCALE = 8
DILATIONS = (2, 3, 4)


@dataclass(frozen=True)
class BackboneConfig:
    channels: int = 64          # paper scale: 512
    d_model: int = 192

    def __post_init__(self):
        for name in ("channels", "d_model"):
            require_positive_int(name, getattr(self, name))
        if self.channels % RES2_SCALE:
            raise IndivisibleScale("channels=%d not divisible by scale=%d" % (self.channels, RES2_SCALE))

    @property
    def bottleneck(self):
        return max(self.channels // 8, 4)


@dataclass(frozen=True)
class BackboneOutput:
    frame_states: np.ndarray  # T x d_model
    pooled: np.ndarray        # d_model

VARIANCE_FLOOR = 1e-9


def se_block(x, params):
    """Squeeze-excitation channel gate: sigmoid MLP over the time-mean."""
    s = x.mean(axis=0, keepdims=True)
    e = sigmoid(affine(relu(affine(s, params["w1"], params["b1"])), params["w2"], params["b2"]))
    return x * e


def res2_block(x, dilation, params):
    """Res2 hierarchical group convs + SE gate + residual.

    Channels split into RES2_SCALE groups after a 1x1 input conv; group 1
    passes through, each later group goes through a dilated k=3 conv (and
    ReLU) of itself plus the previous group's output.
    """
    x = np.asarray(x)
    c = x.shape[1]
    if c % RES2_SCALE:
        raise IndivisibleScale("C=%d not divisible by scale=%d" % (c, RES2_SCALE))
    g = c // RES2_SCALE
    h = affine(x, params["conv_in.weight"], params["conv_in.bias"])
    ys = [h[:, :g]]
    for i in range(1, RES2_SCALE):
        gi = h[:, i * g : (i + 1) * g]
        ys.append(relu(conv1d(gi + ys[-1], params["group%d.kernels" % (i + 1)], dilation)))
    h = affine(np.concatenate(ys, axis=1), params["conv_out.weight"], params["conv_out.bias"])
    return se_block(h, param_group(params, "se")) + x


def attentive_stats_pooling(h, params):
    """Channel-dependent attentive mean/std pooling: concat(mu, sigma), 2C."""
    h = np.asarray(h)
    logits = affine(np.tanh(affine(h, params["w1"], params["b1"])), params["w2"], params["b2"])
    alpha = softmax_rows(logits.T).T  # softmax over time, per channel
    mu = np.sum(alpha * h, axis=0)
    var = np.sum(alpha * h * h, axis=0) - mu * mu
    sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    return np.concatenate([mu, sigma])


def backbone_forward(mel: MelSpectrogram, params) -> BackboneOutput:
    """Mel frames -> (frame states H, pooled vector z)."""
    x = relu(affine(mel.frames, params["conv_in.weight"], params["conv_in.bias"]))
    block_outs = []
    for i, dil in enumerate(DILATIONS):
        x = res2_block(x, dil, param_group(params, "block%d" % (i + 1)))
        block_outs.append(x)
    agg = affine(np.concatenate(block_outs, axis=1), params["mfa.weight"], params["mfa.bias"])
    frame_states = affine(agg, params["proj_frames.weight"], params["proj_frames.bias"])
    stats = attentive_stats_pooling(agg, param_group(params, "pool"))
    pooled = affine(stats[None, :], params["proj_pooled.weight"], params["proj_pooled.bias"])[0]
    return BackboneOutput(frame_states, pooled)
