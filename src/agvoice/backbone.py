"""ECAPA-style frame encoder.

Three dilated SE-Res2 blocks over 1x1-projected mel frames, multi-layer
feature aggregation, then two heads: an affine frame projection giving
the per-frame states H, and channel-dependent attentive statistics
pooling giving the utterance-level vector z.
"""

from dataclasses import dataclass

import numpy as np

from .config import DILATIONS, RES2_SCALE, BackboneConfig  # noqa: F401  (BackboneConfig: perfbench/workloads.py imports it from here)
from .dsp import MelSpectrogram
from .errors import IndivisibleScale
from .nn import affine, conv1d, param_group, relu, row_blocks, sigmoid


@dataclass(frozen=True)
class BackboneOutput:
    frame_states: np.ndarray  # T x d_model
    pooled: np.ndarray        # d_model

VARIANCE_FLOOR = 1e-9


def se_gate(x, params):
    """Squeeze-excitation channel gate: sigmoid MLP over the time-mean, 1 x C."""
    s = x.mean(axis=0, keepdims=True)
    return sigmoid(affine(relu(affine(s, params["w1"], params["b1"])), params["w2"], params["b2"]))


def res2_block(x, dilation, params):
    """Res2 hierarchical group convs + SE gate + residual.

    Channels split into RES2_SCALE groups after a 1x1 input conv; group 1
    passes through, each later group goes through a dilated k=3 conv (and
    ReLU) of itself plus the previous group's output. Each group's output
    overwrites its own slice of the input conv's output, which so becomes
    the groups' concatenation without a copy; the output conv then
    overwrites it in place, one row block at a time. With the input x, one
    more T x C array is live.
    """
    x = np.asarray(x)
    c = x.shape[1]
    if c % RES2_SCALE:
        raise IndivisibleScale("C=%d not divisible by scale=%d" % (c, RES2_SCALE))
    g = c // RES2_SCALE
    h = affine(x, params["conv_in.weight"], params["conv_in.bias"])
    for i in range(1, RES2_SCALE):
        gi = h[:, i * g : (i + 1) * g]
        gi += h[:, (i - 1) * g : i * g]
        np.maximum(conv1d(gi, params["group%d.kernels" % (i + 1)], dilation), 0.0, out=gi)
    affine(h, params["conv_out.weight"], params["conv_out.bias"], out=h)
    h *= se_gate(h, param_group(params, "se"))
    h += x
    return h


def attentive_stats_pooling(h, params):
    """Channel-dependent attentive mean/std pooling: concat(mu, sigma), 2C.

    One T x C array holds the logits, then the weights alpha (a softmax
    over time per channel), then alpha * h, then alpha * h * h.
    """
    h = np.asarray(h)
    a = affine(np.tanh(affine(h, params["w1"], params["b1"])), params["w2"], params["b2"])
    a -= a.max(axis=0)
    np.exp(a, out=a)
    a /= a.sum(axis=0)
    a *= h
    mu = np.sum(a, axis=0)
    a *= h
    var = np.sum(a, axis=0) - mu * mu
    sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    return np.concatenate([mu, sigma])


def backbone_forward(mel: MelSpectrogram, params) -> BackboneOutput:
    """Mel frames -> (frame states H, pooled vector z).

    The multi-layer feature aggregation is a 1x1 conv over the three block
    outputs side by side; it is summed block by block, each block output
    times its C rows of the weight, added into the sum one row block at a
    time. So at most three T x C arrays are live: the sum, a block's input
    and the Res2 block's work array.
    """
    x = affine(mel.frames, params["conv_in.weight"], params["conv_in.bias"])
    np.maximum(x, 0.0, out=x)
    c = x.shape[1]
    agg = np.full(x.shape, -0.0)  # -0.0 + y is y bit for bit; mfa.bias comes last
    for i, dil in enumerate(DILATIONS):
        x = res2_block(x, dil, param_group(params, "block%d" % (i + 1)))
        w = np.asarray(params["mfa.weight"][i * c : (i + 1) * c], dtype=np.float64)
        for s in row_blocks(len(x)):
            agg[s] += x[s] @ w
        del w  # a C x C cast: not kept through the next block
    del x
    agg += params["mfa.bias"]
    frame_states = affine(agg, params["proj_frames.weight"], params["proj_frames.bias"])
    stats = attentive_stats_pooling(agg, param_group(params, "pool"))
    pooled = affine(stats[None, :], params["proj_pooled.weight"], params["proj_pooled.bias"])[0]
    return BackboneOutput(frame_states, pooled)
