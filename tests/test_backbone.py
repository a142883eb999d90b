import tracemalloc

import numpy as np
import pytest

from agvoice.backbone import (
    attentive_stats_pooling,
    backbone_forward,
    res2_block,
    se_gate,
)
from agvoice.config import AggregationConfig, BackboneConfig
from agvoice.dsp import MelSpectrogram
from agvoice.errors import IndivisibleScale
from agvoice.nn import param_group
from agvoice.weights import init_params
from conftest import SR
from oracles import loop_asp, loop_backbone, loop_res2, loop_se


def se_params(rng, c, b):
    return {
        "w1": rng.standard_normal((c, b)) * 0.4,
        "b1": rng.standard_normal(b) * 0.1,
        "w2": rng.standard_normal((b, c)) * 0.4,
        "b2": rng.standard_normal(c) * 0.1,
    }


def res2_params(rng, c, scale=8):
    g = c // scale
    b = max(c // 8, 4)
    p = {
        "conv_in.weight": rng.standard_normal((c, c)) * 0.3,
        "conv_in.bias": rng.standard_normal(c) * 0.1,
        "conv_out.weight": rng.standard_normal((c, c)) * 0.3,
        "conv_out.bias": rng.standard_normal(c) * 0.1,
    }
    for j in range(2, scale + 1):
        p["group%d.kernels" % j] = rng.standard_normal((g, g, 3)) * 0.3
    for k, v in se_params(rng, c, b).items():
        p["se." + k] = v
    return p


class TestSeBlock:
    def test_closed_gate_halves(self, rng):
        x = rng.standard_normal((5, 8))
        p = {"w1": np.zeros((8, 4)), "b1": np.zeros(4), "w2": np.zeros((4, 8)), "b2": np.zeros(8)}
        assert np.allclose(x * se_gate(x, p), 0.5 * x, atol=1e-15)

    def test_open_gate_passes(self, rng):
        x = rng.standard_normal((5, 8))
        p = {"w1": np.zeros((8, 4)), "b1": np.zeros(4), "w2": np.zeros((4, 8)), "b2": np.full(8, 50.0)}
        assert np.max(np.abs(x * se_gate(x, p) - x)) < 1e-12

    def test_matches_loop(self, rng):
        x = rng.standard_normal((6, 8))
        p = se_params(rng, 8, 4)
        assert np.max(np.abs(x * se_gate(x, p) - loop_se(x, p))) < 1e-12


class TestRes2Block:
    def test_zero_convs_pure_residual(self, rng):
        c = 16
        x = rng.standard_normal((5, c))
        p = res2_params(rng, c)
        for name in list(p):
            if "se." not in name:
                p[name] = np.zeros_like(p[name])
        p["se.w1"], p["se.b1"], p["se.w2"], p["se.b2"] = (
            np.zeros_like(p["se.w1"]),
            np.zeros_like(p["se.b1"]),
            np.zeros_like(p["se.w2"]),
            np.zeros_like(p["se.b2"]),
        )
        assert np.array_equal(res2_block(x, 3, p), x)

    def test_single_frame_matches_hand_computation(self, rng):
        c = 8
        p = res2_params(rng, c)
        x = rng.standard_normal((1, c))
        out = res2_block(x, 4, p)
        assert np.max(np.abs(out - loop_res2(x, 4, p))) < 1e-12
        # with one frame, dilated taps only ever see the center sample
        g = c // 8
        h = x @ p["conv_in.weight"] + p["conv_in.bias"]
        ys = [h[:, :g]]
        for i in range(1, 8):
            gi = h[:, i * g : (i + 1) * g]
            ys.append(np.maximum((gi + ys[-1]) @ p["group%d.kernels" % (i + 1)][:, :, 1].T, 0.0))
        hh = np.concatenate(ys, axis=1) @ p["conv_out.weight"] + p["conv_out.bias"]
        se = {k[3:]: v for k, v in p.items() if k.startswith("se.")}
        assert np.max(np.abs(out - (loop_se(hh, se) + x))) < 1e-12

    def test_matches_loop(self, rng):
        x = rng.standard_normal((9, 16))
        x_before = x.copy()
        p = res2_params(rng, 16)
        assert np.max(np.abs(res2_block(x, 2, p) - loop_res2(x, 2, p))) < 1e-10
        assert np.array_equal(x, x_before)

    def test_indivisible_scale(self, rng):
        with pytest.raises(IndivisibleScale):
            res2_block(rng.standard_normal((4, 10)), 2, res2_params(rng, 16))


class TestAttentiveStatsPooling:
    def test_uniform_weights_give_plain_moments(self, rng):
        c = 6
        h = rng.standard_normal((7, c))
        p = {"w1": np.zeros((c, 4)), "b1": np.zeros(4), "w2": np.zeros((4, c)), "b2": np.zeros(c)}
        out = attentive_stats_pooling(h, p)
        assert np.allclose(out[:c], h.mean(axis=0), atol=1e-12)
        assert np.allclose(out[c:], h.std(axis=0), atol=1e-6)

    def test_single_frame_variance_clamp(self, rng):
        c = 4
        h = rng.standard_normal((1, c))
        p = {"w1": rng.standard_normal((c, 4)), "b1": np.zeros(4), "w2": rng.standard_normal((4, c)), "b2": np.zeros(c)}
        out = attentive_stats_pooling(h, p)
        assert np.allclose(out[:c], h[0], atol=1e-12)
        assert np.allclose(out[c:], np.sqrt(1e-9), atol=1e-15)

    def test_matches_loop(self, rng):
        h = rng.standard_normal((6, 4))
        p = {"w1": rng.standard_normal((4, 4)), "b1": rng.standard_normal(4) * 0.1, "w2": rng.standard_normal((4, 4)), "b2": rng.standard_normal(4) * 0.1}
        h_before = h.copy()
        assert np.max(np.abs(attentive_stats_pooling(h, p) - loop_asp(h, p))) < 1e-10
        assert np.array_equal(h, h_before)

    def test_sigma_strictly_positive(self, rng):
        h = np.zeros((5, 3))
        p = {"w1": np.zeros((3, 4)), "b1": np.zeros(4), "w2": np.zeros((4, 3)), "b2": np.zeros(3)}
        out = attentive_stats_pooling(h, p)
        assert (out[3:] >= np.sqrt(1e-9)).all()


class TestBackboneForward:
    def _store(self, cfg, seed=7):
        agg = AggregationConfig(mode="SE", d_model=cfg.d_model, heads=2, n_tokens=2)
        return init_params(cfg, agg, seed)

    def test_frame_count_preserved(self, rng):
        cfg = BackboneConfig(channels=16, d_model=8)
        store = self._store(cfg)
        mel = MelSpectrogram(rng.standard_normal((13, 80)))
        out = backbone_forward(mel, param_group(store.entries, "backbone"))
        assert out.frame_states.shape == (13, 8)
        assert out.pooled.shape == (8,)

    def test_zero_mel_deterministic(self):
        cfg = BackboneConfig(channels=16, d_model=8)
        store = self._store(cfg)
        mel = MelSpectrogram(np.zeros((5, 80)))
        a = backbone_forward(mel, param_group(store.entries, "backbone"))
        b = backbone_forward(mel, param_group(store.entries, "backbone"))
        assert np.isfinite(a.pooled).all()
        assert np.array_equal(a.pooled, b.pooled)
        assert np.array_equal(a.frame_states, b.frame_states)

    def test_matches_composed_oracle(self, rng):
        cfg = BackboneConfig(channels=16, d_model=8)
        store = self._store(cfg, seed=11)
        # T=40 puts frames past the widest padding (dilation 4 pads 4 frames each side)
        mel = MelSpectrogram(rng.standard_normal((40, 80)))
        out = backbone_forward(mel, param_group(store.entries, "backbone"))
        ref_states, ref_pooled = loop_backbone(mel.frames, dict(param_group(store.entries, "backbone")))
        assert np.max(np.abs(out.frame_states - ref_states)) < 1e-12
        assert np.max(np.abs(out.pooled - ref_pooled)) < 1e-12

    def test_params_not_mutated(self, rng):
        cfg = BackboneConfig(channels=16, d_model=8)
        store = self._store(cfg)
        before = {k: v.copy() for k, v in store.entries.items()}
        mel = MelSpectrogram(rng.standard_normal((6, 80)))
        frames_before = mel.frames.copy()
        backbone_forward(mel, param_group(store.entries, "backbone"))
        for k, v in before.items():
            assert np.array_equal(store.entries[k], v)
        assert np.array_equal(mel.frames, frames_before)

    def test_peak_memory_is_three_frame_arrays(self, rng):
        # block outputs are summed into the aggregation one by one, the Res2
        # groups, output conv, SE gate, residual and pooling softmax work in
        # place and the products run in row blocks: 3 T x C float64 arrays
        # are live (the sum, a block's input and its work array), plus the
        # T x C/8 group-conv arrays and one row block
        t, c = 1000, 512
        store = self._store(BackboneConfig(channels=c, d_model=192))
        params = param_group(store.entries, "backbone")
        mel = MelSpectrogram(rng.standard_normal((t, 80)))
        tracemalloc.start()
        try:
            backbone_forward(mel, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * t * c * 8
