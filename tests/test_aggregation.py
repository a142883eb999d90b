import tracemalloc
import weakref

import numpy as np
import pytest

from agvoice import aggregation
from agvoice.aggregation import (
    ATTENTION_ROWS as ROWS,
    cross_attention_stage,
    encode_f0,
    encode_mel,
    extract_embedding,
    level1_attention,
    level2_attention,
    split_and_fuse,
)
from agvoice.backbone import backbone_forward
from agvoice.config import MODES, AggregationConfig, BackboneConfig, config_hash
from agvoice.dsp import F0Contour, MelSpectrogram, mel_spectrogram
from agvoice.embedding import SpeakerEmbedding, embedding_from_bytes, embedding_from_json, embedding_to_bytes, embedding_to_json
from agvoice.errors import EmptyContour, ShapeMismatch
from agvoice.nn import affine, glu_gated_conv, param_group, project_qkv, relu, scaled_dot_attention
from agvoice.weights import init_params
from conftest import sine
from oracles import loop_attention, loop_mha, loop_pooled_stage, reference_embedding


def stage_params(rng, d):
    p = {}
    for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")):
        p[w] = rng.standard_normal((d, d)) * 0.4
        p[b] = rng.standard_normal(d) * 0.1
    return p


def f0_params(rng, d):
    return {
        "fc1.weight": rng.standard_normal((2, d)) * 0.5,
        "fc1.bias": rng.standard_normal(d) * 0.1,
        "fc2.weight": rng.standard_normal((d, d)) * 0.5,
        "fc2.bias": rng.standard_normal(d) * 0.1,
    }


def contour_of(f0, voiced):
    f0 = np.asarray(f0, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    return F0Contour(f0, voiced, np.zeros_like(f0))


class TestEncodeF0:
    def test_unvoiced_frames_share_embedding(self, rng):
        p = f0_params(rng, 6)
        h = encode_f0(contour_of([0, 0, 0], [False, False, False]), p)
        assert np.array_equal(h[0], h[1])
        assert np.array_equal(h[0], h[2])

    def test_100hz_feature_zero(self, rng):
        p = f0_params(rng, 4)
        h = encode_f0(contour_of([100.0], [True]), p)
        ref = affine(relu(affine(np.array([[0.0, 1.0]]), p["fc1.weight"], p["fc1.bias"])), p["fc2.weight"], p["fc2.bias"])
        assert np.array_equal(h, ref)

    def test_matches_scripted_two_layer(self, rng):
        p = f0_params(rng, 5)
        f0 = np.array([110.0, 0.0, 220.0, 330.0])
        voiced = np.array([True, False, True, True])
        h = encode_f0(contour_of(f0, voiced), p)
        feat = np.zeros((4, 2))
        feat[voiced, 0] = np.log(f0[voiced] / 100.0)
        feat[voiced, 1] = 1.0
        ref = np.maximum(feat @ p["fc1.weight"] + p["fc1.bias"], 0) @ p["fc2.weight"] + p["fc2.bias"]
        assert np.max(np.abs(h - ref)) < 1e-12

    def test_empty_contour(self, rng):
        with pytest.raises(EmptyContour):
            encode_f0(contour_of([], []), f0_params(rng, 4))


class TestEncodeMel:
    def _params(self, rng, d):
        return {
            "fc1.weight": rng.standard_normal((80, d)) * 0.2,
            "fc1.bias": rng.standard_normal(d) * 0.1,
            "fc2.weight": rng.standard_normal((d, d)) * 0.4,
            "fc2.bias": rng.standard_normal(d) * 0.1,
            "glu.kernels": rng.standard_normal((2 * d, d, 3)) * 0.3,
            "glu.bias": rng.standard_normal(2 * d) * 0.1,
        }

    def test_constant_mel_constant_interior(self, rng):
        p = self._params(rng, 6)
        mel = MelSpectrogram(np.tile(rng.standard_normal(80), (7, 1)))
        h = encode_mel(mel, p)
        assert np.max(np.abs(h[1:-1] - h[1])) < 1e-12

    def test_silence_deterministic(self, rng):
        p = self._params(rng, 6)
        mel = MelSpectrogram(np.full((5, 80), np.log(1e-5)))
        a, b = encode_mel(mel, p), encode_mel(mel, p)
        assert np.isfinite(a).all()
        assert np.array_equal(a, b)

    def test_matches_composed_oracle(self, rng):
        d = 8
        p = self._params(rng, d)
        mel = MelSpectrogram(rng.standard_normal((5, 80)))
        h = encode_mel(mel, p)
        ref = relu(affine(mel.frames, p["fc1.weight"], p["fc1.bias"]))
        ref = relu(affine(ref, p["fc2.weight"], p["fc2.bias"]))
        ref = glu_gated_conv(ref, p["glu.kernels"], p["glu.bias"])
        assert np.max(np.abs(h - ref)) < 1e-10


class TestAttentionLevels:
    def test_singleton_prompt(self, rng):
        d = 6
        p = stage_params(rng, d)
        h_sv = rng.standard_normal((1, d))
        prompt = rng.standard_normal((1, d))
        out = level1_attention(h_sv, prompt, p)
        ref = affine(prompt, p["wv"], p["bv"])
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_saturated_logit_recovers_value_row(self):
        d = 4
        p = {n: np.eye(d) for n in ("wq", "wk", "wv")}
        p.update({n: np.zeros(d) for n in ("bq", "bk", "bv")})
        h_sv = np.eye(d)[0:1] * 30.0
        prompt = np.vstack([np.eye(d)[0] * 30.0, -np.eye(d)[0] * 30.0, np.eye(d)[1]])
        out = level1_attention(h_sv, prompt[:1].repeat(1, axis=0), p)
        full = level1_attention(np.vstack([h_sv]), prompt[: h_sv.shape[0]], p)
        assert np.max(np.abs(out - prompt[0])) < 1e-12
        assert np.max(np.abs(full - prompt[0])) < 1e-12

    def test_constant_kv_collapses(self, rng):
        d = 5
        p = stage_params(rng, d)
        row = rng.standard_normal(d)
        h_ca1 = np.tile(row, (4, 1))
        out1 = level2_attention(rng.standard_normal((4, d)), h_ca1, p)
        out2 = level2_attention(rng.standard_normal((4, d)), h_ca1, p)
        ref = affine(row[None, :], p["wv"], p["bv"])[0]
        assert np.max(np.abs(out1 - ref)) < 1e-12
        assert np.max(np.abs(out2 - ref)) < 1e-12

    def test_zero_query_uniform_attention(self, rng):
        d = 5
        p = stage_params(rng, d)
        p["wq"] = np.zeros((d, d))
        p["bq"] = np.zeros(d)
        h_kv = rng.standard_normal((4, d))
        out = level2_attention(rng.standard_normal((4, d)), h_kv, p)
        v = affine(h_kv, p["wv"], p["bv"])
        assert np.max(np.abs(out - v.mean(axis=0))) < 1e-12

    def test_matches_composed_oracle(self, rng):
        # one block, then two blocks of which the last holds one row
        for t, d in ((4, 8), (ROWS + 1, 2)):
            p = stage_params(rng, d)
            hq, hkv = rng.standard_normal((t, d)), rng.standard_normal((t, d))
            for mode in ("sqrt", "linear"):
                out = level1_attention(hq, hkv, p, mode)
                ref = loop_attention(
                    hq @ p["wq"] + p["bq"], hkv @ p["wk"] + p["bk"], hkv @ p["wv"] + p["bv"], mode
                )
                assert np.max(np.abs(out - ref)) < 1e-12

    def test_unequal_lengths_rejected(self, rng):
        # the shared framing makes every stream the same length, so a
        # mismatch is a bug to report, not a tail to trim
        d = 4
        p = stage_params(rng, d)
        hq, hkv = rng.standard_normal((6, d)), rng.standard_normal((4, d))
        with pytest.raises(ShapeMismatch):
            level1_attention(hq, hkv, p)
        with pytest.raises(ShapeMismatch):
            cross_attention_stage(hq, hkv, p, pooled=True)

    def test_rows_convex_in_projected_values(self, rng):
        d = 5
        p = stage_params(rng, d)
        hq, hkv = rng.standard_normal((5, d)), rng.standard_normal((5, d))
        out, _ = cross_attention_stage(hq, hkv, p)
        v = affine(hkv, p["wv"], p["bv"])
        assert (out <= v.max(axis=0) + 1e-12).all()
        assert (out >= v.min(axis=0) - 1e-12).all()


class TestBlockedStage:
    """cross_attention_stage works in blocks of ATTENTION_ROWS query rows."""

    @pytest.mark.parametrize("t", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
    @pytest.mark.parametrize("mode", ["sqrt", "linear"])
    def test_matches_dense_kernel(self, rng, t, mode):
        d = 8
        p = stage_params(rng, d)
        hq, hkv = rng.standard_normal((t, d)), rng.standard_normal((t, d))
        out, second = cross_attention_stage(hq, hkv, p, mode)
        assert second is None
        q, k, v = project_qkv((hq, hkv, hkv), p)
        dense = scaled_dot_attention(q, k, v, mode).output
        # Each block is the dense kernel on its rows with every key and value.
        blocks = [scaled_dot_attention(q[i : i + ROWS], k, v, mode).output for i in range(0, t, ROWS)]
        assert np.array_equal(out, np.concatenate(blocks))
        if t <= ROWS:
            assert np.array_equal(out, dense)
        else:
            # BLAS may round a row differently when it sits in a matrix of
            # another height, so across blocks the match is to the last ulps.
            assert np.max(np.abs(out - dense)) < 1e-14

    @pytest.mark.parametrize("t", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
    @pytest.mark.parametrize("mode", ["sqrt", "linear"])
    def test_pooled_matches_mean_of_loop_rows(self, rng, t, mode):
        d = 4
        p = stage_params(rng, d)
        hq, hkv = rng.standard_normal((t, d)), rng.standard_normal((t, d))
        out, second = cross_attention_stage(hq, hkv, p, mode, pooled=True)
        assert out.shape == (1, d) and second is None
        assert np.max(np.abs(out - loop_pooled_stage(hq, hkv, p, mode))) < 1e-12

    def test_peak_memory_below_one_score_matrix(self, rng):
        # Each block's scores live in one ROWS x t array, released before
        # the next block's is made; the bound leaves half a block for the
        # t x d projections.
        d, t = 8, 2048
        p = stage_params(rng, d)
        hq, hkv = rng.standard_normal((t, d)), rng.standard_normal((t, d))
        for pooled in (False, True):
            tracemalloc.start()
            try:
                cross_attention_stage(hq, hkv, p, pooled=pooled)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * ROWS * t * 8, (pooled, peak / (ROWS * t * 8))


class TestSplitAndFuse:
    def _fuse_params(self, rng, d):
        p = {}
        for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv"), ("wo", "bo")):
            p[w] = rng.standard_normal((d, d)) * 0.4
            p[b] = rng.standard_normal(d) * 0.1
        return p

    def test_single_token_ignores_input(self, rng):
        d = 8
        p = self._fuse_params(rng, d)
        token = rng.standard_normal((1, d))
        a = split_and_fuse(rng.standard_normal((5, d)).mean(axis=0), token, 2, p)
        b = split_and_fuse(rng.standard_normal((9, d)).mean(axis=0), token, 2, p)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_duplicate_tokens_collapse(self, rng):
        d = 8
        p = self._fuse_params(rng, d)
        token = rng.standard_normal(d)
        pooled = rng.standard_normal((4, d)).mean(axis=0)
        one = split_and_fuse(pooled, token[None, :], 2, p)
        two = split_and_fuse(pooled, np.tile(token, (2, 1)), 2, p)
        assert np.max(np.abs(one - two)) < 1e-12

    def test_matches_per_head_loop(self, rng):
        d = 8
        p = self._fuse_params(rng, d)
        h = rng.standard_normal((5, d))
        tokens = rng.standard_normal((4, d))
        out = split_and_fuse(h.mean(axis=0), tokens, 2, p)
        ref = loop_mha(h.mean(axis=0, keepdims=True), tokens, tokens, 2, p)[0]
        assert np.max(np.abs(out - ref)) < 1e-12


class TestExtractEmbedding:
    @pytest.fixture
    def setup(self, desk_backbone_cfg):
        buf = sine(220.0, seconds=0.5)
        stores = {}

        def get(mode, splitting=True, scale_mode="sqrt"):
            agg = AggregationConfig(mode=mode, splitting=splitting, n_tokens=2, heads=2, d_model=8, scale_mode=scale_mode)
            key = (mode, splitting, scale_mode)
            if key not in stores:
                stores[key] = init_params(desk_backbone_cfg, agg, seed=42)
            return agg, stores[key]

        return buf, desk_backbone_cfg, get

    def test_se_mode_is_backbone_z(self, setup):
        buf, bb_cfg, get = setup
        agg, store = get("SE")
        emb = extract_embedding(buf, store, bb_cfg, agg)
        mel = mel_spectrogram(buf)
        z = backbone_forward(mel, param_group(store.entries, "backbone")).pooled
        assert np.array_equal(emb.vector, z)

    def test_all_modes_finite_same_shape(self, setup):
        buf, bb_cfg, get = setup
        for mode in MODES:
            for splitting in (True, False):
                agg, store = get(mode, splitting)
                emb = extract_embedding(buf, store, bb_cfg, agg)
                assert emb.vector.shape == (8,)
                assert np.isfinite(emb.vector).all()
                assert np.linalg.norm(emb.vector) > 0

    def test_split_flag_changes_vector_not_shape(self, setup):
        buf, bb_cfg, get = setup
        agg1, store = get("SE_F0_then_ME", True)
        agg2, _ = get("SE_F0_then_ME", False)
        a = extract_embedding(buf, store, bb_cfg, agg1)
        # reuse the same store; the no-split path simply ignores the fusion tensors
        b = extract_embedding(buf, store, bb_cfg, agg2)
        assert a.vector.shape == b.vector.shape
        assert not np.array_equal(a.vector, b.vector)

    def test_deterministic(self, setup):
        buf, bb_cfg, get = setup
        agg, store = get("SE_ME_then_F0")
        a = extract_embedding(buf, store, bb_cfg, agg)
        b = extract_embedding(buf, store, bb_cfg, agg)
        assert np.array_equal(a.vector, b.vector)
        assert a.config_hash == b.config_hash

    def test_matches_end_to_end_reference_script(self, setup):
        buf, bb_cfg, get = setup
        agg, store = get("SE_F0_then_ME")
        emb = extract_embedding(buf, store, bb_cfg, agg)
        ref = reference_embedding(buf.samples, store.entries, agg)
        assert np.max(np.abs(emb.vector - ref)) < 1e-8

    def test_resampled_samples_dropped_before_the_backbone(self, setup, monkeypatch):
        # A caller's frame may hold its own argument until the call returns
        # (Python 3.10 does), but a resampled buffer has no owner outside
        # extract_embedding, so it is gone once mel and F0 are made.
        _, bb_cfg, get = setup
        agg, store = get("SE_F0_then_ME")
        made, gone = [], []
        resample, backbone = aggregation.resample, aggregation.backbone_forward

        def traced_resample(buf, rate):
            out = resample(buf, rate)
            made.append(weakref.ref(out.samples))
            return out

        def traced_backbone(mel, params):
            gone.append(made[0]() is None)
            return backbone(mel, params)

        monkeypatch.setattr(aggregation, "resample", traced_resample)
        monkeypatch.setattr(aggregation, "backbone_forward", traced_backbone)
        extract_embedding(sine(220.0, seconds=0.5, sr=16000), store, bb_cfg, agg)
        assert gone == [True]

    @pytest.mark.parametrize("mode", ["SE_F0_then_ME", "SE_ME_then_F0"])
    def test_level1_prompt_dropped_before_level2(self, setup, monkeypatch, mode):
        buf, bb_cfg, get = setup
        agg, store = get(mode)
        prompts, gone = [], []
        encode, level2 = aggregation._encode, aggregation.level2_attention

        def traced_encode(*args):
            out = encode(*args)
            prompts.append(weakref.ref(out))
            return out

        def traced_level2(*args):
            gone.append(prompts[0]() is None)
            return level2(*args)

        monkeypatch.setattr(aggregation, "_encode", traced_encode)
        monkeypatch.setattr(aggregation, "level2_attention", traced_level2)
        extract_embedding(buf, store, bb_cfg, agg)
        assert gone == [True]

    def test_config_hash_distinguishes_modes(self, desk_backbone_cfg):
        hashes = {
            config_hash(desk_backbone_cfg, AggregationConfig(mode=m, n_tokens=2, heads=2, d_model=8))
            for m in MODES
        }
        assert len(hashes) == len(MODES)


class TestEmbeddingSerialization:
    def test_json_roundtrip(self, rng):
        emb = SpeakerEmbedding(rng.standard_normal(8).astype(np.float32).astype(np.float64), "SE_F0", "ab" * 8)
        back = embedding_from_json(embedding_to_json(emb))
        assert np.array_equal(back.vector, emb.vector)
        assert back.mode == emb.mode and back.config_hash == emb.config_hash

    def test_binary_roundtrip(self, rng):
        vec = rng.standard_normal(5).astype(np.float32).astype(np.float64)
        emb = SpeakerEmbedding(vec, "SE", "00" * 8)
        blob = embedding_to_bytes(emb)
        assert blob[:8] == b"AGVE0001"
        back = embedding_from_bytes(blob)
        assert np.array_equal(back.vector, vec)

    def test_json_bool_d_refused(self):
        # true == 1, so a one-value list would match it
        with pytest.raises(ShapeMismatch):
            embedding_from_json('{"mode": "SE", "config_hash": "", "d": true, "values": [1.0]}')

    @pytest.mark.parametrize("cut", [-1, 1], ids=["short", "long"])
    def test_binary_length_must_be_exact(self, cut):
        blob = embedding_to_bytes(SpeakerEmbedding(np.ones(3), "SE", ""))
        with pytest.raises(ShapeMismatch):
            embedding_from_bytes(blob[:cut] if cut < 0 else blob + b"\0" * cut)
