import tracemalloc
import weakref

import numpy as np
import pytest

from agvoice import aggregation, nn
from agvoice.aggregation import (
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
from agvoice.audio_io import AudioBuffer
from agvoice.dsp import F0Contour, MelSpectrogram, mel_spectrogram, yin_f0
from agvoice.embedding import SpeakerEmbedding, embedding_from_bytes, embedding_from_json, embedding_to_bytes, embedding_to_json
from agvoice.errors import EmptyContour, ShapeMismatch
from agvoice.nn import BLOCK_ROWS as ROWS, affine, glu_gated_conv, param_group, project_qkv, relu, row_blocks, scaled_dot_attention
from agvoice.weights import ParamStore, init_params
from conftest import SR, sine
from oracles import loop_attention, loop_mha, loop_pooled_stage, loop_stage, reference_embedding


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


def repeat_rows(rng, x, frac=0.15):
    """x with about `frac` of its rows (at least two) set to one shared row."""
    x = x.copy()
    x[rng.choice(len(x), max(2, round(frac * len(x))), replace=False)] = rng.standard_normal(x.shape[1])
    return x


def contour_of(f0, voiced):
    f0 = np.asarray(f0, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    return F0Contour(f0, voiced, np.zeros_like(f0))


class TestEncodeF0:
    def test_unvoiced_frames_share_embedding(self, rng):
        p = f0_params(rng, 6)
        h = encode_f0(contour_of([0, 0, 0], [False, False, False]), p).states()
        assert np.array_equal(h[0], h[1])
        assert np.array_equal(h[0], h[2])

    def test_100hz_feature_zero(self, rng):
        p = f0_params(rng, 4)
        h = encode_f0(contour_of([100.0], [True]), p).states()
        ref = affine(relu(affine(np.array([[0.0, 1.0]]), p["fc1.weight"], p["fc1.bias"])), p["fc2.weight"], p["fc2.bias"])
        assert np.array_equal(h, ref)

    def test_matches_scripted_two_layer(self, rng):
        p = f0_params(rng, 5)
        f0 = np.array([110.0, 0.0, 220.0, 330.0])
        voiced = np.array([True, False, True, True])
        h = encode_f0(contour_of(f0, voiced), p).states()
        feat = np.zeros((4, 2))
        feat[voiced, 0] = np.log(f0[voiced] / 100.0)
        feat[voiced, 1] = 1.0
        ref = np.maximum(feat @ p["fc1.weight"] + p["fc1.bias"], 0) @ p["fc2.weight"] + p["fc2.bias"]
        assert np.max(np.abs(h - ref)) < 1e-12

    def test_keeps_distinct_voiced_values_sorted_with_counts(self, rng):
        f0 = np.array([220.0, 0.0, 110.0, 220.0, 0.0, 220.0])
        prompt = encode_f0(contour_of(f0, f0 > 0), f0_params(rng, 4))
        assert np.array_equal(prompt.u, np.log([1.1, 2.2]))
        assert np.array_equal(prompt.counts, [1.0, 3.0])
        assert np.array_equal(prompt.index, [1, -1, 0, 1, -1, 1])
        assert len(prompt) == 6

    def test_projected_pieces_are_each_keys_projection(self, rng):
        # On piece r, key j through (w, b) is u_j * basis[2r] + basis[2r + 1]: for queries, keys and values
        # alike, with one fc1 unit that ignores u and about a fifth of the frames unvoiced.
        d, t = 8, ROWS + 1
        pe, p = f0_params(rng, d), stage_params(rng, d)
        pe["fc1.weight"][0, 0] = 0.0
        prompt = encode_f0(contour_of(rng.uniform(60.0, 500.0, t), rng.random(t) < 0.8), pe)
        # one frame of each key: the unvoiced frames' shared state, then the voiced u in ascending order
        _, frames, counts = np.unique(prompt.index, return_index=True, return_counts=True)
        states = prompt.states()[frames]
        pairs = [(p["w" + n], p["b" + n]) for n in "qkv"]
        for (w, b), keys in zip(pairs, prompt.project_pieces(pairs), strict=True):
            assert keys.shape == (len(frames), d) and len(keys.starts) > 2
            assert np.array_equal(keys.u, np.append(0.0, prompt.u)) and np.array_equal(keys.counts, counts)
            ends = np.append(keys.starts[1:], len(keys.u))
            for r, (lo, hi) in enumerate(zip(keys.starts, ends)):
                got = np.multiply.outer(keys.u[lo:hi], keys.basis[2 * r]) + keys.basis[2 * r + 1]
                assert np.max(np.abs(got - affine(states[lo:hi], w, b))) < 1e-12, (r, lo, hi)

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
    """cross_attention_stage works one row block of queries (`row_blocks`) at a time."""

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
        blocks = [scaled_dot_attention(q[s], k, v, mode).output for s in row_blocks(t)]
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

    @staticmethod
    def f0_keyed_error(rng, t, mode, f0, voiced, zero_slope=False, query_gain=1.0, rising=False):
        """Largest difference of the full and pooled levels keyed by the F0 prompt of (f0, voiced)
        from loop_stage over the prompt's states and its row mean; the query rows repeat.

        With `rising`, every fc1 unit is active and rises over the voiced range [ln 0.6, ln 5],
        so the voiced keys form one piece, and every query's scores rise along it."""
        d = 4
        p, pe = stage_params(rng, d), f0_params(rng, d)
        if zero_slope:  # every other unit of fc1 ignores u
            pe["fc1.weight"][0, ::2] = 0.0
        if rising:
            a = pe["fc1.weight"][0] = np.abs(pe["fc1.weight"][0]) + 0.1
            pe["fc1.weight"][1] = np.abs(pe["fc1.weight"][1])
            pe["fc1.bias"] = np.abs(pe["fc1.bias"]) + 0.6 * a  # u * a + c > 0 down to u = ln 0.6
        p["wq"] *= query_gain
        prompt = encode_f0(contour_of(f0, voiced), pe)
        hq = repeat_rows(rng, rng.standard_normal((t, d)))
        if rising:
            key_slope = pe["fc1.weight"][0] @ pe["fc2.weight"] @ p["wk"]
            hq[affine(hq, p["wq"], p["bq"]) @ key_slope < 0] *= -1.0
            assert (affine(hq, p["wq"], p["bq"]) @ key_slope > 0).all()
        out, _ = cross_attention_stage(hq, prompt, p, mode)
        pooled, _ = cross_attention_stage(hq, prompt, p, mode, pooled=True)
        ref = loop_stage(hq, prompt.states(), p, mode)
        return max(np.max(np.abs(out - ref)), np.max(np.abs(pooled - ref.mean(axis=0))))

    @pytest.mark.parametrize("t", [ROWS - 1, ROWS + 1, 2 * ROWS + 3])
    @pytest.mark.parametrize("mode", ["sqrt", "linear"])
    def test_f0_keyed_level_matches_loop_stage(self, rng, t, mode):
        # The full level keyed by an F0 prompt attends through the encoder's
        # pieces: every unvoiced frame is one key, and a voiced F0 value that
        # repeats is one key. The pooled level attends over the prompt's states.
        f0 = rng.choice(np.append(rng.uniform(60.0, 500.0, t // 2), [110.0] * 8), t)
        assert self.f0_keyed_error(rng, t, mode, f0, rng.random(t) < 0.8) < 1e-12

    CONTOURS = {
        "no voiced frame": lambda rng, t: (np.zeros(t), np.zeros(t, dtype=bool)),
        "no unvoiced frame": lambda rng, t: (rng.uniform(60.0, 500.0, t), np.ones(t, dtype=bool)),
        "one voiced frame": lambda rng, t: (np.full(t, 180.0), np.arange(t) == t // 3),
        "repeated f0 values": lambda rng, t: (rng.choice([95.0, 100.0, 140.0], t), rng.random(t) < 0.7),
        "f0 at 60 and 500 Hz": lambda rng, t: (rng.choice([60.0, 500.0], t), rng.random(t) < 0.7),
    }

    OPTIONS = {
        "zero fc1 slope": {"zero_slope": True},
        "scores in the thousands": {"query_gain": 1e4},
        "scores in the thousands, largest at the last key": {"query_gain": 1e4, "rising": True},
    }

    @pytest.mark.parametrize("contour", list(CONTOURS) + list(OPTIONS))
    @pytest.mark.parametrize("mode", ["sqrt", "linear"])
    def test_f0_keyed_level_matches_loop_stage_on_edge_contours(self, rng, mode, contour):
        # Scores in the thousands overflow exp unless each row's largest score is subtracted first;
        # a row's largest score on a piece can sit at the piece's last key.
        t = ROWS + 1
        if contour in self.CONTOURS:
            assert self.f0_keyed_error(rng, t, mode, *self.CONTOURS[contour](rng, t)) < 1e-12
        else:
            options = self.OPTIONS[contour]
            f0, voiced = rng.uniform(60.0, 500.0, t), rng.random(t) < (1.0 if options.get("rising") else 0.7)
            assert self.f0_keyed_error(rng, t, mode, f0, voiced, **options) < 1e-12

    def test_f0_keyed_full_level_scores_no_key_states(self, rng, monkeypatch):
        # Every full level calls aggregation.scaled_dot_attention once per row block, with its
        # T' keys; keyed by the F0 prompt, no block reaches the dense kernel's score product.
        d, t = 8, ROWS + 1
        p = stage_params(rng, d)
        f0, voiced = rng.choice(np.round(rng.uniform(60.0, 500.0, t // 2)), t), rng.random(t) < 0.8
        prompt = encode_f0(contour_of(f0, voiced), f0_params(rng, d))
        kernel, dense = aggregation.scaled_dot_attention, nn.exp_scores
        blocks, products = [], []
        monkeypatch.setattr(aggregation, "scaled_dot_attention", lambda *a: blocks.append(np.shape(a[1])) or kernel(*a))
        monkeypatch.setattr(nn, "exp_scores", lambda *a: products.append(np.shape(a[1])) or dense(*a))
        cross_attention_stage(rng.standard_normal((t, d)), prompt, p)
        keys = len(prompt.u) + 1
        assert blocks == [(keys, d)] * len(row_blocks(t)) and products == []
        blocks.clear()
        cross_attention_stage(rng.standard_normal((t, d)), prompt.states(), p)
        assert blocks == products == [(t, d)] * len(row_blocks(t))

    @pytest.mark.parametrize("pooled", [False, True])
    def test_every_row_identical(self, rng, pooled):
        # one key of count t: every query reads its value row
        d, t = 8, ROWS + 1
        p = stage_params(rng, d)
        hq, hkv = np.tile(rng.standard_normal(d), (t, 1)), np.tile(rng.standard_normal(d), (t, 1))
        out, _ = cross_attention_stage(hq, hkv, p, pooled=pooled)
        assert out.shape == (1 if pooled else t, d)
        assert np.max(np.abs(out - affine(hkv[:1], p["wv"], p["bv"]))) < 1e-12

    def test_peak_memory_below_one_score_matrix(self, rng):
        # Each block's scores live in one block x t array of at most ROWS
        # rows, released before the next block's is made; the bound leaves
        # half a block for the t x d projections. At t = 639 a block rule
        # that lets a short remainder join the last block holds 383 x t.
        # Keyed by an F0 prompt, the full level holds one piece's scores of a block at a time.
        d = 8
        p = stage_params(rng, d)
        for t in (2 * ROWS + ROWS // 2 - 1, 2048):
            hq = rng.standard_normal((t, d))
            prompt = encode_f0(contour_of(rng.uniform(60.0, 500.0, t), rng.random(t) < 0.8), f0_params(rng, d))
            for hkv in (rng.standard_normal((t, d)), prompt):
                for pooled in (False, True):
                    tracemalloc.start()
                    try:
                        cross_attention_stage(hq, hkv, p, pooled=pooled)
                        _, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                    assert peak < 1.5 * ROWS * t * 8, (t, pooled, peak / (ROWS * t * 8))


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

    @staticmethod
    def gated_clip_error(setup, mode, bias_rng=None):
        """Largest difference from reference_embedding on a 1 s 220 Hz tone gated 0.2 s on, 0.2 s off,
        without splitting; with `bias_rng`, every bias of the store is redrawn from it first."""
        _, bb_cfg, get = setup
        tone = sine(220.0, seconds=1.0).samples
        buf = AudioBuffer(tone * (np.arange(len(tone)) // 4410 % 2 == 0), SR)
        assert np.mean(yin_f0(buf).voiced) < 0.7
        agg, store = get(mode, splitting=False)
        if bias_rng is not None:  # every 1-D tensor of the store is a bias
            entries = {k: bias_rng.standard_normal(v.shape) * 0.5 if v.ndim == 1 else v for k, v in store.entries.items()}
            store = ParamStore(entries, store.meta)
            assert all(v.any() for v in entries.values())
        emb = extract_embedding(buf, store, bb_cfg, agg)
        return np.max(np.abs(emb.vector - reference_embedding(buf.samples, store.entries, agg)))

    @pytest.mark.parametrize("mode", ["SE_F0", "SE_F0_then_ME", "SE_ME_then_F0"])
    def test_clip_with_silent_gaps_matches_end_to_end_reference_script(self, setup, mode):
        # Silent frames share one F0 state and one mel state; level 1 keyed by F0 attends to
        # that state as one key weighted by its frame count. Without splitting, a level's change is not
        # averaged away by the near-uniform token fusion of seeded weights.
        assert self.gated_clip_error(setup, mode) < 1e-8

    @pytest.mark.parametrize("mode", ["SE_F0", "SE_F0_then_ME", "SE_ME_then_F0"])
    def test_clip_with_silent_gaps_and_nonzero_biases_matches_end_to_end_reference_script(self, setup, mode):
        # init's biases are all zero, so the shared silent F0 state is the zero vector: its key scores 0
        # and its value is 0 whatever count it is weighted by. Redrawn biases make both non-zero.
        assert self.gated_clip_error(setup, mode, np.random.default_rng(7)) < 1e-8

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
