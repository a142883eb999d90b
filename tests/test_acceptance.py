"""Acceptance gate: ten end-to-end criteria, one test each.

Every test prints a single `criterion N: PASS/FAIL` line through the
disabled capture so the verdicts show up in a plain pytest run. Runtime
bounds are asserted where the criterion states one.
"""

import json
import struct
import time

import numpy as np
import pytest

from agvoice.aggregation import extract_embedding
from agvoice.audio_io import AudioBuffer
from agvoice.backbone import attentive_stats_pooling, res2_block
from agvoice.config import MODES, AggregationConfig, BackboneConfig
from agvoice.cli import main
from agvoice.dsp import frame_count, mel_spectrogram, yin_f0
from agvoice.errors import BadMagic, HeaderMismatch, TruncatedPayload
from agvoice.evaluation import SimilarityMatrix, cosine, diagonal_dominance
from agvoice.nn import (
    attention_backward,
    gradcheck,
    multi_head_attention,
    scaled_dot_attention,
)
from agvoice.weights import init_params, load, save
from conftest import SR, sine
from oracles import loop_asp, loop_attention, loop_mha, loop_res2, reference_embedding

DESK_BB = BackboneConfig(channels=16, d_model=8)
DESK_AGG = AggregationConfig(mode="SE_F0_then_ME", n_tokens=2, heads=2, d_model=8)


def verdict(capfd, n, ok, detail):
    with capfd.disabled():
        print("criterion %d: %s (%s)" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (n, detail)


def harmonic_voice(f0, tilt, seconds=0.6, n_harmonics=8, phase=0.0):
    """Synthetic 'speaker': harmonic stack with a per-speaker spectral tilt."""
    t = np.arange(int(round(seconds * SR))) / SR
    x = np.zeros_like(t)
    for k in range(1, n_harmonics + 1):
        if k * f0 >= SR / 2:
            break
        x += (1.0 / k**tilt) * np.sin(2 * np.pi * k * f0 * t + phase * k)
    return AudioBuffer(0.4 * x / np.max(np.abs(x)), SR)


def test_criterion_1_yin_tone_suite(capfd):
    t0 = time.perf_counter()
    worst_frac = 1.0
    for freq in (110.0, 220.0, 440.0):
        c = yin_f0(sine(freq, seconds=1.0))
        interior = slice(2, len(c.f0_hz) - 2)
        err = np.abs(c.f0_hz[interior] - freq)
        good = np.mean(c.voiced[interior] & (err < 0.5))
        worst_frac = min(worst_frac, good)
    sil = yin_f0(AudioBuffer(np.zeros(SR), SR))
    all_unvoiced = not sil.voiced.any()
    dt = time.perf_counter() - t0
    ok = worst_frac >= 0.95 and all_unvoiced and dt < 5.0
    verdict(capfd, 1, ok, "worst tone accuracy %.3f, silence unvoiced=%s, %.1fs" % (worst_frac, all_unvoiced, dt))


def test_criterion_2_framing_alignment(capfd):
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1024, 22050))
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, n), SR)
        expect = (n - 1024) // 256 + 1
        mel = mel_spectrogram(buf)
        contour = yin_f0(buf)
        ok &= mel.frames.shape[0] == expect == len(contour.f0_hz) == frame_count(n)
    verdict(capfd, 2, ok, "50 random lengths, mel == f0 == (n-1024)//256+1")


def test_criterion_3_attention_oracles(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        tq, tk, d = rng.integers(1, 7, size=3)
        q, k = rng.standard_normal((tq, d)), rng.standard_normal((tk, d))
        v = rng.standard_normal((tk, int(rng.integers(1, 5))))
        mode = rng.choice(["sqrt", "linear"])
        tr = scaled_dot_attention(q, k, v, mode)
        worst = max(worst, np.max(np.abs(tr.output - loop_attention(q, k, v, mode))))
    for _ in range(100):
        heads = int(rng.choice([1, 2, 4]))
        d = heads * int(rng.integers(1, 4))
        tq, tk = rng.integers(1, 6, size=2)
        q, k = rng.standard_normal((tq, d)), rng.standard_normal((tk, d))
        p = {w: rng.standard_normal((d, d)) for w in ("wq", "wk", "wv", "wo")}
        p.update({b: rng.standard_normal(d) for b in ("bq", "bk", "bv", "bo")})
        out = multi_head_attention(q, k, k, heads, p)
        worst = max(worst, np.max(np.abs(out - loop_mha(q, k, k, heads, p))))
    for _ in range(100):
        c, scale = 16, 8
        t, dil = int(rng.integers(3, 10)), int(rng.integers(1, 4))
        x = rng.standard_normal((t, c))
        g, bn = c // scale, max(c // 8, 4)
        p = {
            "conv_in.weight": rng.standard_normal((c, c)) * 0.3,
            "conv_in.bias": rng.standard_normal(c) * 0.1,
            "conv_out.weight": rng.standard_normal((c, c)) * 0.3,
            "conv_out.bias": rng.standard_normal(c) * 0.1,
            "se.w1": rng.standard_normal((c, bn)) * 0.3,
            "se.b1": rng.standard_normal(bn) * 0.1,
            "se.w2": rng.standard_normal((bn, c)) * 0.3,
            "se.b2": rng.standard_normal(c) * 0.1,
        }
        for j in range(2, scale + 1):
            p["group%d.kernels" % j] = rng.standard_normal((g, g, 3)) * 0.3
        worst = max(worst, np.max(np.abs(res2_block(x, dil, p) - loop_res2(x, dil, p))))
    for _ in range(100):
        t, c = int(rng.integers(2, 10)), int(rng.integers(2, 12))
        bn = int(rng.integers(2, 8))
        h = rng.standard_normal((t, c))
        p = {
            "w1": rng.standard_normal((c, bn)) * 0.5,
            "b1": rng.standard_normal(bn) * 0.1,
            "w2": rng.standard_normal((bn, c)) * 0.5,
            "b2": rng.standard_normal(c) * 0.1,
        }
        worst = max(worst, np.max(np.abs(attentive_stats_pooling(h, p) - loop_asp(h, p))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 30.0
    verdict(capfd, 3, ok, "4 kernels x 100 shapes, worst abs err %.2e, %.1fs" % (worst, dt))


def test_criterion_4_gradient_verification(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    flipped_worst = 0.0
    for i in range(20):
        tq, tk, d = (int(x) for x in rng.integers(2, 6, size=3))
        q, k, v = rng.standard_normal((tq, d)), rng.standard_normal((tk, d)), rng.standard_normal((tk, d))
        w = rng.standard_normal((tq, d))

        def f(xs):
            return float(np.sum(scaled_dot_attention(*xs).output * w))

        def grad(xs):
            tr = scaled_dot_attention(*xs)
            return list(attention_backward(tr, *xs, w))

        def grad_flipped(xs):
            dq, dk, dv = grad(xs)
            return [-dq, dk, dv]

        worst = max(worst, gradcheck(f, grad, [q, k, v]))
        if i == 0:
            flipped_worst = gradcheck(f, grad_flipped, [q, k, v])
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and flipped_worst > 1e-2 and dt < 30.0
    verdict(capfd, 4, ok, "worst rel err %.2e, sign-flip control %.2e, %.1fs" % (worst, flipped_worst, dt))


def test_criterion_5_convexity(capfd):
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(100):
        tq, tk, d = (int(x) for x in rng.integers(1, 8, size=3))
        q, k = rng.standard_normal((tq, d)), rng.standard_normal((tk, d))
        v = rng.standard_normal((tk, int(rng.integers(1, 6)))) * 10.0 ** rng.integers(-2, 3)
        out = scaled_dot_attention(q, k, v).output
        lo, hi = v.min(axis=0), v.max(axis=0)
        violations += int(((out < lo) | (out > hi)).any())
    verdict(capfd, 5, violations == 0, "%d violations in 100 calls" % violations)


def test_criterion_6_singleton_key_degeneracy(capfd):
    rng = np.random.default_rng(6)
    d = 8
    k = rng.standard_normal((1, d))
    v = rng.standard_normal((1, d))
    outs = np.vstack([scaled_dot_attention(rng.standard_normal((1, d)) * 5.0, k, v).output for _ in range(10)])
    spread = float(np.max(outs.max(axis=0) - outs.min(axis=0)))
    verdict(capfd, 6, spread <= 1e-12, "output spread across 10 queries %.2e" % spread)


def test_criterion_7_mode_matrix(capfd):
    buf = harmonic_voice(180.0, 1.0, seconds=0.5)
    ok = True
    gap = 0.0
    for mode in MODES:
        for splitting in (True, False):
            agg = AggregationConfig(mode=mode, splitting=splitting, n_tokens=2, heads=2, d_model=8)
            store = init_params(DESK_BB, agg, seed=11)
            emb = extract_embedding(buf, store, DESK_BB, agg)
            ok &= emb.vector.shape == (8,) and np.isfinite(emb.vector).all()
            gap = max(gap, float(np.max(np.abs(emb.vector - reference_embedding(buf.samples, store.entries, agg)))))
    ok &= gap < 1e-8
    verdict(capfd, 7, ok, "10 mode/split variants finite, worst oracle gap %.2e" % gap)


def test_criterion_8_embed_determinism(capfd, tmp_path, wav_factory):
    records = []
    for i in range(5):
        wav_factory("u%d.wav" % i, sine(150.0 + 30.0 * i, seconds=0.4))
        records.append({"path": "u%d.wav" % i, "utterance_id": "u%d" % i, "speaker_id": "s%d" % i, "language": "xx"})
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    common = ["--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2"]
    outs = {}
    for seed in ("21", "22"):
        w = tmp_path / ("w%s.agvw" % seed)
        assert main(["init", "--seed", seed, *common, "--out", str(w)]) == 0
        for run in ("a", "b"):
            out = tmp_path / ("e%s%s" % (seed, run))
            assert main(["embed", str(manifest), "--weights", str(w), "--out", str(out)]) == 0
            outs[(seed, run)] = {p.name: p.read_bytes() for p in out.iterdir()}
    same_seed_identical = outs[("21", "a")] == outs[("21", "b")]
    cross_seed_differs = outs[("21", "a")] != outs[("22", "a")]
    ok = same_seed_identical and cross_seed_differs
    verdict(capfd, 8, ok, "rerun identical=%s, seed change differs=%s" % (same_seed_identical, cross_seed_differs))


def test_criterion_9_group_matrix_analog(capfd, tmp_path, wav_factory):
    t0 = time.perf_counter()
    speakers = [(110.0, 0.6), (160.0, 1.0), (220.0, 1.5), (310.0, 2.2)]
    records = []
    baseline = {}
    for s, (f0, tilt) in enumerate(speakers):
        vecs = []
        for u in range(3):
            buf = harmonic_voice(f0, tilt, phase=0.7 * u)
            name = "s%du%d" % (s, u)
            wav_factory(name + ".wav", buf)
            records.append({"path": name + ".wav", "utterance_id": name, "speaker_id": "s%d" % s, "language": "xx"})
            mel = mel_spectrogram(buf).frames
            vecs.append(np.concatenate([mel.mean(axis=0), mel.std(axis=0)]))
        baseline["s%d" % s] = vecs
    # mean-pool two utterances per speaker, hold out the third, and ask
    # whether each held-out utterance lands on its own speaker
    labels = sorted(baseline)
    pooled = {s: np.mean(baseline[s][:2], axis=0) for s in labels}
    values = np.array([[cosine(baseline[r][2], pooled[c]) for c in labels] for r in labels])
    dom = diagonal_dominance(SimilarityMatrix(values, labels, labels))

    manifest = tmp_path / "m.jsonl"
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    w = tmp_path / "w.agvw"
    assert main(["init", "--seed", "9", "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2", "--out", str(w)]) == 0
    emb_dir = tmp_path / "emb"
    assert main(["embed", str(manifest), "--weights", str(w), "--out", str(emb_dir)]) == 0
    prefix = str(tmp_path / "sim")
    assert main(["simmatrix", str(emb_dir / "index.json"), "--out", prefix]) == 0
    csv_rows = (tmp_path / "sim.csv").read_text().strip().split("\n")
    pgm = (tmp_path / "sim.pgm").read_bytes()
    csv_ok = len(csv_rows) == 13 and all(len(r.split(",")) == 13 for r in csv_rows)
    pgm_ok = pgm.startswith(b"P5\n12 12\n255\n") and len(pgm) == len(b"P5\n12 12\n255\n") + 144
    dt = time.perf_counter() - t0
    ok = dom >= 0.75 and csv_ok and pgm_ok and dt < 60.0
    verdict(capfd, 9, ok, "baseline dominance %.2f, 12x12 csv=%s pgm=%s, %.1fs" % (dom, csv_ok, pgm_ok, dt))


def test_criterion_10_serialization(capfd):
    store = init_params(DESK_BB, DESK_AGG, seed=10)
    blob = save(store)
    bit_exact = blob == save(load(blob))

    audio = sine(220.0, seconds=0.5)
    a = extract_embedding(audio, store, DESK_BB, DESK_AGG).vector
    b = extract_embedding(audio, load(blob), DESK_BB, DESK_AGG).vector
    drift = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))

    rejections = []
    with pytest.raises(BadMagic):
        load(b"XXXX9999" + blob[8:])
    rejections.append("BadMagic")
    with pytest.raises(TruncatedPayload):
        load(blob[:-30])
    rejections.append("TruncatedPayload")
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + hlen])
    header["tensors"][0]["shape"][0] += 1
    edited = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(HeaderMismatch):
        load(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + hlen :])
    rejections.append("HeaderMismatch")

    ok = bit_exact and drift <= 1e-5 and len(rejections) == 3
    verdict(capfd, 10, ok, "round trip exact=%s, drift %.2e, rejected %s" % (bit_exact, drift, "/".join(rejections)))
