"""Independent brute-force reference implementations.

Everything here is written as plain loops (or direct formula evaluation)
so the fast library paths have something genuinely independent to be
checked against. Nothing imports the library's kernels except the
end-to-end composition at the bottom, which reuses only library *data
containers*, never its math.
"""

import math
import struct

import numpy as np


def loop_affine(x, w, b):
    t, n_in = x.shape
    n_out = w.shape[1]
    y = np.zeros((t, n_out))
    for i in range(t):
        for j in range(n_out):
            acc = b[j]
            for r in range(n_in):
                acc += x[i, r] * w[r, j]
            y[i, j] = acc
    return y


def loop_conv1d(x, kernels, dilation=1):
    t, c_in = x.shape
    c_out, _, k = kernels.shape
    pad = dilation * (k - 1) // 2
    y = np.zeros((t, c_out))
    for i in range(t):
        for co in range(c_out):
            acc = 0.0
            for ci in range(c_in):
                for j in range(k):
                    src = i + j * dilation - pad
                    if 0 <= src < t:
                        acc += kernels[co, ci, j] * x[src, ci]
            y[i, co] = acc
    return y


def softmax_rows(x):
    """Row-wise softmax with max subtraction, composed of whole-array steps."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def loop_softmax_row(row):
    """Row softmax at extended precision (long double)."""
    row = np.asarray(row, dtype=np.longdouble)
    e = np.exp(row - row.max())
    return (e / e.sum()).astype(np.float64)


def loop_attention(q, k, v, scale_mode="sqrt"):
    tq, d = q.shape
    tk = k.shape[0]
    s = math.sqrt(d) if scale_mode == "sqrt" else float(d)
    out = np.zeros((tq, v.shape[1]))
    for i in range(tq):
        logits = np.array([sum(q[i, r] * k[j, r] for r in range(d)) / s for j in range(tk)])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for c in range(v.shape[1]):
            out[i, c] = sum(w[j] * v[j, c] for j in range(tk))
    return out


def loop_stage(hq, hkv, params, scale_mode="sqrt"):
    """One aggregation level: loop_affine projections of the query and key/value states, then loop_attention."""
    q = loop_affine(hq, params["wq"], params["bq"])
    k = loop_affine(hkv, params["wk"], params["bk"])
    v = loop_affine(hkv, params["wv"], params["bv"])
    return loop_attention(q, k, v, scale_mode)


def loop_pooled_stage(hq, hkv, params, scale_mode="sqrt"):
    """The 1 x d mean of loop_stage's rows: what a pooled last level returns."""
    return loop_stage(hq, hkv, params, scale_mode).mean(axis=0, keepdims=True)


def loop_mha(q, k, v, heads, params):
    def aff(x, w, b):
        return np.array([[b[j] + sum(x[i, r] * w[r, j] for r in range(x.shape[1])) for j in range(w.shape[1])] for i in range(x.shape[0])])

    qp, kp, vp = aff(q, params["wq"], params["bq"]), aff(k, params["wk"], params["bk"]), aff(v, params["wv"], params["bv"])
    d = q.shape[1]
    hd = d // heads
    pieces = []
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        pieces.append(loop_attention(qp[:, sl], kp[:, sl], vp[:, sl], "sqrt"))
    return aff(np.concatenate(pieces, axis=1), params["wo"], params["bo"])


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def loop_glu(x, kernels, bias, dilation=1):
    c = x.shape[1]
    y = loop_conv1d(x, kernels, dilation) + bias
    return y[:, :c] * sigmoid(y[:, c:])


def loop_se(x, params):
    t, c = x.shape
    s = np.array([sum(x[i, ch] for i in range(t)) / t for ch in range(c)])
    h = np.maximum(s @ params["w1"] + params["b1"], 0.0)
    e = sigmoid(h @ params["w2"] + params["b2"])
    return x * e[None, :]


def loop_res2(x, dilation, params, scale=8):
    c = x.shape[1]
    g = c // scale
    h = loop_affine(x, params["conv_in.weight"], params["conv_in.bias"])
    ys = [h[:, :g]]
    for i in range(1, scale):
        gi = h[:, i * g : (i + 1) * g]
        ys.append(np.maximum(loop_conv1d(gi + ys[-1], params["group%d.kernels" % (i + 1)], dilation), 0.0))
    h = loop_affine(np.concatenate(ys, axis=1), params["conv_out.weight"], params["conv_out.bias"])
    se = {k[3:]: v for k, v in params.items() if k.startswith("se.")}
    return loop_se(h, se) + x


def loop_asp(h, params):
    t, c = h.shape
    logits = np.tanh(h @ params["w1"] + params["b1"]) @ params["w2"] + params["b2"]
    mu = np.zeros(c)
    sg = np.zeros(c)
    for ch in range(c):
        col = logits[:, ch]
        w = np.exp(col - col.max())
        w /= w.sum()
        m = sum(w[i] * h[i, ch] for i in range(t))
        v = sum(w[i] * h[i, ch] ** 2 for i in range(t)) - m * m
        mu[ch] = m
        sg[ch] = math.sqrt(max(v, 1e-9))
    return np.concatenate([mu, sg])


def loop_backbone(mel_frames, params):
    x = np.maximum(loop_affine(mel_frames, params["conv_in.weight"], params["conv_in.bias"]), 0.0)
    outs = []
    for i, dil in enumerate((2, 3, 4)):
        p = "block%d." % (i + 1)
        x = loop_res2(x, dil, {k[len(p):]: v for k, v in params.items() if k.startswith(p)})
        outs.append(x)
    agg = loop_affine(np.concatenate(outs, axis=1), params["mfa.weight"], params["mfa.bias"])
    frame_states = loop_affine(agg, params["proj_frames.weight"], params["proj_frames.bias"])
    stats = loop_asp(agg, {k[5:]: v for k, v in params.items() if k.startswith("pool.")})
    pooled = loop_affine(stats[None, :], params["proj_pooled.weight"], params["proj_pooled.bias"])[0]
    return frame_states, pooled


# --- scoring reference --------------------------------------------------------


def loop_cosine(a, b):
    """Cosine of two vectors: exactly rounded sums (math.fsum) over the products."""
    dot = math.fsum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(x * x for x in a))
    norm_b = math.sqrt(math.fsum(y * y for y in b))
    return dot / (norm_a * norm_b)


def loop_csv_row(values):
    """The cells of one CSV row, each "%.9g" of one Python float, each after a comma."""
    return "".join("," + "%.9g" % float(v) for v in values)


# --- DSP references ---------------------------------------------------------


def whole_array_decode(data):
    """(mono float64 samples, rate) of a WAV byte string that decode_wav accepts, by whole-array steps.

    The chunks are walked in a plain loop, the last fmt and data chunks counting. PCM16 becomes a
    float64 copy divided by 32768, float32 a float64 copy clipped to [-1, 1]; stereo is then
    averaged by reshape(-1, 2).mean(axis=1).
    """
    chunks, pos = {}, 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        chunks[cid] = data[pos + 8 : pos + 8 + size]
        pos += 8 + size + size % 2
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", chunks[b"fmt "])
    if tag == 0xFFFE:
        (tag,) = struct.unpack_from("<H", chunks[b"fmt "], 24)
    payload = chunks[b"data"]
    payload = payload[: len(payload) - len(payload) % (bits // 8 * channels)]
    if tag == 1:
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    else:
        samples = np.clip(np.frombuffer(payload, dtype="<f4").astype(np.float64), -1.0, 1.0)
    return (samples.reshape(-1, 2).mean(axis=1) if channels == 2 else samples), rate


def bessel_i0(x):
    """Modified Bessel function of the first kind, order 0, by its power series."""
    term = total = 1.0
    k = 0
    while term > 1e-18 * total:
        k += 1
        term *= (x / (2.0 * k)) ** 2
        total += term
    return total


def loop_resample(samples, src, target, zero_crossings=64, beta=8.0, cutoff_fraction=0.95):
    """Kaiser-windowed sinc resampling, one output sample and one tap at a time.

    The cutoff sits at `cutoff_fraction` of the lower Nyquist; the window
    spans `zero_crossings` zero crossings of the sinc on each side; samples
    outside the signal are zero; the output has round(n * target / src)
    samples.
    """
    if src == target:
        return np.array(samples, dtype=np.float64)
    n = len(samples)
    cutoff = cutoff_fraction * 0.5 * min(src, target) / src  # cycles per source sample
    half = zero_crossings / (2.0 * cutoff)  # window half-width in source samples
    i0_beta = bessel_i0(beta)
    out = np.zeros(int(round(n * target / src)))
    for m in range(len(out)):
        t = m * src / target  # output sample m in source-sample units
        acc = 0.0
        for j in range(max(0, math.ceil(t - half)), min(n - 1, math.floor(t + half)) + 1):
            u = (j - t) / half
            if abs(u) >= 1.0:
                continue
            x = 2.0 * cutoff * (j - t)
            sinc = 1.0 if x == 0.0 else math.sin(math.pi * x) / (math.pi * x)
            window = bessel_i0(beta * math.sqrt(1.0 - u * u)) / i0_beta
            acc += samples[j] * 2.0 * cutoff * sinc * window
        out[m] = acc
    return out


def dft_basis(n_fft=1024):
    """The (n_fft/2 + 1) x n_fft direct DFT matrix exp(-2 pi i k n / n_fft)."""
    n = np.arange(n_fft)
    bins = np.arange(n_fft // 2 + 1)
    return np.exp(-2j * np.pi * np.outer(bins, n) / n_fft)


def dft_magnitude_frame(windowed_frame, n_fft=1024):
    """Direct DFT of one already-windowed frame (no FFT)."""
    return np.abs(dft_basis(n_fft) @ windowed_frame)


def slaney_mel(f):
    if f < 1000.0:
        return f / (200.0 / 3.0)
    return 15.0 + math.log(f / 1000.0) / (math.log(6.4) / 27.0)


def slaney_hz(m):
    if m < 15.0:
        return m * 200.0 / 3.0
    return 1000.0 * math.exp((math.log(6.4) / 27.0) * (m - 15.0))


def mel_center_frequencies(n_mels=80, fmin=0.0, fmax=8000.0):
    lo, hi = slaney_mel(fmin), slaney_mel(fmax)
    return [slaney_hz(lo + (hi - lo) * (i + 1) / (n_mels + 1)) for i in range(n_mels)]


def brute_filterbank(n_mels=80, n_fft=1024, sr=22050, fmin=0.0, fmax=8000.0):
    lo, hi = slaney_mel(fmin), slaney_mel(fmax)
    edges = [slaney_hz(lo + (hi - lo) * i / (n_mels + 1)) for i in range(n_mels + 2)]
    n_bins = n_fft // 2 + 1
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        a, c, b = edges[m], edges[m + 1], edges[m + 2]
        for k in range(n_bins):
            f = k * sr / n_fft
            if a < f < b:
                tri = (f - a) / (c - a) if f <= c else (b - f) / (b - c)
                fb[m, k] = tri * 2.0 / (b - a)
            elif f == c:
                fb[m, k] = 2.0 / (b - a)
    return fb


def brute_cmnd(frame, tau_max=512):
    """Difference function and CMND by direct per-lag evaluation."""
    w = len(frame)
    d = np.zeros(tau_max + 1)
    for tau in range(1, tau_max + 1):
        diff = frame[: w - tau] - frame[tau:]
        d[tau] = float(np.dot(diff, diff))
    dp = np.ones(tau_max + 1)
    run = 0.0
    for tau in range(1, tau_max + 1):
        run += d[tau]
        dp[tau] = d[tau] * tau / run if run > 0 else 1.0
    return d, dp


def brute_yin_frame(frame, sr=22050, fmin=60.0, fmax=500.0, threshold=0.15):
    """Full YIN decision for one frame; returns (f0, voiced, cmnd_min)."""
    tau_max = len(frame) // 2
    _, dp = brute_cmnd(frame, tau_max)
    tau_lo = max(2, math.ceil(sr / fmax))
    tau_hi = min(tau_max - 1, math.floor(sr / fmin))
    tau = None
    for t in range(tau_lo, tau_hi + 1):
        if dp[t] < threshold and dp[t] <= dp[t + 1] and dp[t] <= dp[t - 1]:
            tau = t
            break
    if tau is None:
        tau = tau_lo + int(np.argmin(dp[tau_lo : tau_hi + 1]))
    achieved = max(dp[tau], 0.0)
    rms = math.sqrt(float(np.mean(frame * frame)))
    if achieved > 0.5 or rms < 1e-4:
        return 0.0, False, achieved
    a, b, c = dp[tau - 1], dp[tau], dp[tau + 1]
    denom = a - 2 * b + c
    shift = 0.5 * (a - c) / denom if abs(denom) > 1e-30 else 0.0
    shift = min(0.5, max(-0.5, shift))
    return float(np.clip(sr / (tau + shift), fmin, fmax)), True, achieved


def stft_magnitude(samples, win=1024, hop=256):
    """Whole-array magnitude STFT of every full frame: T x (win/2 + 1), periodic Hann, no center padding."""
    n_frames = (len(samples) - win) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop][:n_frames]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    return np.abs(np.fft.rfft(frames * window, n=win, axis=1))


def brute_log_mel(samples, n_mels=80, n_fft=1024, win=1024, hop=256, sr=22050):
    n_frames = (len(samples) - win) // hop + 1
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    fb = brute_filterbank(n_mels, n_fft, sr)
    basis = dft_basis(n_fft)
    rows = []
    for t in range(n_frames):
        mag = np.abs(basis @ (samples[t * hop : t * hop + win] * window))
        rows.append(np.log(np.maximum(fb @ mag, 1e-5)))
    return np.vstack(rows)


def brute_f0_features(samples, win=1024, hop=256, sr=22050):
    n_frames = (len(samples) - win) // hop + 1
    feats = np.zeros((n_frames, 2))
    for t in range(n_frames):
        f0, voiced, _ = brute_yin_frame(samples[t * hop : t * hop + win], sr)
        if voiced:
            feats[t] = (math.log(f0 / 100.0), 1.0)
    return feats


# Mode -> cues in level order, as the paper's ablation table names them:
# the first cue prompts the backbone states, the second probes that result.
MODE_CUES = {
    "SE": (),
    "SE_F0": ("f0",),
    "SE_ME": ("me",),
    "SE_F0_then_ME": ("f0", "me"),
    "SE_ME_then_F0": ("me", "f0"),
}


def reference_embedding(samples, entries, agg_cfg):
    """End-to-end composition of the stage oracles, for every mode with and without splitting.

    `entries` is the raw name->tensor dict of a ParamStore; `samples` must
    already be at 22050 Hz.
    """
    mel = brute_log_mel(samples)
    bb = {k[len("backbone."):]: v for k, v in entries.items() if k.startswith("backbone.")}
    h_sv, z = loop_backbone(mel, bb)
    cues = MODE_CUES[agg_cfg.mode]
    if not cues:
        return z

    ag = {k[len("agg."):]: v for k, v in entries.items() if k.startswith("agg.")}

    def group(prefix):
        return {k[len(prefix):]: v for k, v in ag.items() if k.startswith(prefix)}

    def encode(cue):
        if cue == "f0":
            h = np.maximum(loop_affine(brute_f0_features(samples), ag["f0_enc.fc1.weight"], ag["f0_enc.fc1.bias"]), 0.0)
            return loop_affine(h, ag["f0_enc.fc2.weight"], ag["f0_enc.fc2.bias"])
        h = np.maximum(loop_affine(mel, ag["mel_enc.fc1.weight"], ag["mel_enc.fc1.bias"]), 0.0)
        h = np.maximum(loop_affine(h, ag["mel_enc.fc2.weight"], ag["mel_enc.fc2.bias"]), 0.0)
        return loop_glu(h, ag["mel_enc.glu.kernels"], ag["mel_enc.glu.bias"])

    h = loop_stage(h_sv, encode(cues[0]), group("level1."), agg_cfg.scale_mode)
    if len(cues) == 2:
        h = loop_stage(encode(cues[1]), h, group("level2."), agg_cfg.scale_mode)

    query = h.mean(axis=0, keepdims=True)
    if not agg_cfg.splitting:
        return query[0]
    return loop_mha(query, ag["tokens"], ag["tokens"], agg_cfg.heads, group("fuse."))[0]
