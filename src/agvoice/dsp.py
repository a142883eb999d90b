"""Acoustic front end: log-mel spectrogram and YIN pitch contour.

Both views use the same framing (1024-sample window, hop 256, no center
padding), so mel frames and F0 frames line up index-for-index. That
alignment is what lets the aggregation stages cross-attend between them
without any interpolation.
"""

from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioBuffer
from .errors import DegenerateBand, TooShort


@dataclass(frozen=True)
class MelParams:
    n_fft: int = 1024
    win_length: int = 1024
    hop_length: int = 256
    n_mels: int = 80
    sample_rate: int = 22050
    fmin_hz: float = 0.0
    fmax_hz: float = 8000.0


@dataclass(frozen=True)
class MelSpectrogram:
    """T x n_mels matrix of natural-log mel magnitudes, floored at ln(1e-5)."""

    frames: np.ndarray
    params: MelParams = field(default_factory=MelParams)


@dataclass(frozen=True)
class F0Contour:
    """Per-frame pitch track aligned to the mel framing.

    voiced[t] False implies f0_hz[t] == 0; cmnd_min[t] is the minimum of
    the cumulative-mean-normalized difference achieved in that frame.
    """

    f0_hz: np.ndarray
    voiced: np.ndarray
    cmnd_min: np.ndarray
    hop_length: int = 256
    win_length: int = 1024

    def __len__(self):
        return len(self.f0_hz)


MEL_FLOOR = 1e-5

# YIN tuning (de Cheveigne & Kawahara 2002 recommendations)
YIN_THRESHOLD = 0.15
YIN_FMIN = 60.0
YIN_FMAX = 500.0
YIN_UNVOICED_CMND = 0.5
YIN_SILENCE_RMS = 1e-4


def frame_count(n_samples: int, win_length: int = 1024, hop_length: int = 256) -> int:
    if n_samples < win_length:
        raise TooShort("need at least %d samples, got %d" % (win_length, n_samples))
    return (n_samples - win_length) // hop_length + 1


def _frames(x: np.ndarray, win: int, hop: int) -> np.ndarray:
    n = frame_count(len(x), win, hop)
    return np.lib.stride_tricks.sliding_window_view(x, win)[:: hop][:n]


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(buf: AudioBuffer, params: MelParams = MelParams()) -> np.ndarray:
    """Magnitude STFT: T x (n_fft/2 + 1), periodic Hann, no center padding."""
    frames = _frames(buf.samples, params.win_length, params.hop_length)
    window = _periodic_hann(params.win_length)
    return np.abs(np.fft.rfft(frames * window, n=params.n_fft, axis=1))


def hz_to_mel(f):
    """Slaney-style mel scale: linear to 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    f_sp = 200.0 / 3.0
    mel = f / f_sp
    min_log_hz = 1000.0
    logstep = np.log(6.4) / 27.0
    above = f >= min_log_hz
    mel = np.where(above, min_log_hz / f_sp + np.log(np.maximum(f, min_log_hz) / min_log_hz) / logstep, mel)
    return mel


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f_sp = 200.0 / 3.0
    min_log_mel = 1000.0 / f_sp
    logstep = np.log(6.4) / 27.0
    hz = m * f_sp
    above = m >= min_log_mel
    return np.where(above, 1000.0 * np.exp(logstep * (m - min_log_mel)), hz)


def _mel_edges(params: MelParams) -> np.ndarray:
    """n_mels + 2 band edges in Hz, evenly spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(params.fmin_hz), hz_to_mel(params.fmax_hz), params.n_mels + 2))


def mel_filterbank(params: MelParams = MelParams()) -> np.ndarray:
    """n_mels x (n_fft/2+1) triangular filters, area-normalized (Slaney)."""
    n_bins = params.n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * params.sample_rate / params.n_fft
    edges = _mel_edges(params)

    fb = np.zeros((params.n_mels, n_bins))
    for m in range(params.n_mels):
        lo, ctr, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (fft_freqs - lo) / (ctr - lo)
        down = (hi - fft_freqs) / (hi - ctr)
        tri = np.maximum(0.0, np.minimum(up, down))
        fb[m] = tri * (2.0 / (hi - lo))
    if np.any(fb.max(axis=1) <= 0.0):
        raise DegenerateBand("mel band with no positive FFT-bin weight; too many bands for this range")
    return fb


def filter_centers_hz(params: MelParams = MelParams()) -> np.ndarray:
    """Center frequency of each mel filter, in Hz."""
    return _mel_edges(params)[1:-1]


def mel_spectrogram(buf: AudioBuffer, params: MelParams = MelParams()) -> MelSpectrogram:
    """ln(max(filterbank @ |STFT|, 1e-5)), shape T x n_mels."""
    mag = stft_magnitude(buf, params)
    fb = mel_filterbank(params)
    return MelSpectrogram(np.log(np.maximum(mag @ fb.T, MEL_FLOOR)), params)


def _difference_function(frame: np.ndarray, tau_max: int) -> np.ndarray:
    """d(tau) = sum_j (x[j] - x[j+tau])^2 over the in-frame overlap, tau in [0, tau_max]."""
    w = len(frame)
    sq = np.concatenate([[0.0], np.cumsum(frame * frame)])
    size = 1
    while size < 2 * w:
        size *= 2
    spec = np.fft.rfft(frame, size)
    acf = np.fft.irfft(spec * np.conj(spec))[: tau_max + 1]
    taus = np.arange(tau_max + 1)
    head = sq[w - taus]            # energy of x[0 .. w-tau-1]
    tail = sq[w] - sq[taus]        # energy of x[tau .. w-1]
    return head + tail - 2.0 * acf


def _cmnd(d: np.ndarray) -> np.ndarray:
    out = np.ones_like(d)
    run = np.cumsum(d[1:])
    np.divide(d[1:] * np.arange(1, len(d)), run, out=out[1:], where=run > 0)
    return out


def yin_f0(
    buf: AudioBuffer,
    fmin: float = YIN_FMIN,
    fmax: float = YIN_FMAX,
    threshold: float = YIN_THRESHOLD,
) -> F0Contour:
    """YIN pitch per frame (hop 256, window 1024, mel-aligned framing).

    Per frame: difference function for lags 1..512, cumulative-mean
    normalization, absolute-threshold pick of the first local minimum
    below `threshold` in the [sr/fmax, sr/fmin] lag band, parabolic
    refinement. Falls back to the band's global minimum; a frame is
    unvoiced when that minimum exceeds 0.5 or the frame RMS is under 1e-4.
    """
    sr = buf.sample_rate_hz
    win, hop = 1024, 256
    frames = _frames(buf.samples, win, hop)
    tau_max = win // 2
    tau_lo = max(2, int(np.ceil(sr / fmax)))
    tau_hi = min(tau_max - 1, int(np.floor(sr / fmin)))

    n = len(frames)
    f0 = np.zeros(n)
    voiced = np.zeros(n, dtype=bool)
    cmnd_min = np.zeros(n)

    for t in range(n):
        frame = frames[t]
        rms = np.sqrt(np.mean(frame * frame))
        d = _difference_function(frame, tau_max)
        dp = _cmnd(d)

        band = dp[tau_lo : tau_hi + 1]
        below = np.flatnonzero(
            (band < threshold)
            & (band <= np.roll(dp, -1)[tau_lo : tau_hi + 1])
            & (band <= np.roll(dp, 1)[tau_lo : tau_hi + 1])
        )
        tau = (tau_lo + below[0]) if len(below) else (tau_lo + int(np.argmin(band)))
        achieved = dp[tau]
        cmnd_min[t] = max(achieved, 0.0)

        if achieved > YIN_UNVOICED_CMND or rms < YIN_SILENCE_RMS:
            continue

        # parabolic refinement on the CMND around the integer lag
        if 1 <= tau < tau_max:
            a, b, c = dp[tau - 1], dp[tau], dp[tau + 1]
            denom = a - 2.0 * b + c
            shift = 0.5 * (a - c) / denom if abs(denom) > 1e-30 else 0.0
            shift = float(np.clip(shift, -0.5, 0.5))
        else:
            shift = 0.0
        freq = sr / (tau + shift)
        f0[t] = float(np.clip(freq, fmin, fmax))
        voiced[t] = True

    return F0Contour(f0, voiced, cmnd_min, hop, win)


def mel_to_csv(mel: MelSpectrogram) -> str:
    """CSV dump: one row per frame, 9 significant digits."""
    return "\n".join(",".join("%.9g" % v for v in row) for row in mel.frames) + "\n"


def f0_to_csv(contour: F0Contour) -> str:
    lines = ["frame_index,f0_hz,voiced,cmnd_min"]
    for i in range(len(contour)):
        lines.append(
            "%d,%.9g,%d,%.9g" % (i, contour.f0_hz[i], int(contour.voiced[i]), contour.cmnd_min[i])
        )
    return "\n".join(lines) + "\n"
