"""Acoustic front end: log-mel spectrogram and YIN pitch contour.

Both views are fixed functions of a CANONICAL_RATE buffer with one
framing (WIN-sample window, hop HOP, no center padding), so mel frames
and F0 frames line up index-for-index. That alignment is what lets the
aggregation stages cross-attend between them without any interpolation.
"""

from dataclasses import dataclass

import numpy as np

from .audio_io import CANONICAL_RATE, AudioBuffer
from .errors import RateOutOfRange, TooShort

WIN = 1024  # analysis window, also the FFT size
HOP = 256
N_MELS = 80
FMAX_HZ = 8000.0  # the mel bands span 0 Hz to FMAX_HZ


@dataclass(frozen=True)
class MelSpectrogram:
    """T x N_MELS matrix of natural-log mel magnitudes, floored at ln(1e-5)."""

    frames: np.ndarray


@dataclass(frozen=True)
class F0Contour:
    """Per-frame pitch track aligned to the mel framing.

    voiced[t] False implies f0_hz[t] == 0; cmnd_min[t] is the minimum of
    the cumulative-mean-normalized difference achieved in that frame.
    """

    f0_hz: np.ndarray
    voiced: np.ndarray
    cmnd_min: np.ndarray

    def __len__(self):
        return len(self.f0_hz)


MEL_FLOOR = 1e-5

# YIN tuning (de Cheveigne & Kawahara 2002 recommendations)
YIN_THRESHOLD = 0.15
YIN_FMIN = 60.0
YIN_FMAX = 500.0
YIN_UNVOICED_CMND = 0.5
YIN_SILENCE_RMS = 1e-4


def frame_count(n_samples: int) -> int:
    if n_samples < WIN:
        raise TooShort("need at least %d samples, got %d" % (WIN, n_samples))
    return (n_samples - WIN) // HOP + 1


def _frames(buf: AudioBuffer) -> np.ndarray:
    """The frame_count x WIN analysis frames of a CANONICAL_RATE buffer."""
    if buf.sample_rate_hz != CANONICAL_RATE:
        raise RateOutOfRange(
            "features need %d Hz audio, got %d Hz; resample first" % (CANONICAL_RATE, buf.sample_rate_hz)
        )
    n = frame_count(len(buf))
    return np.lib.stride_tricks.sliding_window_view(buf.samples, WIN)[::HOP][:n]


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(buf: AudioBuffer) -> np.ndarray:
    """Magnitude STFT: T x (WIN/2 + 1), periodic Hann, no center padding."""
    return np.abs(np.fft.rfft(_frames(buf) * _periodic_hann(WIN), n=WIN, axis=1))


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


def _mel_edges() -> np.ndarray:
    """N_MELS + 2 band edges in Hz, evenly spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(FMAX_HZ), N_MELS + 2))


def mel_filterbank() -> np.ndarray:
    """N_MELS x (WIN/2+1) triangular filters, area-normalized (Slaney)."""
    n_bins = WIN // 2 + 1
    fft_freqs = np.arange(n_bins) * CANONICAL_RATE / WIN
    edges = _mel_edges()

    fb = np.zeros((N_MELS, n_bins))
    for m in range(N_MELS):
        lo, ctr, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (fft_freqs - lo) / (ctr - lo)
        down = (hi - fft_freqs) / (hi - ctr)
        tri = np.maximum(0.0, np.minimum(up, down))
        fb[m] = tri * (2.0 / (hi - lo))
    return fb


def filter_centers_hz() -> np.ndarray:
    """Center frequency of each mel filter, in Hz."""
    return _mel_edges()[1:-1]


def mel_spectrogram(buf: AudioBuffer) -> MelSpectrogram:
    """ln(max(filterbank @ |STFT|, 1e-5)), shape T x N_MELS."""
    return MelSpectrogram(np.log(np.maximum(stft_magnitude(buf) @ mel_filterbank().T, MEL_FLOOR)))


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


def yin_f0(buf: AudioBuffer) -> F0Contour:
    """YIN pitch per frame, on the mel framing.

    Per frame: difference function for lags 1..WIN/2, cumulative-mean
    normalization, absolute-threshold pick of the first local minimum
    below YIN_THRESHOLD in the [sr/YIN_FMAX, sr/YIN_FMIN] lag band,
    parabolic refinement. Falls back to the band's global minimum; a frame
    is unvoiced when that minimum exceeds 0.5 or the frame RMS is under 1e-4.
    """
    sr = CANONICAL_RATE
    frames = _frames(buf)
    tau_max = WIN // 2
    tau_lo = max(2, int(np.ceil(sr / YIN_FMAX)))
    tau_hi = min(tau_max - 1, int(np.floor(sr / YIN_FMIN)))

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
            (band < YIN_THRESHOLD)
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
        f0[t] = float(np.clip(freq, YIN_FMIN, YIN_FMAX))
        voiced[t] = True

    return F0Contour(f0, voiced, cmnd_min)


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
