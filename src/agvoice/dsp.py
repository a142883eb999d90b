"""Acoustic front end: log-mel spectrogram and YIN pitch contour.

Both views are fixed functions of a CANONICAL_RATE buffer with one
framing (WIN-sample window, hop HOP, no center padding), so mel frames
and F0 frames line up index-for-index. That alignment is what lets the
aggregation stages cross-attend between them without any interpolation.
"""

from dataclasses import dataclass

import numpy as np

from .audio_io import CANONICAL_RATE, AudioBuffer
from .config import N_MELS
from .errors import RateOutOfRange, TooShort
from .nn import row_blocks

WIN = 1024  # analysis window, also the FFT size
HOP = 256
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
# Frames per yin_f0 block: a block holds a few YIN_FRAMES x 2*WIN arrays. YIN makes no GEMM, so it keeps this
# stride, not nn.row_blocks: its FFTs and sums round by block height (f0_hz moved 2.8e-14 Hz on that rule).
YIN_FRAMES = 64


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


def mel_filterbank() -> np.ndarray:
    """N_MELS x (WIN/2+1) triangular filters, area-normalized (Slaney)."""
    n_bins = WIN // 2 + 1
    fft_freqs = np.arange(n_bins) * CANONICAL_RATE / WIN
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(FMAX_HZ), N_MELS + 2))  # evenly spaced in mel
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (fft_freqs - lo) / (ctr - lo)
    down = (hi - fft_freqs) / (hi - ctr)
    return np.maximum(0.0, np.minimum(up, down)) * (2.0 / (hi - lo))


def mel_spectrogram(buf: AudioBuffer) -> MelSpectrogram:
    """ln(max(filterbank @ |STFT|, 1e-5)), shape T x N_MELS.

    The magnitude STFT (periodic Hann, no center padding) is made one row
    block of frames at a time and goes through the filterbank into that
    block's rows of the output, so a call holds the T x N_MELS output and
    one block's windowed frames and spectra, not T x WIN of each.
    """
    frames = _frames(buf)
    window, fb = _periodic_hann(WIN), mel_filterbank().T
    out = np.empty((len(frames), N_MELS))
    for s in row_blocks(len(frames)):
        np.matmul(np.abs(np.fft.rfft(frames[s] * window, n=WIN, axis=1)), fb, out=out[s])
    np.maximum(out, MEL_FLOOR, out=out)
    return MelSpectrogram(np.log(out, out=out))


def _difference_function(frames: np.ndarray, tau_max: int) -> np.ndarray:
    """d(tau) = sum_j (x[j] - x[j+tau])^2 over the in-frame overlap, tau in [0, tau_max].

    Works along the last axis, so it takes one frame or a block of frames.
    The ACF is a transform of n = w + max(tau_max, w/2) points. Its
    circular wrap adds lag tau - n to lag tau, and for tau <= tau_max that
    lag is at most -w, past any overlap of a w-sample frame: every kept
    lag is linear. Any tau_max up to w/2 gets the same transform, so a
    shorter search keeps the bits of one out to lag w/2.
    """
    w = frames.shape[-1]
    sq = np.cumsum(frames * frames, axis=-1)
    sq = np.concatenate([np.zeros_like(sq[..., :1]), sq], axis=-1)
    n = w + max(tau_max, w // 2)
    spec = np.fft.rfft(frames, n)
    acf = np.fft.irfft(spec * np.conj(spec), n)[..., : tau_max + 1]
    taus = np.arange(tau_max + 1)
    head = sq[..., w - taus]                   # energy of x[0 .. w-tau-1]
    tail = sq[..., w : w + 1] - sq[..., taus]  # energy of x[tau .. w-1]
    return head + tail - 2.0 * acf


def _cmnd(d: np.ndarray) -> np.ndarray:
    """Cumulative-mean-normalized difference along the last axis; 1 at lag 0."""
    out = np.ones_like(d)
    run = np.cumsum(d[..., 1:], axis=-1)
    np.divide(d[..., 1:] * np.arange(1, d.shape[-1]), run, out=out[..., 1:], where=run > 0)
    return out


def yin_f0(buf: AudioBuffer) -> F0Contour:
    """YIN pitch per frame, on the mel framing.

    Per frame: difference function, cumulative-mean normalization (CMND),
    absolute-threshold pick of the first local minimum below YIN_THRESHOLD
    in the [sr/YIN_FMAX, sr/YIN_FMIN] lag band (lags 45..367 at 22050 Hz),
    parabolic refinement. Falls back to the band's global minimum; a frame
    is unvoiced when that minimum exceeds 0.5 or the frame RMS is under 1e-4.
    The difference function and CMND stop at lag tau_hi + 1, the right
    neighbour of the band's last lag: the CMND at a lag reads no later
    lag, and the transform is that of a search out to lag WIN/2, so every
    value keeps that search's bits.

    The frames go through as array code in blocks of YIN_FRAMES = 64, so a
    call holds ~4 MB of work arrays whatever the clip length. Memory sets
    the size: embed-mixed-rate runs YIN in two workers at once, and its
    peak RSS was 56 MB at 64 frames, 61 MB at 128 and 74 MB at 1024.
    Larger blocks are also slower on long clips (60 s, 2-core VM, one
    BLAS thread: 62 ms at 64 frames, 75 ms at 128, 123 ms at 1024; 80 ms
    at 64 frames when the CMND ran out to lag WIN/2).
    """
    sr = CANONICAL_RATE
    frames = _frames(buf)
    tau_lo = max(2, int(np.ceil(sr / YIN_FMAX)))
    tau_hi = min(WIN // 2 - 1, int(np.floor(sr / YIN_FMIN)))  # so every lag in the band has both neighbours

    blocks = []
    for i in range(0, len(frames), YIN_FRAMES):
        block = frames[i : i + YIN_FRAMES]
        dp = _cmnd(_difference_function(block, tau_hi + 1))
        band = dp[:, tau_lo : tau_hi + 1]
        dips = (band < YIN_THRESHOLD) & (band <= dp[:, tau_lo - 1 : tau_hi]) & (band <= dp[:, tau_lo + 1 : tau_hi + 2])
        tau = tau_lo + np.where(dips.any(axis=1), dips.argmax(axis=1), band.argmin(axis=1))
        a, b, c = np.take_along_axis(dp, tau[:, None] + [-1, 0, 1], axis=1).T
        # parabolic refinement on the CMND around the integer lag
        denom = a - 2.0 * b + c
        shift = np.divide(0.5 * (a - c), denom, out=np.zeros(len(block)), where=np.abs(denom) > 1e-30)
        freq = np.clip(sr / (tau + np.clip(shift, -0.5, 0.5)), YIN_FMIN, YIN_FMAX)
        voiced = (b <= YIN_UNVOICED_CMND) & (np.sqrt(np.mean(block * block, axis=1)) >= YIN_SILENCE_RMS)
        blocks.append((np.where(voiced, freq, 0.0), voiced, np.maximum(b, 0.0)))
    return F0Contour(*(np.concatenate(column) for column in zip(*blocks)))


def mel_to_csv(mel: MelSpectrogram) -> str:
    """CSV dump: one row per frame, 9 significant digits."""
    row_format = ",".join(["%.9g"] * mel.frames.shape[1]) + "\n"
    return "".join([row_format % tuple(row.tolist()) for row in mel.frames])


def f0_to_csv(contour: F0Contour) -> str:
    lines = ["frame_index,f0_hz,voiced,cmnd_min\n"]
    for i in range(len(contour)):
        lines.append(
            "%d,%.9g,%d,%.9g\n" % (i, contour.f0_hz[i], int(contour.voiced[i]), contour.cmnd_min[i])
        )
    return "".join(lines)
