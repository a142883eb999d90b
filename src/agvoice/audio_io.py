"""WAV decoding and band-limited resampling.

Everything downstream assumes mono float64 samples in [-1, 1] at
CANONICAL_RATE; this module gets arbitrary RIFF/WAVE input into that shape.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyAudio,
    MalformedContainer,
    RateOutOfRange,
    UnsupportedEncoding,
)

CANONICAL_RATE = 22050

_MIN_RATE = 4000

# resampler kernel parameters
_ZERO_CROSSINGS = 64
_KAISER_BETA = 8.0
_CUTOFF_FRACTION = 0.95


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float64 samples (|s| <= 1) plus their sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.ascontiguousarray(self.samples, dtype=np.float64))
        self.samples.flags.writeable = False

    def __len__(self):
        return len(self.samples)


def decode_wav(data: bytes) -> AudioBuffer:
    """Parse a RIFF/WAVE byte string into a mono AudioBuffer.

    Accepts PCM 16-bit and IEEE float 32-bit, 1 or 2 channels. Stereo is
    averaged down to mono; PCM16 is scaled by 1/32768. The container's
    sample rate is preserved; resample() brings it to CANONICAL_RATE.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedContainer("not a RIFF/WAVE container")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedContainer("chunk %r overruns file" % cid)
        if cid == b"fmt ":
            if size < 16:
                raise MalformedContainer("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise MalformedContainer("missing fmt or data chunk")

    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedEncoding("unsupported channel count %d" % channels)
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % (2 * channels)], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % (4 * channels)], dtype="<f4")
        if not np.isfinite(raw).all():
            raise MalformedContainer("float32 data holds NaN or infinite samples")
        samples = np.clip(raw.astype(np.float64), -1.0, 1.0)
    else:
        raise UnsupportedEncoding("format=%d bits=%d not supported" % (audio_format, bits))

    if samples.size == 0:
        raise EmptyAudio("no data frames")
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(samples, rate)


def encode_wav_pcm16(buf: AudioBuffer) -> bytes:
    """Write a mono PCM16 WAV byte string (test fixtures, round trips)."""
    pcm = np.clip(np.round(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    rate = buf.sample_rate_hz
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    hdr += b"data" + struct.pack("<I", len(data))
    return hdr + data


def _sinc_kernel(offsets, cutoff):
    """Windowed-sinc taps at fractional `offsets` (source-sample units)."""
    half = _ZERO_CROSSINGS / (2.0 * cutoff)
    u = offsets / half
    inside = np.abs(u) < 1.0
    window = np.zeros_like(offsets)
    window[inside] = np.i0(_KAISER_BETA * np.sqrt(1.0 - u[inside] ** 2)) / np.i0(_KAISER_BETA)
    return 2.0 * cutoff * np.sinc(2.0 * cutoff * offsets) * window


def resample(buf: AudioBuffer, target_hz: int) -> AudioBuffer:
    """Band-limited sinc resampling to target_hz.

    Kaiser-windowed sinc, 64 zero crossings per side, cutoff at 0.95 of
    the lower Nyquist. Output length is round(n * target / source); the
    equal-rate case is the identity.
    """
    if buf.sample_rate_hz < _MIN_RATE or target_hz < _MIN_RATE:
        raise RateOutOfRange("rates below %d Hz not supported" % _MIN_RATE)
    src = buf.sample_rate_hz
    if src == target_hz:
        return AudioBuffer(buf.samples, target_hz)

    x = buf.samples
    n_out = int(round(len(x) * target_hz / src))
    cutoff = _CUTOFF_FRACTION * 0.5 * min(src, target_hz) / src  # cycles per source sample
    hw = int(np.ceil(_ZERO_CROSSINGS / (2.0 * cutoff)))
    xpad = np.concatenate([np.zeros(hw), x, np.zeros(hw + 1)])
    offs = np.arange(-hw, hw + 1)

    out = np.empty(n_out)
    block = 8192
    for start in range(0, n_out, block):
        n = np.arange(start, min(start + block, n_out))
        t = n * (src / target_hz)
        base = np.floor(t).astype(np.int64)
        taps = _sinc_kernel(base[:, None] + offs[None, :] - t[:, None], cutoff)
        idx = base[:, None] + offs[None, :] + hw
        out[n] = np.einsum("ij,ij->i", xpad[idx], taps)
    return AudioBuffer(out, target_hz)

