import struct

import numpy as np
import pytest

from agvoice.audio_io import AudioBuffer, encode_wav_pcm16
from agvoice.config import AggregationConfig, BackboneConfig

SR = 22050

# bytes 2..15 of every KSDATAFORMAT_SUBTYPE GUID; bytes 0..1 hold the format tag
GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def sine(freq, seconds=1.0, sr=SR, amp=0.5, phase=0.0):
    t = np.arange(int(round(seconds * sr))) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t + phase), sr)


def sawtooth(freq, seconds=1.0, sr=SR, amp=0.5):
    t = np.arange(int(round(seconds * sr))) / sr
    return AudioBuffer(amp * (2.0 * ((t * freq) % 1.0) - 1.0), sr)


def float32_wav(values, rate=SR, channels=1):
    """An IEEE float32 WAV byte string; `values` interleaves the channels."""
    payload = np.asarray(values, dtype="<f4").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 3, channels, rate, rate * 4 * channels, 4 * channels, 32)
    return hdr + b"data" + struct.pack("<I", len(payload)) + payload


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def desk_backbone_cfg():
    return BackboneConfig(channels=16, d_model=8)


@pytest.fixture
def desk_agg_cfg():
    return AggregationConfig(mode="SE_F0_then_ME", n_tokens=2, heads=2, d_model=8)


@pytest.fixture
def wav_factory(tmp_path):
    """Write AudioBuffers to PCM16 wav files under tmp_path."""

    def write(name, buf):
        path = tmp_path / name
        path.write_bytes(encode_wav_pcm16(buf))
        return path

    return write
