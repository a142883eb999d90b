import struct

import numpy as np
import pytest

from agvoice.audio_io import (
    AudioBuffer,
    decode_wav,
    encode_wav_pcm16,
    resample,
)
from agvoice.errors import (
    EmptyAudio,
    MalformedContainer,
    RateOutOfRange,
    UnsupportedEncoding,
)
from conftest import SR, float32_wav, sine
from oracles import loop_resample


def pcm16_wav(frames, rate=22050, channels=1):
    data = np.asarray(frames, dtype="<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, rate * 2 * channels, 2 * channels, 16)
    return hdr + b"data" + struct.pack("<I", len(data)) + data


class TestDecode:
    def test_pcm16_scaling(self):
        buf = decode_wav(pcm16_wav([16384]))
        assert buf.samples.tolist() == [0.5]

    def test_stereo_average_cancels(self):
        buf = decode_wav(pcm16_wav([32767, -32767], channels=2))
        assert buf.samples.tolist() == [0.0]

    def test_header_arithmetic(self):
        src = sine(440.0, seconds=1.0, sr=16000)
        buf = decode_wav(encode_wav_pcm16(src))
        assert buf.sample_rate_hz == 16000
        assert len(buf) == 16000

    def test_float32_payload(self):
        payload = np.array([0.25, -0.5], dtype="<f4").tobytes()
        hdr = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 22050, 22050 * 4, 4, 32)
        buf = decode_wav(hdr + b"data" + struct.pack("<I", len(payload)) + payload)
        assert np.allclose(buf.samples, [0.25, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float32_non_finite_rejected(self, bad):
        with pytest.raises(MalformedContainer):
            decode_wav(float32_wav([0.25, bad]))

    def test_bad_magic(self):
        with pytest.raises(MalformedContainer):
            decode_wav(b"OGGS" + b"\x00" * 40)

    def test_compressed_codec_rejected(self):
        blob = bytearray(pcm16_wav([0]))
        struct.pack_into("<H", blob, 20, 85)  # mp3 format tag
        with pytest.raises(UnsupportedEncoding):
            decode_wav(bytes(blob))

    def test_empty_data(self):
        with pytest.raises(EmptyAudio):
            decode_wav(pcm16_wav([]))

    def test_roundtrip_quantization_bound(self, rng):
        samples = rng.uniform(-0.999, 0.999, size=2000)
        buf = decode_wav(encode_wav_pcm16(AudioBuffer(samples, SR)))
        assert np.max(np.abs(buf.samples - samples)) <= 1.0 / 32768


class TestResample:
    def test_identity(self):
        buf = sine(440.0)
        out = resample(buf, SR)
        assert out.sample_rate_hz == SR
        assert np.array_equal(out.samples, buf.samples)

    def test_zeros_halve(self):
        out = resample(AudioBuffer(np.zeros(10001), 44100), 22050)
        assert len(out) == round(10001 / 2)
        assert not out.samples.any()

    def test_downsampled_tone_matches_analytic(self):
        src = sine(440.0, seconds=1.0, sr=44100)
        out = resample(src, 22050)
        ref = sine(440.0, seconds=1.0, sr=22050)
        # kernel support falls off the signal at the edges; compare interior
        n = min(len(out), len(ref))
        interior = slice(300, n - 300)
        err = out.samples[interior] - ref.samples[interior]
        assert np.sqrt(np.mean(err**2)) < 1e-3

    def test_tone_frequency_preserved(self):
        out = resample(sine(440.0, sr=44100), 22050)
        spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out))))
        peak_hz = np.argmax(spec) * 22050 / len(out)
        assert abs(peak_hz - 440.0) < 22050 / 1024  # within one analysis bin

    def test_energy_preserved(self):
        src = sine(1000.0, sr=44100)
        out = resample(src, 22050)
        e_src = np.mean(src.samples**2)
        e_out = np.mean(out.samples**2)
        assert abs(e_out - e_src) / e_src < 0.05

    @pytest.mark.parametrize("src, target", [(16000, 22050), (44100, 22050), (48000, 22050), (22050, 16000), (22050, 22050)])
    def test_matches_loop_oracle(self, src, target):
        x = np.random.default_rng(src).uniform(-1.0, 1.0, 300)
        out = resample(AudioBuffer(x, src), target)
        ref = loop_resample(x, src, target)
        assert len(out) == len(ref)
        assert np.max(np.abs(out.samples - ref)) < 1e-12

    def test_rate_out_of_range(self):
        with pytest.raises(RateOutOfRange):
            resample(sine(440.0, sr=8000), 2000)
        with pytest.raises(RateOutOfRange):
            resample(AudioBuffer(np.zeros(100), 1000), 22050)


def test_buffer_immutable():
    buf = sine(440.0)
    with pytest.raises(ValueError):
        buf.samples[0] = 1.0
