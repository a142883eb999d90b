import tracemalloc

import numpy as np
import pytest

from agvoice.audio_io import AudioBuffer
from agvoice.dsp import (
    HOP,
    MEL_FLOOR,
    WIN,
    YIN_FMIN,
    YIN_FRAMES,
    f0_to_csv,
    frame_count,
    mel_filterbank,
    mel_spectrogram,
    mel_to_csv,
    yin_f0,
)
from agvoice.errors import RateOutOfRange, TooShort
from agvoice.nn import BLOCK_ROWS
from conftest import SR, sawtooth, sine
from oracles import (
    brute_cmnd,
    brute_filterbank,
    brute_yin_frame,
    dft_magnitude_frame,
    mel_center_frequencies,
    stft_magnitude,
)


class TestStft:
    def test_tone_at_bin_center(self):
        freq = 48 * SR / 1024
        mag = stft_magnitude(sine(freq).samples)
        assert (np.argmax(mag, axis=1) == 48).all()

    def test_zero_input_framing(self):
        mag = stft_magnitude(np.zeros(4096))
        assert mag.shape == (13, 513)
        assert not mag.any()

    def test_too_short(self):
        # the front end frames the buffer itself and refuses one short of a window
        with pytest.raises(TooShort):
            mel_spectrogram(AudioBuffer(np.zeros(1023), SR))

    def test_white_noise_frame_matches_direct_dft(self, rng):
        x = rng.standard_normal(1024)
        mag = stft_magnitude(x)[0]
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(1024) / 1024)
        ref = dft_magnitude_frame(x * window)
        assert np.max(np.abs(mag - ref) / np.maximum(ref, 1e-12)) < 1e-6
        # Parseval over the one-sided spectrum (doubling bins 1..511)
        onesided = mag[0] ** 2 + mag[512] ** 2 + 2 * np.sum(mag[1:512] ** 2)
        energy = np.sum((x * window) ** 2)
        assert abs(onesided - 1024 * energy) / (1024 * energy) < 1e-9


class TestFilterbank:
    def test_rows_nonnegative_unimodal(self):
        fb = mel_filterbank()
        assert (fb >= 0).all()
        for row in fb:
            peak = np.argmax(row)
            assert (np.diff(row[: peak + 1]) >= 0).all()
            assert (np.diff(row[peak:]) <= 0).all()

    def test_centers_strictly_increasing(self):
        assert (np.diff(mel_center_frequencies()) > 0).all()
        assert (np.diff(np.argmax(mel_filterbank(), axis=1)) >= 0).all()

    def test_tone_lands_in_nearest_band(self):
        mag = stft_magnitude(sine(1000.0).samples)
        mel = mel_filterbank() @ mag.mean(axis=0)
        centers = mel_center_frequencies()
        expected = int(np.argmin([abs(c - 1000.0) for c in centers]))
        assert abs(int(np.argmax(mel)) - expected) <= 1

    def test_matches_brute_construction(self):
        fb = mel_filterbank()
        ref = brute_filterbank()
        assert np.max(np.abs(fb - ref)) < 1e-9


class TestMelSpectrogram:
    def test_silence_hits_floor(self):
        mel = mel_spectrogram(AudioBuffer(np.zeros(4096), SR))
        assert np.array_equal(mel.frames, np.full((13, 80), np.log(MEL_FLOOR)))

    def test_log_homogeneity(self):
        buf = sine(440.0, seconds=0.2)
        m1 = mel_spectrogram(buf).frames
        m2 = mel_spectrogram(AudioBuffer(buf.samples * 10.0, SR)).frames
        unfloored = m1 > np.log(MEL_FLOOR)
        assert np.allclose(m2[unfloored] - m1[unfloored], np.log(10.0), atol=1e-9)

    def test_frame_arithmetic(self):
        mel = mel_spectrogram(AudioBuffer(np.random.default_rng(0).standard_normal(4096) * 0.1, SR))
        assert mel.frames.shape == (13, 80)

    # BLOCK_ROWS + 1 frames are two blocks, of BLOCK_ROWS // 2 rows (the
    # shortest a block can be) and one row more; the next two are two and
    # three blocks
    @pytest.mark.parametrize(
        "t", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + BLOCK_ROWS // 2 + 1, 2 * BLOCK_ROWS + 1]
    )
    def test_blocked_is_the_whole_array_formula(self, rng, t):
        # bit for bit: each row block of frames goes through the same rfft and filterbank product
        x = 0.1 * rng.standard_normal(WIN + HOP * (t - 1) + 100)
        mel = mel_spectrogram(AudioBuffer(x, SR)).frames
        whole = np.log(np.maximum(stft_magnitude(x) @ mel_filterbank().T, MEL_FLOOR))
        assert mel.shape == (t, 80)
        assert np.array_equal(mel, whole)

    def test_peak_memory_is_the_output_and_one_block(self):
        # a block's windowed frames and spectra beside the T x 80 output; the
        # whole-array STFT held T x WIN of each (~80 MB at 60 s)
        buf = sawtooth(110.0, seconds=60.0)
        tracemalloc.start()
        try:
            mel = mel_spectrogram(buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mel.frames.nbytes + 8 * 2**20


class TestYin:
    def test_pure_tone(self):
        c = yin_f0(sine(220.0))
        interior = slice(1, len(c) - 1)
        assert c.voiced[interior].all()
        assert np.max(np.abs(c.f0_hz[interior] - 220.0)) < 0.5

    def test_silence_unvoiced(self):
        c = yin_f0(AudioBuffer(np.zeros(SR // 2), SR))
        assert not c.voiced.any()
        assert not c.f0_hz.any()

    def test_sawtooth_no_octave_error(self):
        c = yin_f0(sawtooth(110.0))
        interior = slice(1, len(c) - 1)
        assert c.voiced[interior].all()
        assert np.max(np.abs(c.f0_hz[interior] - 110.0)) < 1.0

    def test_matches_brute_frame_oracle(self):
        buf = sawtooth(147.0, seconds=0.3)
        c = yin_f0(buf)
        for t in (0, 5, 10):
            frame = buf.samples[t * 256 : t * 256 + 1024]
            f0, voiced, cmnd = brute_yin_frame(frame)
            assert voiced == c.voiced[t]
            assert abs(f0 - c.f0_hz[t]) < 1e-6
            assert abs(cmnd - c.cmnd_min[t]) < 1e-8

    def test_whole_clip_matches_brute_oracle_across_blocks(self, rng):
        # 2 * YIN_FRAMES + 1 frames: two full blocks and a one-frame tail
        n = 1024 + 2 * YIN_FRAMES * 256
        saw = sawtooth(131.0, seconds=n / SR).samples[:n]
        noise = 0.1 * rng.standard_normal(n)
        kind = (np.arange(n) // 2560) % 3  # sawtooth, noise and exact zeros, ten hops each
        x = np.where(kind == 0, saw, np.where(kind == 1, noise, 0.0))
        c = yin_f0(AudioBuffer(x, SR))
        frames = np.lib.stride_tricks.sliding_window_view(x, 1024)[::256]
        assert len(c) == len(frames) == 2 * YIN_FRAMES + 1
        silent = ~frames.any(axis=1)
        for block in (slice(0, YIN_FRAMES), slice(YIN_FRAMES, None)):
            voiced = c.voiced[block]
            assert voiced.any() and silent[block].any() and (~voiced & ~silent[block]).any()
        for t, frame in enumerate(frames):
            f0, voiced, cmnd = brute_yin_frame(frame)
            assert voiced == c.voiced[t], t
            assert abs(f0 - c.f0_hz[t]) < 1e-9, t
            assert abs(cmnd - c.cmnd_min[t]) < 1e-9, t

    def test_peak_memory_is_per_block(self):
        # the working set is a few YIN_FRAMES x 2*WIN arrays, not T x 2*WIN (~85 MB at 60 s)
        buf = sawtooth(110.0, seconds=60.0)
        tracemalloc.start()
        try:
            yin_f0(buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_cmnd_against_brute(self, rng):
        frame = rng.standard_normal(1024)
        from agvoice.dsp import _cmnd, _difference_function

        d = _difference_function(frame, 512)
        _, dp_ref = brute_cmnd(frame, 512)
        d_ref, _ = brute_cmnd(frame, 512)
        assert np.max(np.abs(d - d_ref)) < 1e-6 * np.max(d_ref)
        assert np.max(np.abs(_cmnd(d) - dp_ref)) < 1e-8

    def test_cmnd_through_the_band_keeps_the_bits_of_the_full_search(self, rng, monkeypatch):
        # yin_f0 stops at the band's last lag plus one and keeps the bits of a search out to WIN/2
        from agvoice import dsp

        last = int(np.floor(SR / YIN_FMIN)) + 1
        saw = sawtooth(97.0).samples
        for frame in (rng.standard_normal(WIN), saw[:WIN]):
            full = dsp._cmnd(dsp._difference_function(frame, WIN // 2))
            trimmed = dsp._cmnd(dsp._difference_function(frame, last))
            assert trimmed.shape == (last + 1,)
            assert np.array_equal(trimmed, full[: last + 1])
        buf = AudioBuffer(np.concatenate([saw, 0.1 * rng.standard_normal(SR)]), SR)
        got = yin_f0(buf)
        search = dsp._difference_function
        monkeypatch.setattr(dsp, "_difference_function", lambda f, tau_max: search(f, WIN // 2)[..., : tau_max + 1])
        ref = yin_f0(buf)
        for a, b in ((got.f0_hz, ref.f0_hz), (got.voiced, ref.voiced), (got.cmnd_min, ref.cmnd_min)):
            assert np.array_equal(a, b)


class TestAlignment:
    def test_mel_and_f0_frame_counts_agree(self, rng):
        for _ in range(10):
            n = int(rng.integers(1024, 40000))
            buf = AudioBuffer(rng.standard_normal(n) * 0.1, SR)
            expected = (n - 1024) // 256 + 1
            assert frame_count(n) == expected
            assert mel_spectrogram(buf).frames.shape[0] == expected
            assert len(yin_f0(buf)) == expected

    def test_hop_shift_shifts_frames(self, rng):
        x = rng.standard_normal(5000) * 0.1
        a = mel_spectrogram(AudioBuffer(x, SR)).frames
        b = mel_spectrogram(AudioBuffer(x[256:], SR)).frames
        assert np.max(np.abs(a[1 : 1 + len(b)] - b)) < 1e-9

    @pytest.mark.parametrize("feature", [mel_spectrogram, yin_f0], ids=["mel", "yin"])
    def test_other_rate_rejected(self, feature):
        with pytest.raises(RateOutOfRange):
            feature(sine(220.0, seconds=0.2, sr=16000))

    def test_outputs_finite_and_in_range(self, rng):
        buf = AudioBuffer(np.clip(rng.standard_normal(9000), -1, 1), SR)
        mel = mel_spectrogram(buf)
        c = yin_f0(buf)
        assert np.isfinite(mel.frames).all()
        assert np.isfinite(c.f0_hz).all() and np.isfinite(c.cmnd_min).all()
        voiced = c.voiced
        assert ((c.f0_hz[voiced] >= 60.0) & (c.f0_hz[voiced] <= 500.0)).all()
        assert (c.f0_hz[~voiced] == 0).all()


def test_csv_dumps():
    buf = sine(220.0, seconds=0.2)
    mel = mel_spectrogram(buf)
    lines = mel_to_csv(mel).strip().split("\n")
    assert len(lines) == mel.frames.shape[0]
    assert len(lines[0].split(",")) == 80
    f0_lines = f0_to_csv(yin_f0(buf)).strip().split("\n")
    assert f0_lines[0] == "frame_index,f0_hz,voiced,cmnd_min"
    assert len(f0_lines) == mel.frames.shape[0] + 1
