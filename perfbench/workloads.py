"""Workload definitions and the seeded input generator.

Every workload is the same closed-loop user flow: `agvoice embed` drains
a manifest with a pool of AGV_NUM_THREADS workers, then `agvoice
simmatrix` scores an index twice (utterance level, and grouped by
speaker). The workloads differ in what the manifest and the index hold,
so that the cost lands in a different module on each:

- embed-mixed-rate: 3 s clips, three quarters of them at 16 / 44.1 /
  48 kHz, desk config, two workers. Resampling is almost the whole cost.
- embed-long-native: 60 s clips at 22.05 kHz, paper-scale config, one
  worker. Resampling is bypassed; the T x T attention levels, the
  backbone and YIN carry the cost and set peak memory.
- score-1k: 1000 seeded `.emb` embeddings of 50 speakers. `evaluation`
  carries the cost; the embed step is two short native-rate clips.

The scored index is the embed run's own output on the two embed
workloads, so each workload reports every end-to-end metric.

Generation is untimed and depends only on the seed.
"""

import dataclasses
import json
import os

import numpy as np

from agvoice.aggregation import AggregationConfig, SpeakerEmbedding, config_hash, embedding_to_bytes
from agvoice.audio_io import AudioBuffer, encode_wav_pcm16
from agvoice.backbone import BackboneConfig

D_MODEL = 192
LANGUAGES = ("en", "de", "ja", "sw", "pt")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    rates: tuple  # sample rate of each manifest entry, in manifest order
    clip_s: float
    channels: int  # backbone width C of the weight file
    threads: int  # AGV_NUM_THREADS for `agvoice embed`
    index_speakers: int = 0  # 0: score the embed output; else a prebuilt .emb index
    index_per_speaker: int = 0

    @property
    def audio_s(self):
        return len(self.rates) * self.clip_s


# The rate pattern is fixed (heaviest resample first), so the seed changes
# the audio content but not how the two workers' load is balanced.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("embed-mixed-rate", (48000, 44100, 16000, 22050), 3.0, 64, 2),
        Workload("embed-long-native", (22050, 22050), 60.0, 512, 1),
        Workload("score-1k", (22050, 22050), 3.0, 64, 1, index_speakers=50, index_per_speaker=20),
    )
}


def small(w: Workload) -> Workload:
    """The same workload at minimal size, for the smoke mode."""
    return dataclasses.replace(
        w,
        clip_s=0.5,
        index_speakers=min(w.index_speakers, 4),
        index_per_speaker=min(w.index_per_speaker, 3),
    )


def synth_voice(rng, sr, n, f0_hz, tilt):
    """A harmonic "speaker": voiced syllables over a light noise floor.

    Syllables of 120-350 ms alternate with 40-150 ms gaps, so YIN sees
    both voiced and unvoiced frames. The pitch drifts slowly around
    `f0_hz` with a light vibrato; harmonic k has amplitude k**-tilt.
    """
    voiced = np.zeros(n)
    pos = int(rng.uniform(0.02, 0.1) * sr)
    while pos < n:
        length = int(rng.uniform(0.12, 0.35) * sr)
        voiced[pos : pos + length] = 1.0
        pos += length + int(rng.uniform(0.04, 0.15) * sr)
    ramp = max(1, int(0.01 * sr))
    c = np.concatenate([[0.0], np.cumsum(voiced)])
    idx = np.arange(n)
    env = (c[np.minimum(idx + ramp, n)] - c[np.maximum(idx - ramp, 0)]) / (2 * ramp)

    t = idx / sr
    f0 = f0_hz * (1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(0.2, 0.5) * t + rng.uniform(0, 2 * np.pi)))
    f0 *= 1.0 + 0.01 * np.sin(2 * np.pi * rng.uniform(4.5, 6.0) * t)
    phase = 2 * np.pi * np.cumsum(f0) / sr
    n_harm = max(1, min(20, int(0.4 * min(sr, 16000) / (1.1 * f0_hz))))
    x = sum(k ** -tilt * np.sin(k * phase) for k in range(1, n_harm + 1))
    x = 0.5 * env * x / np.max(np.abs(x))
    x += 0.003 * rng.standard_normal(n)
    return np.clip(x, -1.0, 1.0)


def write_manifest(w: Workload, seed, directory):
    """Seeded WAVs plus their JSONL manifest; returns the manifest records."""
    n_speakers = max(2, len(w.rates) // 2)
    spk_rng = np.random.default_rng([seed, 1])
    speakers = [(spk_rng.uniform(90.0, 240.0), spk_rng.uniform(0.8, 1.6)) for _ in range(n_speakers)]
    records = []
    for i, sr in enumerate(w.rates):
        spk = i % n_speakers
        rng = np.random.default_rng([seed, 2, i])
        x = synth_voice(rng, sr, int(round(w.clip_s * sr)), *speakers[spk])
        fname = "utt%03d.wav" % i
        with open(os.path.join(directory, fname), "wb") as f:
            f.write(encode_wav_pcm16(AudioBuffer(x, sr)))
        records.append(
            {"path": fname, "utterance_id": "utt%03d" % i, "speaker_id": "spk%02d" % spk, "language": LANGUAGES[spk % 5]}
        )
    with open(os.path.join(directory, "manifest.jsonl"), "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")
    return records


def write_emb_index(w: Workload, seed, directory):
    """Seeded `.emb` index: speaker centres plus per-utterance noise, shuffled."""
    rng = np.random.default_rng([seed, 3])
    n = w.index_speakers * w.index_per_speaker
    centres = rng.standard_normal((w.index_speakers, D_MODEL))
    agg = AggregationConfig(d_model=D_MODEL)
    cfg_hash = config_hash(BackboneConfig(channels=w.channels, d_model=D_MODEL), agg)
    entries = []
    for j, i in enumerate(rng.permutation(n)):
        spk = int(i) // w.index_per_speaker
        vec = centres[spk] + 0.8 * rng.standard_normal(D_MODEL)
        fname = "u%04d.emb" % j
        with open(os.path.join(directory, fname), "wb") as f:
            f.write(embedding_to_bytes(SpeakerEmbedding(vec, agg.mode, cfg_hash)))
        entries.append(
            {"utterance_id": "u%04d" % j, "speaker_id": "spk%02d" % spk, "language": LANGUAGES[spk % 5], "file": fname}
        )
    index = {"config_hash": cfg_hash, "mode": agg.mode, "d": D_MODEL, "format": "bin", "entries": entries}
    path = os.path.join(directory, "index.json")
    with open(path, "w") as f:
        json.dump(index, f)
    return path
