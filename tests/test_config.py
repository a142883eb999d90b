"""Each config definition lives in `agvoice.config`, and the package imports its modules lazily."""

import importlib
import os
import subprocess
import sys

import pytest

import agvoice
from agvoice import aggregation, backbone, config, dsp, embedding, weights

# The benchmark's set-up steps: load a weight file and check it against the config it declares.
# Prints the modules of the signal, attention, scoring and CLI code it had loaded by then.
SETUP_SCRIPT = """
import sys
from agvoice import check_params, load, weights

store = load(sys.argv[1])
bb, agg = weights.configs_from_dict(store.meta["config"])
check_params(store, bb, agg)
heavy = ["agvoice." + m for m in ("aggregation", "audio_io", "backbone", "dsp", "nn", "evaluation", "cli")]
print(*(m for m in heavy + ["concurrent.futures"] if m in sys.modules))
"""

# Each public name of the package -> the module that defines it.
PUBLIC = {
    "AggregationConfig": "config",
    "AudioBuffer": "audio_io",
    "BackboneConfig": "config",
    "F0Contour": "dsp",
    "MelSpectrogram": "dsp",
    "ParamStore": "weights",
    "SimilarityMatrix": "evaluation",
    "SpeakerEmbedding": "embedding",
    "abx_select": "evaluation",
    "backbone_forward": "backbone",
    "check_params": "weights",
    "cosine": "evaluation",
    "cross_similarity": "evaluation",
    "decode_wav": "audio_io",
    "diagonal_dominance": "evaluation",
    "extract_embedding": "aggregation",
    "init_params": "weights",
    "load": "weights",
    "mel_spectrogram": "dsp",
    "resample": "audio_io",
    "save": "weights",
    "yin_f0": "dsp",
}


def test_loading_a_model_imports_only_the_weight_file_code(tmp_path):
    bb = config.BackboneConfig(channels=16, d_model=8)
    agg = config.AggregationConfig(n_tokens=2, heads=2, d_model=8)
    path = tmp_path / "tiny.agvw"
    path.write_bytes(weights.save(weights.init_params(bb, agg, 0)))
    src = os.path.dirname(os.path.dirname(agvoice.__file__))
    proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(path)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_public_names_are_their_home_modules_objects():
    assert agvoice.__all__ == sorted(PUBLIC)
    for name, home in PUBLIC.items():
        obj = getattr(agvoice, name)
        assert obj.__module__ == "agvoice." + home, name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(PUBLIC) <= set(dir(agvoice))
    assert "__version__" in dir(agvoice)
    with pytest.raises(AttributeError):
        agvoice.no_such_name


def test_each_config_definition_lives_in_config():
    assert aggregation.AggregationConfig is config.AggregationConfig
    assert aggregation.ENCODERS is config.ENCODERS
    assert aggregation.config_hash is config.config_hash
    assert backbone.BackboneConfig is config.BackboneConfig
    assert dsp.N_MELS is config.N_MELS
    assert config.AggregationConfig.__module__ == "agvoice.config"
    assert config.BackboneConfig.__module__ == "agvoice.config"


def test_the_embedding_formats_live_in_embedding():
    # aggregation names the ones the benchmark wraps or imports there, and embed writes through them
    for name in ("SpeakerEmbedding", "embedding_from_bytes", "embedding_to_bytes", "embedding_to_json"):
        assert getattr(aggregation, name) is getattr(embedding, name), name
    assert embedding.SpeakerEmbedding.__module__ == "agvoice.embedding"
