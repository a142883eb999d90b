"""agvoice: language-agnostic speaker embeddings via multi-level
attention aggregation over an SE-Res2 speaker backbone.

The public names are imported from their modules on first access, so
`from agvoice import load` imports only the weight-file code.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "aggregation": ("extract_embedding",),
    "audio_io": ("AudioBuffer", "decode_wav", "resample"),
    "backbone": ("backbone_forward",),
    "config": ("AggregationConfig", "BackboneConfig"),
    "dsp": ("F0Contour", "MelSpectrogram", "mel_spectrogram", "yin_f0"),
    "embedding": ("SpeakerEmbedding",),
    "evaluation": ("SimilarityMatrix", "abx_select", "cosine", "cross_similarity", "diagonal_dominance"),
    "weights": ("ParamStore", "check_params", "init_params", "load", "save"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
