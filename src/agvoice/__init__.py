"""agvoice: language-agnostic speaker embeddings via multi-level
attention aggregation over an SE-Res2 speaker backbone."""

from .aggregation import (
    AggregationConfig,
    SpeakerEmbedding,
    extract_embedding,
)
from .audio_io import AudioBuffer, decode_wav, resample
from .backbone import BackboneConfig, backbone_forward
from .dsp import F0Contour, MelSpectrogram, mel_spectrogram, yin_f0
from .evaluation import SimilarityMatrix, abx_select, cosine, cross_similarity, diagonal_dominance
from .weights import ParamStore, check_params, init_params, load, save

__all__ = [
    "AggregationConfig",
    "AudioBuffer",
    "BackboneConfig",
    "F0Contour",
    "MelSpectrogram",
    "ParamStore",
    "SimilarityMatrix",
    "SpeakerEmbedding",
    "abx_select",
    "backbone_forward",
    "check_params",
    "cosine",
    "cross_similarity",
    "decode_wav",
    "diagonal_dominance",
    "extract_embedding",
    "init_params",
    "load",
    "mel_spectrogram",
    "resample",
    "save",
    "yin_f0",
]

__version__ = "0.1.0"
