"""Speaker embeddings and their two file formats.

A JSON embedding carries the mode and the config hash of the model that
made it; a binary (`.emb`) one is the magic, d and d float32 values. This
module imports only numpy and `errors`, so the scoring commands read
embeddings without the signal and attention code.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch


@dataclass(frozen=True)
class SpeakerEmbedding:
    vector: np.ndarray
    mode: str
    config_hash: str


EMBEDDING_MAGIC = b"AGVE0001"
# The keys of a JSON embedding: embedding_to_json writes these, and embedding_from_json accepts no others.
JSON_KEYS = ("config_hash", "d", "mode", "values")
# Bytes before a binary embedding's values: the magic, then d as a little-endian uint32.
BINARY_HEADER = len(EMBEDDING_MAGIC) + 4


def embedding_to_json(emb: SpeakerEmbedding) -> str:
    return json.dumps(
        {
            "mode": emb.mode,
            "d": len(emb.vector),
            "config_hash": emb.config_hash,
            "values": [float(np.float32(v)) for v in emb.vector],
        },
        sort_keys=True,
    )


def embedding_from_json(text: str) -> SpeakerEmbedding:
    """A JSON embedding: an object with exactly JSON_KEYS, whose `mode` and `config_hash` are strings."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ShapeMismatch("JSON nested too deeply") from None
    if type(obj) is not dict:
        raise ShapeMismatch("not a JSON object")
    unknown, missing = sorted(set(obj) - set(JSON_KEYS)), sorted(set(JSON_KEYS) - set(obj))
    if unknown or missing:
        raise ShapeMismatch("unknown key %r" % unknown[0] if unknown else "missing key %r" % missing[0])
    for key in ("mode", "config_hash"):
        if type(obj[key]) is not str:
            raise ShapeMismatch("%r is not a string" % key)
    values, d = obj["values"], obj["d"]
    # json gives bool for true/false, so exact types keep them out
    if type(values) is not list or not all(type(v) in (int, float) for v in values):
        raise ShapeMismatch("values must be a flat list of numbers")
    if type(d) is not int or len(values) != d:
        raise ShapeMismatch("declared d=%r but %d values" % (d, len(values)))
    try:
        vec = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ShapeMismatch("a value is too large for float64") from None
    return SpeakerEmbedding(vec, obj["mode"], obj["config_hash"])


def embedding_to_bytes(emb: SpeakerEmbedding) -> bytes:
    return EMBEDDING_MAGIC + struct.pack("<I", len(emb.vector)) + np.asarray(emb.vector, dtype="<f4").tobytes()


def binary_values(data: bytes) -> np.ndarray:
    """The float32 values of a binary embedding, read in place once its magic and its length are checked."""
    if data[:8] != EMBEDDING_MAGIC:
        raise ShapeMismatch("bad embedding magic")
    if len(data) < BINARY_HEADER:
        raise ShapeMismatch("truncated embedding header")
    (d,) = struct.unpack_from("<I", data, 8)
    if len(data) != BINARY_HEADER + 4 * d:
        raise ShapeMismatch("embedding payload is %d bytes, d=%d needs %d" % (len(data) - BINARY_HEADER, d, 4 * d))
    return np.frombuffer(data, dtype="<f4", offset=BINARY_HEADER)


def embedding_from_bytes(data: bytes) -> SpeakerEmbedding:
    """A binary embedding; the format stores neither mode nor config hash, so both are empty."""
    return SpeakerEmbedding(binary_values(data).astype(np.float64), "", "")
