"""Seeded parameter initialization and the AGVW weight-file format.

Every draw is keyed by (seed, sha256(name)), so the set of tensors or
their creation order never changes the values of the others. Compute is
float64 in memory; files store float32 payloads bit-exactly.
"""

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .aggregation import ENCODERS, FIXED_FIELDS, AggregationConfig, config_fields, config_hash, configs_from_fields
from .backbone import DILATIONS, RES2_SCALE, BackboneConfig
from .dsp import N_MELS
from .errors import (
    BadMagic,
    HeaderMismatch,
    InvalidConfig,
    MissingParameter,
    TruncatedPayload,
)

WEIGHTS_MAGIC = b"AGVW0001"
# The header's constant keys: `save` writes them and `load` requires them.
HEADER = {"format_version": 1, "dtype": "f32"}


@dataclass(frozen=True)
class ParamStore:
    entries: dict
    meta: dict = field(default_factory=dict)

    def __getitem__(self, name):
        try:
            return self.entries[name]
        except KeyError:
            raise MissingParameter("missing parameter %r" % name) from None

    def names(self):
        return sorted(self.entries)


def param_shapes(bb: BackboneConfig, agg: AggregationConfig) -> dict:
    """Name -> shape census for the active configuration."""
    if bb.d_model != agg.d_model:
        raise InvalidConfig("backbone d_model %d != aggregation d_model %d" % (bb.d_model, agg.d_model))
    c, b, d = bb.channels, bb.bottleneck, bb.d_model
    g = c // RES2_SCALE
    shapes = {
        "backbone.conv_in.weight": (N_MELS, c),
        "backbone.conv_in.bias": (c,),
        "backbone.mfa.weight": (len(DILATIONS) * c, c),
        "backbone.mfa.bias": (c,),
        "backbone.proj_frames.weight": (c, d),
        "backbone.proj_frames.bias": (d,),
        "backbone.pool.w1": (c, b),
        "backbone.pool.b1": (b,),
        "backbone.pool.w2": (b, c),
        "backbone.pool.b2": (c,),
        "backbone.proj_pooled.weight": (2 * c, d),
        "backbone.proj_pooled.bias": (d,),
    }
    for i in range(1, len(DILATIONS) + 1):
        p = "backbone.block%d." % i
        shapes[p + "conv_in.weight"] = (c, c)
        shapes[p + "conv_in.bias"] = (c,)
        shapes[p + "conv_out.weight"] = (c, c)
        shapes[p + "conv_out.bias"] = (c,)
        for j in range(2, RES2_SCALE + 1):
            shapes[p + "group%d.kernels" % j] = (g, g, 3)
        shapes[p + "se.w1"] = (c, b)
        shapes[p + "se.b1"] = (b,)
        shapes[p + "se.w2"] = (b, c)
        shapes[p + "se.b2"] = (c,)

    encoder_shapes = {
        "f0": {"fc1.weight": (2, d), "fc1.bias": (d,), "fc2.weight": (d, d), "fc2.bias": (d,)},
        "me": {
            "fc1.weight": (N_MELS, d),
            "fc1.bias": (d,),
            "fc2.weight": (d, d),
            "fc2.bias": (d,),
            "glu.kernels": (2 * d, d, 3),
            "glu.bias": (2 * d,),
        },
    }
    for level, cue in enumerate(agg.cues, 1):
        for name, shape in encoder_shapes[cue].items():
            shapes["agg.%s.%s" % (ENCODERS[cue], name)] = shape
        for w, bias in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")):
            shapes["agg.level%d.%s" % (level, w)] = (d, d)
            shapes["agg.level%d.%s" % (level, bias)] = (d,)
    if agg.cues and agg.splitting:
        shapes["agg.tokens"] = (agg.n_tokens, d)
        for w, bias in (("wq", "bq"), ("wk", "bk"), ("wv", "bv"), ("wo", "bo")):
            shapes["agg.fuse.%s" % w] = (d, d)
            shapes["agg.fuse.%s" % bias] = (d,)
    return shapes


def _name_hash(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")


def _init_tensor(name, shape, seed, d_model):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & (2**64 - 1), _name_hash(name)])))
    if name == "agg.tokens":
        return rng.normal(0.0, 1.0 / np.sqrt(d_model), size=shape)
    if len(shape) == 1:
        return np.zeros(shape)
    if len(shape) == 3:
        c_out, c_in, k = shape
        a = np.sqrt(6.0 / (c_in * k + c_out * k))
    else:
        a = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-a, a, size=shape)


def _config_dict(bb: BackboneConfig, agg: AggregationConfig) -> dict:
    # n_blocks is derived, but the file format has always carried it
    return {**config_fields(bb, agg), "n_blocks": len(DILATIONS)}


def _check_keys(what, obj, fixed, free):
    """Keys exactly `fixed` and `free`, each fixed key with its value's JSON text (80.0 or true is not 80)."""
    keys = set(fixed).union(free)
    missing = sorted(keys - set(obj))
    if missing:
        raise HeaderMismatch("weight-file %s lacks %s" % (what, ", ".join(missing)))
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise HeaderMismatch("weight-file %s has unknown key %s" % (what, ", ".join(map(repr, unknown))))
    for key, value in fixed.items():
        if json.dumps(obj[key]) != json.dumps(value):
            raise HeaderMismatch("weight-file %s %s must be %s, got %s" % (what, key, json.dumps(value), json.dumps(obj[key])))


def configs_from_dict(cfg: dict):
    """(BackboneConfig, AggregationConfig) from a weight file's `config`."""
    if not isinstance(cfg, dict):
        raise InvalidConfig("weight file has no config object")
    expected = _config_dict(BackboneConfig(), AggregationConfig())
    fixed = {key: expected.pop(key) for key in (*FIXED_FIELDS, "n_blocks")}
    _check_keys("config", cfg, fixed, expected)
    return configs_from_fields(cfg)


def init_params(bb: BackboneConfig, agg: AggregationConfig, seed: int) -> ParamStore:
    """Deterministic seeded store for the given configuration.

    PRNG: NumPy PCG64, keyed per tensor via SeedSequence([seed, sha256(name)]).
    Affine weights are uniform(+-sqrt(6/(fan_in+fan_out))), conv kernels the
    same with fans over taps, biases zero, token rows N(0, 1/sqrt(d)).
    """
    shapes = param_shapes(bb, agg)
    entries = {name: _init_tensor(name, shape, seed, agg.d_model) for name, shape in shapes.items()}
    meta = {
        "seed": int(seed),
        "config": _config_dict(bb, agg),
        "config_digest": config_hash(bb, agg),
        "format_version": HEADER["format_version"],
    }
    return ParamStore(entries, meta)


def check_params(store: ParamStore, bb: BackboneConfig, agg: AggregationConfig):
    """Strict census check: no missing, no extra, no shape drift; then the meta must carry this config's digest."""
    expected = param_shapes(bb, agg)
    missing = sorted(set(expected) - set(store.entries))
    if missing:
        raise MissingParameter("missing parameters: %s" % ", ".join(missing))
    extra = sorted(set(store.entries) - set(expected))
    if extra:
        raise InvalidConfig("unexpected parameters: %s" % ", ".join(extra))
    for name, shape in expected.items():
        if tuple(store.entries[name].shape) != tuple(shape):
            raise InvalidConfig("parameter %s has shape %s, expected %s" % (name, store.entries[name].shape, shape))
    digest = {"config_digest": config_hash(bb, agg), "format_version": HEADER["format_version"]}
    _check_keys("meta", store.meta, digest, ("seed", "config"))


def save(store: ParamStore, sink):
    """Write the AGVW0001 container (path or binary file object)."""
    names = store.names()
    payloads = [np.ascontiguousarray(store.entries[n], dtype="<f4").tobytes() for n in names]
    header = json.dumps(
        {
            **HEADER,
            "payload_bytes": sum(len(p) for p in payloads),
            "meta": store.meta,
            "tensors": [{"name": n, "shape": list(store.entries[n].shape)} for n in names],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    blob = WEIGHTS_MAGIC + struct.pack("<I", len(header)) + header + b"".join(payloads)
    if hasattr(sink, "write"):
        sink.write(blob)
    else:
        with open(sink, "wb") as f:
            f.write(blob)


def load(source) -> ParamStore:
    """Read an AGVW0001 file; validates sizes before building any tensor."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as f:
            data = f.read()
    if data[:8] != WEIGHTS_MAGIC:
        raise BadMagic("bad weight-file magic %r" % data[:8])
    if len(data) < 12:
        raise TruncatedPayload("file ends inside the header length field")
    (hlen,) = struct.unpack_from("<I", data, 8)
    if len(data) < 12 + hlen:
        raise TruncatedPayload("file ends inside the header")
    try:
        header = json.loads(data[12 : 12 + hlen])
    except ValueError as e:
        raise HeaderMismatch("unparseable header: %s" % e) from None
    if not isinstance(header, dict) or not isinstance(header.get("meta"), dict):
        raise HeaderMismatch("header has no meta object")
    try:
        tensors = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
    except (KeyError, TypeError):
        raise HeaderMismatch("header has no well-formed tensor list") from None
    for name, shape in tensors:
        if not isinstance(name, str) or not all(type(s) is int for s in shape):
            raise HeaderMismatch("tensor %r needs a string name and integer dimensions" % (name,))
    names = [name for name, _ in tensors]
    if len(set(names)) != len(names):
        raise HeaderMismatch("tensor %r is listed more than once" % next(n for n in names if names.count(n) > 1))
    if any(s <= 0 for _, shape in tensors for s in shape):
        raise HeaderMismatch("tensor dimension is not positive")
    counts = [math.prod(shape) for _, shape in tensors]  # exact: a huge shape cannot wrap to a small count
    declared = 4 * sum(counts)
    _check_keys("header", header, {**HEADER, "payload_bytes": declared}, ("meta", "tensors"))
    payload = data[12 + hlen :]
    if len(payload) < declared:
        raise TruncatedPayload("payload is %d bytes, expected %d" % (len(payload), declared))
    if len(payload) > declared:
        raise HeaderMismatch("payload is %d bytes, expected %d" % (len(payload), declared))

    if not np.isfinite(np.frombuffer(payload, dtype="<f4")).all():
        raise InvalidConfig("weight file holds non-finite values")

    entries = {}
    pos = 0
    for (name, shape), count in zip(tensors, counts):
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=pos).astype(np.float64)
        entries[name] = arr.reshape(shape)
        pos += 4 * count
    return ParamStore(entries, header["meta"])
