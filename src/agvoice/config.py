"""The model's configuration, each definition written once.

The backbone's fixed shape, the aggregation modes, both config
dataclasses and the digest that names a configuration. It imports only
`errors` and the standard library, so a weight file can be read and
checked without the signal and attention code.
"""

import json
from dataclasses import dataclass, fields

from .errors import IndivisibleHeads, IndivisibleScale, InvalidConfig

# hashlib loads OpenSSL's libcrypto through _hashlib, 3.6 MB of every command's peak RSS, to hash a
# few hundred bytes: take CPython's built-in sha256 (as its `random` takes sha512) when there is one.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

# The front end's mel bands, the backbone's input width.
N_MELS = 80
# The ECAPA-TDNN shape the paper uses: each SE-Res2 block splits its
# channels into RES2_SCALE groups, one block per dilation.
RES2_SCALE = 8
DILATIONS = (2, 3, 4)
# Attention score scaling: divide by sqrt(d) or by d.
SCALE_MODES = ("sqrt", "linear")
# Mode -> cues in level order: "f0" is the encoded pitch contour, "me" the
# mel prompt encoding. The first cue prompts the backbone states (level 1),
# the second probes that result (level 2); no cue leaves the pooled z.
MODES = {
    "SE": (),
    "SE_F0": ("f0",),
    "SE_ME": ("me",),
    "SE_F0_then_ME": ("f0", "me"),
    "SE_ME_then_F0": ("me", "f0"),
}
# Cue -> the parameter group of its encoder, under `agg.`.
ENCODERS = {"f0": "f0_enc", "me": "mel_enc"}
# The backbone shape no config sets; config_hash and weight files still carry it.
FIXED_FIELDS = {"in_dim": N_MELS, "scale": RES2_SCALE, "dilations": DILATIONS}


def require_positive_int(name, value):
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise InvalidConfig("%s must be a positive integer, got %r" % (name, value))


@dataclass(frozen=True)
class BackboneConfig:
    channels: int = 64          # paper scale: 512
    d_model: int = 192

    def __post_init__(self):
        for name in ("channels", "d_model"):
            require_positive_int(name, getattr(self, name))
        if self.channels % RES2_SCALE:
            raise IndivisibleScale("channels=%d not divisible by scale=%d" % (self.channels, RES2_SCALE))

    @property
    def bottleneck(self):
        return max(self.channels // 8, 4)


@dataclass(frozen=True)
class AggregationConfig:
    mode: str = "SE_F0_then_ME"
    splitting: bool = True
    n_tokens: int = 8
    heads: int = 4
    d_model: int = 192
    scale_mode: str = "sqrt"

    def __post_init__(self):
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise InvalidConfig("unknown mode %r" % (self.mode,))
        if not isinstance(self.scale_mode, str) or self.scale_mode not in SCALE_MODES:
            raise InvalidConfig("unknown scale_mode %r" % (self.scale_mode,))
        if not isinstance(self.splitting, bool):
            raise InvalidConfig("splitting must be true or false, got %r" % (self.splitting,))
        for name in ("n_tokens", "heads", "d_model"):
            require_positive_int(name, getattr(self, name))
        if self.d_model % self.heads:
            raise IndivisibleHeads("d_model=%d vs heads=%d" % (self.d_model, self.heads))

    @property
    def cues(self):
        return MODES[self.mode]


def config_fields(backbone_cfg: BackboneConfig, agg_cfg: AggregationConfig) -> dict:
    """FIXED_FIELDS and every field of both configs by name; the shared d_model is the backbone's."""
    return {**FIXED_FIELDS, **{f.name: getattr(cfg, f.name) for cfg in (agg_cfg, backbone_cfg) for f in fields(cfg)}}


def configs_from_fields(values: dict):
    """(BackboneConfig, AggregationConfig) from field values; absent fields keep their defaults."""
    return tuple(
        cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
        for cls in (BackboneConfig, AggregationConfig)
    )


def config_hash(backbone_cfg: BackboneConfig, agg_cfg: AggregationConfig) -> str:
    """64-bit hex digest over everything that shapes the forward pass."""
    blob = json.dumps(config_fields(backbone_cfg, agg_cfg), sort_keys=True)
    return sha256(blob.encode()).hexdigest()[:16]
