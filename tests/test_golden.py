"""Golden format values: literal digests of the config hash, the weight-file
bytes and one embedding JSON.

The other tests only check that these digests are stable within a run or
distinct across configs; these pin the bytes themselves, so any change of
format (a renamed config key, a reordered tensor, a different float rounding)
fails here and has to be made on purpose.
"""

import hashlib

import pytest

from agvoice.aggregation import embedding_to_json, extract_embedding
from agvoice.config import AggregationConfig, BackboneConfig, config_hash
from agvoice.weights import init_params, save
from conftest import sine

DESK8 = dict(n_tokens=2, heads=2, d_model=8)


@pytest.mark.parametrize(
    "bb, agg, digest",
    [
        (BackboneConfig(), AggregationConfig(), "0f3c4817645f1a28"),
        (BackboneConfig(channels=512), AggregationConfig(mode="SE", splitting=False), "d6f9c43a0e173541"),
        (BackboneConfig(channels=16, d_model=8), AggregationConfig(mode="SE_ME_then_F0", **DESK8), "605a05a0bf25ca09"),
        (
            BackboneConfig(channels=16, d_model=8),
            AggregationConfig(mode="SE_F0", scale_mode="linear", **DESK8),
            "97b777fd7ef94e67",
        ),
    ],
)
def test_config_hash_literal(bb, agg, digest):
    assert config_hash(bb, agg) == digest


WEIGHT_FILE_SHA256 = {
    ("SE", True): "d99446a8566be409a746d85c66a8fbb1a0e5c31a9a6b022459c4bfb39a8d030d",
    ("SE", False): "9a4fb328439bd3b029075f9028cd6642480ca6a6b554724c02f00ee799ac73b6",
    ("SE_F0", True): "7bea4924b3b7a14a41a5a6159fd1e61922bdc49035617830abab7185adb4f4ec",
    ("SE_F0", False): "2cda61db78d3764523c59e04e33557d06d4522270d065c5d6f63f8f184f132b4",
    ("SE_ME", True): "4c08b616e934a3843ddadb2ff0274606fe5672156bb13e7920f2517f4274fe10",
    ("SE_ME", False): "c2856e900cd0dde3729234b3de3bfc2ade1b251e7b6731cb3c7e5f68c5ec2a4b",
    ("SE_F0_then_ME", True): "1fdcafdd93f6c1bfdb0a8d48fb325ae89ec9cb02b6c004e29634b4a081a3717b",
    ("SE_F0_then_ME", False): "3f0d5904338728516120953d4ddc260a674bcfef6bb698788c688e89ae935139",
    ("SE_ME_then_F0", True): "df84a9ae8e37bc519a7a37bdc2c433c83496f368c4e2a042b6b791ad70925156",
    ("SE_ME_then_F0", False): "377fd438282f23308986fa38a14e93c1c845ca638e512710c6eae42071608bc5",
}


@pytest.mark.parametrize("mode, splitting", sorted(WEIGHT_FILE_SHA256))
def test_weight_file_bytes(mode, splitting):
    # desk scale (C=64, d=192), the config `agvoice init` writes without flags
    blob = save(init_params(BackboneConfig(), AggregationConfig(mode=mode, splitting=splitting), seed=7))
    assert hashlib.sha256(blob).hexdigest() == WEIGHT_FILE_SHA256[(mode, splitting)]


def test_embedding_json_bytes():
    bb, agg = BackboneConfig(), AggregationConfig()
    emb = extract_embedding(sine(220.0, seconds=0.5), init_params(bb, agg, seed=7), bb, agg)
    digest = hashlib.sha256(embedding_to_json(emb).encode()).hexdigest()
    assert digest == "46515232d4db101721848cc31a6ae9fc7b6e23ffeeb286a2c6a9be9d1a072754"
