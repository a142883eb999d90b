import hashlib
import io
import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest

from agvoice.aggregation import extract_embedding
from agvoice.config import MODES, SCALE_MODES, AggregationConfig, BackboneConfig, config_fields, config_hash
from agvoice.errors import (
    BadMagic,
    HeaderMismatch,
    InvalidConfig,
    MissingParameter,
    TruncatedPayload,
)
from agvoice.nn import param_group
from agvoice.weights import (
    ParamStore,
    _name_hash,
    check_params,
    init_params,
    load,
    param_shapes,
    save,
)
from conftest import sawtooth, sine


@pytest.fixture
def cfgs():
    bb = BackboneConfig(channels=16, d_model=8)
    agg = AggregationConfig(mode="SE_F0_then_ME", n_tokens=2, heads=2, d_model=8)
    return bb, agg


def serialized(store):
    buf = io.BytesIO()
    save(store, buf)
    return buf.getvalue()


class TestInit:
    def test_same_seed_bit_identical(self, cfgs):
        a = init_params(*cfgs, seed=5)
        b = init_params(*cfgs, seed=5)
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a[name], b[name])

    def test_different_seed_differs(self, cfgs):
        a = init_params(*cfgs, seed=5)
        b = init_params(*cfgs, seed=6)
        assert any(not np.array_equal(a[n], b[n]) for n in a.names())

    def test_biases_zero(self, cfgs):
        store = init_params(*cfgs, seed=5)
        for name in store.names():
            if store[name].ndim == 1:
                assert not store[name].any(), name

    def test_insertion_order_independent(self, cfgs):
        # values keyed by (seed, name), so a mode with more tensors reuses
        # the exact same backbone draws
        bb, _ = cfgs
        small = AggregationConfig(mode="SE", n_tokens=2, heads=2, d_model=8)
        a = init_params(bb, small, seed=9)
        b = init_params(*cfgs, seed=9)
        for name in a.names():
            assert np.array_equal(a[name], b[name])

    def test_all_finite_and_shaped(self, cfgs):
        store = init_params(*cfgs, seed=5)
        shapes = param_shapes(*cfgs)
        assert set(store.names()) == set(shapes)
        for name, shape in shapes.items():
            assert store[name].shape == tuple(shape)
            assert np.isfinite(store[name]).all()

    def test_d_model_disagreement_rejected(self):
        with pytest.raises(InvalidConfig):
            param_shapes(BackboneConfig(channels=16, d_model=8), AggregationConfig(n_tokens=2, heads=2, d_model=16))


class TestCensus:
    def test_missing_listed(self, cfgs):
        store = init_params(*cfgs, seed=5)
        entries = dict(store.entries)
        del entries["agg.tokens"]
        with pytest.raises(MissingParameter, match="agg.tokens"):
            check_params(ParamStore(entries, store.meta), *cfgs)

    def test_extra_rejected(self, cfgs):
        store = init_params(*cfgs, seed=5)
        entries = dict(store.entries)
        entries["agg.stray"] = np.zeros(3)
        with pytest.raises(InvalidConfig, match="agg.stray"):
            check_params(ParamStore(entries, store.meta), *cfgs)

    def test_shape_drift_rejected(self, cfgs):
        store = init_params(*cfgs, seed=5)
        entries = dict(store.entries)
        entries["agg.tokens"] = np.zeros((3, 8))
        with pytest.raises(InvalidConfig, match="agg.tokens"):
            check_params(ParamStore(entries, store.meta), *cfgs)


class TestSerialization:
    def test_resave_byte_identical(self, cfgs):
        store = init_params(*cfgs, seed=3)
        blob = serialized(store)
        again = serialized(load(io.BytesIO(blob)))
        assert blob == again

    def test_payload_f32_exact(self, cfgs):
        store = init_params(*cfgs, seed=3)
        back = load(io.BytesIO(serialized(store)))
        for name in store.names():
            assert np.array_equal(back[name], store[name].astype(np.float32).astype(np.float64))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load(io.BytesIO(b"NOPE0001" + b"\x00" * 32))

    def test_truncated_payload(self, cfgs):
        blob = serialized(init_params(*cfgs, seed=3))
        with pytest.raises(TruncatedPayload):
            load(io.BytesIO(blob[:-40]))

    def test_header_shape_mismatch(self, cfgs):
        blob = serialized(init_params(*cfgs, seed=3))
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        header["tensors"][0]["shape"][0] += 1
        edited = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        with pytest.raises(HeaderMismatch):
            load(io.BytesIO(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + hlen :]))

    def test_truncated_header(self, cfgs):
        blob = serialized(init_params(*cfgs, seed=3))
        with pytest.raises(TruncatedPayload):
            load(io.BytesIO(blob[:20]))

    def test_meta_survives(self, cfgs):
        store = init_params(*cfgs, seed=3)
        back = load(io.BytesIO(serialized(store)))
        assert back.meta["seed"] == 3
        assert back.meta["config"]["mode"] == "SE_F0_then_ME"
        assert back.meta["config_digest"] == store.meta["config_digest"]


def _root(arr):
    """The object at the end of an array's base chain: the buffer a view reads."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


class TestZeroCopyLoad:
    def test_tensors_are_read_only_float32_views_of_one_buffer(self, cfgs):
        blob = serialized(init_params(*cfgs, seed=3))
        loaded = load(io.BytesIO(blob))
        buffers = {id(_root(t)) for t in loaded.entries.values()}
        assert len(buffers) == 1
        whole = np.frombuffer(_root(loaded["agg.tokens"]), dtype=np.uint8)
        assert whole.tobytes() == blob
        for name, t in loaded.entries.items():
            assert t.dtype == np.float32, name
            assert not t.flags.writeable, name
            assert np.shares_memory(t, whole), name

    @pytest.mark.parametrize(
        "mode, splitting, scale_mode", list(itertools.product(MODES, (True, False), SCALE_MODES))
    )
    def test_embedding_equals_float64_copy_bit_for_bit(self, mode, splitting, scale_mode):
        # 3.2 s is 272 frames, more than ATTENTION_ROWS, so every attention level runs two blocks of query rows
        bb = BackboneConfig(channels=16, d_model=8)
        agg = AggregationConfig(mode=mode, splitting=splitting, scale_mode=scale_mode, n_tokens=2, heads=2, d_model=8)
        loaded = load(io.BytesIO(serialized(init_params(bb, agg, seed=4))))
        copy = ParamStore({k: v.astype(np.float64) for k, v in loaded.entries.items()}, loaded.meta)
        buf = sawtooth(150.0, seconds=3.2)
        a = extract_embedding(buf, loaded, bb, agg).vector
        b = extract_embedding(buf, copy, bb, agg).vector
        assert a.dtype == np.float64
        assert a.tobytes() == b.tobytes()

    def test_peak_memory_is_about_the_file(self, tmp_path):
        path = tmp_path / "desk.agvw"
        path.write_bytes(serialized(init_params(BackboneConfig(), AggregationConfig(), seed=0)))
        tracemalloc.start()
        try:
            store = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(store.entries) > 0
        assert peak <= 1.1 * path.stat().st_size, (peak, path.stat().st_size)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_named(self, cfgs, value):
        store = init_params(*cfgs, seed=3)
        blob = bytearray(serialized(store))
        blob[-4:] = np.array([value], dtype="<f4").tobytes()  # the last value of the last tensor by name
        with pytest.raises(InvalidConfig, match="non-finite values in %s" % store.names()[-1]):
            load(io.BytesIO(bytes(blob)))


def test_forward_drift_after_quantization(cfgs):
    bb, agg = cfgs
    store = init_params(bb, agg, seed=3)
    loaded = load(io.BytesIO(serialized(store)))
    buf = sine(220.0, seconds=0.5)
    a = extract_embedding(buf, store, bb, agg).vector
    b = extract_embedding(buf, loaded, bb, agg).vector
    assert np.max(np.abs(a - b)) / np.max(np.abs(a)) <= 1e-5


def test_missing_parameter_error(cfgs):
    store = init_params(*cfgs, seed=3)
    with pytest.raises(MissingParameter):
        store["backbone.nonexistent"]
    with pytest.raises(MissingParameter):
        param_group(store.entries, "agg")["nonexistent"]


@pytest.mark.parametrize(
    "bb, agg",
    [
        (BackboneConfig(), AggregationConfig()),
        (BackboneConfig(channels=16, d_model=8), AggregationConfig(mode="SE_F0_then_ME", n_tokens=2, heads=2, d_model=8)),
        (BackboneConfig(channels=512), AggregationConfig(mode="SE", splitting=False, scale_mode=SCALE_MODES[-1])),
    ],
)
def test_hashes_equal_hashlib_sha256(bb, agg):
    # config_hash and the per-tensor keys take sha256 from CPython's built-in module when there is one
    blob = json.dumps(config_fields(bb, agg), sort_keys=True).encode()
    assert config_hash(bb, agg) == hashlib.sha256(blob).hexdigest()[:16]
    for name in param_shapes(bb, agg):
        assert _name_hash(name) == int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
