"""Property test: `inspect` and `selftest --weights` on a mutated weight file exit 0, 2 or 3, write one
standard-error line when they fail, raise nothing and write no file."""

import json
import os
import struct
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from agvoice.config import AggregationConfig, BackboneConfig  # noqa: E402
from agvoice.weights import WEIGHTS_MAGIC, init_params, save  # noqa: E402
from test_score_property import run  # noqa: E402

# what `init --channels 8 --dmodel 4 --heads 2 --tokens 2` writes: 14 kB
BLOB = save(init_params(BackboneConfig(channels=8, d_model=4), AggregationConfig(d_model=4, heads=2, n_tokens=2), 0))
(HLEN,) = struct.unpack_from("<I", BLOB, 8)
HEADER = json.loads(BLOB[12 : 12 + HLEN])
PAYLOAD = BLOB[12 + HLEN :]
NEST = "\x00nest\x00"  # stands for a nested JSON text spliced into the header after dumping

JSON_VALUES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.lists(st.integers(), max_size=3)
    | st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)
)
NON_ASCII = st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=6)


def objects(header):
    """The header's JSON objects whose keys the mutations edit, by name; None where one is gone."""
    meta = header.get("meta")
    return {"header": header, "meta": meta, "config": meta.get("config") if isinstance(meta, dict) else None}


@st.composite
def weight_files(draw):
    """The init file with one to three of: a header, meta or config key dropped, added, retyped or
    nested 500 or 100000 deep; a tensor renamed to non-ASCII text. The header is written as ASCII
    escapes or as UTF-8 (a lone surrogate as its three bytes, which UTF-8 refuses). Then, about one
    time in four, the payload is cut short."""
    header = json.loads(json.dumps(HEADER))
    depth = None
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "add", "retype", "nest", "rename"]))
        if kind == "rename":
            tensors = header.get("tensors")
            tensor = draw(st.sampled_from(tensors)) if isinstance(tensors, list) and tensors else None
            if isinstance(tensor, dict):
                tensor["name"] = draw(st.sampled_from(["", tensor["name"]])) + draw(NON_ASCII)
            continue
        obj = objects(header).get(draw(st.sampled_from(["header", "meta", "config"])))
        if not isinstance(obj, dict) or not obj:  # an earlier mutation replaced it
            continue
        key = draw(st.sampled_from(sorted(obj)))
        if kind == "drop":
            del obj[key]
        elif kind == "add":
            obj[draw(NON_ASCII | st.text(max_size=6))] = draw(JSON_VALUES)
        elif kind == "retype":
            obj[key] = draw(JSON_VALUES)
        elif depth is None:
            depth = draw(st.sampled_from([500, 100000]))
            obj[key] = NEST
    text = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=draw(st.booleans()))
    if depth is not None:
        text = text.replace(json.dumps(NEST), "[" * depth + "]" * depth)
    text = text.encode("utf-8", "surrogatepass")
    cut = draw(st.integers(0, len(PAYLOAD) - 1)) if draw(st.integers(0, 3)) == 0 else len(PAYLOAD)
    return WEIGHTS_MAGIC + struct.pack("<I", len(text)) + text + PAYLOAD[:cut]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weight_files())
def test_inspect_and_selftest_exit_0_2_or_3_with_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.agvw")
        with open(path, "wb") as f:
            f.write(data)
        for argv in (["inspect", "--weights", path], ["selftest", "--weights", path]):
            code, _, err = run(argv)
            assert code in (0, 2, 3), (argv[0], code, err)
            assert err.count("\n") == (1 if code else 0), (argv[0], err)
            assert os.listdir(tmp) == ["w.agvw"], argv[0]
