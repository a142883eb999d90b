"""Property test: `simmatrix` and `abx` over any index directory of generated embedding files exit 0, 2 or 3,
write one standard-error line when they fail, raise nothing and write no file but the prefix's CSV and PGM."""

import contextlib
import io
import json
import os
import struct
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from agvoice.cli import main  # noqa: E402
from agvoice.embedding import EMBEDDING_MAGIC  # noqa: E402

HASH = "0" * 16


# What can be wrong with one embedding file: "format" writes the other format's bytes under the
# file's extension, "d" declares a d its values do not have, "d0" and "unequal_d" hold 0 or d + 1
# values, "hash" is another model's config hash and "latin1" a JSON text that is not UTF-8.
FAULTS = ("truncated", "magic", "format", "d", "d0", "unequal_d", "nonfinite", "zero", "hash", "latin1", "nested")
NONZERO = st.floats(0.125, 1e3, width=32) | st.floats(-1e3, -0.125, width=32)


@st.composite
def embedding_file(draw, ext, d, fault):
    """The bytes of an embedding file named with `ext`, holding d values, with at most one fault."""
    d = {"d0": 0, "unequal_d": d + 1}.get(fault, d)
    vals = [0.0] * d if fault == "zero" else draw(st.lists(NONZERO, min_size=d, max_size=d))
    if fault == "nonfinite":
        vals[draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    declared = d + draw(st.integers(1, 2**16)) if fault == "d" else d
    if (ext == ".emb") != (fault == "format"):
        data = EMBEDDING_MAGIC + struct.pack("<I", declared) + np.array(vals, dtype="<f4").tobytes()
    elif fault == "nested":
        data = b"[" * 100000 + b"]" * 100000
    else:
        obj = {"config_hash": "1" * 16 if fault == "hash" else HASH, "d": declared, "mode": "SE", "values": vals}
        # json.dumps writes NaN and Infinity, which json.loads reads back
        data = json.dumps(obj, sort_keys=True).encode("utf-8")
        if fault == "latin1":
            data = data.replace(b'"SE"', b'"S\xe9"')
    if fault == "magic":
        data = draw(st.binary(min_size=8, max_size=8)) + data[8:]
    if fault == "truncated":
        data = data[: draw(st.integers(0, len(data) - 1))]
    return data


@st.composite
def index_dirs(draw):
    """(index, {file name: bytes}): 2-5 entries of one d, JSON and binary files mixed, and at most two
    faulty files."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    faults = dict(draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(FAULTS)), max_size=2)))
    files, entries = {}, []
    for i in range(n):
        ext = draw(st.sampled_from([".json", ".emb"]))
        name = "u%d%s" % (i, ext)
        files[name] = draw(embedding_file(ext, d, faults.get(i)))
        entries.append({"utterance_id": "u%d" % i, "speaker_id": "s%d" % (i % 2), "language": "xx", "file": name})
    index = {"config_hash": HASH, "mode": "SE", "d": d, "format": "json", "entries": entries}
    return index, files


def run(argv):
    """(exit code, standard output, standard error) of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(index_dirs())
def test_scoring_exits_0_2_or_3_with_one_error_line(case):
    index, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as f:
                f.write(data)
        index_path = os.path.join(tmp, "index.json")
        with open(index_path, "w") as f:
            json.dump(index, f)
        before = set(os.listdir(tmp))
        paths = [os.path.join(tmp, e["file"]) for e in index["entries"]]
        prefix = os.path.join(tmp, "sim")
        for argv in (
            ["simmatrix", index_path, "--out", prefix],
            ["simmatrix", index_path, "--group-by", "speaker", "--out", prefix],
            ["abx", "--reference", *paths],
        ):
            code, _, err = run(argv)
            assert code in (0, 2, 3), (argv[0], code, err)
            assert err.count("\n") == (1 if code else 0), (argv[0], err)
            assert set(os.listdir(tmp)) - before <= {"sim.csv", "sim.pgm"}, argv[0]
