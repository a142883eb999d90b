"""Property test: `embed` of a generated manifest over generated WAV files exits 0, 2 or 3, with and
without --keep-going. A failure writes one standard-error line and --keep-going one `SKIP` line per
skipped input; every embedding written on exit 0 is finite, no file appears outside --out, and a rerun
gives the same bytes."""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from agvoice.embedding import binary_values, embedding_from_json  # noqa: E402
from test_decode_property import rarely, wav_files  # noqa: E402
from test_score_property import run  # noqa: E402

# utterance_ids that are not plain file names, that collide with the index or with line 0's, or that
# hold a newline (allowed; its SKIP line must stay one line) or a NUL
UIDS = ("", ".", "..", "a/b", "a\\b", "index", "u0", "u\nx", "u\x00")
FIELDS = ("path", "utterance_id", "speaker_id", "language")
NOT_STRINGS = st.none() | st.booleans() | st.integers() | st.floats() | st.lists(st.integers(), max_size=2)


@st.composite
def faulty_line(draw, rec):
    """Manifest line bytes for `rec` with one fault: a missing or unreadable file, a bad utterance_id, a
    field dropped, retyped or a lone surrogate, a line that is not a JSON object, or one nested 100000 deep."""
    kind = draw(st.sampled_from(["missing", "directory", "uid", "drop", "retype", "surrogate", "array", "bytes", "nested"]))
    if kind == "missing":
        rec["path"] = "missing.wav"
    elif kind == "directory":
        rec["path"] = "."
    elif kind == "uid":
        rec["utterance_id"] = draw(st.sampled_from(UIDS))
    elif kind == "drop":
        rec.pop(draw(st.sampled_from(FIELDS)), None)
    elif kind == "retype":
        rec[draw(st.sampled_from(FIELDS))] = draw(NOT_STRINGS)
    elif kind == "surrogate":
        rec[draw(st.sampled_from(FIELDS))] = "\ud800"
    elif kind == "array":
        return json.dumps(list(rec.values())).encode("utf-8")
    elif kind == "bytes":
        return draw(st.binary(max_size=8))
    else:
        return b"[" * 100000 + b"]" * 100000
    return json.dumps(rec).encode("utf-8")


@st.composite
def manifests(draw):
    """(manifest bytes, {WAV file name: bytes}): 1-3 lines, each naming a WAV file of
    test_decode_property's padded strategy, about one line in five with a fault, blank lines between."""
    lines, files = [], {}
    for i in range(draw(st.integers(1, 3))):
        name = "w%d.wav" % i
        files[name] = draw(wav_files(pad=True))
        rec = {"path": name, "utterance_id": "u%d" % i, "speaker_id": "s%d" % (i % 2)}
        if draw(st.booleans()):
            rec["language"] = "xx"
        lines.append(draw(faulty_line(rec)) if rarely(draw) else json.dumps(rec).encode("utf-8"))
        if rarely(draw):
            lines.append(b"")
    return b"\n".join(lines) + b"\n", files


@pytest.fixture(scope="module")
def weights_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("weights") / "w.agvw")
    code, _, err = run(["init", "--channels", "8", "--dmodel", "8", "--heads", "2", "--tokens", "2", "--out", path])
    assert code == 0, err
    return path


def tree(root):
    """Every file and directory under `root`, as paths relative to it."""
    found = set()
    for here, dirs, files in os.walk(root):
        found.update(os.path.relpath(os.path.join(here, name), root) for name in dirs + files)
    return found


def contents(directory):
    """{file name: bytes} of the files in `directory`, {} when there is none."""
    if not os.path.isdir(directory):
        return {}
    found = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as f:
            found[name] = f.read()
    return found


@settings(max_examples=100, deadline=None, derandomize=True)
@given(manifests(), st.sampled_from(["json", "bin"]))
def test_embed_exits_0_2_or_3_with_one_line_per_failure(weights_path, case, fmt):
    manifest, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as f:
                f.write(data)
        manifest_path = os.path.join(tmp, "m.jsonl")
        with open(manifest_path, "wb") as f:
            f.write(manifest)
        before = tree(tmp)
        out = os.path.join(tmp, "out")
        for flags in ([], ["--keep-going"]):
            argv = ["embed", manifest_path, "--weights", weights_path, "--out", out, "--format", fmt, *flags]
            code, stdout, err = run(argv)
            assert code in (0, 2, 3), (flags, code, err)
            assert not {p for p in tree(tmp) - before if p != "out" and not p.startswith("out" + os.sep)}, flags
            written = contents(out)
            if code:
                assert stdout == "" and err.count("\n") == 1, (flags, err)
            else:
                entries = json.loads(written["index.json"])["entries"]
                records = [line for line in manifest.splitlines() if line.decode("utf-8").strip()]
                skips = err.splitlines()
                assert len(entries) + len(skips) == len(records), (flags, err)
                assert all(line.startswith("SKIP ") for line in skips) and (flags or not skips), (flags, err)
                assert set(written) == {"index.json"} | {e["file"] for e in entries}, flags
                for e in entries:
                    data = written[e["file"]]
                    values = embedding_from_json(data.decode("utf-8")).vector if fmt == "json" else binary_values(data)
                    assert np.isfinite(values).all(), (flags, e["file"])
            shutil.rmtree(out, ignore_errors=True)
            # after a failure, jobs already running may finish: only exit 0 fixes the files written
            assert run(argv) == (code, stdout, err) and (code or contents(out) == written), flags
            shutil.rmtree(out, ignore_errors=True)
