import csv
import errno
import importlib.util
import io
import json
import os
import shutil
import stat
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import agvoice
from agvoice import aggregation, cli, embedding, evaluation, weights
from agvoice.audio_io import CANONICAL_RATE, decode_wav, resample
from agvoice.cli import main
from agvoice.dsp import f0_to_csv, mel_spectrogram, mel_to_csv, yin_f0
from agvoice.errors import InputError
from conftest import float32_wav, sine


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "desk.agvw"
    rc = main(
        ["init", "--seed", "7", "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2", "--out", str(path)]
    )
    assert rc == 0
    return path


@pytest.fixture
def manifest(tmp_path, wav_factory):
    records = []
    for i, freq in enumerate([180.0, 220.0, 260.0]):
        wav_factory("utt%d.wav" % i, sine(freq, seconds=0.5))
        records.append({"path": "utt%d.wav" % i, "utterance_id": "utt%d" % i, "speaker_id": "spk%d" % i, "language": "xx"})
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


def read_all(outdir, names):
    return {n: (outdir / n).read_bytes() for n in names}


def one_line(err, prefix):
    return err.startswith(prefix) and err.count("\n") == 1


def set_config(**changes):
    """Header edit: change fields of the stored config."""

    def edit(header):
        header["meta"]["config"].update(changes)
        return header

    return edit


def set_header(**changes):
    """Header edit: change top-level header keys."""

    def edit(header):
        header.update(changes)
        return header

    return edit


def set_meta(**changes):
    """Header edit: change keys of the header's meta."""

    def edit(header):
        header["meta"].update(changes)
        return header

    return edit


def drop(*path):
    """Header edit: delete the key at `path`."""

    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return header

    return edit


def negate_dims(header):
    """Header edit: negate both dimensions of a matrix, which keeps its element count."""
    tensor = next(t for t in header["tensors"] if len(t["shape"]) == 2)
    tensor["shape"] = [-n for n in tensor["shape"]]
    return header


def write_edited(weights_file, edit, path):
    """Copy a weight file with its JSON header passed through `edit`."""
    blob = weights_file.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    edited = json.dumps(edit(json.loads(blob[12 : 12 + hlen]))).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + hlen :])
    return path


def non_ascii_weights(path):
    """A weight file whose one tensor is named `café`: its header escapes the name, `inspect` prints it."""
    path.write_bytes(weights.save(weights.ParamStore({"café": np.zeros(2, dtype=np.float32)})))
    return path


def labelled_entries(**labels):
    """The two entries of `write_emb_index` with `labels` set on the first."""
    return [
        {"utterance_id": "a1", "speaker_id": "a", "language": "xx", "file": "a1.emb", **labels},
        {"utterance_id": "b1", "speaker_id": "b", "language": "xx", "file": "b1.emb"},
    ]


def clips_manifest(tmp_path, wav_factory, n_good, bad_at):
    """`n_good` short clips with a missing file inserted at position `bad_at`."""
    records = []
    for i in range(n_good):
        wav_factory("c%02d.wav" % i, sine(150.0 + 10.0 * i, seconds=0.3))
        records.append({"path": "c%02d.wav" % i, "utterance_id": "c%02d" % i, "speaker_id": "s%d" % (i % 3)})
    records.insert(bad_at, {"path": "missing.wav", "utterance_id": "missing", "speaker_id": "s0"})
    path = tmp_path / "clips.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestInitInspect:
    def test_init_deterministic(self, tmp_path):
        a, b = tmp_path / "a.agvw", tmp_path / "b.agvw"
        common = ["--seed", "3", "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2"]
        assert main(["init", *common, "--out", str(a)]) == 0
        assert main(["init", *common, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_init_seed_sensitivity(self, tmp_path):
        a, b = tmp_path / "a.agvw", tmp_path / "b.agvw"
        common = ["--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2"]
        main(["init", "--seed", "1", *common, "--out", str(a)])
        main(["init", "--seed", "2", *common, "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize(
        "flag",
        [["--heads", "0"], ["--heads", "-2"], ["--tokens", "0"], ["--dmodel", "0"], ["--channels", "0"], ["--channels", "-8"]],
        ids=" ".join,
    )
    def test_init_non_positive_exit_3(self, tmp_path, capsys, flag):
        out = tmp_path / "w.agvw"
        assert main(["init", *flag, "--out", str(out)]) == 3
        assert one_line(capsys.readouterr().err, "config error: ")
        assert not out.exists()

    def test_inspect_lists_census(self, weights_file, capsys):
        assert main(["inspect", "--weights", str(weights_file)]) == 0
        out = capsys.readouterr().out
        from agvoice.config import AggregationConfig, BackboneConfig
        from agvoice.weights import param_shapes

        bb = BackboneConfig(channels=16, d_model=8)
        agg = AggregationConfig(n_tokens=2, heads=2, d_model=8)
        for name in param_shapes(bb, agg):
            assert name in out

    def test_inspect_zero_dimension_exit_3(self, tmp_path, weights_file, capsys):
        def add_empty_tensor(header):
            header["tensors"].append({"name": "agg.empty", "shape": [0]})
            return header

        bad = write_edited(weights_file, add_empty_tensor, tmp_path / "empty.agvw")
        capsys.readouterr()
        assert main(["inspect", "--weights", str(bad)]) == 3
        assert one_line(capsys.readouterr().err, "config error: ")

    def test_repeated_tensor_name_exit_3(self, tmp_path, weights_file, manifest, capsys):
        # list agg.f0_enc.fc1.bias twice, with its payload appended, so every size still adds up
        blob = weights_file.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        bias = next(t for t in header["tensors"] if t["name"] == "agg.f0_enc.fc1.bias")
        extra = weights.load(weights_file).entries["agg.f0_enc.fc1.bias"].astype("<f4").tobytes()
        header["tensors"].append(dict(bias))
        header["payload_bytes"] += len(extra)
        edited = json.dumps(header).encode()
        bad = tmp_path / "twice.agvw"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + hlen :] + extra)
        for argv in (["inspect"], ["embed", str(manifest), "--out", str(tmp_path / "x")]):
            capsys.readouterr()
            assert main([*argv, "--weights", str(bad)]) == 3, argv[0]
            err = capsys.readouterr().err
            assert one_line(err, "config error: ") and "agg.f0_enc.fc1.bias" in err, (argv[0], err)


    @pytest.mark.parametrize(
        "tensor",
        [
            {"shape": ["8"]},
            {"shape": [8.5]},
            {"shape": [8.0]},
            {"shape": [8, True]},
            {"name": ["agg.f0_enc.fc1.bias"]},
        ],
        ids=["dim_str", "dim_fraction", "dim_float", "dim_bool", "name_list"],
    )
    def test_tensor_list_types_exit_3(self, tmp_path, weights_file, manifest, capsys, tensor):
        # each edit keeps the element count of the d_model=8 bias, so every size still adds up
        def retype(header):
            next(t for t in header["tensors"] if t["name"] == "agg.f0_enc.fc1.bias").update(tensor)
            return header

        bad = write_edited(weights_file, retype, tmp_path / "retyped.agvw")
        for argv in (["inspect"], ["embed", str(manifest), "--out", str(tmp_path / "x")]):
            capsys.readouterr()
            assert main([*argv, "--weights", str(bad)]) == 3, argv[0]
            assert one_line(capsys.readouterr().err, "config error: "), argv[0]

    @pytest.mark.parametrize("shape", [[10**30], [2**40, 2**40, 8]], ids=["beyond_int64", "wraps_int64_to_zero"])
    def test_huge_dimension_exit_3(self, tmp_path, weights_file, capsys, shape):
        # payload_bytes and the payload leave out the edited tensor's 32 bytes, as if its size were 0
        blob = weights_file.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        next(t for t in header["tensors"] if t["name"] == "agg.f0_enc.fc1.bias")["shape"] = shape
        header["payload_bytes"] -= 32
        edited = json.dumps(header).encode()
        bad = tmp_path / "huge.agvw"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + hlen : -32])
        capsys.readouterr()
        assert main(["inspect", "--weights", str(bad)]) == 3
        assert one_line(capsys.readouterr().err, "config error: ")


class TestEmbed:
    def test_manifest_cardinality(self, tmp_path, weights_file, manifest):
        out = tmp_path / "emb"
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["entries"]) == 3
        for entry in index["entries"]:
            assert (out / entry["file"]).exists()

    def test_rerun_byte_identical(self, tmp_path, weights_file, manifest):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out1)])
        main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out2)])
        names = ["utt0.json", "utt1.json", "utt2.json", "index.json"]
        assert read_all(out1, names) == read_all(out2, names)

    def test_seed_changes_embeddings(self, tmp_path, manifest):
        files = {}
        for seed in ("7", "8"):
            w = tmp_path / ("w%s.agvw" % seed)
            main(["init", "--seed", seed, "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2", "--out", str(w)])
            out = tmp_path / ("es%s" % seed)
            main(["embed", str(manifest), "--weights", str(w), "--out", str(out)])
            files[seed] = (out / "utt0.json").read_bytes()
        assert files["7"] != files["8"]

    def test_mode_changes_vectors(self, tmp_path, manifest):
        vecs = {}
        for mode in ("se", "se+f0+me"):
            w = tmp_path / (mode.replace("+", "_") + ".agvw")
            main(["init", "--seed", "7", "--mode", mode, "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2", "--out", str(w)])
            out = tmp_path / ("em_" + mode.replace("+", "_"))
            main(["embed", str(manifest), "--weights", str(w), "--out", str(out)])
            vecs[mode] = json.loads((out / "utt0.json").read_text())["values"]
        assert vecs["se"] != vecs["se+f0+me"]

    @pytest.mark.parametrize("flag", [["--mode", "se"], ["--channels", "16"]], ids=["conflicting", "matching"])
    def test_config_flag_is_usage_error(self, tmp_path, weights_file, manifest, capsys, flag):
        # the weight file is the one source of the config: embed takes no config flag, even one that agrees
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(manifest), *flag, "--weights", str(weights_file), "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_exit_2(self, tmp_path, weights_file):
        assert main(["embed", str(tmp_path / "nope.jsonl"), "--weights", str(weights_file), "--out", str(tmp_path / "x")]) == 2

    def test_corrupt_weights_exit_3(self, tmp_path, manifest, weights_file):
        bad = tmp_path / "bad.agvw"
        bad.write_bytes(weights_file.read_bytes()[:-20])
        assert main(["embed", str(manifest), "--weights", str(bad), "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize(
        "edit",
        [
            set_config(n_blocks=4),
            set_config(mode="SE_XX"),
            set_config(scale_mode="cube"),
            drop("meta", "config"),
            drop("meta", "config", "heads"),
            set_config(heads="2"),
            set_config(dilations=3),
            set_config(dilations=[]),
            set_config(heads=0),
            set_config(heads=-2),
            set_config(n_tokens=0),
            set_config(channels=0),
            set_config(splitting="yes"),
            set_config(mode=["SE"]),
            set_config(in_dim=40),
            lambda header: [header],
            drop("meta"),
            drop("tensors"),
            negate_dims,
            set_config(mode="SE"),
            set_config(in_dim=80.0),
            set_config(n_blocks=3.0),
            set_config(dilations=[2, 3, 5]),
            set_config(scale_mdoe="linear"),
            set_header(dtype="f16"),
            set_header(format_version=2),
            drop("format_version"),
            set_header(comment="x"),
            set_meta(config_digest="deadbeef"),
            set_meta(format_version="x"),
        ],
        ids=[
            "n_blocks_vs_dilations", "unknown_mode", "unknown_scale_mode", "no_config", "no_heads",
            "heads_str", "dilations_int", "dilations_empty", "heads_zero", "heads_negative", "tokens_zero",
            "channels_zero", "splitting_str", "mode_list", "in_dim_40", "header_not_object", "no_meta", "no_tensors",
            "negative_dims", "mode_vs_tensors", "in_dim_float", "n_blocks_float", "dilations_other",
            "unknown_key", "dtype_f16", "format_version_2", "no_format_version", "unknown_header_key",
            "stale_config_digest", "meta_format_version_str",
        ],
    )
    def test_bad_header_config_exit_3(self, tmp_path, weights_file, manifest, capsys, edit):
        # selftest --weights opens the file as embed does, so it refuses the same files
        bad = write_edited(weights_file, edit, tmp_path / "bad.agvw")
        for argv in (["embed", str(manifest), "--out", str(tmp_path / "x")], ["selftest", "--seed", "0"]):
            capsys.readouterr()
            assert main([*argv, "--weights", str(bad)]) == 3, argv[0]
            err = capsys.readouterr().err
            assert one_line(err, "config error: "), (argv[0], err)

    def test_unknown_config_key_named(self, tmp_path, weights_file, manifest, capsys):
        bad = write_edited(weights_file, set_config(foo=1), tmp_path / "foo.agvw")
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(bad), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert one_line(err, "config error: ") and "'foo'" in err, err

    def test_non_finite_weights_exit_3(self, tmp_path, weights_file, manifest, capsys):
        blob = bytearray(weights_file.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        bad = tmp_path / "nan.agvw"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(bad), "--out", str(tmp_path / "x")]) == 3
        assert one_line(capsys.readouterr().err, "config error: ")

    def test_overflowing_embedding_not_written(self, tmp_path, manifest, capsys):
        path = tmp_path / "se.agvw"
        common = ["--mode", "se", "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2"]
        assert main(["init", *common, "--out", str(path)]) == 0
        store = weights.load(path)
        name = "backbone.proj_pooled.weight"
        store.entries[name] = np.full(store.entries[name].shape, 3e38)  # a loaded tensor is a read-only view
        path.write_bytes(weights.save(store))
        out = tmp_path / "huge"
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(path), "--out", str(out)]) == 3
        assert one_line(capsys.readouterr().err, "config error: ")
        assert not list(out.iterdir())

    def test_nan_wav_exit_2(self, tmp_path, weights_file, capsys):
        (tmp_path / "nan.wav").write_bytes(float32_wav(np.r_[np.zeros(4000), np.nan]))
        manifest = tmp_path / "nan.jsonl"
        manifest.write_text(json.dumps({"path": "nan.wav", "utterance_id": "n", "speaker_id": "s"}) + "\n")
        out = tmp_path / "nan"
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 2
        assert one_line(capsys.readouterr().err, "error: ")
        assert not list(out.iterdir())

    def test_rate_beyond_bound_exit_2(self, tmp_path, weights_file, capsys):
        # a header claiming 2**32 - 1 Hz over four samples: refused before the kernel is built
        fmt = struct.pack("<IHHIIHH", 16, 1, 1, 2**32 - 1, 0, 2, 16)
        data = struct.pack("<4h", 0, 100, -100, 0)
        wav = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE"
        (tmp_path / "fast.wav").write_bytes(wav + b"fmt " + fmt + b"data" + struct.pack("<I", len(data)) + data)
        manifest = tmp_path / "fast.jsonl"
        manifest.write_text(json.dumps({"path": "fast.wav", "utterance_id": "f", "speaker_id": "s"}) + "\n")
        out = tmp_path / "fast"
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert one_line(err, "error: ") and "384000" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize(
        "fields",
        [
            {"path": 3},
            {"utterance_id": "../escaped"},
            {"utterance_id": "a/b"},
            {"utterance_id": "a\\b"},
            {"utterance_id": ""},
            {"utterance_id": ".."},
            {"utterance_id": 7},
            {"speaker_id": None},
            {"language": ["xx"]},
            {"path": "utt0.wav\0x"},
            {"utterance_id": "u\0x"},
            {"path": "a\ud800.wav"},
            {"utterance_id": "u\udfff"},
        ],
        ids=[
            "path_int", "id_parent", "id_slash", "id_backslash", "id_empty", "id_dotdot", "id_int", "speaker_null",
            "language_list", "path_nul", "id_nul", "path_surrogate", "id_surrogate",
        ],
    )
    def test_bad_manifest_record_exit_2(self, tmp_path, weights_file, manifest, capsys, fields):
        rec = {"path": "utt0.wav", "utterance_id": "u", "speaker_id": "s", "language": "xx", **fields}
        manifest.write_text(manifest.read_text() + json.dumps(rec) + "\n")
        out = tmp_path / "deep" / "out"
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 2
        assert one_line(capsys.readouterr().err, "error: ")
        assert not (tmp_path / "deep").exists()

    def test_utterance_named_like_the_index_exit_2(self, tmp_path, weights_file, manifest, capsys):
        # "index" + ".json" would be written over by index.json, which would then list itself
        rec = {"path": "utt0.wav", "utterance_id": "index", "speaker_id": "s", "language": "xx"}
        manifest.write_text(manifest.read_text() + json.dumps(rec) + "\n")
        out = tmp_path / "deep" / "out"
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 2
        assert one_line(capsys.readouterr().err, "error: ")
        assert not (tmp_path / "deep").exists()

    def test_manifest_line_not_object_exit_2(self, tmp_path, weights_file, capsys):
        manifest = tmp_path / "list.jsonl"
        manifest.write_text("3\n")
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(tmp_path / "x")]) == 2
        assert one_line(capsys.readouterr().err, "error: ")

    def test_manifest_not_utf8_exit_2(self, tmp_path, weights_file, manifest, capsys):
        manifest.write_bytes(manifest.read_bytes() + b'{"path": "utt0.wav", "utterance_id": "u\xff1", "speaker_id": "s"}\n')
        out = tmp_path / "deep" / "out"
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert one_line(err, "error: ") and "line 4 " in err
        assert not (tmp_path / "deep").exists()

    @pytest.mark.parametrize("value", ["x", "0", "-1", "1.5", ""])
    def test_bad_num_threads_exit_3(self, tmp_path, weights_file, manifest, capsys, monkeypatch, value):
        monkeypatch.setenv("AGV_NUM_THREADS", value)
        out = tmp_path / "t"
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 3
        assert one_line(capsys.readouterr().err, "config error: ")
        assert not out.exists()

    def test_pool_size_does_not_change_output(self, tmp_path, weights_file, manifest, monkeypatch):
        names = ["utt0.json", "utt1.json", "utt2.json", "index.json"]
        outputs = []
        for n in ("1", "2"):
            monkeypatch.setenv("AGV_NUM_THREADS", n)
            out = tmp_path / ("pool" + n)
            assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 0
            outputs.append(read_all(out, names))
        assert outputs[0] == outputs[1]

    def test_keep_going_skips_bad_file(self, tmp_path, weights_file, manifest):
        lines = manifest.read_text().strip().split("\n")
        lines.append(json.dumps({"path": "missing.wav", "utterance_id": "uttX", "speaker_id": "spkX", "language": "xx"}))
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "kg"
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out), "--keep-going"]) == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["entries"]) == 3
        # without the flag the same manifest fails and writes no index
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(tmp_path / "kg2")]) == 2
        assert not (tmp_path / "kg2" / "index.json").exists()

    def test_keep_going_skip_stays_on_one_line(self, tmp_path, weights_file, manifest, capsys):
        # an utterance_id and a path may hold a newline: its SKIP line escapes both
        with open(manifest, "a") as f:
            f.write(json.dumps({"path": "gone\n.wav", "utterance_id": "utt\nX", "speaker_id": "spkX", "language": "xx"}) + "\n")
        out = tmp_path / "kg"
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out), "--keep-going"]) == 0
        err = capsys.readouterr().err
        assert one_line(err, "SKIP utt\\x0aX: cannot read ") and "gone\\x0a.wav" in err
        assert len(json.loads((out / "index.json").read_text())["entries"]) == 3

    def test_pool_stops_at_first_failure(self, tmp_path, weights_file, wav_factory, monkeypatch, capsys):
        manifest = clips_manifest(tmp_path, wav_factory, n_good=20, bad_at=0)
        monkeypatch.setenv("AGV_NUM_THREADS", "2")
        out = tmp_path / "stop"
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out)]) == 2
        assert one_line(capsys.readouterr().err, "error: ")
        assert not (out / "index.json").exists()
        # jobs already running may finish; no job starts after the failure is read
        assert len(list(out.glob("*.json"))) < 10

    def test_keep_going_same_for_any_pool_size(self, tmp_path, weights_file, wav_factory, monkeypatch, capsys):
        manifest = clips_manifest(tmp_path, wav_factory, n_good=4, bad_at=2)
        runs = []
        for n in ("1", "2"):
            monkeypatch.setenv("AGV_NUM_THREADS", n)
            out = tmp_path / ("kg" + n)
            capsys.readouterr()
            assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out), "--keep-going"]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            runs.append((files, capsys.readouterr().err))
        assert runs[0] == runs[1]
        files, err = runs[0]
        assert sorted(files) == ["c00.json", "c01.json", "c02.json", "c03.json", "index.json"]
        assert err.startswith("SKIP missing: ") and err.count("\n") == 1

    @pytest.mark.parametrize("umask,file_mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
    def test_outputs_follow_umask(self, tmp_path, weights_file, manifest, umask, file_mode):
        previous = os.umask(umask)
        try:
            for fmt in ("json", "bin"):
                assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(tmp_path / fmt), "--format", fmt]) == 0
            assert main(["simmatrix", str(tmp_path / "json" / "index.json"), "--out", str(tmp_path / "sim")]) == 0
        finally:
            os.umask(previous)
        written = [*(tmp_path / "json").iterdir(), *(tmp_path / "bin").iterdir(), tmp_path / "sim.csv", tmp_path / "sim.pgm"]
        assert len(written) == 2 * 4 + 2
        modes = {str(p.relative_to(tmp_path)): stat.S_IMODE(p.stat().st_mode) for p in written}
        assert modes == {name: file_mode for name in modes}

    def test_decoded_samples_freed_before_the_backbone(self, tmp_path, weights_file, manifest, monkeypatch):
        # The worker hands the decoded buffer to the front end alone, so it
        # is freed before the backbone runs even on a Python whose frames
        # hold a call's arguments until it returns (3.10 does).
        made, gone = [], []
        read, backbone = cli._read_audio, aggregation.backbone_forward

        def traced_read(path):
            buf = read(path)
            made.append(weakref.ref(buf.samples))
            return buf

        def traced_backbone(mel, params):
            gone.append(made[-1]() is None)
            return backbone(mel, params)

        monkeypatch.setattr(cli, "_read_audio", traced_read)
        monkeypatch.setattr(aggregation, "backbone_forward", traced_backbone)
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(tmp_path / "out")]) == 0
        assert gone == [True, True, True]

    def test_binary_format(self, tmp_path, weights_file, manifest):
        out = tmp_path / "bin"
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out), "--format", "bin"]) == 0
        blob = (out / "utt0.emb").read_bytes()
        assert blob[:8] == b"AGVE0001"


class TestDspCommands:
    def test_f0_of_tone(self, wav_factory, capsys):
        path = wav_factory("tone.wav", sine(220.0, seconds=0.5))
        assert main(["f0", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        rows = [line.split(",") for line in lines]
        voiced = [float(r[1]) for r in rows if r[2] == "1"]
        assert voiced and all(abs(v - 220.0) < 1.0 for v in voiced)

    def test_f0_of_silence(self, wav_factory, capsys):
        path = wav_factory("sil.wav", sine(220.0, seconds=0.3, amp=0.0))
        assert main(["f0", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert all(line.split(",")[2] == "0" for line in lines)

    def test_mel_row_count(self, wav_factory, capsys):
        buf = sine(220.0, seconds=0.4)
        path = wav_factory("tone.wav", buf)
        assert main(["mel", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == (len(buf) - 1024) // 256 + 1
        assert len(lines[0].split(",")) == 80

    @pytest.mark.parametrize(
        "command, dump",
        [("mel", lambda b: mel_to_csv(mel_spectrogram(b))), ("f0", lambda b: f0_to_csv(yin_f0(b)))],
        ids=["mel", "f0"],
    )
    def test_dump_is_of_resampled_audio(self, wav_factory, capsys, command, dump):
        path = wav_factory("tone16k.wav", sine(1000.0, seconds=0.5, sr=16000))
        assert main([command, str(path)]) == 0
        expected = dump(resample(decode_wav(path.read_bytes()), CANONICAL_RATE))
        assert capsys.readouterr().out == expected

    def test_decode_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        assert main(["mel", str(bad)]) == 2


class TestSimmatrixAbx:
    @pytest.fixture
    def index_dir(self, tmp_path):
        out = tmp_path / "embs"
        out.mkdir()
        vecs = {"a1": [1.0, 0.0], "a2": [0.9, 0.1], "b1": [0.0, 1.0], "b2": [0.1, 0.9]}
        entries = []
        for uid, v in vecs.items():
            (out / ("%s.json" % uid)).write_text(
                json.dumps({"mode": "SE", "d": 2, "config_hash": "0" * 16, "values": v})
            )
            entries.append({"utterance_id": uid, "speaker_id": uid[0], "language": "xx", "file": uid + ".json"})
        (out / "index.json").write_text(json.dumps({"config_hash": "0" * 16, "mode": "SE", "d": 2, "format": "json", "entries": entries}))
        return out

    def test_full_matrix_and_dominance(self, index_dir, tmp_path, capsys):
        prefix = str(tmp_path / "sim")
        assert main(["simmatrix", str(index_dir / "index.json"), "--out", prefix]) == 0
        out = capsys.readouterr().out
        assert "diagonal_dominance 1" in out
        csv = (tmp_path / "sim.csv").read_text().strip().split("\n")
        assert len(csv) == 5  # header + 4 utterances
        assert (tmp_path / "sim.pgm").read_bytes().startswith(b"P5\n4 4\n255\n")

    def test_identical_pair_all_ones(self, tmp_path):
        out = tmp_path / "pair"
        out.mkdir()
        entries = []
        for uid in ("u1", "u2"):
            (out / (uid + ".json")).write_text(json.dumps({"mode": "SE", "d": 2, "config_hash": "0" * 16, "values": [0.6, 0.8]}))
            entries.append({"utterance_id": uid, "speaker_id": uid, "language": "xx", "file": uid + ".json"})
        (out / "index.json").write_text(json.dumps({"config_hash": "0" * 16, "mode": "SE", "d": 2, "format": "json", "entries": entries}))
        prefix = str(tmp_path / "pp")
        assert main(["simmatrix", str(out / "index.json"), "--out", prefix]) == 0
        rows = (tmp_path / "pp.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            assert all(abs(float(x) - 1.0) < 1e-9 for x in row.split(",")[1:])

    def test_group_by_speaker(self, index_dir, tmp_path, capsys):
        prefix = str(tmp_path / "grp")
        assert main(["simmatrix", str(index_dir / "index.json"), "--group-by", "speaker", "--out", prefix]) == 0
        csv = (tmp_path / "grp.csv").read_text().strip().split("\n")
        assert len(csv) == 3  # header + groups a, b
        assert "diagonal_dominance 1" in capsys.readouterr().out

    @pytest.mark.parametrize("group_by", [None, "speaker"])
    def test_csv_labels_quoted(self, tmp_path, group_by):
        out = tmp_path / "odd"
        out.mkdir()
        ids = ["u,1", "u\n2", 'u"3']
        entries = []
        for i, uid in enumerate(ids):
            (out / ("%d.json" % i)).write_text(json.dumps({"mode": "SE", "d": 2, "config_hash": "0" * 16, "values": [1.0, i]}))
            entries.append({"utterance_id": uid, "speaker_id": "s" + uid, "language": "xx", "file": "%d.json" % i})
        (out / "index.json").write_text(json.dumps({"config_hash": "0" * 16, "mode": "SE", "d": 2, "format": "json", "entries": entries}))
        prefix = str(tmp_path / "odd_sim")
        assert main(["simmatrix", str(out / "index.json"), "--out", prefix, *(["--group-by", group_by] if group_by else [])]) == 0
        with open(prefix + ".csv", newline="") as f:
            rows = list(csv.reader(f))
        labels = sorted("s" + uid for uid in ids) if group_by else ids
        assert rows[0] == ["", *labels]
        assert [row[0] for row in rows[1:]] == labels
        assert all(len(row) == len(labels) + 1 for row in rows)

    def test_non_ascii_labels_under_an_ascii_locale(self, tmp_path):
        # With UTF-8 mode and C-locale coercion off, LC_ALL=C makes the locale encoding ASCII.
        out = tmp_path / "embs"
        out.mkdir()
        labels = ["ü0", "日本", "Zoë"]
        entries = []
        for i, uid in enumerate(labels):
            (out / ("%d.json" % i)).write_text(json.dumps({"mode": "SE", "d": 2, "config_hash": "0" * 16, "values": [1.0, i]}))
            entries.append({"utterance_id": uid, "speaker_id": uid, "language": "xx", "file": "%d.json" % i})
        (out / "index.json").write_text(json.dumps({"config_hash": "0" * 16, "mode": "SE", "d": 2, "format": "json", "entries": entries}))
        src = os.path.dirname(os.path.dirname(agvoice.__file__))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
        cmd = [sys.executable, "-m", "agvoice.cli", "simmatrix", str(out / "index.json"), "--out", str(tmp_path / "sim")]
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        rows = list(csv.reader((tmp_path / "sim.csv").read_bytes().decode("utf-8").splitlines()))
        assert rows[0] == ["", *labels]
        assert [row[0] for row in rows[1:]] == labels

    def test_non_ascii_output_under_an_ascii_locale_exit_2(self, tmp_path):
        # standard output's encoding is ASCII, so the tensor name cannot be printed
        src = os.path.dirname(os.path.dirname(agvoice.__file__))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
        cmd = [sys.executable, "-m", "agvoice.cli", "inspect", "--weights", str(non_ascii_weights(tmp_path / "w.agvw"))]
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        err = proc.stderr.decode("utf-8", "replace")
        assert proc.returncode == 2, err
        assert one_line(err, "error: cannot write standard output: ") and "Traceback" not in err, err

    def test_utterance_matrix_is_never_held_whole(self, tmp_path, capsys):
        # d=4 so that the N×N float64 matrix (32 MB at N=2000) would dwarf the N×d rows; the rows of the
        # CSV and PGM are computed block by block as they are written, about 0.35 of it traced in all
        n, d = 2000, 4
        (tmp_path / "emb").mkdir()
        entries = []
        for i, v in enumerate(np.random.default_rng(3).standard_normal((n, d))):
            emb = embedding.SpeakerEmbedding(v, "SE", "")
            (tmp_path / "emb" / ("u%d.emb" % i)).write_bytes(embedding.embedding_to_bytes(emb))
            entries.append({"utterance_id": "u%d" % i, "speaker_id": "s%d" % (i % 20), "language": "xx", "file": "u%d.emb" % i})
        index = tmp_path / "emb" / "index.json"
        index.write_text(json.dumps({"config_hash": "", "mode": "SE", "d": d, "format": "bin", "entries": entries}))
        tracemalloc.start()
        try:
            assert main(["simmatrix", str(index), "--out", str(tmp_path / "sim")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "sim.pgm").stat().st_size == len(b"P5\n2000 2000\n255\n") + n * n
        assert peak < 0.5 * n * n * 8

    @staticmethod
    def write_emb_index(directory, edit_blob=lambda uid, blob: blob, **index_fields):
        directory.mkdir()
        entries = []
        for uid, vec in (("a1", [1.0, 0.0]), ("b1", [0.0, 1.0])):
            emb = embedding.SpeakerEmbedding(np.array(vec), "SE", "0" * 16)
            (directory / (uid + ".emb")).write_bytes(edit_blob(uid, embedding.embedding_to_bytes(emb)))
            entries.append({"utterance_id": uid, "speaker_id": uid[0], "language": "xx", "file": uid + ".emb"})
        index = {"config_hash": "0" * 16, "mode": "SE", "d": 2, "format": "bin", "entries": entries, **index_fields}
        (directory / "index.json").write_text(json.dumps({k: v for k, v in index.items() if v is not None}))
        return directory / "index.json"

    def test_emb_index(self, tmp_path, capsys):
        index = self.write_emb_index(tmp_path / "emb")
        assert main(["simmatrix", str(index), "--out", str(tmp_path / "sim")]) == 0
        assert "diagonal_dominance 1" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_entries_exit_2(self, tmp_path, capsys, n):
        # nothing to score: refused before any embedding file is read or any matrix allocated
        index = self.write_emb_index(tmp_path / "emb", entries=labelled_entries()[:n])
        capsys.readouterr()
        assert main(["simmatrix", str(index), "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr() == ("", "error: need at least 2 embeddings\n")
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize(
        "blob_edit, index_fields, group_by",
        [
            (lambda uid, blob: blob[:-3] if uid == "b1" else blob, {}, None),
            (lambda uid, blob: blob[:10] if uid == "b1" else blob, {}, None),
            (lambda uid, blob: blob, {"entries": None}, None),
            (lambda uid, blob: blob, {"d": None}, None),
            (lambda uid, blob: blob, {"d": "2"}, None),
            (lambda uid, blob: blob, {"d": 10**12}, None),
            (lambda uid, blob: blob, {"entries": [{"file": "a1.emb"}, {"file": "b1.emb"}]}, None),
            (lambda uid, blob: blob, {"entries": ["a1.emb", "b1.emb"]}, None),
            (lambda uid, blob: embedding.embedding_to_bytes(
                embedding.SpeakerEmbedding(np.array([0.0, 1.0, 0.0]), "SE", "0" * 16)) if uid == "b1" else blob, {}, None),
            (lambda uid, blob: blob[:-4] + struct.pack("<f", float("nan")) if uid == "b1" else blob, {}, None),
            (lambda uid, blob: blob[:-4] + struct.pack("<f", float("inf")) if uid == "a1" else blob, {}, "speaker"),
            # a label UTF-8 cannot encode, in the label each run writes to the CSV
            (lambda uid, blob: blob, {"entries": labelled_entries(utterance_id="a\ud800")}, None),
            (lambda uid, blob: blob, {"entries": labelled_entries(speaker_id="a\ud800")}, "speaker"),
            (lambda uid, blob: blob, {"entries": labelled_entries(language="x\udfff")}, "language"),
        ],
        ids=["truncated_emb", "truncated_emb_header", "no_entries", "no_d", "d_str", "d_huge", "entry_no_ids", "entry_not_object",
             "entry_d_differs", "emb_nan", "emb_inf_grouped", "utterance_id_surrogate", "speaker_id_surrogate", "language_surrogate"],
    )
    def test_bad_index_exit_2(self, tmp_path, capsys, blob_edit, index_fields, group_by):
        index = self.write_emb_index(tmp_path / "bad", blob_edit, **index_fields)
        group = ["--group-by", group_by] if group_by else []
        assert main(["simmatrix", str(index), *group, "--out", str(tmp_path / "sim")]) == 2
        assert one_line(capsys.readouterr().err, "error: ")
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("file, shown", [("gone\nline2.emb", "gone\\x0aline2.emb"), ("a\0b.emb", "a\\x00b.emb")],
                             ids=["newline", "nul"])
    def test_control_characters_in_an_entry_stay_on_one_line(self, tmp_path, capsys, file, shown):
        # the error names the file it could not read, with the control character escaped
        index = self.write_emb_index(tmp_path / "bad", entries=labelled_entries(file=file))
        assert main(["simmatrix", str(index), "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert one_line(err, "error: cannot read ") and shown in err
        assert "\0" not in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[]",
            '{"mode": "SE"}',
            '{"mode": "SE", "d": 2, "config_hash": "", "values": ["a", 1]}',
            '{"mode": "SE", "d": 2, "config_hash": "", "values": [NaN, 1]}',
            '{"mode": "SE", "d": 2, "config_hash": "", "values": [[1, 0], [0, 1]]}',
            '{"mode": "SE", "d": 2, "config_hash": "", "values": ["1.5", true]}',
            '{"mode": "SE", "d": 2, "config_hash": "", "values": [true, 1]}',
            '{"mode": "SE", "d": true, "config_hash": "", "values": [1]}',
            '{"mode": "SE", "d": 2.0, "config_hash": "", "values": [1, 0]}',
            '{"mode": "SE", "d": 2, "config_hash": "", "values": [1%s, 0]}' % ("0" * 400),
            '{"mode": "SE", "d": 2, "config_hash": 0, "values": [1, 0]}',
        ],
        ids=["unparseable", "list", "no_values", "str_value", "nan_value", "nested_values", "numeric_str_and_bool_values",
             "bool_value", "d_bool", "d_float", "int_beyond_float64", "config_hash_not_str"],
    )
    def test_bad_embedding_json_exit_2(self, index_dir, tmp_path, capsys, text):
        # a1 is the first entry and is given to abx twice, so the bad vector is also scored against itself
        (index_dir / "a1.json").write_text(text)
        assert main(["simmatrix", str(index_dir / "index.json"), "--out", str(tmp_path / "sim")]) == 2
        assert one_line(capsys.readouterr().err, "error: ")
        assert main(["abx", "--reference", str(index_dir / "a1.json"), str(index_dir / "a1.json"), str(index_dir / "b1.json")]) == 2
        assert one_line(capsys.readouterr().err, "error: ")

    @pytest.mark.parametrize(
        "argv",
        [["simmatrix", "index.json", "--out", "sim"], ["abx", "--reference", "a1.json", "a2.json", "b1.json"]],
        ids=["simmatrix", "abx"],
    )
    @pytest.mark.parametrize("fields, key", [({"extra": 1}, "extra"), ({"mode": ["x"]}, "mode")],
                             ids=["unknown_key", "mode_not_str"])
    def test_json_embedding_keys_exit_2(self, index_dir, capsys, monkeypatch, argv, fields, key):
        # a JSON embedding holds exactly the keys embed writes, and its mode is a string
        emb = {"mode": "SE", "d": 2, "config_hash": "0" * 16, "values": [0.0, 1.0], **fields}
        (index_dir / "b1.json").write_text(json.dumps(emb))
        monkeypatch.chdir(index_dir)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert one_line(err, "error: ") and "b1.json" in err and repr(key) in err
        assert not (index_dir / "sim.csv").exists()

    def test_abx_truncated_emb_exit_2(self, tmp_path, capsys):
        self.write_emb_index(tmp_path / "emb", lambda uid, blob: blob[:-3] if uid == "b1" else blob)
        d = tmp_path / "emb"
        assert main(["abx", "--reference", str(d / "a1.emb"), str(d / "a1.emb"), str(d / "b1.emb")]) == 2
        assert one_line(capsys.readouterr().err, "error: ")

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 4], ids=["one_byte", "one_float"])
    def test_emb_trailing_bytes_exit_2(self, tmp_path, capsys, extra):
        # a file longer than 12 + 4 d bytes is refused as a truncated one is
        index = self.write_emb_index(tmp_path / "emb", lambda uid, blob: blob + extra if uid == "b1" else blob)
        d = tmp_path / "emb"
        assert main(["abx", "--reference", str(d / "a1.emb"), str(d / "a1.emb"), str(d / "b1.emb")]) == 2
        assert one_line(capsys.readouterr().err, "error: ")
        assert main(["simmatrix", str(index), "--out", str(tmp_path / "sim")]) == 2
        assert one_line(capsys.readouterr().err, "error: ")
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize(
        "zero_file, argv, shown",
        [
            ("z.json", ["abx", "--reference", "a1.json", "b1.json"], ""),
            # the error names the file whose d differs from the reference's
            ("z.json", ["abx", "--reference", "a1.json", "b1.json", "d3.json"], "d3.json"),
            ("z.json", ["abx", "--reference", "z.json", "a1.json", "b1.json"], ""),
            ("b2.json", ["simmatrix", "index.json", "--out", "sim"], ""),
        ],
        ids=["abx_one_candidate", "abx_unequal_d", "abx_zero_vector", "simmatrix_zero_vector"],
    )
    def test_bad_embeddings_exit_2(self, index_dir, capsys, monkeypatch, zero_file, argv, shown):
        def write(name, values):
            (index_dir / name).write_text(json.dumps({"mode": "SE", "d": len(values), "config_hash": "0" * 16, "values": values}))

        write(zero_file, [0.0, 0.0])
        write("d3.json", [1.0, 0.0, 0.0])
        monkeypatch.chdir(index_dir)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert one_line(err, "error: ") and shown in err
        assert not (index_dir / "sim.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [["simmatrix", "index.json", "--out", "sim"], ["abx", "--reference", "a1.emb", "a1.emb", "b1.emb"]],
        ids=["simmatrix", "abx"],
    )
    def test_zero_length_embedding_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # a 12-byte .emb holds d=0 and no values; with the index's d=0 it used to crash the scoring
        empty = embedding.embedding_to_bytes(embedding.SpeakerEmbedding(np.zeros(0), "SE", ""))
        self.write_emb_index(tmp_path / "emb", lambda uid, blob: empty, d=0)
        monkeypatch.chdir(tmp_path / "emb")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert one_line(err, "error: ") and "a1.emb" in err
        assert not (tmp_path / "emb" / "sim.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [["simmatrix", "index.json", "--out", "sim"], ["abx", "--reference", "a1.json", "a2.json", "b2.json"]],
        ids=["simmatrix", "abx"],
    )
    def test_other_model_exit_2(self, index_dir, capsys, monkeypatch, argv):
        # b2 comes from a weight file of another config; cosines across models mean nothing
        (index_dir / "b2.json").write_text(json.dumps({"mode": "SE", "d": 2, "config_hash": "1" * 16, "values": [0.1, 0.9]}))
        monkeypatch.chdir(index_dir)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert one_line(err, "error: ") and "b2.json" in err
        assert not (index_dir / "sim.csv").exists()

    def test_abx(self, index_dir, capsys):
        rc = main(["abx", "--reference", str(index_dir / "a1.json"), str(index_dir / "b1.json"), str(index_dir / "a2.json")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "a2"

    def test_abx_huge_values(self, tmp_path, capsys):
        # float64 holds 1e200, but its square overflows: the orthogonal candidate used to win
        for name, values in (("ref", [1e200, 0.0]), ("ortho", [0.0, 1e200]), ("parallel", [1e200, 1.0])):
            (tmp_path / (name + ".json")).write_text(json.dumps({"mode": "SE", "d": 2, "config_hash": "", "values": values}))
        capsys.readouterr()
        assert main(["abx", "--reference", str(tmp_path / "ref.json"), str(tmp_path / "ortho.json"), str(tmp_path / "parallel.json")]) == 0
        out, err = capsys.readouterr()
        assert out == "parallel\n" and err == ""


class TestDeeplyNestedJson:
    """JSON nested deeper than the parser recurses is refused as any unparseable file is, at each of its readers."""

    NESTED = "[" * 200000 + "]" * 200000

    # site -> (argv, exit code, the start of the one stderr line), under a tmp_path prepared by the test
    SITES = {
        "embedding": (lambda t, w: ["abx", "--reference", t / "nested.json", t / "emb" / "a1.emb", t / "emb" / "b1.emb"],
                      2, "error: bad embedding file %s: "),
        "index": (lambda t, w: ["simmatrix", t / "nested.json", "--out", t / "sim"], 2, "error: cannot read index %s: "),
        "manifest": (lambda t, w: ["embed", t / "nested.json", "--weights", w, "--out", t / "out"], 2,
                     "error: manifest line 1: "),
        "weights": (lambda t, w: ["embed", t / "manifest.jsonl", "--weights", t / "nested.agvw", "--out", t / "out"], 3,
                    "config error: unparseable header: "),
    }

    @pytest.mark.parametrize("site", list(SITES))
    def test_refused_without_a_traceback(self, tmp_path, weights_file, capsys, site):
        TestSimmatrixAbx.write_emb_index(tmp_path / "emb")
        (tmp_path / "nested.json").write_text(self.NESTED)
        header = self.NESTED.encode()
        (tmp_path / "nested.agvw").write_bytes(weights.WEIGHTS_MAGIC + struct.pack("<I", len(header)) + header)
        (tmp_path / "manifest.jsonl").write_text(json.dumps({"path": "a.wav", "utterance_id": "a", "speaker_id": "s"}) + "\n")
        argv, code, prefix = self.SITES[site]
        capsys.readouterr()
        assert main([str(a) for a in argv(tmp_path, weights_file)]) == code
        err = capsys.readouterr().err
        assert one_line(err, prefix.replace("%s", str(tmp_path / "nested.json"))), err[:300]
        assert not (tmp_path / "out").exists() and not (tmp_path / "sim.csv").exists()


class TestFileErrors:
    """Each user file is read by one reader and each output written by one atomic writer; a failure names the file."""

    # case -> (argv, the file the command cannot read), under a tmp_path prepared by the test
    READS = {
        "manifest": lambda t, w: (["embed", t / "nope.jsonl", "--weights", w, "--out", t / "out"], t / "nope.jsonl"),
        "manifest_wav": lambda t, w: (["embed", t / "gone.jsonl", "--weights", w, "--out", t / "out"], t / "gone.wav"),
        "index": lambda t, w: (["simmatrix", t / "nope.json", "--out", t / "sim"], t / "nope.json"),
        "index_entry": lambda t, w: (["simmatrix", t / "emb" / "index.json", "--out", t / "sim"], t / "emb" / "gone.emb"),
        "abx_reference": lambda t, w: (
            ["abx", "--reference", t / "emb" / "gone.emb", t / "emb" / "a1.emb", t / "emb" / "b1.emb"], t / "emb" / "gone.emb"),
        "abx_candidate": lambda t, w: (
            ["abx", "--reference", t / "emb" / "a1.emb", t / "emb" / "b1.emb", t / "emb" / "gone.emb"], t / "emb" / "gone.emb"),
        "directory": lambda t, w: (["mel", t / "emb"], t / "emb"),
        "weights_embed": lambda t, w: (
            ["embed", t / "gone.jsonl", "--weights", t / "nope.agvw", "--out", t / "out"], t / "nope.agvw"),
        "weights_inspect": lambda t, w: (["inspect", "--weights", t / "nope.agvw"], t / "nope.agvw"),
        "weights_selftest": lambda t, w: (["selftest", "--weights", t / "emb"], t / "emb"),
    }

    @pytest.mark.parametrize("case", list(READS))
    def test_read_error_names_the_file(self, tmp_path, weights_file, capsys, case):
        TestSimmatrixAbx.write_emb_index(tmp_path / "emb", entries=labelled_entries(file="gone.emb"))
        line = {"path": "gone.wav", "utterance_id": "u", "speaker_id": "s"}
        (tmp_path / "gone.jsonl").write_text(json.dumps(line) + "\n")
        argv, path = self.READS[case](tmp_path, weights_file)
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert one_line(err, "error: cannot read %s: " % path) and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simmatrix", "init", "embed_over_file", "embed_under_file"])
    def test_write_error_names_the_target(self, tmp_path, weights_file, manifest, capsys, command):
        index = TestSimmatrixAbx.write_emb_index(tmp_path / "emb")
        prefix = tmp_path / "missing" / "out"
        afile = tmp_path / "afile"
        afile.write_bytes(b"kept")
        embed = ["embed", manifest, "--weights", weights_file, "--out"]
        argv, target, code = {
            "simmatrix": (["simmatrix", index, "--out", prefix], "%s.csv" % prefix, errno.ENOENT),
            "init": (["init", "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2", "--out", prefix],
                     prefix, errno.ENOENT),
            # embed's --out names a directory: an existing file, or a path under one
            "embed_over_file": (embed + [afile], afile, errno.EEXIST),
            "embed_under_file": (embed + [afile / "sub"], afile / "sub", errno.ENOTDIR),
        }[command]
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot write %s: %s\n" % (target, os.strerror(code))
        assert afile.read_bytes() == b"kept"
        assert "tmp" not in err.replace(str(target), "")  # not the temp file beside it

    def test_keep_going_write_error_names_the_target(self, tmp_path, weights_file, manifest, capsys):
        out = tmp_path / "out"
        (out / "utt1.json").mkdir(parents=True)  # a directory where utt1's embedding goes
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out), "--keep-going"]) == 0
        err = capsys.readouterr().err
        assert err == "SKIP utt1: cannot write %s: %s\n" % (out / "utt1.json", os.strerror(errno.EISDIR))
        assert sorted(p.name for p in out.iterdir()) == ["index.json", "utt0.json", "utt1.json", "utt2.json"]

    def test_every_file_is_written_as_bytes(self, tmp_path, manifest, monkeypatch):
        # each write hands over bytes, or a function that is given the temp file open in binary mode
        kinds, write = [], cli._atomic_write

        def recording(path, data):
            if isinstance(data, bytes):
                kinds.append(bytes)
                return write(path, data)

            def content(f):
                kinds.append(type(f))
                data(f)

            return write(path, content)

        monkeypatch.setattr(cli, "_atomic_write", recording)
        weights_path = tmp_path / "w.agvw"
        argvs = [
            ["init", "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2", "--out", weights_path],
            ["embed", manifest, "--weights", weights_path, "--out", tmp_path / "json"],
            ["embed", manifest, "--weights", weights_path, "--out", tmp_path / "bin", "--format", "bin"],
            ["simmatrix", tmp_path / "json" / "index.json", "--out", tmp_path / "sim"],
        ]
        for argv in argvs:
            assert main([str(a) for a in argv]) == 0
        # the weight file, 3 embeddings and an index per format; the CSV and the PGM are streamed
        assert kinds == [bytes] * (1 + 4 + 4) + [io.BufferedWriter] * 2

    @staticmethod
    def fails_after_one_block(error):
        """A content function that writes a block larger than the file's buffer, so it reaches the temp file, then raises."""

        def content(f):
            f.write(b"0" * 65536)
            raise error

        return content

    @pytest.mark.parametrize("existing", [False, True], ids=["new_target", "existing_target"])
    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), ValueError("bad block")],
                             ids=["oserror", "valueerror"])
    def test_failed_streamed_write_leaves_no_temp_file(self, tmp_path, existing, error):
        target = tmp_path / "sim.csv"
        if existing:
            target.write_bytes(b"old bytes")
        with pytest.raises(InputError if isinstance(error, OSError) else ValueError) as raised:
            cli._atomic_write(str(target), self.fails_after_one_block(error))
        if isinstance(error, OSError):
            assert str(raised.value) == "cannot write %s: %s" % (target, os.strerror(errno.ENOSPC))
        assert sorted(p.name for p in tmp_path.iterdir()) == (["sim.csv"] if existing else [])
        if existing:
            assert target.read_bytes() == b"old bytes"

    def test_simmatrix_failed_streamed_write_names_the_target(self, tmp_path, capsys, monkeypatch):
        index = TestSimmatrixAbx.write_emb_index(tmp_path / "emb")
        out = tmp_path / "out"
        out.mkdir()
        (out / "sim.csv").write_bytes(b"old bytes")
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "tmp0123456789abcdef")
        # the one pass that writes both files fails once a block has reached each temp file
        def one_pass(m, f, pgm):
            pgm.write(b"0" * 65536)
            self.fails_after_one_block(full)(f)

        monkeypatch.setattr(evaluation, "matrix_to_csv", one_pass)
        capsys.readouterr()
        assert main(["simmatrix", str(index), "--out", str(out / "sim")]) == 2
        assert capsys.readouterr().err == "error: cannot write %s: %s\n" % (out / "sim.csv", os.strerror(errno.ENOSPC))
        # no temp file of either the CSV or the PGM is left
        assert sorted(p.name for p in out.iterdir()) == ["sim.csv"]
        assert (out / "sim.csv").read_bytes() == b"old bytes"


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "gradcheck worst relative error" in out
    assert "pooled stage vs mean of full rows" in out


def test_selftest_corrupt_weights(tmp_path, weights_file):
    bad = tmp_path / "bad.agvw"
    blob = bytearray(weights_file.read_bytes())
    blob[0:8] = b"AGVW9999"
    bad.write_bytes(bytes(blob))
    assert main(["selftest", "--seed", "0", "--weights", str(bad)]) == 3


# The commands that read a weight file or embeddings, in a fresh interpreter; prints whether OpenSSL's
# hashlib backend was loaded. `init` is left out: numpy.random, whose PCG64 draws it needs, imports
# secrets, which imports hmac and so _hashlib.
NO_OPENSSL_SCRIPT = """
import sys
from agvoice.cli import main

for argv in (
    "inspect --weights desk.agvw",
    "embed manifest.jsonl --weights desk.agvw --out emb",
    "simmatrix emb/index.json --out sim",
    "simmatrix emb/index.json --group-by speaker --out grouped",
    "abx --reference emb/utt0.json emb/utt1.json emb/utt2.json",
):
    assert main(argv.split()) == 0, argv
print("_hashlib" in sys.modules, file=sys.stderr)
"""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")), reason="no built-in sha256 module"
)
def test_no_command_loads_openssl(tmp_path, weights_file, manifest):
    # hashlib's OpenSSL backend adds 3.6 MB to the peak RSS of a process that only hashes a config
    src = os.path.dirname(os.path.dirname(agvoice.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", NO_OPENSSL_SCRIPT], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"


# Runs the commands given as its arguments, which start no threads, in one fresh interpreter; after
# each prints which of the model's modules, the scoring code and the thread pool had been loaded.
NO_POOL_SCRIPT = """
import sys
from agvoice.cli import main

watched = ["agvoice." + m for m in ("aggregation", "backbone", "dsp", "nn", "weights", "evaluation")]
for argv in sys.argv[1:]:
    assert main(argv.split()) == 0, argv
    print(argv.split()[0], *(m for m in watched + ["concurrent.futures"] if m in sys.modules), file=sys.stderr)
"""


def test_only_embed_imports_the_thread_pool(tmp_path, weights_file, manifest):
    assert main([str(a) for a in ("embed", manifest, "--weights", weights_file, "--out", tmp_path / "emb")]) == 0
    src = os.path.dirname(os.path.dirname(agvoice.__file__))

    def loaded(*commands):
        proc = subprocess.run([sys.executable, "-c", NO_POOL_SCRIPT, *commands], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.splitlines()

    # simmatrix and abx read embeddings with agvoice.embedding and score them with agvoice.evaluation:
    # none of the model's modules is loaded
    assert loaded(
        "simmatrix emb/index.json --out sim",
        "simmatrix emb/index.json --group-by speaker --out grouped",
        "abx --reference emb/utt0.json emb/utt1.json emb/utt2.json",
    ) == [*["simmatrix agvoice.evaluation"] * 2, "abx agvoice.evaluation"]
    # inspect, in an interpreter of its own, loads the weight-file code and neither the model nor the scoring code
    assert loaded("inspect --weights desk.agvw") == ["inspect agvoice.weights"]


# a standard stream given to run_module as CLOSED has its file descriptor closed before exec
CLOSED = "closed"


def run_module(argv, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unbuffered=False):
    """`python -m agvoice.cli argv`, the path the console script takes, with standard output
    block-buffered as it is by default (PYTHONUNBUFFERED removed) unless `unbuffered`: either way
    `main` writes and flushes a command's output before it returns, and `entrypoint` ends the
    process with `os._exit`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(agvoice.__file__))
    closing = " ".join(redirect for redirect, stream in ((">&-", stdout), ("2>&-", stderr)) if stream is CLOSED)
    cmd = ["sh", "-c", 'exec "$@" ' + closing, "sh"] if closing else []
    cmd += [sys.executable, "-m", "agvoice.cli", *map(str, argv)]
    stdout, stderr = (subprocess.DEVNULL if stream is CLOSED else stream for stream in (stdout, stderr))
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr, timeout=300)


# The exit code of each case of `case_argv` that fails on working streams; every other case succeeds.
FAILING_CASES = {"missing_weights": 2, "bad_config": 3}


def case_argv(case, tmp_path, weights_file, manifest, wav_factory):
    """The argv of a command on input it succeeds on, of a failing case, or of `keep_going`, which
    succeeds with a SKIP line on standard error. `simmatrix` and `abx` read embeddings made here first."""
    emb = tmp_path / "emb"
    if case in ("simmatrix", "abx") and not emb.exists():
        assert main([str(a) for a in ("embed", manifest, "--weights", weights_file, "--out", emb)]) == 0

    def ten():  # mel and f0 of a 10 s clip print more than a buffer's worth, the other commands less
        return wav_factory("ten.wav", sine(220.0, seconds=10.0))

    return [str(a) for a in {
        "init": lambda: ["init", "--channels", "16", "--dmodel", "8", "--tokens", "2", "--heads", "2",
                         "--out", tmp_path / "w.agvw"],
        "inspect": lambda: ["inspect", "--weights", weights_file],
        "embed": lambda: ["embed", manifest, "--weights", weights_file, "--out", tmp_path / "out"],
        "mel": lambda: ["mel", ten()],
        "f0": lambda: ["f0", ten()],
        "simmatrix": lambda: ["simmatrix", emb / "index.json", "--out", tmp_path / "sim"],
        "abx": lambda: ["abx", "--reference", emb / "utt0.json", emb / "utt1.json", emb / "utt2.json"],
        "selftest": lambda: ["selftest", "--seed", "0"],
        "missing_weights": lambda: ["inspect", "--weights", tmp_path / "missing.agvw"],
        "bad_config": lambda: ["embed", manifest, "--weights",
                               write_edited(weights_file, set_config(heads=0), tmp_path / "bad.agvw"), "--out", tmp_path / "out"],
        "keep_going": lambda: ["embed", clips_manifest(tmp_path, wav_factory, n_good=2, bad_at=1), "--weights",
                               weights_file, "--out", tmp_path / "out", "--keep-going"],
    }[case]()]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command, unbuffered", [
    pytest.param(command, unbuffered, id=command + ("-unbuffered" if unbuffered else ""))
    for unbuffered in (False, True)
    for command in ("simmatrix", "abx", "init", "selftest", "mel", "f0", "inspect")
])
def test_unwritable_stdout_exit_2(tmp_path, weights_file, manifest, wav_factory, command, unbuffered):
    argv = case_argv(command, tmp_path, weights_file, manifest, wav_factory)
    with open("/dev/full", "wb") as full:
        proc = run_module(argv, tmp_path, stdout=full, unbuffered=unbuffered)
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 2, err
    assert err == "error: cannot write standard output: %s\n" % os.strerror(errno.ENOSPC), err


@pytest.mark.parametrize("command", ["mel", "inspect", "abx"])
def test_closed_stdout_exit_2(tmp_path, weights_file, manifest, wav_factory, command):
    proc = run_module(case_argv(command, tmp_path, weights_file, manifest, wav_factory), tmp_path, stdout=CLOSED)
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 2, err
    assert err == "error: cannot write standard output: %s\n" % os.strerror(errno.EBADF), err


@pytest.mark.parametrize("stderr", ["full", "closed"])
@pytest.mark.parametrize("case", ["missing_weights", "bad_config", "keep_going"])
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, weights_file, manifest, wav_factory, case, stderr):
    if stderr == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    argv = case_argv(case, tmp_path, weights_file, manifest, wav_factory)
    if stderr == "closed":
        proc = run_module(argv, tmp_path, stderr=CLOSED)
    else:
        with open("/dev/full", "wb") as full:
            proc = run_module(argv, tmp_path, stderr=full)
    # keep_going's SKIP line cannot be written, which exits 2; its count line still is
    stdout = "embedded 2/3 utterances -> %s\n" % (tmp_path / "out") if case == "keep_going" else ""
    assert (proc.returncode, proc.stdout.decode("utf-8")) == (FAILING_CASES.get(case, 2), stdout)


class BrokenStream:
    """A standard stream on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


@pytest.mark.parametrize("case", ["init", "inspect", "embed", "mel", "f0", "simmatrix", "abx", "selftest",
                                  "missing_weights", "bad_config", "keep_going"])
def test_broken_streams_keep_a_failure_code(tmp_path, weights_file, manifest, wav_factory, monkeypatch, capsys, case):
    # in-process: a command that succeeds exits 2 when neither standard stream takes a write,
    # and one that fails keeps its code
    argv = case_argv(case, tmp_path, weights_file, manifest, wav_factory)
    assert main(argv) == FAILING_CASES.get(case, 0), capsys.readouterr().err
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", BrokenStream())
        m.setattr(sys, "stderr", BrokenStream())
        assert main(argv) == FAILING_CASES.get(case, 2)


def test_unencodable_stdout_exit_2(tmp_path, monkeypatch, capsys):
    # in-process: text that standard output's encoding cannot represent is a failed write
    argv = ["inspect", "--weights", str(non_ascii_weights(tmp_path / "w.agvw"))]
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert one_line(err, "error: cannot write standard output: 'ascii' codec can't encode"), err


@pytest.mark.parametrize("case", ["mel", "inspect", "missing_weights", "bad_config", "embed"])
def test_fast_exit_loses_no_output(tmp_path, weights_file, manifest, wav_factory, capsys, case):
    # the same command in-process through main and as its own process through entrypoint's os._exit
    out, code = tmp_path / "out", FAILING_CASES.get(case, 0)
    argv = case_argv(case, tmp_path, weights_file, manifest, wav_factory)
    capsys.readouterr()
    assert main(argv) == code
    expected = capsys.readouterr()
    assert expected.err.count("\n") == (code != 0)
    files = sorted(os.listdir(out)) if out.exists() else []
    written = read_all(out, files)
    shutil.rmtree(out, ignore_errors=True)
    proc = run_module(argv, tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.decode("utf-8") == expected.out
    assert proc.stderr.decode("utf-8") == expected.err
    # the same files, and no temp file left behind
    assert (sorted(os.listdir(out)) if out.exists() else []) == files
    assert read_all(out, files) == written
