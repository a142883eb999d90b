import json
import struct

import numpy as np
import pytest

from agvoice.cli import main
from conftest import sine


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

    def test_inspect_lists_census(self, weights_file, capsys):
        assert main(["inspect", "--weights", str(weights_file)]) == 0
        out = capsys.readouterr().out
        from agvoice.aggregation import AggregationConfig
        from agvoice.backbone import BackboneConfig
        from agvoice.weights import param_shapes

        bb = BackboneConfig(channels=16, d_model=8)
        agg = AggregationConfig(n_tokens=2, heads=2, d_model=8)
        for name in param_shapes(bb, agg):
            assert name in out


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

    def test_flag_conflict_exit_3(self, tmp_path, weights_file, manifest):
        rc = main(["embed", str(manifest), "--mode", "se", "--weights", str(weights_file), "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_missing_manifest_exit_2(self, tmp_path, weights_file):
        assert main(["embed", str(tmp_path / "nope.jsonl"), "--weights", str(weights_file), "--out", str(tmp_path / "x")]) == 2

    def test_corrupt_weights_exit_3(self, tmp_path, manifest, weights_file):
        bad = tmp_path / "bad.agvw"
        bad.write_bytes(weights_file.read_bytes()[:-20])
        assert main(["embed", str(manifest), "--weights", str(bad), "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta["config"].update(n_blocks=4),
            lambda meta: meta["config"].update(mode="SE_XX"),
            lambda meta: meta["config"].update(scale_mode="cube"),
            lambda meta: meta.pop("config"),
            lambda meta: meta["config"].pop("heads"),
        ],
        ids=["n_blocks_vs_dilations", "unknown_mode", "unknown_scale_mode", "no_config", "no_heads"],
    )
    def test_bad_header_config_exit_3(self, tmp_path, weights_file, manifest, capsys, edit):
        blob = weights_file.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        edit(header["meta"])
        edited = json.dumps(header).encode()
        bad = tmp_path / "bad.agvw"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + hlen :])
        capsys.readouterr()
        assert main(["embed", str(manifest), "--weights", str(bad), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_keep_going_skips_bad_file(self, tmp_path, weights_file, manifest):
        lines = manifest.read_text().strip().split("\n")
        lines.append(json.dumps({"path": "missing.wav", "utterance_id": "uttX", "speaker_id": "spkX", "language": "xx"}))
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "kg"
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(out), "--keep-going"]) == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["entries"]) == 3
        # without the flag the same manifest fails
        assert main(["embed", str(manifest), "--weights", str(weights_file), "--out", str(tmp_path / "kg2")]) == 2

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

    def test_abx(self, index_dir, capsys):
        rc = main(["abx", "--reference", str(index_dir / "a1.json"), str(index_dir / "b1.json"), str(index_dir / "a2.json")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "a2"


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "gradcheck worst relative error" in out


def test_selftest_corrupt_weights(tmp_path, weights_file):
    bad = tmp_path / "bad.agvw"
    blob = bytearray(weights_file.read_bytes())
    blob[0:8] = b"AGVW9999"
    bad.write_bytes(bytes(blob))
    assert main(["selftest", "--seed", "0", "--weights", str(bad)]) == 3
