"""Command-line front end.

Subcommands: init, inspect, embed, mel, f0, simmatrix, abx, selftest.
Exit codes: 0 success, 2 input error, 3 config/weight error, 4 internal
invariant violation. All randomness flows from --seed.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import aggregation, dsp, evaluation, weights
from .aggregation import MODES, AggregationConfig
from .audio_io import CANONICAL_RATE, AudioBuffer, decode_wav, resample
from .backbone import BackboneConfig
from .errors import AgvError, ConfigError, DimMismatch, InputError, ShapeMismatch
from .nn import SCALE_MODES, gradcheck, scaled_dot_attention, attention_backward

MODE_FLAGS = {"+".join(("se",) + cues): mode for mode, cues in MODES.items()}

# `init`'s config flags: config field -> (flag, argparse options). A field
# without a flag, and a flag left out, keeps the dataclass default. Every
# other command takes the config from the weight file.
CONFIG_FLAGS = {
    "mode": ("--mode", dict(choices=sorted(MODE_FLAGS))),
    "splitting": ("--no-split", dict(action="store_false")),
    "n_tokens": ("--tokens", dict(type=int, metavar="N")),
    "heads": ("--heads", dict(type=int, metavar="H")),
    "d_model": ("--dmodel", dict(type=int, metavar="D")),
    "channels": ("--channels", dict(type=int, metavar="C")),
    "scale_mode": ("--scale-mode", dict(choices=SCALE_MODES)),
}


def _given_fields(args):
    """The config fields set by flag, with dataclass values."""
    given = {name: getattr(args, name) for name in CONFIG_FLAGS if getattr(args, name) is not None}
    if "mode" in given:
        given["mode"] = MODE_FLAGS[given["mode"]]
    return given


def _load_model(path):
    """The tensors of a weight file and the config its header declares, checked against each other."""
    store = weights.load(path)
    bb, agg = weights.configs_from_dict(store.meta.get("config"))
    weights.check_params(store, bb, agg)
    return store, bb, agg


def _atomic_write(path, data):
    """Write `path` through a temp file beside it, with the mode a plain open() gives (0o666 less the umask)."""
    mode = "wb" if isinstance(data, bytes) else "w"
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), "tmp%s" % os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_audio(path):
    try:
        with open(path, "rb") as f:
            return decode_wav(f.read())
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e)) from None


def _manifest_record(line, lineno):
    """One manifest line as a record of string fields; `utterance_id` names a file in --out."""
    try:
        rec = json.loads(line)
    except ValueError as e:
        raise InputError("manifest line %d: %s" % (lineno, e)) from None
    if not isinstance(rec, dict):
        raise InputError("manifest line %d: not a JSON object" % lineno)
    rec.setdefault("language", "")
    for key in ("path", "utterance_id", "speaker_id", "language"):
        if key not in rec:
            raise InputError("manifest line %d: missing %r" % (lineno, key))
        if not isinstance(rec[key], str):
            raise InputError("manifest line %d: %r must be a string" % (lineno, key))
        try:
            rec[key].encode("utf-8")
        except UnicodeEncodeError:
            raise InputError("manifest line %d: %r is not valid UTF-8 (lone surrogate)" % (lineno, key)) from None
    if "\0" in rec["path"]:
        raise InputError("manifest line %d: path holds a NUL character" % lineno)
    uid = rec["utterance_id"]
    if uid in ("", ".", "..") or "/" in uid or "\\" in uid or "\0" in uid:
        raise InputError("manifest line %d: utterance_id %r is not a plain file name" % (lineno, uid))
    return rec


def _read_manifest(path):
    records = []
    base = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "rb") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise InputError("cannot read manifest: %s" % e) from None
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise InputError("manifest line %d is not valid UTF-8" % lineno) from None
        if not line:
            continue
        rec = _manifest_record(line, lineno)
        if not os.path.isabs(rec["path"]):
            rec["path"] = os.path.join(base, rec["path"])
        records.append(rec)
    ids = [r["utterance_id"] for r in records]
    if len(ids) != len(set(ids)):
        raise InputError("duplicate utterance_id in manifest")
    if not records:
        raise InputError("empty manifest")
    return records


def cmd_init(args):
    bb, agg = aggregation.configs_from_fields(_given_fields(args))
    store = weights.init_params(bb, agg, args.seed)
    weights.save(store, args.out)
    print("wrote %s (%d tensors, seed %d)" % (args.out, len(store.entries), args.seed))
    return 0


def cmd_inspect(args):
    store = weights.load(args.weights)
    print("seed=%s config_digest=%s" % (store.meta.get("seed"), store.meta.get("config_digest")))
    for name in store.names():
        t = store.entries[name]
        print(
            "%-44s %-14s min=%+.6g max=%+.6g mean=%+.6g"
            % (name, "x".join(map(str, t.shape)), t.min(), t.max(), t.mean())
        )
    return 0


def _num_threads():
    value = os.environ.get("AGV_NUM_THREADS", "1")
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError("AGV_NUM_THREADS=%r is not an integer >= 1" % value)
    return n


def cmd_embed(args):
    n_workers = _num_threads()
    store, bb, agg = _load_model(args.weights)
    records = _read_manifest(args.manifest)
    os.makedirs(args.out, exist_ok=True)
    ext, serialize = {
        "json": (".json", aggregation.embedding_to_json),
        "bin": (".emb", aggregation.embedding_to_bytes),
    }[args.format]

    def one(rec):
        """Write one utterance's file; under --keep-going a failure comes back as its message."""
        try:
            emb = aggregation.extract_embedding(_read_audio(rec["path"]), store, bb, agg)
            # NaN fails the test too; the files store float32
            if not (np.abs(emb.vector) <= np.finfo(np.float32).max).all():
                raise ConfigError("embedding of %s is not finite in float32; the weights overflow" % rec["utterance_id"])
            _atomic_write(os.path.join(args.out, rec["utterance_id"] + ext), serialize(emb))
        except (AgvError, OSError) as e:
            if not args.keep_going:
                raise
            return str(e)
        return None

    # One outcome per manifest line, in order. A raised failure stops the loop,
    # and Executor.map cancels every job that has not started.
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(one, records))
    else:
        # One worker runs in this thread: a pool thread raised peak RSS by ~6% (~50 MB) on 60 s clips.
        outcomes = list(map(one, records))
    entries = [
        {
            "utterance_id": rec["utterance_id"],
            "speaker_id": rec["speaker_id"],
            "language": rec["language"],
            "file": rec["utterance_id"] + ext,
        }
        for rec, err in zip(records, outcomes)
        if err is None
    ]
    index = {
        "config_hash": aggregation.config_hash(bb, agg),
        "mode": agg.mode,
        "d": agg.d_model,
        "format": args.format,
        "entries": entries,
    }
    _atomic_write(os.path.join(args.out, "index.json"), json.dumps(index, indent=2, sort_keys=True))
    for rec, err in zip(records, outcomes):
        if err is not None:
            print("SKIP %s: %s" % (rec["utterance_id"], err), file=sys.stderr)
    print("embedded %d/%d utterances -> %s" % (len(entries), len(records), args.out))
    return 0


def cmd_mel(args):
    mel = dsp.mel_spectrogram(resample(_read_audio(args.audio), CANONICAL_RATE))
    sys.stdout.write(dsp.mel_to_csv(mel))
    return 0


def cmd_f0(args):
    contour = dsp.yin_f0(resample(_read_audio(args.audio), CANONICAL_RATE))
    sys.stdout.write(dsp.f0_to_csv(contour))
    return 0


def _read_embedding_file(path):
    """The vector of a `.json` or binary embedding file, checked finite."""
    try:
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as f:
                emb = aggregation.embedding_from_json(f.read())
        else:
            with open(path, "rb") as f:
                emb = aggregation.embedding_from_bytes(f.read())
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e)) from None
    except (ShapeMismatch, ValueError, KeyError, TypeError) as e:
        raise InputError("bad embedding file %s: %s" % (path, e)) from None
    if not np.isfinite(emb.vector).all():
        raise InputError("embedding file %s holds non-finite values" % path)
    return emb.vector


def _read_index(index_path):
    try:
        with open(index_path, encoding="utf-8") as f:
            index = json.load(f)
    except (OSError, ValueError) as e:
        raise InputError("cannot read index: %s" % e) from None
    if not isinstance(index, dict) or not isinstance(index.get("entries"), list):
        raise InputError("index has no entries list")
    if isinstance(index.get("d"), bool) or not isinstance(index.get("d"), int):
        raise InputError("index has no integer d")
    for entry in index["entries"]:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), str) for key in ("file", "utterance_id", "speaker_id", "language")
        ):
            raise InputError("index entry %r lacks a string file, utterance_id, speaker_id or language" % (entry,))
    return index


def _load_index_embeddings(index_path):
    base = os.path.dirname(os.path.abspath(index_path))
    index = _read_index(index_path)
    vecs = []
    for entry in index["entries"]:
        vec = _read_embedding_file(os.path.join(base, entry["file"]))
        if len(vec) != index["d"]:
            raise DimMismatch("embedding %s has d=%d, index says %d" % (entry["file"], len(vec), index["d"]))
        vecs.append(vec)
    if len(vecs) < 2:
        raise InputError("need at least 2 embeddings")
    return index["entries"], np.array(vecs)


def _pooled_matrix(entries, x, key):
    """Cosine matrix between per-group means of the rows of `x`, groups by `entry[key]`, sorted."""
    groups = {}
    for i, entry in enumerate(entries):
        groups.setdefault(entry[key], []).append(i)
    labels = sorted(groups)
    means = [x[groups[label]].mean(axis=0) for label in labels]
    return evaluation.cross_similarity(means, means, labels, labels)


def cmd_simmatrix(args):
    entries, x = _load_index_embeddings(args.index)
    key = {"speaker": "speaker_id", "language": "language"}.get(args.group_by)
    # dominance needs one column per group: pool by speaker when not grouped
    pooled = _pooled_matrix(entries, x, key or "speaker_id")
    labels = [entry["utterance_id"] for entry in entries]
    matrix = pooled if key else evaluation.cross_similarity(x, x, labels, labels)
    dom = evaluation.diagonal_dominance(pooled)
    _atomic_write(args.out + ".csv", evaluation.matrix_to_csv(matrix))
    _atomic_write(args.out + ".pgm", evaluation.matrix_to_pgm(matrix))
    print("diagonal_dominance %.6g" % dom)
    return 0


def cmd_abx(args):
    ref = _read_embedding_file(args.reference)
    cands = [_read_embedding_file(p) for p in args.candidates]
    idx = evaluation.abx_select(ref, cands)
    stem = os.path.basename(args.candidates[idx])
    print(stem[: stem.rfind(".")] if "." in stem else stem)
    return 0


def _selftest_gradchecks(rng):
    # The key bias has an exactly-zero gradient (softmax cancels a per-row
    # logit shift), so the comparison floor must sit above the central
    # difference roundoff, which scales with |f|.
    def floor_for(f, xs):
        return max(1e-8, 1e-4 * (1.0 + abs(f(xs))))

    worst = 0.0
    tq, tk, d = 3, 4, 5
    for _ in range(3):
        q, k, v = rng.standard_normal((tq, d)), rng.standard_normal((tk, d)), rng.standard_normal((tk, d))

        def f(xs):
            return float(scaled_dot_attention(xs[0], xs[1], xs[2]).output.sum())

        def g(xs):
            tr = scaled_dot_attention(xs[0], xs[1], xs[2])
            return list(attention_backward(tr, xs[0], xs[1], xs[2], np.ones_like(tr.output)))

        worst = max(worst, gradcheck(f, g, [q, k, v], abs_floor=floor_for(f, [q, k, v])).max_rel_error)

    d = 8
    hq, hkv = rng.standard_normal((4, d)), rng.standard_normal((4, d))
    names = ["wq", "bq", "wk", "bk", "wv", "bv"]
    stage_p = {n: (rng.standard_normal((d, d)) * 0.3 if n.startswith("w") else rng.standard_normal(d) * 0.1) for n in names}

    def f_stage(xs):
        p = dict(zip(names, xs))
        out, _ = aggregation.cross_attention_stage(hq, hkv, p)
        return float(out.sum())

    def g_stage(xs):
        p = dict(zip(names, xs))
        grads = aggregation.cross_attention_stage_backward(hq, hkv, p, np.ones((4, d)))
        return [grads[n] for n in names]

    xs_stage = [stage_p[n] for n in names]
    worst = max(worst, gradcheck(f_stage, g_stage, xs_stage, abs_floor=floor_for(f_stage, xs_stage)).max_rel_error)

    fuse_names = ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"]
    fuse_p = {n: (rng.standard_normal((d, d)) * 0.3 if n.startswith("w") else rng.standard_normal(d) * 0.1) for n in fuse_names}
    tokens = rng.standard_normal((3, d))
    h = rng.standard_normal((5, d))

    def f_fuse(xs):
        p = dict(zip(fuse_names, xs[:-1]))
        return float(aggregation.split_and_fuse(h, xs[-1], 2, p).sum())

    def g_fuse(xs):
        p = dict(zip(fuse_names, xs[:-1]))
        grads = aggregation.split_and_fuse_backward(h, xs[-1], 2, p, np.ones(d))
        return [grads[n] for n in fuse_names] + [grads["tokens"]]

    xs_fuse = [fuse_p[n] for n in fuse_names] + [tokens]
    worst = max(worst, gradcheck(f_fuse, g_fuse, xs_fuse, abs_floor=floor_for(f_fuse, xs_fuse)).max_rel_error)
    return worst


def cmd_selftest(args):
    failures = []
    rng = np.random.default_rng(args.seed)

    worst_grad = _selftest_gradchecks(rng)
    print("gradcheck worst relative error: %.3g" % worst_grad)
    if worst_grad >= 1e-6:
        failures.append("gradcheck")

    # DSP tone suite
    t = np.arange(CANONICAL_RATE) / CANONICAL_RATE
    for freq in (110.0, 220.0, 440.0):
        buf = AudioBuffer(0.5 * np.sin(2 * np.pi * freq * t), CANONICAL_RATE)
        c = dsp.yin_f0(buf)
        interior = slice(1, len(c) - 1)
        ok = np.abs(c.f0_hz[interior] - freq) < 0.5
        frac = (ok & c.voiced[interior]).mean()
        print("yin %g Hz: %.1f%% frames within 0.5 Hz" % (freq, 100 * frac))
        if frac < 0.95:
            failures.append("yin %g" % freq)
    silence = dsp.yin_f0(AudioBuffer(np.zeros(CANONICAL_RATE // 4), CANONICAL_RATE))
    if silence.voiced.any():
        failures.append("silence voiced")
    else:
        print("silence: 100% unvoiced")

    # serialization round trip
    if args.weights:
        store, _, _ = _load_model(args.weights)  # raises ConfigError -> exit 3
        print("weight file ok: %d tensors" % len(store.entries))
    bb = BackboneConfig(channels=16, d_model=8)
    agg = AggregationConfig(mode="SE_F0_then_ME", n_tokens=2, heads=2, d_model=8)
    store = weights.init_params(bb, agg, args.seed)
    import io

    b1, b2 = io.BytesIO(), io.BytesIO()
    weights.save(store, b1)
    weights.save(weights.load(io.BytesIO(b1.getvalue())), b2)
    if b1.getvalue() != b2.getvalue():
        failures.append("serialization round trip")
    else:
        print("serialization round trip: bit-exact")

    if failures:
        print("FAIL: " + ", ".join(failures))
        return 4
    print("PASS")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="agvoice", description="Speaker embeddings via multi-level attention aggregation")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("init", help="create a seeded weight file")
    for name, (flag, opts) in CONFIG_FLAGS.items():
        sp.add_argument(flag, dest=name, default=None, **opts)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, metavar="PATH")
    sp.set_defaults(func=cmd_init)

    sp = sub.add_parser("inspect", help="list tensors in a weight file")
    sp.add_argument("--weights", required=True, metavar="PATH")
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("embed", help="extract embeddings for a JSONL manifest")
    sp.add_argument("manifest")
    sp.add_argument("--weights", required=True, metavar="PATH")
    sp.add_argument("--out", required=True, metavar="DIR")
    sp.add_argument("--format", choices=["json", "bin"], default="json")
    sp.add_argument("--keep-going", action="store_true")
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("mel", help="dump the log-mel spectrogram as CSV")
    sp.add_argument("audio")
    sp.set_defaults(func=cmd_mel)

    sp = sub.add_parser("f0", help="dump the YIN F0 contour as CSV")
    sp.add_argument("audio")
    sp.set_defaults(func=cmd_f0)

    sp = sub.add_parser("simmatrix", help="cross-similarity matrix from an embedding index")
    sp.add_argument("index")
    sp.add_argument("--group-by", choices=["speaker", "language"], default=None)
    sp.add_argument("--out", required=True, metavar="PREFIX")
    sp.set_defaults(func=cmd_simmatrix)

    sp = sub.add_parser("abx", help="pick the candidate closest to a reference embedding")
    sp.add_argument("--reference", required=True, metavar="PATH")
    sp.add_argument("candidates", nargs="+")
    sp.set_defaults(func=cmd_abx)

    sp = sub.add_parser("selftest", help="gradchecks, DSP tone suite, serialization round trip")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weights", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 3
    except AgvError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 4


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
