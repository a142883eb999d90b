"""Command-line front end.

Subcommands: init, inspect, embed, mel, f0, simmatrix, abx, selftest.
Exit codes: 0 success, 2 input error, 3 config/weight error, 4 internal
invariant violation. All randomness flows from --seed. Each cmd_* returns
(exit code, standard-output text, standard-error lines); `main` writes them.
"""

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import embedding
from .audio_io import CANONICAL_RATE, AudioBuffer, decode_wav, resample
from .config import MODES, SCALE_MODES, AggregationConfig, BackboneConfig, config_hash, configs_from_fields
from .errors import AgvError, ConfigError, DimMismatch, InputError, ShapeMismatch

# The model's modules (aggregation, backbone, dsp, nn, weights) are imported by the commands that
# run or load it: `simmatrix` and `abx` read embeddings with `embedding` and score them with
# `evaluation` alone.

MODE_FLAGS = {"+".join(("se",) + cues): mode for mode, cues in MODES.items()}
# The labels a manifest line gives an utterance and its index entry carries.
LABELS = ("utterance_id", "speaker_id", "language")
# --format -> (file extension, writer of the file's bytes). The writer looks up its function on the
# aggregation module `embed` passes it at call time, so a wrapper put there (perfbench's tracer) sees it.
FORMATS = {
    "json": (".json", lambda aggregation, e: aggregation.embedding_to_json(e).encode("utf-8")),
    "bin": (".emb", lambda aggregation, e: aggregation.embedding_to_bytes(e)),
}
# `embed` writes its index beside the embeddings under this name.
INDEX_FILE = "index.json"
M_ARENA_MAX = -8  # glibc's mallopt parameter number

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
    from . import weights

    store = weights.load(_read_bytes(path))
    bb, agg = weights.configs_from_dict(store.meta.get("config"))
    weights.check_params(store, bb, agg)
    return store, bb, agg


def _read_bytes(path):
    """The bytes of a file the user named; a failed read names `path`."""
    try:
        with open(path, "rb", buffering=0) as f:  # unbuffered: one read into bytes of the file's size
            return f.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror)) from None
    except ValueError as e:  # a NUL in the path
        raise InputError("cannot read %s: %s" % (path, e)) from None


def _atomic_write(path, data):
    """Write `data` to `path` through a temp file beside it, with the mode a plain open() gives
    (0o666 less the umask); a failed write names `path`, not the temp file.

    `data` is bytes, or a function that writes them to the open binary file:
    then the file is renamed to `path` only once the function has returned.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), "tmp%s" % os.urandom(8).hex())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                if callable(data):
                    data(f)
                else:
                    f.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise InputError("cannot write %s: %s" % (path, e.strerror)) from None


def _read_audio(path):
    return decode_wav(_read_bytes(path))


def _string_fields(obj, keys, where):
    """`obj` if it is a JSON object whose `keys` are strings that UTF-8 can encode; `where` names it in errors."""
    if not isinstance(obj, dict):
        raise InputError("%s: not a JSON object" % where)
    for key in keys:
        if not isinstance(obj.get(key), str):
            raise InputError("%s: %r is missing or not a string" % (where, key))
        try:
            obj[key].encode("utf-8")
        except UnicodeEncodeError:
            raise InputError("%s: %r is not valid UTF-8 (lone surrogate)" % (where, key)) from None
    return obj


def _manifest_record(line, lineno):
    """One manifest line as a record of string fields; `utterance_id` names a file in --out."""
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
        raise InputError("manifest line %d: %s" % (lineno, e)) from None
    if isinstance(rec, dict):
        rec.setdefault("language", "")
    _string_fields(rec, ("path", *LABELS), "manifest line %d" % lineno)
    if "\0" in rec["path"]:
        raise InputError("manifest line %d: path holds a NUL character" % lineno)
    uid = rec["utterance_id"]
    if uid in ("", ".", "..") or "/" in uid or "\\" in uid or "\0" in uid:
        raise InputError("manifest line %d: utterance_id %r is not a plain file name" % (lineno, uid))
    return rec


def _read_manifest(path):
    records = []
    base = os.path.dirname(os.path.abspath(path))
    for lineno, raw in enumerate(_read_bytes(path).splitlines(), 1):
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
    from . import weights

    bb, agg = configs_from_fields(_given_fields(args))
    store = weights.init_params(bb, agg, args.seed)
    _atomic_write(args.out, weights.save(store))
    return 0, "wrote %s (%d tensors, seed %d)\n" % (args.out, len(store.entries), args.seed), []


def cmd_inspect(args):
    from . import weights

    store = weights.load(_read_bytes(args.weights))
    lines = ["seed=%s config_digest=%s\n" % (store.meta.get("seed"), store.meta.get("config_digest"))]
    for name in store.names():
        t = store.entries[name].astype(np.float64)  # the statistics of the float64 values the kernels see
        lines.append(
            "%-44s %-14s min=%+.6g max=%+.6g mean=%+.6g\n"
            % (name, "x".join(map(str, t.shape)), t.min(), t.max(), t.mean())
        )
    return 0, "".join(lines), []


def _glibc_malloc():
    """glibc's (malloc_trim, mallopt), or (None, None) where the C library is not glibc."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        trim, opt = libc.malloc_trim, libc.mallopt
        trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
        opt.argtypes, opt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    except (AttributeError, OSError, TypeError):  # not glibc
        return None, None
    return trim, opt


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
    # imported here, not at module level: no other command starts threads or tunes malloc
    from concurrent.futures import ThreadPoolExecutor

    from . import aggregation

    malloc_trim, mallopt = _glibc_malloc()
    n_workers = _num_threads()
    store, bb, agg = _load_model(args.weights)
    records = _read_manifest(args.manifest)
    ext, serialize = FORMATS[args.format]
    for rec in records:
        if rec["utterance_id"] + ext == INDEX_FILE:
            raise InputError("utterance_id %r would be written over the index, %s" % (rec["utterance_id"], INDEX_FILE))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise InputError("cannot write %s: %s" % (args.out, e.strerror)) from None

    def one(rec):
        """Write one utterance's file; under --keep-going a failure comes back as its message."""
        try:
            # the decoded samples are freed when front_end returns, not held
            # by this frame through the backbone
            mel, contour = aggregation.front_end(_read_audio(rec["path"]), agg)
            emb = aggregation.embed_features(mel, contour, store, bb, agg)
            # NaN fails the test too; the files store float32
            if not (np.abs(emb.vector) <= np.finfo(np.float32).max).all():
                raise ConfigError("embedding of %s is not finite in float32; the weights overflow" % rec["utterance_id"])
            _atomic_write(os.path.join(args.out, rec["utterance_id"] + ext), serialize(aggregation, emb))
        except AgvError as e:
            if not args.keep_going:
                raise
            return str(e)
        finally:
            # glibc keeps the heap pages an utterance frees, and how it left
            # them decides how many new pages the next one touches: two 60 s
            # clips at C=512 peaked at 184 or 220 MB RSS with the same arrays,
            # allocated in a different order. Handing the free pages back
            # starts each utterance from the same heap.
            if malloc_trim is not None:
                malloc_trim(0)
        return None

    # Pool threads allocate from glibc's main heap, which malloc_trim hands
    # back whole; a thread's own heap keeps its freed top resident. Two 60 s
    # clips at C=512 peaked at 185 MB in a thread heap, moving by 15 MB with
    # the order of unrelated allocations, and at 159 MB in the main heap.
    # It must be set before the pool's threads first allocate.
    if mallopt is not None:
        mallopt(M_ARENA_MAX, 1)
    # One outcome per manifest line, in order. A raised failure stops the loop,
    # and Executor.map cancels every job that has not started.
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        outcomes = list(pool.map(one, records))
    entries = [
        {**{key: rec[key] for key in LABELS}, "file": rec["utterance_id"] + ext}
        for rec, err in zip(records, outcomes)
        if err is None
    ]
    index = {
        "config_hash": config_hash(bb, agg),
        "mode": agg.mode,
        "d": agg.d_model,
        "format": args.format,
        "entries": entries,
    }
    _atomic_write(os.path.join(args.out, INDEX_FILE), json.dumps(index, indent=2, sort_keys=True).encode("utf-8"))
    skips = ["SKIP %s: %s" % (rec["utterance_id"], err) for rec, err in zip(records, outcomes) if err is not None]
    return 0, "embedded %d/%d utterances -> %s\n" % (len(entries), len(records), args.out), skips


def cmd_mel(args):
    from . import dsp

    mel = dsp.mel_spectrogram(resample(_read_audio(args.audio), CANONICAL_RATE))
    return 0, dsp.mel_to_csv(mel), []


def cmd_f0(args):
    from . import dsp

    contour = dsp.yin_f0(resample(_read_audio(args.audio), CANONICAL_RATE))
    return 0, dsp.f0_to_csv(contour), []


def _one_model(named_hashes):
    """Refuse (name, config_hash) pairs whose non-empty hashes differ: cosines across configs mean nothing.

    `.emb` files carry no hash, so they are never refused. The hash is of the config alone, so
    embeddings of two weight files of one config (two seeds) are not told apart.
    """
    known = [(name, h) for name, h in named_hashes if h]
    for name, h in known[1:]:
        if h != known[0][1]:
            raise InputError("%s has config_hash %s, %s has %s: embeddings of different models" % (name, h, *known[0]))


def _read_embeddings(named_paths, d=None):
    """The embeddings in (name, path) pairs, at least one, as the rows of one float64 matrix, and the
    (name, config_hash) pair of each JSON file. A `.json` file is read as JSON and any other as
    binary, whose values are read in place and which carries no hash.

    Each file must hold `d` values, or as many as the first file when `d` is None. Every row is
    checked for finite values with all the others, once the matrix is full.
    """
    says = None if d is None else "index says %d" % d
    hashes, x = [], None
    for i, (name, path) in enumerate(named_paths):
        data = _read_bytes(path)
        try:
            if path.endswith(FORMATS["json"][0]):
                emb = embedding.embedding_from_json(data.decode("utf-8"))
                hashes.append((name, emb.config_hash))
                row = emb.vector
            else:
                row = embedding.binary_values(data)
        except (ShapeMismatch, ValueError) as e:
            raise InputError("bad embedding file %s: %s" % (path, e)) from None
        if len(row) < 1:
            raise InputError("embedding file %s holds no values (d=0)" % path)
        if d is None:
            d, says = len(row), "%s has d=%d" % (name, len(row))
        if len(row) != d:
            raise DimMismatch("embedding %s has d=%d, %s" % (name, len(row), says))
        if x is None:  # allocated once a file has matched d: an index's d alone could ask for any amount
            x = np.empty((len(named_paths), d))
        x[i] = row
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise InputError("embedding file %s holds non-finite values" % named_paths[int(np.argmin(finite))][1])
    return x, hashes


def _load_index_embeddings(index_path):
    """The entries of an index, each checked, and their embeddings as the rows of one matrix."""
    try:
        index = json.loads(_read_bytes(index_path).decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise InputError("cannot read index %s: %s" % (index_path, e)) from None
    if not isinstance(index, dict) or not isinstance(index.get("entries"), list):
        raise InputError("index has no entries list")
    if isinstance(index.get("d"), bool) or not isinstance(index.get("d"), int):
        raise InputError("index has no integer d")
    index_hash = index.get("config_hash", "")
    if not isinstance(index_hash, str):
        raise InputError("index config_hash is not a string")
    entries = [_string_fields(e, ("file", *LABELS), "index entry %d" % i) for i, e in enumerate(index["entries"], 1)]
    if len(entries) < 2:
        raise InputError("need at least 2 embeddings")
    base = os.path.dirname(os.path.abspath(index_path))
    x, hashes = _read_embeddings([(e["file"], os.path.join(base, e["file"])) for e in entries], index["d"])
    _one_model([("the index", index_hash), *hashes])
    return entries, x


def _pooled_matrix(entries, x, key):
    """Cosine matrix between per-group means of the rows of `x`, groups by `entry[key]`, sorted."""
    from . import evaluation

    groups = {}
    for i, entry in enumerate(entries):
        groups.setdefault(entry[key], []).append(i)
    labels = sorted(groups)
    means = [x[groups[label]].mean(axis=0) for label in labels]
    return evaluation.cross_similarity(means, means, labels, labels)


def cmd_simmatrix(args):
    from . import evaluation

    entries, x = _load_index_embeddings(args.index)
    key = {"speaker": "speaker_id", "language": "language"}.get(args.group_by)
    # dominance needs one column per group: pool by speaker when not grouped
    pooled = _pooled_matrix(entries, x, key or "speaker_id")
    labels = [entry["utterance_id"] for entry in entries]
    matrix = pooled if key else evaluation.cosine_rows(x, x, labels, labels)
    dom = evaluation.diagonal_dominance(pooled)
    csv_path = args.out + ".csv"

    def one_pass(f, pgm):
        # each block of the matrix is computed once and written to both temp files: neither the N×N
        # matrix nor its bytes are held whole. A failed write in the pass names the CSV, which takes
        # over nine tenths of its bytes; the PGM's own temp file names the PGM.
        try:
            evaluation.matrix_to_csv(matrix, f, pgm)
        except OSError as e:
            raise InputError("cannot write %s: %s" % (csv_path, e.strerror)) from None

    _atomic_write(csv_path, lambda f: _atomic_write(args.out + ".pgm", lambda pgm: one_pass(f, pgm)))
    return 0, "diagonal_dominance %.6g\n" % dom, []


def cmd_abx(args):
    from . import evaluation

    paths = [args.reference, *args.candidates]
    x, hashes = _read_embeddings(list(zip(paths, paths)))
    _one_model(hashes)
    idx = evaluation.abx_select(x[0], x[1:])
    stem = os.path.basename(args.candidates[idx])
    return 0, (stem[: stem.rfind(".")] if "." in stem else stem) + "\n", []


def _selftest_gradchecks(rng):
    """Worst relative gradcheck error of attention_backward over three attention draws."""
    from .nn import attention_backward, gradcheck, scaled_dot_attention

    def f(xs):
        return float(scaled_dot_attention(*xs).output.sum())

    def g(xs):
        tr = scaled_dot_attention(*xs)
        return list(attention_backward(tr, *xs, np.ones_like(tr.output)))

    draws = [[rng.standard_normal(shape) for shape in ((3, 5), (4, 5), (4, 5))] for _ in range(3)]
    # A near-zero gradient entry is compared against central-difference
    # roundoff, which scales with |f|, so the floor does too.
    return max(gradcheck(f, g, xs, abs_floor=max(1e-8, 1e-4 * (1.0 + abs(f(xs))))) for xs in draws)


def _selftest_pooled_gap(rng):
    """Largest |pooled stage - time-mean of the full stage's rows| over both scale modes, T spanning two blocks."""
    from . import aggregation

    d, t = 8, aggregation.ATTENTION_ROWS + 3
    params = {w + n: rng.standard_normal((d, d) if w == "w" else d) * 0.4 for n in "qkv" for w in "wb"}
    hq, hkv = rng.standard_normal((t, d)), rng.standard_normal((t, d))
    gaps = []
    for mode in SCALE_MODES:
        full, _ = aggregation.cross_attention_stage(hq, hkv, params, mode)
        pooled, _ = aggregation.cross_attention_stage(hq, hkv, params, mode, pooled=True)
        gaps.append(np.max(np.abs(pooled - full.mean(axis=0))))
    return float(max(gaps))


def cmd_selftest(args):
    from . import dsp, weights

    failures, report = [], []
    rng = np.random.default_rng(args.seed)

    worst_grad = _selftest_gradchecks(rng)
    report.append("gradcheck worst relative error: %.3g" % worst_grad)
    if worst_grad >= 1e-6:
        failures.append("gradcheck")

    pooled_gap = _selftest_pooled_gap(rng)
    report.append("pooled stage vs mean of full rows: max abs diff %.3g" % pooled_gap)
    if not pooled_gap < 1e-12:
        failures.append("pooled stage")

    # DSP tone suite
    t = np.arange(CANONICAL_RATE) / CANONICAL_RATE
    for freq in (110.0, 220.0, 440.0):
        buf = AudioBuffer(0.5 * np.sin(2 * np.pi * freq * t), CANONICAL_RATE)
        c = dsp.yin_f0(buf)
        interior = slice(1, len(c) - 1)
        ok = np.abs(c.f0_hz[interior] - freq) < 0.5
        frac = (ok & c.voiced[interior]).mean()
        report.append("yin %g Hz: %.1f%% frames within 0.5 Hz" % (freq, 100 * frac))
        if frac < 0.95:
            failures.append("yin %g" % freq)
    silence = dsp.yin_f0(AudioBuffer(np.zeros(CANONICAL_RATE // 4), CANONICAL_RATE))
    if silence.voiced.any():
        failures.append("silence voiced")
    else:
        report.append("silence: 100% unvoiced")

    # serialization round trip
    if args.weights:
        store, _, _ = _load_model(args.weights)  # raises ConfigError -> exit 3
        report.append("weight file ok: %d tensors" % len(store.entries))
    bb = BackboneConfig(channels=16, d_model=8)
    agg = AggregationConfig(mode="SE_F0_then_ME", n_tokens=2, heads=2, d_model=8)
    store = weights.init_params(bb, agg, args.seed)
    blob = weights.save(store)
    if weights.save(weights.load(blob)) != blob:
        failures.append("serialization round trip")
    else:
        report.append("serialization round trip: bit-exact")

    report.append("FAIL: " + ", ".join(failures) if failures else "PASS")
    return 4 if failures else 0, "\n".join(report) + "\n", []


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
    sp.add_argument("--format", choices=list(FORMATS), default="json")
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

    sp = sub.add_parser("selftest", help="attention gradcheck, pooled attention stage, DSP tone suite, serialization round trip")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weights", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_selftest)
    return p


def _write(stream, text):
    """Write `text` to a standard stream and flush it: None, or why the write failed."""
    try:
        if stream is None:  # the file descriptor was closed when the process started
            return os.strerror(errno.EBADF)
        stream.write(text)
        stream.flush()
    except OSError as e:
        return e.strerror
    except UnicodeEncodeError as e:  # text the stream's encoding cannot represent
        return str(e)
    return None


# The control characters, each as its escape: a message can quote a file name or a label that
# holds a newline or a NUL, and each standard-error line must stay one line.
_ESCAPES = {c: "\\x%02x" % c for c in (*range(0x20), 0x7F)}


def _stderr_text(lines):
    """Standard-error lines as the text to write, every control character in them escaped."""
    return "".join(line.translate(_ESCAPES) + "\n" for line in lines)


def main(argv=None) -> int:
    """Run a command and write the standard-output text and standard-error lines it returns: no
    command writes either stream (argparse writes its usage errors and help). Each standard-error
    line is written as one line, its control characters escaped. A failed write of either stream
    exits 2, standard output's with one `error:` line. An error line that standard error cannot
    take is dropped, and the exit code is kept."""
    args = build_parser().parse_args(argv)
    try:
        code, out, err = args.func(args)
    except (InputError, OSError) as e:
        code, out, err = 2, "", ["error: %s" % e]
    except ConfigError as e:
        code, out, err = 3, "", ["config error: %s" % e]
    except AgvError as e:
        code, out, err = 4, "", ["internal error: %s" % e]
    if err and _write(sys.stderr, _stderr_text(err)) and code == 0:  # embed's SKIP lines
        code = 2
    failed = _write(sys.stdout, out) if out else None
    if failed:
        code = 2
        _write(sys.stderr, _stderr_text(["error: cannot write standard output: %s" % failed]))
    return code


def entrypoint():
    """Run `main` as the process: the console script and `python -m agvoice.cli` come here.

    `main` has written and flushed all output when it returns, so the process ends with `os._exit`,
    which skips the interpreter's teardown (a last full collection over what numpy and agvoice
    leave tracked, then module teardown): 11-12 ms of an 88-123 ms `simmatrix` or `embed` call
    on a 2-core VM. A command that raises (argparse's usage errors, an uncaught exception) exits
    the normal way.

    Nothing after `main` runs, so the fast exit relies on two rules: whatever buffers output (a
    `logging` handler, a report file) is flushed or closed before `main` returns, and
    `entrypoint` is never called in-process (tests and the benchmark's tracer call `main`).
    """
    os._exit(main())


if __name__ == "__main__":
    entrypoint()
