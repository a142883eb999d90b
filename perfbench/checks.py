"""Output checks for `agvoice embed` and `agvoice simmatrix`.

Every embedding is compared twice, with the same tolerance EMBED_ABS_TOL:

- with the reference the benchmark computes in-process for the run's seed
  (`extract_embedding` from the same checkout). This self-check gates the
  run: an utterance whose output is missing, not a finite d-vector, or off
  by more than the tolerance counts as failed.
- with the reference recorded under `refs/` for the workload and seed,
  computed by the program at the commit that recorded it. The comparison
  reports whether the bytes are identical and the largest absolute
  difference, so that a change of the embeddings shows with its size. It
  does not fail the run; a seed with no recorded file says so.

Similarity matrices are compared with a normalized-matmul recomputation
within SIM_ABS_TOL, and the printed diagonal dominance must equal the
recomputed one.
"""

import base64
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from agvoice import aggregation, weights
from agvoice.audio_io import decode_wav

EMBED_ABS_TOL = 1e-6  # the JSON output holds float32 values
SIM_ABS_TOL = 1e-9  # the CSV holds 9 significant digits of values in [-1, 1]
REFS_DIR = Path(__file__).resolve().parent / "refs"


def reference_embeddings(records, manifest_dir, weights_path, threads):
    """utterance_id -> reference of the embedding `agvoice embed` should write."""
    store = weights.load(weights_path)
    bb, agg = weights.configs_from_dict(store.meta["config"])

    def one(rec):
        with open(os.path.join(manifest_dir, rec["path"]), "rb") as f:
            buf = decode_wav(f.read())
        return aggregation.embedding_to_json(aggregation.extract_embedding(buf, store, bb, agg))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        texts = list(pool.map(one, records))
    return {rec["utterance_id"]: reference_of(text) for rec, text in zip(records, texts)}


def reference_of(text):
    """The compact reference of one embedding JSON text: its hash and its float32 values."""
    values = np.asarray(json.loads(text)["values"], dtype="<f4")
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "f32le": base64.b64encode(values.tobytes()).decode()}


def recorded_path(workload, seed):
    return REFS_DIR / ("%s-seed%d.json" % (workload, seed))


def write_recorded(workload, seed, refs):
    REFS_DIR.mkdir(exist_ok=True)
    with open(recorded_path(workload, seed), "w") as f:
        json.dump({"workload": workload, "seed": seed, "embeddings": refs}, f, indent=1, sort_keys=True)
        f.write("\n")


def load_recorded(workload, seed):
    """The recorded references of a workload and seed, or None if none are recorded."""
    try:
        with open(recorded_path(workload, seed)) as f:
            return json.load(f)["embeddings"]
    except FileNotFoundError:
        return None


def reference_values(ref):
    return np.frombuffer(base64.b64decode(ref["f32le"]), dtype="<f4").astype(np.float64)


def _compare(text, ref):
    """(bytes identical, largest absolute difference) of one output against its reference."""
    got = np.asarray(json.loads(text)["values"], dtype=np.float64)
    want = reference_values(ref)
    same = hashlib.sha256(text.encode()).hexdigest() == ref["sha256"]
    return same, float(np.max(np.abs(got - want))) if got.shape == want.shape else float("inf")


def check_embed(out_dir, refs, recorded, d=192):
    """Check one embed output against the self-check references.

    Returns the number of utterances that pass, the problems found, and
    (identical, diff) pairs per output utterance for the self-check and,
    when `recorded` is not None, for the recorded references.
    """
    problems, diffs = [], {"self": [], "recorded": []}
    try:
        with open(os.path.join(out_dir, "index.json"), encoding="utf-8") as f:
            entries = {e["utterance_id"]: e["file"] for e in json.load(f)["entries"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return 0, ["index.json: %s" % e], diffs
    n_ok = 0
    for uid, ref in refs.items():
        try:
            with open(os.path.join(out_dir, entries[uid]), encoding="utf-8") as f:
                text = f.read()
            got = np.asarray(json.loads(text)["values"], dtype=np.float64)
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append("%s: %s" % (uid, e))
            continue
        if got.shape != (d,) or not np.all(np.isfinite(got)):
            problems.append("%s: not a finite %d-d vector" % (uid, d))
            continue
        if recorded is not None:
            diffs["recorded"].append(_compare(text, recorded[uid]) if uid in recorded else (False, float("inf")))
        same, diff = _compare(text, ref)
        diffs["self"].append((same, diff))
        if diff > EMBED_ABS_TOL:
            problems.append("%s: differs from the self-check reference by %.3g" % (uid, diff))
            continue
        n_ok += 1
    return n_ok, problems, diffs


def summarize(pairs):
    """Whether every compared output was byte-identical, and the largest difference."""
    diff = max((d for _, d in pairs), default=None)
    return {"compared": len(pairs), "identical": bool(pairs) and all(s for s, _ in pairs), "max_abs_diff": diff,
            "within_tolerance": diff is not None and diff <= EMBED_ABS_TOL}


def read_emb_index(index_path):
    """Entries and float64 vectors of a `.emb` index, parsed without agvoice."""
    base = os.path.dirname(index_path)
    with open(index_path, encoding="utf-8") as f:
        entries = json.load(f)["entries"]
    vecs = []
    for e in entries:
        with open(os.path.join(base, e["file"]), "rb") as f:
            data = f.read()
        (d,) = np.frombuffer(data[8:12], dtype="<u4")
        vecs.append(np.frombuffer(data[12 : 12 + 4 * int(d)], dtype="<f4"))
    return entries, np.asarray(vecs, dtype=np.float64)


def _cosine_matrix(x):
    u = x / np.linalg.norm(x, axis=1, keepdims=True)
    return u @ u.T


def expected_similarity(entries, x):
    """Both simmatrix variants recomputed by normalized matmul.

    `entries` are index entries in index order and `x` their vectors.
    """
    speakers = sorted({e["speaker_id"] for e in entries})
    pooled = np.array([x[[e["speaker_id"] == s for e in entries]].mean(axis=0) for s in speakers])
    grouped = _cosine_matrix(pooled)
    dominance = float(np.mean(np.argmax(grouped, axis=1) == np.arange(len(speakers))))
    return {
        "utterance": ([e["utterance_id"] for e in entries], _cosine_matrix(x)),
        "speaker": (speakers, grouped),
        "dominance": dominance,
    }


def check_simmatrix(prefix, stdout, expected, variant):
    """Problems found in one simmatrix output ([] when it passes)."""
    labels, want = expected[variant]
    problems = []
    try:
        with open(prefix + ".csv", encoding="utf-8") as f:
            rows = [line.rstrip("\n").split(",") for line in f]
        with open(prefix + ".pgm", "rb") as f:
            pgm = f.read()
    except OSError as e:
        return ["cannot read output: %s" % e]
    if not rows or rows[0][1:] != labels or [r[0] for r in rows[1:]] != labels:
        return ["CSV labels differ from the index"]
    try:
        got = np.array([r[1:] for r in rows[1:]], dtype=np.float64)
    except ValueError as e:
        return ["CSV value: %s" % e]
    if got.shape != want.shape:
        return ["CSV shape %s, expected %s" % (got.shape, want.shape)]
    err = float(np.max(np.abs(got - want)))
    if not err <= SIM_ABS_TOL:
        problems.append("CSV differs from recomputation by %.3g" % err)
    n = len(labels)
    header = b"P5\n%d %d\n255\n" % (n, n)
    pix = np.clip(np.round((want + 1.0) * 127.5), 0, 255)
    if not pgm.startswith(header) or len(pgm) != len(header) + n * n:
        problems.append("PGM header or size wrong")
    elif np.max(np.abs(np.frombuffer(pgm[len(header) :], dtype=np.uint8) - pix.ravel())) > 1:
        problems.append("PGM pixels differ from recomputation")
    dom = [line.split()[1] for line in stdout.splitlines() if line.startswith("diagonal_dominance ")]
    if dom != ["%.6g" % expected["dominance"]]:
        problems.append("diagonal dominance %s, expected %.6g" % (dom, expected["dominance"]))
    return problems
