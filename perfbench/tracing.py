"""Per-layer tracing of in-process `agvoice.cli.main` calls.

The tracer replaces module-level functions that the CLI and the pipeline
look up at call time (for example `agvoice.aggregation.resample`) with
wrappers that record a span: layer, thread, start, end and parent span.
Nothing under `src/` changes. A wrapped name that no longer exists is
reported as unmeasured instead of failing the run.

Attention levels are attributed by call order: the k-th attention stage
call within an utterance is level k, whatever the function is called.
"""

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, layer) for every timed span.
SPANS = [
    ("agvoice.cli", "_read_audio", "cli.embed.read"),
    ("agvoice.cli", "decode_wav", "audio_io.decode_wav"),
    ("agvoice.aggregation", "resample", "audio_io.resample"),
    ("agvoice.aggregation", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("agvoice.aggregation", "yin_f0", "dsp.yin_f0"),
    ("agvoice.aggregation", "backbone_forward", "backbone.backbone_forward"),
    ("agvoice.aggregation", "encode_f0", "aggregation.encode_f0"),
    ("agvoice.aggregation", "encode_mel", "aggregation.encode_mel"),
    ("agvoice.aggregation", "split_and_fuse", "aggregation.split_and_fuse"),
    ("agvoice.aggregation", "embedding_to_json", "aggregation.serialize"),
    ("agvoice.aggregation", "embedding_to_bytes", "aggregation.serialize"),
    ("agvoice.cli", "_atomic_write", "cli.write"),
    ("agvoice.weights", "load", "weights.load"),
    ("agvoice.weights", "check_params", "weights.check_params"),
    ("agvoice.evaluation", "cross_similarity", "evaluation.cross_similarity"),
    ("agvoice.evaluation", "matrix_to_csv", "evaluation.matrix_to_csv"),
    ("agvoice.evaluation", "matrix_to_pgm", "evaluation.matrix_to_pgm"),
    ("agvoice.evaluation", "diagonal_dominance", "evaluation.diagonal_dominance"),
    ("agvoice.aggregation", "embedding_from_bytes", "aggregation.embedding_from_bytes"),
]
# The first of these that exists is timed as the attention stage.
STAGE_CANDIDATES = [("agvoice.aggregation", "cross_attention_stage"), ("agvoice.aggregation", "scaled_dot_attention")]
STAGE = "aggregation.stage"
# Every binding of the attention kernel is counted, not timed, so that the
# T x T work stays in the self time of the level that asked for it.
ATTENTION_BINDINGS = [("agvoice.aggregation", "scaled_dot_attention"), ("agvoice.nn", "scaled_dot_attention")]
ATTENTION = "nn.attention"

# The read span only marks where an utterance starts; it is not a layer.
MARKER = "cli.embed.read"
UTT_ROOTS = (MARKER, "audio_io.decode_wav")
UTT_CLOSERS = ("cli.write", "aggregation.serialize")


def _frames(out):
    return {"frames": int(out.frames.shape[0])}


def _voiced(out):
    return {"voiced": float(np.mean(out.voiced)) if len(out.voiced) else 0.0}


def _pairs(out):
    return {"pairs": int(out.values.size)}


EXTRAS = {"dsp.mel_spectrogram": _frames, "dsp.yin_f0": _voiced, "evaluation.cross_similarity": _pairs}


class Span:
    __slots__ = ("layer", "thread", "t0", "t1", "parent", "extra")

    def __init__(self, layer, parent):
        self.layer, self.thread, self.parent, self.extra = layer, threading.get_ident(), parent, {}

    @property
    def ms(self):
        return 1e3 * (self.t1 - self.t0)


class Tracer:
    """Patches the layer functions while installed; keeps spans in memory."""

    def __init__(self):
        self.spans = []
        self.attention = []  # (Tq, Tk) per kernel call
        self.measured = set()
        self._local = threading.local()
        self._patches = []

    def _span_wrapper(self, layer, fn):
        spans, local, extra = self.spans, self._local, EXTRAS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(layer, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if extra is not None:
                try:
                    span.extra = extra(out)
                except (AttributeError, TypeError, ValueError):
                    pass  # the result changed shape; the count is left out
            return out

        return wrapper

    def _count_wrapper(self, layer, fn):
        calls = self.attention

        @functools.wraps(fn)
        def wrapper(q, k, *args, **kwargs):
            calls.append((np.shape(q)[0], np.shape(k)[0]))
            return fn(q, k, *args, **kwargs)

        return wrapper

    def _patch(self, module_name, attr, layer, make):
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            return False
        setattr(module, attr, make(layer, fn))
        self._patches.append((module, attr, fn))
        self.measured.add(layer)
        return True

    def install(self):
        for module_name, attr in ATTENTION_BINDINGS:
            self._patch(module_name, attr, ATTENTION, self._count_wrapper)
        for module_name, attr in STAGE_CANDIDATES:
            if self._patch(module_name, attr, STAGE, self._span_wrapper):
                break
        for module_name, attr, layer in SPANS:
            self._patch(module_name, attr, layer, self._span_wrapper)

    def uninstall(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def unmeasured():
    """Layers whose wrapped names are missing from the program."""
    probe = Tracer()
    probe.install()
    probe.uninstall()
    layers = {ATTENTION, STAGE} | {layer for _, _, layer in SPANS}
    return sorted(layers - probe.measured)


def _layer_parent(span):
    p = span.parent
    while p is not None and p.layer == MARKER:
        p = p.parent
    return p


def utterances(spans):
    """Group the spans of one embed call by utterance.

    Per thread, an utterance starts at a top-level read (or decode) span
    and ends with the first top-level write (or serialize) span after it.
    Returns dicts with the utterance's wall span and its spans.
    """
    layers = {s.layer for s in spans}
    root = next((name for name in UTT_ROOTS if name in layers), None)
    closer = next((name for name in UTT_CLOSERS if name in layers), None)
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s.thread].append(s)
    utts = []
    for thread_spans in by_thread.values():
        current = None
        for s in sorted(thread_spans, key=lambda s: s.t0):
            top = s.parent is None
            if top and s.layer == root:
                current = {"t0": s.t0, "t1": s.t1, "spans": [s]}
                utts.append(current)
            elif current is not None:
                current["spans"].append(s)
                current["t1"] = max(current["t1"], s.t1)
                if top and s.layer == closer:
                    current = None
    return utts


def _level_names(utts):
    """id(stage span) -> aggregation.level<k>, k counted within the utterance."""
    names = {}
    for utt in utts:
        stages = sorted((s for s in utt["spans"] if s.layer == STAGE), key=lambda s: s.t0)
        names.update({id(s): "aggregation.level%d" % (k + 1) for k, s in enumerate(stages)})
    return names


def self_ms(spans):
    """Total self time per layer: span time minus its child layer spans.

    `cli.embed.self` is utterance time outside every layer span.
    """
    utts = utterances(spans)
    names = _level_names(utts)
    children = defaultdict(float)
    for s in spans:
        p = _layer_parent(s)
        if p is not None and s.layer != MARKER:
            children[id(p)] += s.ms
    totals = defaultdict(float)
    for s in spans:
        if s.layer != MARKER:
            totals[names.get(id(s), s.layer)] += s.ms - children[id(s)]
    for rec in _utt_records(utts, names):
        totals["cli.embed.self"] += rec["cli.embed.self"]
    return dict(totals)


def _utt_records(utts, names):
    """Per utterance: layer -> ms, plus frames, voiced and the utterance's own figures."""
    records = []
    for utt in utts:
        rec = {}
        top = 0.0
        for s in utt["spans"]:
            if s.layer == MARKER:
                continue
            layer = names.get(id(s), s.layer)
            rec[layer] = rec.get(layer, 0.0) + s.ms
            if _layer_parent(s) is None:
                top += s.ms
            rec.update(s.extra)
        rec["cli.embed.utt"] = 1e3 * (utt["t1"] - utt["t0"])
        rec["cli.embed.self"] = rec["cli.embed.utt"] - top
        records.append(rec)
    return records


# metric stem -> layer key in the per-utterance records; each gives .p50, .p90, .n
PER_UTT = [
    ("audio_io.resample.ms_per_utt", "audio_io.resample"),
    ("audio_io.decode_wav.ms_per_utt", "audio_io.decode_wav"),
    ("dsp.mel_spectrogram.ms_per_utt", "dsp.mel_spectrogram"),
    ("dsp.yin_f0.ms_per_utt", "dsp.yin_f0"),
    ("backbone.backbone_forward.ms_per_utt", "backbone.backbone_forward"),
    ("aggregation.encode_f0.ms_per_utt", "aggregation.encode_f0"),
    ("aggregation.encode_mel.ms_per_utt", "aggregation.encode_mel"),
    ("aggregation.level1.ms_per_utt", "aggregation.level1"),
    ("aggregation.level2.ms_per_utt", "aggregation.level2"),
    ("aggregation.split_and_fuse.ms_per_utt", "aggregation.split_and_fuse"),
    ("aggregation.serialize.ms_per_utt", "aggregation.serialize"),
    ("cli.embed.write_ms_per_utt", "cli.write"),
    ("cli.embed.utt_ms", "cli.embed.utt"),
    ("cli.embed.self_ms_per_utt", "cli.embed.self"),
]

# (name, unit, better) of every per-layer metric the traced run prints.
METRICS = [
    (stem + suffix, unit, better)
    for stem, _ in PER_UTT
    for suffix, unit, better in ((".p50", "ms", "lower"), (".p90", "ms", "lower"), (".n", "count", "higher"))
] + [
    ("audio_io.resample.calls", "count", "lower"),
    ("audio_io.resample.resampled_frac", "ratio", "lower"),
    ("dsp.yin_f0.us_per_frame", "us", "lower"),
    ("dsp.frames_per_utt", "count", "lower"),
    ("dsp.voiced_frac", "ratio", "higher"),
    ("backbone.us_per_frame", "us", "lower"),
    ("nn.attention.calls", "count", "lower"),
    ("nn.attention.score_matrix_mb", "MB", "lower"),
    ("cli.embed.worker_busy_frac", "ratio", "higher"),
    ("weights.load.ms", "ms", "lower"),
    ("weights.check_params.ms", "ms", "lower"),
    ("evaluation.cross_similarity.ms", "ms", "lower"),
    ("evaluation.cross_similarity.pairs", "count", "lower"),
    ("evaluation.matrix_to_csv.ms", "ms", "lower"),
    ("evaluation.matrix_to_pgm.ms", "ms", "lower"),
    ("evaluation.diagonal_dominance.ms", "ms", "lower"),
    ("aggregation.embedding_from_bytes.ms_total", "ms", "lower"),
    ("aggregation.embedding_from_bytes.calls", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _total(tracer, layer, key=None):
    return sum(s.extra.get(key, 0) if key else s.ms for s in tracer.spans if s.layer == layer)


def median(values, empty=0.0):
    """The median of `values`, or `empty` when there are none."""
    return statistics.median(values) if len(values) else empty


def layer_metrics(iterations, workers, overhead_frac):
    """Per-layer metrics over traced iterations.

    Each iteration is a dict with the tracers of its three calls ("embed",
    "utterance", "speaker") and the wall seconds of its embed call
    ("embed_wall", 0 if the call failed its check). Per-utterance times
    pool every traced utterance; per-call figures are medians over
    iterations. Returns name -> value.
    """
    records = []
    per_call = defaultdict(list)
    for it in iterations:
        embed = it["embed"]
        utts = utterances(embed.spans)
        recs = _utt_records(utts, _level_names(utts))
        records += recs
        per_call["resample"].append(sum(1 for s in embed.spans if s.layer == "audio_io.resample"))
        per_call["attention"].append(len(embed.attention))
        if it["embed_wall"]:
            per_call["busy"].append(sum(r["cli.embed.utt"] for r in recs) / (1e3 * workers * it["embed_wall"]))
        per_call["load"].append(_total(embed, "weights.load"))
        per_call["check"].append(_total(embed, "weights.check_params"))
        sim = it["utterance"]
        for layer in ("evaluation.cross_similarity", "evaluation.matrix_to_csv", "evaluation.matrix_to_pgm",
                      "evaluation.diagonal_dominance"):
            per_call[layer].append(_total(sim, layer))
        per_call["pairs"].append(_total(sim, "evaluation.cross_similarity", "pairs"))
        reads = [s for t in (sim, it["speaker"]) for s in t.spans if s.layer == "aggregation.embedding_from_bytes"]
        per_call["from_bytes_ms"].append(sum(s.ms for s in reads))
        per_call["from_bytes_calls"].append(len(reads))

    out = {}
    for stem, key in PER_UTT:
        values = [r[key] for r in records if key in r]
        out[stem + ".p50"] = float(np.percentile(values, 50)) if values else 0.0
        out[stem + ".p90"] = float(np.percentile(values, 90)) if values else 0.0
        out[stem + ".n"] = len(values)
    yin_us = [1e3 * r["dsp.yin_f0"] / r["frames"] for r in records if "dsp.yin_f0" in r and r.get("frames")]
    bb_us = [1e3 * r["backbone.backbone_forward"] / r["frames"] for r in records
             if "backbone.backbone_forward" in r and r.get("frames")]
    all_attention = [a for it in iterations for a in it["embed"].attention]
    out.update({
        "audio_io.resample.calls": median(per_call["resample"]),
        "audio_io.resample.resampled_frac": (
            sum(1 for r in records if "audio_io.resample" in r) / len(records) if records else 0.0),
        "dsp.yin_f0.us_per_frame": median(yin_us),
        "dsp.frames_per_utt": median([r["frames"] for r in records if "frames" in r]),
        "dsp.voiced_frac": float(np.mean([r["voiced"] for r in records if "voiced" in r] or [0.0])),
        "backbone.us_per_frame": median(bb_us),
        "nn.attention.calls": median(per_call["attention"]),
        "nn.attention.score_matrix_mb": max((tq * tk * 8 / 1e6 for tq, tk in all_attention), default=0.0),
        "cli.embed.worker_busy_frac": median(per_call["busy"]),
        "weights.load.ms": median(per_call["load"]),
        "weights.check_params.ms": median(per_call["check"]),
        "evaluation.cross_similarity.ms": median(per_call["evaluation.cross_similarity"]),
        "evaluation.cross_similarity.pairs": median(per_call["pairs"]),
        "evaluation.matrix_to_csv.ms": median(per_call["evaluation.matrix_to_csv"]),
        "evaluation.matrix_to_pgm.ms": median(per_call["evaluation.matrix_to_pgm"]),
        "evaluation.diagonal_dominance.ms": median(per_call["evaluation.diagonal_dominance"]),
        "aggregation.embedding_from_bytes.ms_total": median(per_call["from_bytes_ms"]),
        "aggregation.embedding_from_bytes.calls": median(per_call["from_bytes_calls"]),
        "trace.overhead_frac": overhead_frac,
    })
    return out
