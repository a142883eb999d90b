"""The benchmark engine: set up a workload, measure it, check it, report.

An untraced run (`trace=False`) runs the CLI as a child process, the way
a user does, and gives the end-to-end metrics. A traced run calls
`agvoice.cli.main` in-process with the layer wrappers of `tracing`
installed and gives the per-layer metrics; it alternates untraced and
traced iterations to measure the tracing overhead.

Import this module only after the BLAS thread count is pinned in the
environment and `src/` is on sys.path (run.py does both).
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import agvoice
import checks
import tracing
import workloads
from tracing import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CHILD_TIMEOUT_S = 150
REPEAT_BUDGET_S = 1.0
MAX_REPEATS = 5
MIN_ITERATIONS = 3  # so that every call's median has at least three samples
SETUP_REPEATS = 3
LAUNCH_FAILED = -1

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
from agvoice import weights
store = weights.load(sys.argv[1])
bb, agg = weights.configs_from_dict(store.meta["config"])
weights.check_params(store, bb, agg)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "embed_utt_per_s": "utt/s",
    "embed_rtf": "s/s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
    "simmatrix_s": "s",
    "simmatrix_grouped_s": "s",
}


@dataclasses.dataclass
class Outcome:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


class ChildCli:
    """Runs `python -m agvoice.cli` from the checkout's source."""

    def __init__(self, rundir, threads):
        self.rundir = rundir
        self.env = dict(os.environ, PYTHONPATH=str(SRC), AGV_NUM_THREADS=str(threads))

    def __call__(self, argv, tag=None):
        return self.run([sys.executable, "-m", "agvoice.cli"] + [str(a) for a in argv])

    def run(self, cmd):
        """Run one child through the launcher; wall time from spawn to reap.

        If the launcher fails or writes no result, the call failed (code
        LAUNCH_FAILED) and its wall time is the launcher's own.
        """
        out_path, result_path = self.rundir / "child.out", self.rundir / "child.json"
        result_path.unlink(missing_ok=True)
        launcher = [sys.executable, str(LAUNCHER), str(result_path), str(CHILD_TIMEOUT_S)]
        t0 = time.perf_counter()
        with open(out_path, "wb") as out, open(self.rundir / "child.err", "wb") as err:
            proc = subprocess.Popen(launcher + cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT, start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S + 30)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        try:
            r = json.loads(result_path.read_text()) if proc.returncode == 0 else None
        except (OSError, ValueError):
            r = None
        if r is None:
            return Outcome(LAUNCH_FAILED, time.perf_counter() - t0, 0.0, out_path.read_text())
        return Outcome(r["code"], r["wall_s"], r["rss_mb"], out_path.read_text())


class InProcessCli:
    """Calls `agvoice.cli.main`; with tracers, each tag's call runs under its tracer."""

    def __init__(self, threads, tracers=None):
        self.threads = threads
        self.tracers = tracers or {}

    def __call__(self, argv, tag=None):
        from agvoice import cli

        out = io.StringIO()
        tracer = self.tracers.get(tag) or contextlib.nullcontext()
        saved = os.environ.get("AGV_NUM_THREADS")
        os.environ["AGV_NUM_THREADS"] = str(self.threads)
        try:
            with tracer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    code = cli.main([str(a) for a in argv])
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 2
                except Exception:  # a crash in the program is a failed call, as it is for a child
                    code = 1
                wall = time.perf_counter() - t0
        finally:
            if saved is None:
                del os.environ["AGV_NUM_THREADS"]
            else:
                os.environ["AGV_NUM_THREADS"] = saved
        return Outcome(code, wall, 0.0, out.getvalue())


@dataclasses.dataclass
class Inputs:
    workload: workloads.Workload
    dir: Path
    records: list
    weights: Path
    seed: int
    refs: dict  # utterance_id -> self-check reference (checks.reference_of)
    recorded: dict  # utterance_id -> recorded reference, or None if the seed has none
    expected: dict  # both simmatrix variants, recomputed
    index: Path = None  # prebuilt index, or None to score the embed output


def prepare(w, seed, rundir, cli):
    """Generate the seeded inputs and the reference outputs (untimed)."""
    indir = rundir / "inputs"
    indir.mkdir(parents=True)
    records = workloads.write_manifest(w, seed, indir)
    weights_path = indir / "model.agvw"
    init = cli(["init", "--seed", seed, "--channels", w.channels, "--dmodel", workloads.D_MODEL, "--out", weights_path])
    if init.code != 0:
        raise RuntimeError("agvoice init exited %d" % init.code)
    refs = checks.reference_embeddings(records, indir, weights_path, w.threads)
    # Recorded references belong to the full-size workloads only.
    recorded = checks.load_recorded(w.name, seed) if workloads.WORKLOADS.get(w.name) == w else None
    if not w.index_speakers:
        x = np.array([checks.reference_values(refs[r["utterance_id"]]) for r in records])
        return Inputs(w, indir, records, weights_path, seed, refs, recorded, checks.expected_similarity(records, x))
    index = Path(workloads.write_emb_index(w, seed, indir))
    expected = checks.expected_similarity(*checks.read_emb_index(str(index)))
    return Inputs(w, indir, records, weights_path, seed, refs, recorded, expected, index)


def setup_sample(cli, weights_path):
    """Seconds to import agvoice, load the weight file and check it, in a fresh child."""
    out = cli.run([sys.executable, "-c", SETUP_SNIPPET, str(weights_path)])
    if out.code != 0:
        raise RuntimeError("setup child exited %d" % out.code)
    return float(out.stdout.split()[-1])


def iteration(invoke, inp, itdir, budget_s):
    """One closed-loop pass: embed the manifest, then both simmatrix variants.

    Each call repeats until it has taken `budget_s` in this iteration (at
    most MAX_REPEATS times), so that short calls give more samples. Returns
    the walls of the calls that passed their checks, the peak RSS,
    attempted/failed counts and the embed comparisons (see checks.check_embed).
    """
    itdir.mkdir()
    emb_dir = itdir / "emb"
    res = {"walls": {}, "attempted": 0, "failed": 0, "problems": [], "rss_mb": 0.0,
           "diffs": {"self": [], "recorded": []}}
    index = inp.index or emb_dir / "index.json"
    calls = [("embed", ["embed", inp.dir / "manifest.jsonl", "--weights", inp.weights, "--out", emb_dir, "--keep-going"])]
    calls += [(variant, ["simmatrix", index, "--out", itdir / variant] + flags)
              for variant, flags in (("utterance", []), ("speaker", ["--group-by", "speaker"]))]
    for tag, argv in calls:
        walls = res["walls"][tag] = []
        spent, n = 0.0, 0
        while n < MAX_REPEATS and (n == 0 or spent < budget_s):
            if tag == "embed":
                shutil.rmtree(emb_dir, ignore_errors=True)
            else:
                for ext in (".csv", ".pgm"):
                    (itdir / (tag + ext)).unlink(missing_ok=True)
            out = invoke(argv, tag)
            spent, n = spent + out.wall_s, n + 1
            res["rss_mb"] = max(res["rss_mb"], out.rss_mb)
            if tag == "embed":
                res["attempted"] += len(inp.records)
                if out.code == 0:
                    n_ok, problems, diffs = checks.check_embed(emb_dir, inp.refs, inp.recorded, workloads.D_MODEL)
                    for kind in diffs:
                        res["diffs"][kind] += diffs[kind]
                else:
                    n_ok, problems = 0, ["exited %d" % out.code]
                failed = len(inp.records) - n_ok
            else:
                res["attempted"] += 1
                problems = checks.check_simmatrix(str(itdir / tag), out.stdout, inp.expected, tag) if out.code == 0 else [
                    "exited %d" % out.code]
                failed = int(bool(problems))
            res["failed"] += failed
            res["problems"] += ["%s: %s" % (tag, p) for p in problems]
            if not failed:
                walls.append(out.wall_s)
    shutil.rmtree(itdir, ignore_errors=True)
    return res


def _walls(results, call):
    return [t for r in results for t in r["walls"][call]]


def measured_loop(inp, rundir, seconds, smoke):
    """Child-process iterations until `seconds` have passed (at least
    MIN_ITERATIONS); end-to-end metrics. `smoke` runs every call once.

    Set-up is sampled SETUP_REPEATS times first and twice more in every
    iteration, so its median spans the whole run.
    """
    w = inp.workload
    cli = ChildCli(rundir, w.threads)
    setup = [setup_sample(cli, inp.weights) for _ in range(1 if smoke else SETUP_REPEATS)]
    results = []
    t0 = time.perf_counter()
    while len(results) < (1 if smoke else MIN_ITERATIONS) or time.perf_counter() - t0 < seconds:
        setup += [setup_sample(cli, inp.weights) for _ in range(0 if smoke else 2)]
        results.append(iteration(cli, inp, rundir / ("it%d" % len(results)), 0.0 if smoke else REPEAT_BUDGET_S))
    embed_walls = _walls(results, "embed")
    attempted = sum(r["attempted"] for r in results)
    metrics = {
        "setup_s": median(setup),
        "embed_utt_per_s": median([len(inp.records) / t for t in embed_walls], None),
        "embed_rtf": median([t / w.audio_s for t in embed_walls], None),
        "peak_rss_mb": median([r["rss_mb"] for r in results if r["rss_mb"]], None),
        "completed_frac": (attempted - sum(r["failed"] for r in results)) / attempted,
        "simmatrix_s": median(_walls(results, "utterance"), None),
        "simmatrix_grouped_s": median(_walls(results, "speaker"), None),
    }
    return metrics, results


def traced_loop(inp, rundir, seconds):
    """Alternate untraced and traced in-process iterations; per-layer metrics."""
    w = inp.workload
    untraced, traced, results, iterations = [], [], [], []
    t0 = time.perf_counter()
    while not iterations or time.perf_counter() - t0 < seconds:
        tracers = {tag: tracing.Tracer() for tag in ("embed", "utterance", "speaker")}
        for tag_tracers, walls in ((None, untraced), (tracers, traced)):
            itdir = rundir / ("it%d-%d" % (len(iterations), len(walls)))
            res = iteration(InProcessCli(w.threads, tag_tracers), inp, itdir, budget_s=0.0)
            results.append(res)
            walls.append(sum(sum(v) for v in res["walls"].values()))
        iterations.append(dict(tracers, embed_wall=median(res["walls"]["embed"])))
    overhead = median(traced) / median(untraced) - 1.0
    metrics = tracing.layer_metrics(iterations, w.threads, overhead)
    report = {
        "unmeasured": tracing.unmeasured(),
        "embed_self_ms": tracing.self_ms([s for it in iterations for s in it["embed"].spans]),
        "simmatrix_self_ms": tracing.self_ms([s for it in iterations for s in it["utterance"].spans]),
    }
    return metrics, results, report


def environment(w, seed, trace, seconds):
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        openblas = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "agvoice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "agv_num_threads": w.threads,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "agvoice": agvoice.__version__,
    }


def embedding_check(inp, results):
    """The self-check and the recorded-reference comparison over every embed call of the run."""
    pairs = {kind: [p for r in results for p in r["diffs"][kind]] for kind in ("self", "recorded")}
    if inp.recorded is None:
        recorded = "no recorded reference"
    else:
        path = checks.recorded_path(inp.workload.name, inp.seed)
        recorded = dict(checks.summarize(pairs["recorded"]), file=str(path.relative_to(ROOT)))
    return {"tolerance": checks.EMBED_ABS_TOL, "self_check": checks.summarize(pairs["self"]), "recorded": recorded}


def run(w, seed, seconds, trace, smoke=False, record_refs=False):
    """Run one workload; returns (result line, full record).

    `smoke` makes every call once, for a schema check that asserts on no timing.
    `record_refs` only writes the seed's reference embeddings under refs/.
    """
    rundir = WORK / ("%s-seed%d-trace%d" % (w.name, seed, int(trace)))
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        inp = prepare(w, seed, rundir, ChildCli(rundir, w.threads))
        if record_refs:
            checks.write_recorded(w.name, seed, inp.refs)
            return None, None
        if trace:
            values, results, report = traced_loop(inp, rundir, seconds)
            units = {name: unit for name, unit, _ in tracing.METRICS}
        else:
            values, results = measured_loop(inp, rundir, seconds, smoke)
            report = None
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        # A metric with no passing sample is left out, so that the run fails the schema.
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()
                    if values[name] is not None},
    }
    record = {
        "environment": environment(w, seed, trace, seconds),
        "result": line,
        "embedding_check": embedding_check(inp, results),
        "problems": sorted({p for r in results for p in r["problems"]}),
        "walls": {call: _walls(results, call) for call in ("embed", "utterance", "speaker")},
        "trace_report": report,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / ("%s-seed%d-trace%d.json" % (w.name, seed, int(trace))), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return line, record
