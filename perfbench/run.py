"""The agvoice benchmark: one command per workload run.

Run from the repository root:

    python3 perfbench/run.py --workload embed-mixed-rate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The run
environment, the output checks and the trace report go to
`.perfbench_work/results/`. See perfbench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("embed-mixed-rate", "embed-long-native", "score-1k")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload at minimal size, traced and untraced; checks the schema")
    p.add_argument("--record-refs", action="store_true",
                   help="only write the seed's reference embeddings to perfbench/refs/, from this checkout's program")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def check_schema(line, spec, trace):
    """Problems with one result line against BENCHMARK.json ([] when it conforms)."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(line))
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1 or not isinstance(line.get("failed"), int):
        problems.append("attempted/failed must be whole numbers, attempted >= 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = line.get("metrics", {})
    if set(got) != set(wanted):
        problems.append("metric names differ: missing %s, extra %s" % (sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted))))
    for name, m in got.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) or m["unit"] != wanted.get(name):
            problems.append("metric %s: %s" % (name, m))
    return problems


def smoke(bench, workloads):
    """Run every workload at minimal size, untraced and traced; check the schema only."""
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOAD_NAMES):
        print("smoke: BENCHMARK.json workloads differ from %s" % (WORKLOAD_NAMES,))
        return 1
    failures = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            line, record = bench.run(workloads.small(workloads.WORKLOADS[name]), 0, 0.0, trace, smoke=True)
            problems = check_schema(json.loads(json.dumps(line)), spec, trace)
            if not line["correct"]:
                problems.append("output checks failed: %s" % record["problems"])
            if trace and record["trace_report"]["unmeasured"]:
                problems.append("unmeasured layers: %s" % record["trace_report"]["unmeasured"])
            print("smoke %s trace=%d: %s" % (name, trace, "; ".join(problems) or "ok"))
            failures += bool(problems)
    return 1 if failures else 0


def main(argv=None):
    args = parse_args(argv)
    # One BLAS thread in this process and every child it starts, so the
    # embed worker pool never oversubscribes the cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "agvoice" / "__init__.py").is_file():
        print("perfbench: no agvoice source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import workloads

    if args.smoke:
        return smoke(bench, workloads)
    if args.record_refs:
        bench.run(workloads.WORKLOADS[args.workload], args.seed, 0.0, 0, record_refs=True)
        return 0
    line, record = bench.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("embedding_check " + json.dumps(record["embedding_check"], sort_keys=True))
    if record["problems"]:
        print("problems " + json.dumps(record["problems"]))
    if record["trace_report"]:
        print("trace_report " + json.dumps(record["trace_report"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
