"""Smoke tests of the benchmark; they assert on no timing.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import base64
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from agvoice import aggregation, cli  # noqa: E402


def test_smoke_mode_checks_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok\n") == 2 * len(workloads.WORKLOADS), proc.stdout


def test_missing_wrapped_name_is_reported_unmeasured(monkeypatch):
    monkeypatch.delattr(cli, "_atomic_write")
    assert "cli.write" in tracing.unmeasured()


def test_levels_are_attributed_by_call_order_without_the_stage_function(monkeypatch):
    stage = aggregation.cross_attention_stage

    def level(h_query, h_kv, params, scale_mode="sqrt"):
        return stage(h_query, h_kv, params, scale_mode)[0]

    monkeypatch.setattr(aggregation, "level1_attention", level)
    monkeypatch.setattr(aggregation, "level2_attention", level)
    monkeypatch.delattr(aggregation, "cross_attention_stage")

    w = workloads.small(workloads.WORKLOADS["embed-long-native"])
    line, record = bench.run(w, 0, 0.0, True, smoke=True)
    assert line["correct"], record["problems"]
    assert record["trace_report"]["unmeasured"] == []
    metrics = line["metrics"]
    for k in (1, 2):
        assert metrics["aggregation.level%d.ms_per_utt.n" % k]["value"] == len(w.rates)
    assert metrics["nn.attention.calls"]["value"] > 0


def test_a_failed_launch_is_not_read_from_the_previous_result(tmp_path):
    child = bench.ChildCli(tmp_path, threads=1)
    ok = child.run([sys.executable, "-c", "print('hi')"])
    assert ok.code == 0 and ok.stdout == "hi\n"
    gone = child.run([str(tmp_path / "no-such-program")])
    assert gone.code == bench.LAUNCH_FAILED


def test_recorded_reference_comparison_reports_the_size_of_a_change(tmp_path):
    w = workloads.small(workloads.WORKLOADS["score-1k"])
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    records = workloads.write_manifest(w, 0, inputs)
    weights_path = inputs / "model.agvw"
    assert cli.main(["init", "--seed", "0", "--channels", str(w.channels), "--dmodel", str(workloads.D_MODEL),
                     "--out", str(weights_path)]) == 0
    refs = checks.reference_embeddings(records, inputs, weights_path, threads=1)
    out = tmp_path / "emb"
    assert cli.main(["embed", str(inputs / "manifest.jsonl"), "--weights", str(weights_path), "--out", str(out)]) == 0

    uid = records[0]["utterance_id"]
    values = checks.reference_values(refs[uid]).astype("<f4")
    values[5] += 0.25
    changed = dict(refs, **{uid: dict(refs[uid], sha256="0" * 64, f32le=base64.b64encode(values.tobytes()).decode())})
    n_ok, problems, diffs = checks.check_embed(out, refs, changed, workloads.D_MODEL)
    assert (n_ok, problems) == (len(records), [])
    assert checks.summarize(diffs["self"]) == {
        "compared": len(records), "identical": True, "max_abs_diff": 0.0, "within_tolerance": True}
    recorded = checks.summarize(diffs["recorded"])
    assert not recorded["identical"] and not recorded["within_tolerance"]
    assert abs(recorded["max_abs_diff"] - 0.25) < 1e-6


def test_an_unrecorded_seed_says_so():
    assert checks.load_recorded("score-1k", 10**9) is None
    inp = types.SimpleNamespace(recorded=None)
    assert bench.embedding_check(inp, [])["recorded"] == "no recorded reference"
