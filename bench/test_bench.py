"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import GATED  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden():
    return bench.load_golden()


def tiny_run(workload, trace, golden, seed=bench.DEFAULT_SEED):
    run = bench.Run(workload, seed, 0.0, trace, tiny=True, golden=golden)
    return run, run.result()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, golden):
    _, res = tiny_run(workload, trace, golden)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res) == {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(GATED)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tr.PER_LAYER)


def test_golden_check_rejects_a_wrong_cli_digest(golden):
    op = "check-ss --space line20"
    run = bench.Run("cli-small", bench.DEFAULT_SEED, 0.0, False, tiny=True, golden=golden)
    _, code, _, out, err = bench.run_child(
        [sys.executable, "-m", "scalekit.cli", *op.split(), "--json"], run.env, 60)
    assert bench.check_cli(op, code, out, err, run.seed, golden) is None
    wrong = copy.deepcopy(golden)
    wrong["cli"][op]["sha256"] = "0" * 64
    assert bench.check_cli(op, code, out, err, run.seed, wrong) == "output differs from golden"
    wrong["cli"][op] = dict(golden["cli"][op], exit=1)
    assert bench.check_cli(op, code, out, err, run.seed, wrong).startswith("exit 0")
    assert bench.check_cli(op, code, out, b"Traceback (most recent call last)",
                           run.seed, golden) == "traceback on stderr"


def test_golden_check_rejects_a_wrong_sweep_digest(golden):
    run = bench.Run("size-sweep", bench.DEFAULT_SEED, 0.0, False, tiny=True, golden=golden)
    done = run.sweep(trace=False)["passes"][0]
    assert bench.check_sweep(done, run.seed, golden) == {}
    key = next(k for k in done["digests"] if k.endswith("/check_ls_base"))
    wrong = copy.deepcopy(golden)
    wrong["sweep"][key] = "pass:0000000000000000"
    assert bench.check_sweep(done, run.seed, wrong) == {key: "digest differs from golden"}
    # at another seed the seeded calls are checked by shape only
    seeded = next(k for k in done["structural"])
    wrong["sweep"][key] = golden["sweep"][key]
    wrong["sweep"][seeded] = "pass:0000000000000000"
    assert bench.check_sweep(done, run.seed + 1, wrong) == {}
    assert bench.check_sweep(done, run.seed, wrong) == {seeded: "digest differs from golden"}


@pytest.mark.parametrize("workload", ["cli-small", "size-sweep"])
def test_span_self_times_and_remainder_add_up_to_the_wall_time(workload, golden):
    run, res = tiny_run(workload, True, golden)
    assert res["correct"]
    acc = tr.op_accounting(run.spans, run.walls)
    assert acc and {s[4] for s in run.spans} - {None} <= set(acc)
    assert all(st >= -1e-9 for st in tr.self_times(run.spans))
    for op, (self_sum, remainder, wall) in acc.items():
        assert remainder >= -1e-9, op
        assert self_sum + remainder == pytest.approx(wall, abs=1e-9)


def test_layer_metrics_count_errors_scans_and_hits():
    spans = [
        ["metric.mesh", 0.0, 1.0, -1, 0, None, False],
        ["metric.ball_cover", 0.1, 0.3, 0, 0, None, False],
        ["metric.ball_cover", 0.3, 0.5, 0, 0, None, False],
        ["scales.refines", 0.5, 0.6, 0, 0, 1, False],
        ["scales.refines", 0.6, 0.7, 0, 0, 0, False],
        ["duality.wright_c0_check", 2.0, 3.0, -1, 1, None, True],
        ["scales.Cover", 2.1, 2.2, 5, 1, 7, True],
    ]
    m = tr.layer_metrics(spans, cli_errors=1)
    assert m["metric.mesh.self_s"] == pytest.approx(0.4)
    assert m["metric.self_s"] == pytest.approx(0.8)
    assert m["metric.ball_cover.per_scan"] == 2
    assert m["scales.refines.hit_ratio"] == 0.5
    assert m["scales.Cover.points"] == 7
    # each error leaves its own layer: Cover into duality, the check to the top
    assert m["duality.errors"] == 1 and m["scales.errors"] == 1
    assert m["cli.errors"] == 1


def test_tail_percentile_keeps_ten_values_beyond():
    vals = [float(i) for i in range(40)]
    assert bench.tail_of(vals) == (29.0, 75.0, 10)
    assert bench.tail_of(vals[:8]) == (7.0, 100.0, 0)
