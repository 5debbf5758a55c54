"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import isolate
import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports bipcore from src/)
from bipcore import sampler  # noqa: E402


def _span(name, start, end, parent=-1, error=None, value=None):
    return (name, float(start), float(end), parent, error, value)


def test_self_time_of_synthetic_tree():
    tree = [
        _span("a", 0, 10),  # 0: root
        _span("b", 1, 4, parent=0),  # 1
        _span("c", 3, 6, parent=0),  # 2: overlaps b, as on a second thread
        _span("d", 1, 2, parent=1),  # 3: grandchild, not a child of a
        _span("e", 9, 12, parent=0),  # 4: runs past its parent's end
        _span("f", 20, 21),  # 5: second root
    ]
    assert spans.self_times(tree) == [10 - 5 - 1, 3 - 1, 3, 1, 3, 1]
    assert spans.root_coverage(tree) == 11
    totals = spans.layer_totals(tree)
    assert totals["a.self_s"] == 4
    assert totals["b.s"] == 3 and totals["b.calls"] == 1


def test_layer_totals_counts_budget_failures_and_threads():
    tree = [
        _span("counting.approx_log_Z", 0, 10, value=15),
        _span("clusters.expand", 1, 4, parent=0, error="ClusterBudgetError"),
        _span("clusters.expand", 4, 9, parent=0, value=1000),
        _span("counting.zero_probe", 10, 12, value=1),
        _span("counting.zero_probe", 12, 13, value=2),
    ]
    m = spans.layer_metrics(spans.layer_totals(tree))
    assert m["clusters.expand_calls"] == 2
    assert m["clusters.useful_frac"] == 0.5
    assert m["clusters.wasted_s"] == 3
    assert m["counting.retries"] == 1
    assert m["clusters.clusters"] == 1000
    assert m["counting.self_s"] == 2
    assert m["counting.m_used"] == 15
    assert (m["counting.zero_probe_t1_s"], m["counting.zero_probe_t2_s"]) == (2, 1)


_CACHE: list = []


def _exhaust_memory():
    while True:
        _CACHE.append(bytearray(1 << 20))


def _cache_size():
    return len(_CACHE)


def _vm_size() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize in /proc/self/status")


def test_memory_error_is_a_failure_and_leaves_next_op_alone():
    cap = _vm_size() + (64 << 20)
    hog = isolate.run_op("hog", _exhaust_memory, lambda out: {}, cap)
    assert hog.status == "raised"
    assert hog.error == "MemoryError"
    assert hog.wall_s > 0
    after = isolate.run_op("after", _cache_size, lambda n: {"cache": n}, cap)
    assert after.status == "ok"
    assert after.facts == {"cache": 0}
    assert _CACHE == []


def test_wrong_answer_is_recorded_as_wrong():
    def check(out):
        raise isolate.CheckFailed(f"got {out}")

    res = isolate.run_op("wrong", lambda: 41, check, _vm_size() + (64 << 20))
    assert res.status == "wrong"
    assert res.message == "got 41"


def _op(ops: list, name: str):
    return next(op for op in ops if op.name == name)


def test_count_check_rejects_an_estimate_without_the_series():
    for op in workloads.count_ops(0):
        if "even_cycle(10)" in op.name:
            continue  # exhausts the memory cap
        res = op.run()
        op.check(res)
        no_series = dataclasses.replace(
            res, log_Z_estimate=res.log_Z_estimate - res.expansion.value
        )
        with pytest.raises(isolate.CheckFailed):
            op.check(no_series)


def test_decay_check_rejects_zeroed_cumulants():
    op = _op(workloads.decay_ops(0), "decay random_biregular(2,4,16) m=5")
    rows, qs = op.run()
    op.check((rows, qs))
    zeroed = [dataclasses.replace(q, value=0.0) for q in qs]
    with pytest.raises(isolate.CheckFailed):
        op.check((rows, zeroed))
    zeroed_rows = [dataclasses.replace(r, value=0.0) if r.kind == "cumulant" else r
                   for r in rows]
    with pytest.raises(isolate.CheckFailed):
        op.check((zeroed_rows, qs))


def test_tv_check_sees_a_sampler_that_places_no_polymers(monkeypatch):
    op = _op(workloads.sample_ops(0), "sample even_cycle(12) exact")
    op.check(op.run())

    def no_polymers(self, rng, trace=None):
        return sampler.PolymerConfig(chosen=(), decided_vertices=frozenset())

    monkeypatch.setattr(sampler.IndependentSetSampler, "sample_config", no_polymers)
    with pytest.raises(isolate.CheckFailed):
        op.check(op.run())


def test_tracing_overhead_pairs_ops_that_completed_in_both_passes():
    def res(wall, status="ok"):
        return isolate.OpResult("op", status, wall, wall, 1.0)

    plain = [[res(1.0), res(9.0, "raised")], [res(2.0), res(2.0)]]
    traced = [[res(1.5), res(7.0, "raised")], [res(2.25), res(2.5)]]
    assert run.tracing_overhead(plain, traced) == (0.5 + 0.75) / 2


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zeros", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert set(run.WORKLOAD_NAMES) == set(workloads.OP_LISTS) == names
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
