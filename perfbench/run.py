"""End-to-end and per-layer benchmark for bipcore.

    python3 perfbench/run.py --workload {count,decay,sample,zeros,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` next to this
directory.  One client runs the workload's fixed op list in sequence (a
closed loop) and repeats it until the next pass would overrun ``--seconds``;
at least one pass always runs.  Each op runs in a forked child under an
address-space cap (see isolate.py), so an op that exhausts memory is recorded
as a failure with its exception type and time to failure and cannot disturb
later ops.  Every completed op is checked for a correct answer outside its
timed interval.

With ``--trace 0`` the end-to-end metrics are printed:

    setup_s      process start to inputs ready (import bipcore plus graph
                 generation), median of several fresh processes
    wall_s       wall time of one pass over the op list, failures included
                 at their time to failure; mean over passes
    cpu_s        process CPU time of the same pass; mean over passes
    peak_rss_mb  largest peak resident set of an op that completed; median
                 over passes
    ok_frac      ops that completed with a correct answer, over ops attempted

With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans around each layer's entry points (spans.py) and give the
per-layer metrics, plus ``trace.overhead_s`` (traced minus untraced wall
time of the ops that completed in both passes of a pair) and
``trace.unattributed_frac`` (share of traced wall time no span covers).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record with
a stamp (kernel backend, Python, nproc, cap, seed, commit), every op result
and, when traced, every span is written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# fork() is only safe in a parent without threads: keep numpy's BLAS pool
# from starting any before bipcore imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from isolate import run_op  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Address-space cap for every op.  Passing ops reserve at most about 320 MB
# (the two-thread zero probe: one malloc arena per thread) and single-threaded
# ones under 140 MB; the known failures need gigabytes and hit the cap after
# 6 to 9 s, depending on the host's load.
CAP_BYTES = 512 << 20
SETUP_SAMPLES = 9
# Ops of one workload run must end this long after their --seconds; an op
# still running then is killed and recorded as a failure, so that a run of
# 28 s always exits within 180 s.
OPS_GRACE_S = 115.0
WORKLOAD_NAMES = ("count", "decay", "sample", "zeros")


def units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to its inputs being
    ready, over SETUP_SAMPLES processes."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from bipcore import kernels

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cap_bytes": CAP_BYTES,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# Pass times are averaged, not their median taken: on a shared core the CPU
# runs at one of two speeds, switching within a second, so a run's mean
# tracks the share of slow time while a median over a few passes jumps
# between the two levels.  Measured on a 2-vCPU VM, 25 s windows of a fixed
# loop spread 0.14 (IQR over median) by their means and 0.27 by their medians.
def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _pass_wall(p: list) -> float:
    return sum(r.wall_s for r in p)


def end_to_end(passes: list[list], setup_s: float) -> dict[str, float]:
    """End-to-end metrics from untraced passes (lists of OpResult)."""
    rss = [max((r.peak_rss_mb for r in p if r.status != "raised"), default=0.0) for p in passes]
    ops = [r for p in passes for r in p]
    return {
        "setup_s": setup_s,
        "wall_s": _mean([_pass_wall(p) for p in passes]),
        "cpu_s": _mean([sum(r.cpu_s for r in p) for p in passes]),
        "peak_rss_mb": _median(rss),
        "ok_frac": sum(r.status == "ok" for r in ops) / len(ops),
    }


def workload_specific(passes: list[list]) -> dict[str, float]:
    """Metrics that apply to one workload only and read 0 on the others:
    count ops whose certified bound exceeds the requested eps, and completed
    draws per second spent building samplers and drawing."""
    eps_miss = [sum(bool(r.facts.get("eps_miss")) for r in p) / len(p) for p in passes]
    rates = []
    for p in passes:
        drawn = [r for r in p if "draws" in r.facts]
        busy = sum(r.wall_s for r in drawn)
        rates.append(sum(r.facts["draws"] for r in drawn) / busy if busy else 0.0)
    return {"counting.eps_miss_frac": _median(eps_miss), "sampler.draws_per_s": _mean(rates)}


def per_layer(passes: list[list], traced: list[list], setup_totals: dict) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of the span-derived
    values, plus the ones read from untraced passes."""
    per_pass = []
    for p in traced:
        totals = spans.merge(
            [spans.layer_totals(r.spans) for r in p] + [r.counters for r in p] + [setup_totals]
        )
        m = spans.layer_metrics(totals)
        wall = _pass_wall(p)
        covered = sum(spans.root_coverage(r.spans) for r in p)
        m["trace.unattributed_frac"] = 1.0 - covered / wall if wall else 0.0
        per_pass.append(m)
    out = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
    out["trace.overhead_s"] = tracing_overhead(passes, traced)
    out.update(workload_specific(passes))
    return out


def tracing_overhead(passes: list[list], traced: list[list]) -> float:
    """Traced minus untraced wall time per pass, summed over the ops that
    completed in both passes of a pair and averaged over pairs.  Ops that
    fail on the memory cap are left out: their time to failure moves with
    the host's load by more than tracing costs."""
    diffs = []
    for plain, rec in zip(passes, traced):
        diffs.append(sum(t.wall_s - u.wall_s for u, t in zip(plain, rec)
                         if u.status == t.status == "ok"))
    return _mean(diffs)


# ---------------------------------------------------------------------------
# running


def run_pass(ops: list, trace: bool, deadline: float) -> list:
    sys.stdout.flush()
    return [
        run_op(op.name, op.run, op.check, CAP_BYTES, trace=trace,
               timeout=max(deadline - time.monotonic(), 1.0))
        for op in ops
    ]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # imports bipcore, so only once SRC is on the path

    setup_s = 0.0 if trace else measure_setup(workload, seed)
    # inputs are built once, in this process; traced, that is graph.build_s
    recorder = spans.Recorder()
    if trace:
        recorder.install()
    try:
        ops = workloads.build(workload, seed)
    finally:
        recorder.uninstall()
    setup_spans = recorder.spans

    passes: list[list] = []
    traced: list[list] = []
    deadline = time.monotonic() + seconds + OPS_GRACE_S
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, False, deadline))
        if trace:
            traced.append(run_pass(ops, True, deadline))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break

    everything = [r for p in passes + traced for r in p]
    failures: dict[str, dict] = {}
    for r in everything:
        if r.status != "ok":
            f = failures.setdefault(
                r.name,
                {"op": r.name, "status": r.status, "error": r.error, "message": r.message,
                 "times_s": []},
            )
            f["times_s"].append(r.wall_s)
    if trace:
        metrics = per_layer(passes, traced, spans.layer_totals(setup_spans))
    else:
        metrics = end_to_end(passes, setup_s)
    unit = units(trace)
    result = {
        "correct": not any(r.status == "wrong" for r in everything),
        "attempted": len(everything),
        "failed": sum(r.status != "ok" for r in everything),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    record = {
        "stamp": stamp(workload, seed, seconds, trace),
        "result": result,
        "passes": len(passes),
        "failures": list(failures.values()),
        "ops": [
            [
                {k: getattr(r, k) for k in ("name", "status", "error", "message", "wall_s",
                                            "cpu_s", "peak_rss_mb", "facts")}
                for r in p
            ]
            for p in passes + traced
        ],
    }
    if trace:
        record["span_fields"] = ["name", "start", "end", "parent", "error", "value"]
        record["spans"] = {
            "setup": [list(s) for s in setup_spans],
            "passes": [[[list(s) for s in r.spans] for r in p] for p in traced],
        }
    write_record(record)
    report(record, passes, None if trace else workload_specific(passes))
    return result


def write_record(record: dict) -> None:
    st = record["stamp"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{st['workload']}-seed{st['seed']}-trace{st['trace']}.json.gz"
    with gzip.open(path, "wt") as f:
        json.dump(record, f)


def report(record: dict, passes: list[list], specific: dict | None) -> None:
    st = record["stamp"]
    print(f"== {st['workload']} (seed {st['seed']}, trace {st['trace']}, "
          f"{record['passes']} pass(es)) ==")
    print("stamp: " + json.dumps(st))
    for i, r in enumerate(passes[0]):
        walls = [p[i].wall_s for p in passes]
        status = r.status if r.status == "ok" else f"{r.status}:{r.error}"
        print(f"  {r.name:42s} {status:22s} wall {_median(walls):8.3f} s"
              f"  rss {r.peak_rss_mb:7.1f} MB")
    for f in record["failures"]:
        print(f"  failure: {f['op']}: {f['error'] or f['status']} after "
              f"{_median(f['times_s']):.3f} s ({len(f['times_s'])}x) {f['message']}")
    for k, m in record["result"]["metrics"].items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    if specific is not None:
        # the per-layer run reports these; shown here too, where they apply
        ops = [r for p in passes for r in p]
        print(f"  {'fail_frac':32s} {sum(r.status != 'ok' for r in ops) / len(ops):.6g} ratio")
        if any("eps_miss" in r.facts for r in ops):
            print(f"  {'eps_miss_frac':32s} {specific['counting.eps_miss_frac']:.6g} ratio")
        if any("draws" in r.facts for r in ops):
            print(f"  {'draws_per_s':32s} {specific['sampler.draws_per_s']:.6g} 1/s")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "bipcore" / "__init__.py").is_file():
        print(f"error: no bipcore package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # turn SIGTERM into an exception, so run_op kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
