"""Smoke test of the benchmark itself at tiny sizes (kept out of tier-1).

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

It checks that every metric is emitted with its unit, that per-layer counts
repeat between two traced runs of one seed, that the correctness gate fails
on a corrupted golden digest, and that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5

# metric names and units the benchmark promises
END_TO_END = {"setup_s": "s", "wall_s": "s", "orders_per_s": "1/s", "peak_rss_mb": "MB",
              "failed_frac": "ratio"}
STREAM_ONLY = {"trials_per_s": "1/s", "guess_bits_per_s": "1/s"}
PER_LAYER = {
    "core.rng_for.calls": "count", "core.rng_for.self_s": "s",
    "extraction.empirical_bias.calls": "count", "extraction.empirical_bias.self_s": "s",
    "extraction.trials": "count", "extraction.no_bit": "count",
    "extraction.ns_per_trial": "ns",
    "guessing.guess_run.calls": "count", "guessing.guess_run.self_s": "s",
    "core.distinct_orderings.orders": "count", "core.distinct_orderings.self_s": "s",
    "knapsack.offline_opt_scaled.calls": "count", "knapsack.offline_opt_scaled.self_s": "s",
    "intervals.offline_opt_intervals.calls": "count",
    "intervals.offline_opt_intervals.self_s": "s",
    "throughput.offline_opt_throughput.calls": "count",
    "throughput.offline_opt_throughput.self_s": "s",
    "knapsack.opt_calls_per_instance": "ratio",
    "knapsack.rom.calls": "count", "knapsack.rom.self_s": "s",
    "intervals.rom.calls": "count", "intervals.rom.self_s": "s",
    "throughput.rom_simulation.calls": "count", "throughput.rom_simulation.self_s": "s",
    "throughput.is_normal.calls": "count", "throughput.is_normal.self_s": "s",
    "harness.audit_instance.self_s": "s", "harness.audit_instance.p50_ms": "ms",
    "harness.audit_instance.p99_ms": "ms",
    "harness.run_order.self_s": "s", "harness.run_experiment.self_s": "s",
    "harness.generate_instances.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}


def bench(workload, trace, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def result(workload, trace):
    """(result object, printed metric name -> unit) of one tiny run."""
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, unit = line.split()
            printed[name] = unit
    return json.loads(lines[-1]), printed


def spec_units(key):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def test_every_metric_emitted_with_its_unit():
    gated = {0: spec_units("end_to_end"), 1: spec_units("per_layer")}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res, printed = result(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            assert units == gated[trace], (workload, trace)
            promised = dict(PER_LAYER) if trace else dict(END_TO_END)
            if workload == "stream_mc" and not trace:
                promised.update(STREAM_ONLY)
            for name, unit in promised.items():
                assert printed.get(name) == unit, (workload, trace, name)
                assert gated[trace].get(name, unit) == unit, name


def test_counts_repeat_between_runs_of_one_seed():
    for workload in workloads.WORKLOADS:
        first = result(workload, 1)[0]["metrics"]
        proc = bench(workload, 1)
        assert proc.returncode == 0, proc.stderr
        second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        for name, m in first.items():
            if m["unit"] == "count":
                assert second[name]["value"] == m["value"], (workload, name)


def test_gate_fails_on_corrupted_digest():
    os.environ["ROMBIT_WORKERS"] = "1"
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.OUT, "work", "smoke")
    os.makedirs(workdir, exist_ok=True)
    _, mods, sets = run.setup("exact_audit", SEED, "tiny", workdir)
    golden = run.load_golden()
    cmd = sets[0][0]
    _, problems, _ = run.execute(mods["cli"].main, cmd, golden)
    assert problems == []
    corrupted = dict(golden)
    corrupted[cmd.golden_key] = "0" * 64
    _, problems, _ = run.execute(mods["cli"].main, cmd, corrupted)
    assert any("digest differs" in p for p in problems), problems


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("stream_mc", 0, os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
