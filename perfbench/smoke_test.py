#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. For each workload it runs perfbench/run.py
with --tiny, untraced and traced, and asserts that the last stdout line is
the JSON result with exactly the keys correct/attempted/failed/metrics,
that the run is correct, and that it emits exactly the metrics
BENCHMARK.json declares for the mode, each finite and with the declared
unit. It also asserts that every declared metric has a unit and a
direction, that the metrics the benchmark is specified to carry are all
declared, and that the runner fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# The benchmark's specified metric set: the end-to-end metrics, then the
# per-layer ones, named by simulator module.
REQUIRED = [
    "setup_s", "requests_per_host_s", "peak_rss_mib", "sim_speedup_vs_aurora",
    "sim_mem_reduction_pct", "sim_dram_mib_per_inf", "sim_inf_per_sim_s",
    "sim_latency_p50_ms", "sim_latency_p95_ms", "sim_sla_rate",
    "sim_drop_rate",
    "mapping.map_s", "sim.run_s.aurora", "sim.run_s.camdn_full",
    "eq.events", "eq.events_per_host_s",
    "cache.transparent_hit_rate", "cache.inter_task_evictions",
    "cache.region_fills", "cache.bypass_reads", "cache.multicast_combined",
    "cache.slice_busy_cycles",
    "dram.mib", "dram.row_hit_rate", "dram.bus_util", "dram.throttled",
    "runtime.page_wait_cycles", "runtime.page_timeouts",
    "runtime.lbm_downgrades", "runtime.queue_delay_p95_ms",
    "runtime.snapshot_bytes", "runtime.snapshot_codec_s",
    "adapt.epochs",
    "serve.placement_s", "serve.route_s", "serve.run_s", "serve.rounds",
    "serve.scale_events", "serve.migrated_requests",
    "host.sched_s", "host.dma_s", "host.cache_s", "host.dram_s",
    "host.layer_s", "host.other_s",
    "attr.queue_wait", "attr.page_wait", "attr.dma_stall",
    "attr.dram_contention", "attr.cache_penalty", "attr.compute",
    "obs.overhead_pct",
]


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True)


def check_declarations(bench):
    declared = {}
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            assert m["unit"], f"{m['name']} has no unit"
            assert m["better"] in ("higher", "lower"), \
                f"{m['name']} has no direction"
            assert m["name"] not in declared, f"{m['name']} declared twice"
            declared[m["name"]] = m
    missing = [n for n in REQUIRED if n not in declared]
    assert not missing, f"metrics not declared: {missing}"
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


def check_run(workload, trace, expected):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    what = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{what} exited {proc.returncode}:\n" \
                                 f"{proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    assert lines, f"{what} printed nothing"
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, f"{what}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, \
        f"{what} is not correct:\n{proc.stderr[-2000:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(expected), \
        f"{what}: emitted {sorted(set(metrics) ^ set(expected))} differ"
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"}, f"{what}: {name} keys {sorted(m)}"
        assert isinstance(m["value"], (int, float)) and \
            math.isfinite(m["value"]), f"{what}: {name} = {m['value']}"
        assert m["unit"] == expected[name]["unit"], \
            f"{what}: {name} unit {m['unit']} != {expected[name]['unit']}"
    assert any(line.startswith("stamp ") for line in lines), \
        f"{what}: no machine stamp"
    print(f"ok  {what}: {len(metrics)} metrics, "
          f"attempted {result['attempted']}")


def check_bare_directory(bench):
    """Without the simulator sources the runner must fail, printing no
    result."""
    bare = ROOT / ".bench_build" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(ROOT / p, bare / p)
    proc = run(bare, "--workload", bench["workloads"][0]["name"], "--seed",
               "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "runner succeeded without sources"
    assert '"correct"' not in proc.stdout, "runner printed a result"
    print("ok  bare directory: exit", proc.returncode, "and no result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declarations(bench)
    sections = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, declared in sections.items():
            check_run(w["name"], trace, {m["name"]: m for m in declared})
    check_bare_directory(bench)
    print("smoke test passed")


if __name__ == "__main__":
    main()
