#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke_test.py

Run from the root of a checkout (it builds through run.py). It checks that

* every workload runs in both trace modes, exits 0 and prints a result
  line whose metrics are exactly those BENCHMARK.json lists, each with
  its unit;
* every metric named in perfbench/README.md is printed with its unit;
* the 1-thread vs hardware-thread and traced vs untraced record checks
  ran and passed;
* a deliberately perturbed record is caught (exit 1, "correct": false);
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Takes about two minutes on four cores, most of it kappa_n training.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"
SEED = "5"

END_TO_END = {
    "episodes_per_min_1t": "episodes/min", "episodes_per_min_hw": "episodes/min",
    "step_latency_p50_us": "us", "step_latency_p99_us": "us",
    "setup_s": "s", "peak_rss_mb": "MiB", "failed_share": "share",
}
STEP_LAYERS = [
    "comm.pump", "filter.deliver", "sensing.sense", "filter.kalman_update",
    "filter.stage", "filter.kalman_predict", "filter.reach",
    "scenario.build", "sim.observe", "core.gate", "core.view", "nn.infer",
    "core.dispatch", "vehicle.advance",
]
EPISODE_LAYERS = ["sim.admit", "sim.finish", "eval.fold"]
PER_LAYER = {
    **{f"{l}_ns_per_step": "ns" for l in STEP_LAYERS},
    **{f"{l}_ns_per_episode": "ns" for l in EPISODE_LAYERS},
    **{f"{l}_share": "share" for l in STEP_LAYERS + EPISODE_LAYERS},
    "nn.infer_ns_per_row": "ns", "nn.rows_per_call": "count",
    "nn.rows_share": "share", "sim.resident_lanes": "count",
    "sim.scaling_efficiency": "share", "planners.train_s": "s",
    "core.emergency_share": "share",
    "core.ladder_transitions_per_episode": "count",
    "filter.message_reject_share": "share",
    "trace.unattributed_share": "share", "trace.overhead": "share",
}
SCENARIOS = ["left-turn", "lane-change", "intersection", "multi-vehicle"]
FAULTS = ["delay-jitter", "reorder-duplicate", "corruption", "blackout",
          "burst"]
CAMPAIGN_ONLY = {
    **{f"sim.{n}_ns_per_step": "ns" for n in SCENARIOS + FAULTS},
    **{f"sim.spans.{p}_share": "share" for p in
       ["pump", "deliver", "estimate", "reach_gate", "plan", "advance"]},
}

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def printed_metrics(stdout):
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            found[parts[1]] = parts[3]
    return found


def check_run(spec, workload, trace):
    tag = f"{workload} --trace {trace}"
    proc = run(["--workload", workload, "--seed", SEED, "--seconds", SECONDS,
                "--trace", str(trace)])
    expect(proc.returncode == 0, f"{tag}: exit 0 (got {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, f"{tag}: printed a result line")
        return
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{tag}: result keys")
    expect(result["correct"] is True, f"{tag}: correct")
    expect(result["attempted"] >= 1, f"{tag}: attempted >= 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expect(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
           f"{tag}: result holds exactly the listed metrics")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and
               isinstance(got.get("value"), (int, float)),
               f"{tag}: {m['name']} in {m['unit']}")
    printed = printed_metrics(proc.stdout)
    named = dict(PER_LAYER if trace else END_TO_END)
    if trace and workload == "fault_campaign":
        named.update(CAMPAIGN_ONLY)
    for name, unit in named.items():
        expect(printed.get(name) == unit, f"{tag}: prints {name} [{unit}]")
    checks = [l for l in lines if l.startswith("check ")]
    expect(any(l.startswith("check records_1t_vs_hw ok") for l in checks),
           f"{tag}: 1t vs hw records identical")
    if trace:
        expect(any(l.startswith("check records_traced_vs_untraced ok")
                   for l in checks),
               f"{tag}: traced vs untraced records identical")
    expect(any(l.startswith("manifest {") for l in lines),
           f"{tag}: manifest printed")


def check_perturbed():
    proc = run(["--workload", "fault_campaign", "--seed", SEED,
                "--seconds", SECONDS, "--trace", "0", "--perturb"])
    expect(proc.returncode == 1, f"perturbed: exit 1 (got {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(result.get("correct") is False, "perturbed: correct is false")
    expect(any(l.startswith("check records_1t_vs_hw FAILED") for l in lines),
           "perturbed: the 1t vs hw check names the altered record")


def check_bare_directory():
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "fault_campaign", "--seed", SEED,
                "--seconds", SECONDS, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "bare directory: non-zero exit")
    expect(not proc.stdout.strip(), "bare directory: no result printed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_perturbed()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
