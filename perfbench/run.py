#!/usr/bin/env python3
"""End-to-end benchmark of cvsafe: builds the library and the benchmark
binary from the sources of this checkout, runs one workload and prints its
metrics.

    python3 perfbench/run.py --workload paper_left_turn --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a checkout. The build goes to .bench_build/cmake
(configured on first use, incremental afterwards); per-run scratch goes to
.bench_build/runs/<pid> and is removed when the run ends.

Output: the benchmark binary's manifest, metric and check lines, then,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics.

Exit status: 0 when every output check passed; 1 when a check failed (the
result line still prints, with "correct": false); 2 when the benchmark
could not build or run, in which case no result line is printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
# Compiler and library temporaries stay inside the checkout too.
TMPDIR = ROOT / ".bench_build" / "tmp"
EXE = BUILD / "cvsafe_perfbench"
RUN_TIMEOUT_S = 170

# Inputs of the measured program, hashed into the manifest so a result can
# be tied to the exact sources even outside a git checkout.
DIGEST_INPUTS = ("CMakeLists.txt", "include", "src", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("cvsafe sources are missing next to perfbench/; nothing to build")
    TMPDIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMPDIR)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "cvsafe_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_rev():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_INPUTS:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for path in files:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def parse_args(spec):
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="alter one record on purpose (the checks must fail)")
    return ap.parse_args()


def main():
    # A terminated run.py must not leave the build or the benchmark binary
    # running: as an exception, SIGTERM makes subprocess.run kill and reap
    # its child, and the finally below removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    spec = load_spec()
    args = parse_args(spec)
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be between 1 and 600")
    build()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".bench_build" / "runs" / str(os.getpid())
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--git-rev", git_rev(),
           "--source-digest", source_digest()]
    if args.perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if result is None or proc.returncode not in (0, 1):
        fail(f"cvsafe_perfbench exited with {proc.returncode} and no result")

    correct = result["correct"] and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} missing or not in "
                  f"{m['unit']}", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = got
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
