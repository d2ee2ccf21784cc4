#!/usr/bin/env python3
"""Benchmark entry point: builds the program, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  The first call configures and builds
perfbench/ (the simulator libraries plus the benchmark program) into
$CARGO_TARGET_DIR, default .bench_build; later calls only re-check the build.
The program (perfbench/bench_main.cpp) runs the workload as a closed loop for
--seconds and checks every collective; this script reduces its samples to the
metrics named in BENCHMARK.json: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Stdout ends with a line of host and build metadata
and then the result line
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The full record, with every sample, goes to <build>/runs/, and a traced run
writes its Chrome trace there too.  --self-test builds and runs the negative
tests of the output checks (perfbench/checks_test.cpp).
"""
import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Where the fig7_observed observers write, relative to the run directory.
FIG7_OBSERVERS = {"AIO_JOURNAL": "fig7.journal", "AIO_LIVE": "fig7.live.jsonl",
                  "AIO_METRICS": "fig7.metrics.json"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else Path.cwd() / d


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build(["cmake", "--build", str(bdir), "-j", jobs])


def run_build(cmd):
    # Build chatter goes to stderr: stdout carries only the result.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        die(f"build step failed: {' '.join(cmd)}")


def source_digest():
    """sha256 over the sources the program is built from (a tree may lack git metadata)."""
    h = hashlib.sha256()
    files = [p for d in ("src", "bench", "perfbench") for p in sorted((ROOT / d).rglob("*"))
             if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def top_percentile(values):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= 10:
            q = sorted(values)[math.ceil(p / 100.0 * n) - 1]
            return {"p": p, "value": q, "beyond": beyond}
    return None


def timing(values):
    return {"n": len(values), "median": statistics.median(values),
            "top_percentile": top_percentile(values), "samples": values}


def check_trace(path):
    """The traced run's Chrome trace must load and hold complete events."""
    try:
        doc = json.loads(Path(path).read_text())
        events = doc["traceEvents"]
        return bool(events) and all(e["ph"] == "X" and e["dur"] >= 0 and "." in e["name"]
                                    for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        die("BENCHMARK.json not found")
    spec = json.loads(bench_file.read_text())
    bdir = build_dir()
    build(bdir)
    if args.self_test:
        sys.exit(subprocess.run([str(bdir / "aio_perfbench_checks")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")

    runs = bdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Observers are armed only where the workload asks for them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AIO_")}
    if args.workload == "fig7_observed":
        env.update({k: str(runs / v) for k, v in FIG7_OBSERVERS.items()})
    cmd = [str(bdir / "aio_perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = runs / f"{stem}.trace.json"
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die(f"benchmark program exited with code {r.returncode}")
    raw = json.loads(lines[-1])

    if args.trace:
        wanted = spec["per_layer"]
        extra = sorted(set(raw["layers"]) - {m["name"] for m in wanted})
        if extra:
            die(f"program reports per-layer metrics missing from BENCHMARK.json: {extra}")
        # A layer that does not run on this workload reads 0.
        values = {m["name"]: raw["layers"].get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {"wall_s": statistics.median(raw["wall_s"]),
                  "setup_s": statistics.median(raw["setup_s"]),
                  "peak_rss_mb": raw["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if not isinstance(values.get(m["name"]), (int, float))]
    if missing:
        die(f"program did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    correct = raw["failed"] == 0 and (not args.trace or check_trace(trace_path))
    info = json.loads(subprocess.run([str(bdir / "aio_perfbench"), "--build-info"],
                                     capture_output=True, text=True, check=True).stdout)
    meta = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "seed_used": args.workload == "fig7_observed",
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system(), "release": platform.release()},
        "build": dict(info, commit=commit(), source_sha256=source_digest()),
        "method": {"loop": "closed, one client", "seconds": args.seconds,
                   "iterations": raw["iterations"],
                   "per_iteration": "fresh rig set-up (setup_s) then the timed work (wall_s)",
                   "reduction": "median over iterations",
                   "traced_iterations": "every other one" if args.trace else "none"},
        "clock": {"unit": "reference-clock seconds: measured x probe_ref_s / probe_s",
                  "probe_ref_s": raw["probe_ref_s"], "probe_s": raw["probe_s"]},
        "wall_s": timing(raw["wall_s"]), "setup_s": timing(raw["setup_s"]),
        "measured_wall_s": timing(raw["raw_wall_s"]),
        "measured_setup_s": timing(raw["raw_setup_s"]),
        "fail_rate": raw["failed"] / raw["attempted"], "failures": raw["failures"][:20],
        "classic_reference": raw["reference"],
    }
    if args.trace:
        meta["trace_file"] = str(trace_path.relative_to(Path.cwd())) \
            if trace_path.is_relative_to(Path.cwd()) else str(trace_path)
        meta["spans"] = raw["spans"]
    result = {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    (runs / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
