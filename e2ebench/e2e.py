#!/usr/bin/env python3
"""End-to-end benchmark runner for sablock.

Run from the root of a checkout:

  python3 e2ebench/e2e.py --workload batch-meta-cora --seed 42 \
      --seconds 10 --trace 0
  python3 e2ebench/e2e.py --quick          # all four workloads, smoke size

It builds the workload binary from the checkout's sources (into
$CARGO_TARGET_DIR, default .bench_build), writes the seeded inputs with a
separate generator process, runs the workload in its own process, checks
its outputs (pinned digests for seed 42, see e2e_expected.json), and
prints every metric by name and unit. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; metrics are the
BENCHMARK.json end_to_end list, or its per_layer list with --trace 1.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Input kind each workload reads (files written by `sablock_e2e generate`).
INPUTS = {
    "voter": ["voter.csv"],
    "cora": ["cora.csv"],
    "serve": ["serve.sab", "heldout.csv"],
}

_BATCH_TRACE = ["data.csv_parse_s", "features.text_build_s",
                "core.blocks", "core.comparisons", "eval.dedup_s",
                "eval.distinct_pairs", "trace.coverage",
                "trace.overhead_frac"]
_CORA_TRACE = _BATCH_TRACE + ["features.token_build_s", "core.generator_s",
                              "pipeline.purge_s"]

# Per workload: its input kind and the per-layer metrics its traced run
# must report. Every other per-layer metric belongs to a layer the
# workload leaves idle and reads 0.
WORKLOADS = {
    "batch-salsh-voter": ("voter", _BATCH_TRACE + [
        "features.shingle_build_s", "features.signature_build_s",
        "features.critical_path_s", "core.semantic_s",
        "core.shard_run_s_sum", "core.shard_run_s_max", "engine.execute_s",
        "engine.parallel_efficiency", "engine.shard_imbalance"]),
    "batch-meta-cora": ("cora", _CORA_TRACE + [
        "pipeline.meta_s", "pipeline.meta_pairs_out",
        "pipeline.meta_keep_ratio"]),
    "progressive-cora-1pct": ("cora", _CORA_TRACE + [
        "progressive.stage_s", "progressive.stage_s_unlimited",
        "progressive.budget_cost_ratio", "progressive.pairs_scored",
        "progressive.pairs_emitted"]),
    "serve-mix-cora": ("serve", [
        "store.snapshot_load_s", "service.preload_s", "index.query_us_p50",
        "index.insert_us_p50", "index.candidates_per_query",
        "service.query_us_p50", "service.progressive_us_p50",
        "service.progressive_scoring_us_p50",
        "service.progressive_kept_ratio", "service.contention_us_p50",
        "protocol.roundtrip_us_p50", "request.ops_per_s",
        "request.query_p50_us", "request.query_p99_us",
        "request.insert_p99_us", "request.progressive_p99_us",
        "trace.coverage", "trace.overhead_frac"]),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once and (re)builds the workload binary; returns it."""
    out = build_root() / "e2e"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    "sablock_e2e"], check=True, stdout=sys.stderr)
    return out / "sablock_e2e"


def inputs_for(binary, kind, seed, quick):
    """The input directory for (kind, seed, scale), generated on first use
    by a separate process; later runs reuse the files."""
    directory = build_root() / "inputs" / (
        "%s-seed%d" % ("quick" if quick else "full", seed))
    directory.mkdir(parents=True, exist_ok=True)
    if not all((directory / f).exists() for f in INPUTS[kind]):
        cmd = [str(binary), "generate", "--kind", kind, "--seed", str(seed),
               "--out", str(directory)] + (["--quick"] if quick else [])
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
        os.sync()  # keep the write-back out of the measured run
    return directory


def same(want, got):
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(want, got, rel_tol=1e-12, abs_tol=1e-15)
    return want == got


def check_pins(workload, seed, quick, checks):
    """Compares the run's outputs with the seed-42 pins; returns the
    number of mismatches (0 for other seeds, which have no pins)."""
    expected = json.loads((HERE / "e2e_expected.json").read_text())
    if seed != expected["seed"]:
        return 0
    pins = expected["quick" if quick else "full"][workload]
    mismatches = 0
    for key, want in pins.items():
        if not same(want, checks.get(key)):
            log("MISMATCH %s %s: want %r, got %r" %
                (workload, key, want, checks.get(key)))
            mismatches += 1
    return mismatches


def run_workload(binary, workload, seed, seconds, trace, quick, metric_list):
    """Runs one workload process; returns its checked record."""
    kind, layers = WORKLOADS[workload]
    directory = inputs_for(binary, kind, seed, quick)
    cmd = [str(binary), "run", "--workload", workload,
           "--inputs", os.path.relpath(directory, ROOT),
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0"]
    trace_file = None
    if trace:
        trace_dir = build_root() / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / ("%s-seed%d.json" % (workload, seed))
        cmd += ["--trace-out", str(trace_file)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    failed = record["failed"] + check_pins(workload, seed, quick,
                                           record["checks"])
    correct = failed == 0
    if trace_file is not None:
        json.loads(trace_file.read_text())  # must parse

    metrics = {}
    for name, unit in metric_list:
        got = record["metrics"].get(name)
        if got is not None:
            metrics[name] = {"value": got["value"], "unit": unit}
            if got["unit"] != unit:
                log("UNIT %s on %s: %s, BENCHMARK.json says %s" %
                    (name, workload, got["unit"], unit))
                correct = False
        elif trace and name not in layers:
            metrics[name] = {"value": 0, "unit": unit}  # idle layer
        else:
            log("MISSING metric %s on %s" % (name, workload))
            correct = False
    for name in layers if trace else []:
        if name not in record["metrics"]:
            log("MISSING layer metric %s on %s" % (name, workload))
            correct = False
    record.update(correct=correct, failed=failed, reported=metrics)
    return record


def print_table(record):
    print("%s  seed=%d  trace=%d  correct=%s  attempted=%d  failed=%d" % (
        record["workload"], record["seed"], record["trace"],
        record["correct"], record["attempted"], record["failed"]))
    host = record["host"]
    print("  host: nproc=%s isa=%s compiler=%s build=%s threads=%s "
          "connections=%s" % (host["nproc"], host["isa"], host["compiler"],
                              host["build_type"], host["threads"],
                              host["connections"]))
    for name, m in sorted(record["metrics"].items()):
        print("  %-38s %16.6g %s" % (name, m["value"], m["unit"]))
    for layer, seconds in sorted(record.get("layer_self_s", {}).items()):
        print("  self time %-28s %16.6g s" % (layer, seconds))
    print("  checks: %s" % json.dumps(record["checks"], sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default 10; with "
                        "--quick, the minimum repetitions only)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-size inputs; all workloads by default")
    parser.add_argument("--out", help="append each run's record (JSON "
                        "lines) to this file, for e2e_compare.py")
    args = parser.parse_args()
    if args.workload is None and not args.quick:
        parser.error("--workload is required (or pass --quick)")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("error: no sablock sources next to %s; run from a checkout" % HERE)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    metric_list = [(m["name"], m["unit"]) for m in spec[key]]

    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else 10.0
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    try:
        binary = build()
        for workload in workloads:
            records.append(run_workload(binary, workload, args.seed,
                                        seconds, bool(args.trace),
                                        args.quick, metric_list))
    except (RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    for record in records:
        print_table(record)
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(record, sort_keys=True) + "\n")

    if len(records) == 1:
        metrics = records[0]["reported"]
    else:
        metrics = {"%s/%s" % (r["workload"], name): m
                   for r in records for name, m in r["reported"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
