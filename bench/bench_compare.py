#!/usr/bin/env python3
"""Compare FFT-stack micro-benchmarks against the recorded seed baseline.

Runs the bench_micro_dsp binary (google-benchmark) with JSON output,
extracts the FFT-dependent benchmarks, computes speedups against the
baseline numbers recorded before the plan-cache engine landed, and
writes the result to BENCH_fft.json at the repository root.

Every run also appends one timestamped line to BENCH_history.jsonl at
the repository root (git-ignored), so perf drift across local runs can
be plotted without scraping old BENCH_fft.json revisions.

Usage:
    python3 bench/bench_compare.py [--bench-bin build/bench/bench_micro_dsp]
                                   [--out BENCH_fft.json]
                                   [--history BENCH_history.jsonl]
                                   [--min-time 0.2]
    python3 bench/bench_compare.py --ingest-bin build/bench/bench_ingest
    python3 bench/bench_compare.py --serve-bin build/bench/bench_serve

With --ingest-bin the script instead runs the self-gating streaming
ingest benchmark (bench_ingest --check), which writes BENCH_ingest.json
(ingest-to-detection p50/p99 from validated telemetry, queue
backpressure counters, streamed-vs-offline byte identity), and appends
a {"bench": "ingest", ...} line to the same history log.

With --serve-bin it runs the self-gating query-serving benchmark
(bench_serve --check), which writes BENCH_serve.json (shared-decode
ratio vs the unbatched baseline, request latency p50/p99, interval
index touch counts) and appends a {"bench": "serve", ...} history
line.

Exit status is non-zero if the binary is missing or any acceptance
threshold (see THRESHOLDS, or bench_ingest's built-in gates) is not
met, so the script doubles as a perf regression gate.
"""

import argparse
import datetime
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Median real_time (ns) of the seed implementation (per-call twiddle
# recomputation, mutex-per-lookup cache, full-spectrum real FFT),
# measured on the reference container with --benchmark_min_time=0.2.
BASELINE_NS = {
    "BM_FftPow2/256": 8777,
    "BM_FftPow2/1024": 45928,
    "BM_FftPow2/4096": 224166,
    "BM_FftPow2/16384": 1073519,
    "BM_FftBluestein/250": 70155,
    "BM_FftBluestein/1000": 328381,
    "BM_FftBluestein/3750": 1567359,
    "BM_FftBluestein/15000": 6898800,
    "BM_Filtfilt/3000": 31359,
    "BM_Filtfilt/30000": 358454,
    "BM_Resample/3000": 175362,
    "BM_Resample/30000": 2232023,
    "BM_XcorrFull/1024": 430132,
    "BM_XcorrFull/8192": 4262248,
    # Prime lengths (the remaining Bluestein path) were added after the
    # seed: measured on the radix-2 engine that preceded the mixed-radix
    # passes, median of 3 RelWithDebInfo runs on a shared 4-core x86-64
    # host.
    "BM_FftPrime/4999": 1555270,
    "BM_FftPrime/15013": 3144218,
}

# Acceptance gates: >= 1.5x on pow2 FFT and >= 2x on the 5-smooth
# lengths (BM_FftBluestein, named for the path they took when the gate
# was set); prime lengths must not be slower than before the
# mixed-radix engine. The filtfilt and resample gates sit 25-40% under
# fresh RelWithDebInfo measurements at their slowest size (1.01-1.15x
# and 5.7-6.5x over two runs, against 0.59x and 0.70x for the loops
# they replaced), room for the run-to-run spread of a shared host.
THRESHOLDS = {
    "BM_FftPow2": 1.5,
    "BM_FftBluestein": 2.0,
    "BM_FftPrime": 1.0,
    "BM_Filtfilt": 0.75,
    "BM_Resample": 4.0,
}

FILTER = ("BM_FftPow2|BM_FftBluestein|BM_FftPrime|BM_RfftHalf|BM_Filtfilt"
          "|BM_Resample|BM_XcorrFull")


def run_bench(bench_bin, min_time):
    cmd = [
        str(bench_bin),
        f"--benchmark_filter={FILTER}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def append_history(history_path, entry):
    entry = dict(entry)
    entry["ts"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    with pathlib.Path(history_path).open("a") as history:
        history.write(json.dumps(entry) + "\n")
    print(f"appended run to {history_path}")


def run_ingest(ingest_bin, out_path, history_path):
    """Run the self-gating ingest bench and log its result."""
    ingest_bin = pathlib.Path(ingest_bin)
    if not ingest_bin.exists():
        print(f"bench_compare: binary not found: {ingest_bin}\n"
              "build it first: cmake --build build -j --target "
              "bench_ingest", file=sys.stderr)
        return 2
    proc = subprocess.run(
        [str(ingest_bin), "--check", "--out", str(out_path)])
    report = {}
    out = pathlib.Path(out_path)
    if out.exists():
        report = json.loads(out.read_text())
        print(f"wrote {out}")
    append_history(history_path, {
        "bench": "ingest",
        "passed": proc.returncode == 0,
        "results": {
            "latency_p50_ns": report.get("latency_p50_ns"),
            "latency_p99_ns": report.get("latency_p99_ns"),
            "run_seconds": report.get("run_seconds"),
            "queue_push_blocked": report.get("queue", {}).get(
                "push_blocked"),
            "byte_identical": report.get("byte_identical_to_offline"),
        },
    })
    if proc.returncode != 0:
        print("bench_ingest gates FAILED (see messages above)",
              file=sys.stderr)
    return proc.returncode


def run_serve(serve_bin, out_path, history_path):
    """Run the self-gating query-serving bench and log its result."""
    serve_bin = pathlib.Path(serve_bin)
    if not serve_bin.exists():
        print(f"bench_compare: binary not found: {serve_bin}\n"
              "build it first: cmake --build build -j --target "
              "bench_serve", file=sys.stderr)
        return 2
    proc = subprocess.run(
        [str(serve_bin), "--check", "--out", str(out_path)])
    report = {}
    out = pathlib.Path(out_path)
    if out.exists():
        report = json.loads(out.read_text())
        print(f"wrote {out}")
    append_history(history_path, {
        "bench": "serve",
        "passed": proc.returncode == 0,
        "results": {
            "decode_ratio": report.get("decode_ratio"),
            "latency_p50_ns": report.get("latency_p50_ns"),
            "latency_p99_ns": report.get("latency_p99_ns"),
            "coalesced": report.get("batch", {}).get("coalesced"),
            "index_touches": report.get("index", {}).get("touches"),
            "byte_identical": report.get("byte_identical"),
        },
    })
    if proc.returncode != 0:
        print("bench_serve gates FAILED (see messages above)",
              file=sys.stderr)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-bin",
                        default=REPO_ROOT / "build" / "bench"
                        / "bench_micro_dsp")
    parser.add_argument("--ingest-bin", default=None,
                        help="run bench_ingest --check instead of the "
                        "FFT micro-bench comparison")
    parser.add_argument("--serve-bin", default=None,
                        help="run bench_serve --check instead of the "
                        "FFT micro-bench comparison")
    parser.add_argument("--out", default=None)
    parser.add_argument("--history",
                        default=REPO_ROOT / "BENCH_history.jsonl")
    parser.add_argument("--min-time", default="0.2")
    args = parser.parse_args()

    if args.ingest_bin is not None:
        out = args.out or REPO_ROOT / "BENCH_ingest.json"
        return run_ingest(args.ingest_bin, out, args.history)
    if args.serve_bin is not None:
        out = args.out or REPO_ROOT / "BENCH_serve.json"
        return run_serve(args.serve_bin, out, args.history)
    if args.out is None:
        args.out = REPO_ROOT / "BENCH_fft.json"

    bench_bin = pathlib.Path(args.bench_bin)
    if not bench_bin.exists():
        print(f"bench_compare: binary not found: {bench_bin}\n"
              "build it first: cmake --build build -j --target "
              "bench_micro_dsp", file=sys.stderr)
        return 2

    raw = run_bench(bench_bin, args.min_time)

    results = {}
    for entry in raw.get("benchmarks", []):
        name = entry["name"]
        ns = entry["real_time"]
        row = {"current_ns": round(ns, 1)}
        if name in BASELINE_NS:
            row["baseline_ns"] = BASELINE_NS[name]
            row["speedup"] = round(BASELINE_NS[name] / ns, 2)
        results[name] = row

    failures = []
    for prefix, need in THRESHOLDS.items():
        cases = {n: r for n, r in results.items()
                 if n.startswith(prefix + "/") and "speedup" in r}
        for name, row in sorted(cases.items()):
            if row["speedup"] < need:
                failures.append(
                    f"{name}: {row['speedup']}x < required {need}x")

    report = {
        "description": "FFT-stack micro-benchmarks vs seed baseline "
                       "(real_time ns, lower is better)",
        "context": raw.get("context", {}),
        "thresholds": THRESHOLDS,
        "results": results,
        "passed": not failures,
        "failures": failures,
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    # Append one compact line per run to the local history log.
    append_history(args.history, {
        "bench": "fft",
        "passed": not failures,
        "results": {n: r["current_ns"] for n, r in sorted(results.items())},
    })
    for name, row in sorted(results.items()):
        speed = f"  {row['speedup']}x" if "speedup" in row else ""
        print(f"  {name}: {row['current_ns']} ns{speed}")
    if failures:
        print("FAILED thresholds:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
