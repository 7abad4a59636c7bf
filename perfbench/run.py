#!/usr/bin/env python3
"""Socket-to-kernel serving benchmark for doinn_serve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call builds the harness
and doinn_serve from source into $CARGO_TARGET_DIR (default .bench_build)
with CMake. --trace 0 measures the workload end to end over loopback
sockets against a doinn_serve child; --trace 1 is the separate traced
`layers` run. Every reply is byte-compared with an in-process reference
engine. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it ("perfbench detail: {...}") carries the host block,
request counts and the tail percentile. Exit status is nonzero when a
contour mismatches (or, traced, a request fails). See perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Builds the harness and doinn_serve, configuring first when the build
    directory is new or its configuration no longer knows the targets."""
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
            "--target", "perfbench"]
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(configure, check=True, stdout=sys.stderr)
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(make, check=True, stdout=sys.stderr)


def cache_value(build_dir, key):
    try:
        text = (build_dir / "CMakeCache.txt").read_text()
    except OSError:
        return ""
    m = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else ""


def host_block(root, build_dir, seed, server_flags):
    cpu = ""
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name") and not cpu:
                cpu = line.split(":", 1)[1].strip()
            if line.startswith("flags") and not flags:
                flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = ""
    # The checkout need not be a git repository; never search above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unavailable"
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "isa": {f: f in flags for f in ("avx2", "avx_vnni", "avx512f")},
        "compiler": f"{compiler} ({version})",
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache_value(build_dir, "CMAKE_CXX_FLAGS"),
            cache_value(build_dir, "CMAKE_CXX_FLAGS_" + build_type.upper())])),
        "git_sha": git_sha,
        "server_flags": server_flags,
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="tile_backlog, fullchip_large or pool_int8")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    mode = "layers" if args.trace else "timed"
    workdir = build_dir / "runs" / f"{args.workload}-{mode}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    raw_path = workdir / "raw.json"
    cmd = [str(build_dir / "perfbench"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--serve", str(build_dir / "doinn" / "doinn_serve"),
           "--workdir", str(workdir), "--out", str(raw_path)]
    try:
        subprocess.run(cmd, check=True, timeout=HARNESS_TIMEOUT_S,
                       stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"harness failed: {e}")
        return 3
    raw = json.loads(raw_path.read_text())
    try:
        return report(args, root, build_dir, raw)
    except ValueError as e:  # e.g. too few replies for a tail
        log(str(e))
        return 5


def report(args, root, build_dir, raw):
    """Prints the metrics of one run; returns the exit status."""
    if args.trace:
        values, details = stats.layers(raw)
        units = stats.PER_LAYER
        attempted = details["socket"]["sent"] + details["sched"]["sent"]
        failed = details["socket"]["failed"] + details["sched"]["failed"]
        lazy = details["plans_after"] != details["plans_before"]
        if lazy:
            log(f"the engine built plans during the timed scheduler replay "
                f"({details['plans_before']} -> {details['plans_after']})")
        correct = values["loadgen.mismatch"] == 0 and failed == 0 and not lazy
        d = details["decomposition"]
        print(f"{args.workload} decomposition of client p50 "
              f"{d['client_p50_ms']:.3f} ms: net codec {d['net_codec_ms']:.3f}"
              f" + sched {d['sched_ms']:.3f} + engine {d['engine_ms']:.3f}"
              f" (batch {d['engine_batch']}) + unexplained remainder "
              f"{d['unexplained_ms']:.3f} ms (socket syscalls, event loop, "
              f"completion hand-off)")
        trace_check = root / "scripts" / "trace_summary.py"
        if trace_check.exists():
            ok = subprocess.run([sys.executable, str(trace_check),
                                 details["trace"]], capture_output=True)
            details["trace_valid"] = ok.returncode == 0
            correct = correct and ok.returncode == 0
    else:
        values, details = stats.end_to_end(raw)
        units = stats.END_TO_END
        attempted, failed = details["sent"], details["failed"]
        correct = (details["mismatch"] == 0 and details["warmup_mismatch"] == 0
                   and details["prime_failed"] == 0)
        print(f"{args.workload}: sent {details['sent']} ok {details['ok']} "
              f"failed {details['failed']}; tail = median over "
              f"{details['tail_chunks']} chunks of "
              f"p{details['tail_percentile']:.2f}, "
              f"{details['tail_samples_beyond']} samples beyond per chunk")

    if set(values) != set(units):
        log(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
        return 4
    for name in units:
        print(f"  {name:34s} {values[name]:>16.6g} {units[name]}")
    details["host"] = host_block(root, build_dir, args.seed,
                                 raw.get("server_flags", ""))
    print("perfbench detail: " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(values[n]), "unit": units[n]}
                    for n in units},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
