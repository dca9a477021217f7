#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 35 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the bxsoap libraries from src/ plus the perfbench binary in
perfbench/src/) into .bench_build/perfbench; later calls rebuild only what
changed. The binary's stdout is passed through with its `meta:` line
completed by host facts (CPU model, commit or source digest); the last line
is the result JSON. --trace 1 also writes the run's spans to
.bench_build/perfbench/spans/. Workloads and metrics are described in
perfbench/workloads.json and BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def workload_names():
    with open(HERE / "workloads.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def build():
    """Configure once, then build the binary (a no-op when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The git commit and dirty flag when run in a clone; otherwise (an
    exported tree) a digest of every file the benchmark builds from."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if Path(top.stdout.strip()).resolve() != ROOT:
            raise OSError("not a clone of this repository")
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True)
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True)
        return {"commit": commit.stdout.strip(),
                "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for d in ("src", "perfbench"):
            for p in sorted((ROOT / d).rglob("*")):
                if p.is_file():
                    digest.update(str(p.relative_to(ROOT)).encode())
                    digest.update(p.read_bytes())
        return {"commit": "unknown", "dirty": None,
                "source_sha256": digest.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--corrupt", type=int, default=0,
                    help="self-test: the server corrupts its n-th response")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no src/ next to perfbench/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload not in workload_names():
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--corrupt", str(args.corrupt),
           "--spans-dir", str(spans_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3

    host = {"cpu_model": cpu_model(), **source_identity()}
    for line in proc.stdout.splitlines():
        if line.startswith("meta: "):
            meta = json.loads(line[len("meta: "):])
            meta.update(host)
            line = "meta: " + json.dumps(meta)
        print(line)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
