#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

From the repository root: a very short run of every workload, untimed and
traced, must print every metric BENCHMARK.json declares (with its unit),
report no failure, and describe itself as perfbench/workloads.json does.
Every end-to-end metric, and every per-layer metric the workload's
layer_metrics in workloads.json lists, must read nonzero.
Then each workload runs once with the server corrupting one response; that
run must count the exchange as failed, report correct=false and exit
nonzero. Exits nonzero on the first violated check.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{proc.stderr}")
    meta = next((json.loads(l[len("meta: "):]) for l in lines
                 if l.startswith("meta: ")), None)
    return proc.returncode, meta, json.loads(lines[-1])


def check(ok, what):
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        sys.exit(1)


def check_metrics(workload, result, declared, nonzero):
    """Every declared metric is printed, finite and in its unit; those
    named in `nonzero` (the ones on this workload's path) are not 0, so a
    metric wired to the wrong counter shows."""
    check(set(result) == RESULT_KEYS, f"{workload}: result has exactly "
          f"{sorted(RESULT_KEYS)}")
    got = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in got]
    check(not missing, f"{workload}: every declared metric printed "
          f"(missing {missing})")
    extra = sorted(set(got) - {m["name"] for m in declared})
    check(not extra, f"{workload}: no undeclared metric (extra {extra})")
    for m in declared:
        v = got[m["name"]]
        ok = (v["unit"] == m["unit"] and isinstance(v["value"], (int, float))
              and math.isfinite(v["value"]))
        if m["name"] in nonzero:
            ok = ok and v["value"] != 0
        check(ok, f"{workload}: {m['name']} = {v['value']} {v['unit']}"
              + (" (on path: nonzero)" if m["name"] in nonzero else ""))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    described = {w["name"]: w for w in
                 json.loads((HERE / "workloads.json").read_text())["workloads"]}
    names = [w["name"] for w in bench["workloads"]]
    check(names == list(described),
          "BENCHMARK.json and workloads.json list the same workloads")
    layer_names = {m["name"] for m in bench["per_layer"]}
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    for w in described.values():
        for layer, moves in w["layer_metrics"].items():
            check(layer in layer_names and set(moves) <= e2e_names,
                  f"{w['name']}: {layer} -> {moves} names declared metrics")

    for name in names:
        code, meta, result = run(name, 0)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{name}: untimed run correct, exit 0")
        check_metrics(name, result, bench["end_to_end"], e2e_names)
        w = described[name]
        for key in ("framing", "native_bytes_per_op", "warmup_exchanges",
                    "rss_exchanges"):
            check(meta[key] == w[key], f"{name}: meta {key} = {meta[key]} "
                  "matches workloads.json")
        code, _, result = run(name, 1)
        check(code == 0 and result["correct"],
              f"{name}: traced run correct, exit 0")
        check_metrics(name, result, bench["per_layer"], set(w["layer_metrics"]))

    for name in names:
        code, _, result = run(name, 0, "--corrupt", "3")
        check(code != 0 and not result["correct"] and result["failed"] >= 1,
              f"{name}: an injected corrupted response counts as a failure "
              f"(failed={result['failed']}, exit {code})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
