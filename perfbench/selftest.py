#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (seconds per workload).

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it runs `run.py --toy` untraced and
traced, and checks that

* the run exits 0 and its last line is the result object, with exactly
  the keys correct, attempted, failed and metrics, and `correct` true;
* every metric BENCHMARK.json names for that mode is in the result with
  the unit BENCHMARK.json gives it, and printed above it with that unit;
* every per-layer metric is measured (emitted by the benchmark binary
  with at least one sample) by at least one workload's traced run;
* the traced run's span file parses, every span's parent is in the file,
  and every span's self time is at most its duration and equals its
  duration minus what its children cover.

Finally it checks that the benchmark refuses to run, without printing a
result, from a directory that holds only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL {message}")
        sys.exit(1)


def self_times(spans):
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        covered, cursor = 0, s["start_ns"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, s["end_ns"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = s["end_ns"] - s["start_ns"] - covered
    return out


def check_spans(path, workload):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    check(spans, f"{workload}: the span file {path} is empty")
    ids = {s["id"] for s in spans}
    check(len(ids) == len(spans), f"{workload}: span ids repeat")
    expected = self_times(spans)
    for s in spans:
        check(s["parent"] is None or s["parent"] in ids, f"{workload}: span {s['id']} has no parent")
        duration = s["end_ns"] - s["start_ns"]
        check(0 <= s["self_ns"] <= duration, f"{workload}: span {s['id']} self time exceeds its duration")
        check(s["self_ns"] == expected[s["id"]], f"{workload}: span {s['id']} self time is wrong")
    return len(spans)


def run(workload, trace, cwd=REPO):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sampled = set()
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(name, trace)
            check(done.returncode == 0, f"{name} trace={trace} exited {done.returncode}:\n"
                  f"{done.stdout}{done.stderr}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0, f"{name}: {lines[-1]}")
            printed = "\n".join(lines[:-1])
            for spec in bench[key]:
                m = result["metrics"].get(spec["name"])
                check(m is not None, f"{name}: metric {spec['name']} missing")
                check(m["unit"] == spec["unit"], f"{name}: {spec['name']} in {m['unit']}")
                check(isinstance(m["value"], (int, float)), f"{name}: {spec['name']} is not a number")
                check(any(l.split()[:1] == [spec["name"]] and f" {spec['unit']} " in l
                          for l in lines[:-1]),
                      f"{name}: {spec['name']} not printed with its unit")
            check("failed_frac" in printed and "provenance" in printed,
                  f"{name}: failed_frac or provenance not printed")
            if trace:
                with open(os.path.join(REPO, ".perfbench_out", f"result_{name}_seed1_trace1.json")) as f:
                    raw = json.load(f)["result"]["metrics"]
                sampled |= {k for k, m in raw.items() if m.get("samples", 0) > 0}
                spans = os.path.join(REPO, ".perfbench_out", f"spans_{name}_seed1_trace1.jsonl")
                count = check_spans(spans, name)
                print(f"selftest: {name} trace=1 ok ({count} spans)")
            else:
                print(f"selftest: {name} trace=0 ok")

    unmeasured = [m["name"] for m in bench["per_layer"] if m["name"] not in sampled]
    check(not unmeasured, f"per-layer metrics no workload measures: {unmeasured}")
    print("selftest: every per-layer metric is measured by some workload: ok")

    bare = os.path.join(REPO, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    done = run(bench["workloads"][0]["name"], 0, cwd=bare)
    check(done.returncode != 0, "the benchmark ran without the repository's crates")
    check('"correct"' not in done.stdout, "the benchmark printed a result without the crates")
    shutil.rmtree(bare)
    print("selftest: refuses to run without the repository: ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
