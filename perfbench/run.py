#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]

Run it from the root of the repository. It builds `xp` and the benchmark
binary (`perfbench/src`) in release mode, runs the workload in a process
of its own, prints every metric it measured by name with its unit and
sample count, then the run's provenance, and as its last line one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`, with `--trace 1` its per-layer metrics (a per-layer
metric listed in `NOT_MEASURED` for the workload reads 0; any other
metric that was not measured fails the run).

The exit code is 0 when every output checked out, 1 when a check failed
(a failed check also counts in `failed`), and 2 without a result when
the benchmark cannot run at all (for example outside a checkout of the
repository). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(REPO, ".perfbench_out")

# Per-layer metrics (a name, or a prefix before a dot) that a workload's
# traced run does not measure, and why. They read 0 there; every other
# per-layer metric must be measured, or the run fails.
_SIMULATION = ["pushsim", "noise", "core", "analysis", "bench.spec_ms",
               "campaign.harness_frac", "runner.harness_frac"]
NOT_MEASURED = {
    # Counting backend on the complete graph: no agent push, no graph,
    # no per-message noise draw, no runner table; no server.
    "campaign_counting": ["pushsim.network", "pushsim.topology", "noise.sample_ns",
                          "analysis.render_us_per_row", "runner.harness_frac",
                          "bench.plan_us", "serve", "loadgen"],
    # Agent backend through the runner: no counting phases or multinomial
    # recolouring, no campaign harness; no server.
    "topo_sparse": ["pushsim.counting", "noise.recolor_us", "noise.multinomial_ns",
                    "campaign.harness_frac", "bench.plan_us", "serve", "loadgen"],
    # The simulations run inside the `xp serve` process, where nothing is
    # probed; the client side measures the service layers only.
    "serve_mix": _SIMULATION,
}


def not_measured(workload, name):
    return any(name == p or name.startswith(p + ".") for p in NOT_MEASURED[workload])


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(REPO, target)


def build():
    """Builds `xp` from the workspace and the benchmark binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    commands = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "noisy-bench", "--bin", "xp"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=REPO, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "xp")


def command_output(command):
    try:
        return subprocess.run(command, cwd=REPO, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    carry no git metadata."""
    h = hashlib.sha256()
    patterns = ["Cargo.toml", "Cargo.lock", "crates/**/*", "vendor/**/*", "perfbench/**/*"]
    files = sorted({p for pattern in patterns
                    for p in glob.glob(os.path.join(REPO, pattern), recursive=True)
                    if os.path.isfile(p)})
    for path in files:
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(result, args):
    return {
        "git_revision": command_output(["git", "rev-parse", "HEAD"]) or "none",
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "toy": args.toy,
        "cells": result.get("cells", []),
    }


def describe(name, m):
    tail = m.get("tail")
    tail_text = f", p{tail['p']} {tail['value']:.6g}" if tail else ""
    value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
    absent = ", not measured on this workload" if m.get("absent") else ""
    return f"  {name:<40} {value:>14} {m['unit']:<9} (n={m['samples']}{tail_text}{absent})"


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the self-test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(REPO, "crates", "bench", "Cargo.toml")):
        fail("the workspace crates are missing; run from a checkout of the repository")
    binary, xp = build()

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans = os.path.join(OUT, f"spans_{stem}.jsonl")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--xp", xp, "--spans", spans]
    if args.toy:
        command.append("--toy")
    try:
        done = subprocess.run(command, cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within 170 s")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"the workload printed no result (exit code {done.returncode})")

    key = "per_layer" if args.trace else "end_to_end"
    measured = dict(result["metrics"])
    metrics, problems = {}, list(result["errors"])
    for spec in bench[key]:
        name, unit = spec["name"], spec["unit"]
        m = measured.get(name)
        listed = args.trace and not_measured(args.workload, name)
        if m is not None and listed:
            problems.append(f"metric {name} is listed as not measured on {args.workload}")
        if m is None and listed:
            m = measured[name] = {"value": 0.0, "unit": unit, "samples": 0, "absent": True}
        if m is None or m["value"] is None:
            problems.append(f"metric {name} was not measured")
            continue
        if m["unit"] != unit:
            problems.append(f"metric {name} is in {m['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": m["value"], "unit": unit}

    attempted = max(int(result["attempted"]), 1)
    failed = int(result["failed"]) + (1 if problems and not result["failed"] else 0)
    correct = done.returncode == 0 and failed == 0
    origin = provenance(result, args)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' toy' if args.toy else ''}")
    for name in sorted(measured):
        print(describe(name, measured[name]))
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} {'fraction':<9} "
          f"(n={attempted}, {failed} failed)")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    print("provenance " + json.dumps(origin, sort_keys=True))
    with open(os.path.join(OUT, f"result_{stem}.json"), "w") as f:
        json.dump({"provenance": origin, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
