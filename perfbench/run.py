#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <paper_mix|drift|zipf_write> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --describe

Run from the repository root. The first form builds `perfbench/` (a cargo
package of its own, built into `$CARGO_TARGET_DIR` or `perfbench/target`)
and runs one workload; the last line of its output is the JSON result.
`--trace 1` also writes the traced run's spans to `perfbench/out/`.
`--describe` prints each workload's purpose and which end-to-end metric
each per-layer metric should move.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def describe():
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            spec = json.load(f)
        print("workloads:")
        for w in spec["workloads"]:
            print(f"  {w['name']:<11} {w['why']}")
        print("end-to-end metrics:")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<17} {m['unit']:<4} {m['better']} is better, bound {m['bound']}")
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    print("per-layer metrics (traced run): layer, measured on, should move")
    for m in layers["metrics"]:
        print(f"  {m['name']:<30} {m['layer']:<18} {','.join(m['workloads']):<27} {m['moves']}")
    print(layers["note"])


def meta():
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    r = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    rustc = r.stdout.strip() if r.returncode == 0 else "unknown"
    return sha, rustc


def main():
    args = sys.argv[1:]
    if args == ["--describe"]:
        describe()
        return 0
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    sha, rustc = meta()
    print(f"# meta git={sha} rustc={rustc!r}", flush=True)
    run = subprocess.run([exe, *args, "--trace-dir", os.path.join(HERE, "out")])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
