#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

It builds the `wsn-perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it for the workload, checks that every metric `BENCHMARK.json`
names is present with its unit, and prints the run's metadata line and
then the result line (`correct`, `attempted`, `failed`, `metrics`) as the
last line of stdout. `--trace 1` reports the per-layer metrics instead of
the end-to-end ones and writes a Chrome trace-event JSON file under
`perfbench/out/`. The exit code is 0 only when every correctness check
passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path("perfbench")
BINARY = "wsn-perfbench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of
    the program's sources (crate sources and manifests)."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    files += sorted((root / "crates").rglob("*.rs"))
    files += sorted((root / "crates").rglob("Cargo.toml"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def build(root):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(root / ".bench_build"))
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--locked",
        "--quiet",
        "--manifest-path",
        str(PACKAGE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if done.returncode != 0:
        fail("build failed", 3)
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = root / target
    return target / "release" / BINARY


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--scale", default="full", choices=["full", "smoke"])
    args = ap.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root (BENCHMARK.json not found)", 2)
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}", 2)
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail("the workspace sources (Cargo.toml, crates/) are missing", 2)

    binary = build(root)
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--source-id", source_id(root),
    ]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s", 4)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    try:
        meta = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        # A crash before the result line (a panic counts as a failed
        # operation): report it as an incorrect run.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        fail(f"workload {args.workload} exited with {done.returncode} and no result", 1)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    wrong_unit = [m["name"] for m in wanted if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    if missing or wrong_unit:
        fail(f"metrics missing {missing}, with another unit {wrong_unit}", 5)
    result["metrics"] = {m["name"]: got[m["name"]] for m in wanted}

    print(json.dumps(meta))
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
