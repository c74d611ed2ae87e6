#!/usr/bin/env python3
"""The benchmark's own smoke test.

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at n ≈ 2·10³ (`--scale smoke`)
through the same code as a full run, untraced and traced, and asserts:

* the run exits 0 and its result line reads correct, with no failures;
* every end-to-end metric (untraced) or per-layer metric (traced) is
  present with its unit and a finite value;
* the correctness checks ran (the metadata lists them) and all passed;
* the traced run wrote a Chrome trace-event file with spans in it.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

SEED = 7


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}"
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            meta, result = run(w["name"], trace)
            where = f"{w['name']} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            wanted = spec["per_layer" if trace else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in wanted], where
            for m in wanted:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], f"{where}: {m['name']} unit"
                assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
                assert math.isfinite(got["value"]), f"{where}: {m['name']} not finite"
            checks = meta["checks"]
            assert len(checks) >= 10 and all(checks.values()), f"{where}: checks {checks}"
            if trace:
                assert any(k.endswith("writer_replay_same_schedule") for k in checks), where
                path = Path(f"perfbench/out/trace-{w['name']}-{SEED}.json")
                doc = json.loads(path.read_text())
                spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
                assert spans and all(e["dur"] >= 0 for e in spans), f"{where}: trace"
            print(f"ok  {where}: {len(result['metrics'])} metrics, {len(checks)} checks")
    print("smoke test passed")


if __name__ == "__main__":
    main()
