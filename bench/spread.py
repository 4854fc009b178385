"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload field_queries --runs 5 [--first-seed 1]

Each run is a fresh ``bench/run.py`` process.  Prints, per end-to-end
metric, the median, the quartile spread (Q3 - Q1) / median and the
benchmark's bound, flagging a spread of more than a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from bench import stats  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900, check=True).stdout
        wall = time.perf_counter() - t
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f} s correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{n}={m['value']:.6g}"
                         for n, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        spread = stats.quartile_spread(vals) if len(vals) > 1 else 0.0
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"{m['name']:>14}: median {stats.median(vals):.6g} {m['unit']} "
              f"spread {spread:.4f} bound {m['bound']}{flag}")


if __name__ == "__main__":
    main()
