"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload durable-batch --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed, one after another, and prints
for each metric the median, the interquartile distance as a share of the
median (``statistics.quantiles(values, n=4)``), and the metric's bound
from ``BENCHMARK.json``.  A benchmark is steady when every spread but
``setup_s``'s stays under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(out.stdout, out.stderr)
            return 1
        for line in out.stdout.splitlines():
            if line.startswith("repetition"):
                print(f"  {line}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    if len(args.seeds) < 2:
        return 0
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        share = spread(vals)
        flag = "" if share < metric["bound"] / 3 else "  <-- over a third of the bound"
        print(f"{metric['name']:18s} median {statistics.median(vals):10.4g}  "
              f"spread {share:6.1%}  bound {metric['bound']:.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
