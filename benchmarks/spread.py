#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 benchmarks/spread.py [--out benchmarks/baseline.json]

Runs the BENCHMARK.json command once per workload and seed (seeds 1 to 10)
with --trace 0, one run at a time, and prints for every workload and
end-to-end metric the median, the quartiles (statistics.quantiles with n=4)
and the spread (Q3 - Q1) / median next to a third of the metric's bound.  A
spread above that mark is flagged "WIDE" and makes the exit code 1.  With
--out the medians, quartiles and raw values are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def _run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "runs": len(SEEDS),
               "workloads": {}}
    wide = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        raw_walls = []
        failed = 0
        for seed in SEEDS:
            report, result = _run(spec, workload, seed)
            summary["env"] = {k: v for k, v in report["env"].items()
                              if k not in ("seed", "inputs")}
            failed += result["failed"]
            raw_walls.append(report["raw_wall_s"])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        rows = {}
        print(f"{workload}: {len(SEEDS)} runs, {failed} failed items")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            mark = metric["bound"] / 3.0
            flag = "WIDE" if spread > mark else ""
            wide += bool(flag)
            print(f"  {metric['name']:14s} median {median:12.6g} "
                  f"{metric['unit']:5s} spread {spread:7.4f} "
                  f"(bound/3 {mark:.4f}) {flag}")
            rows[metric["name"]] = {"unit": metric["unit"], "median": median,
                                    "q1": q1, "q3": q3, "spread": spread,
                                    "values": vals}
        q1, median, q3 = statistics.quantiles(raw_walls, n=4)
        print(f"  {'unscaled wall':14s} median {median:12.6g} s     "
              f"spread {(q3 - q1) / median:7.4f}")
        summary["workloads"][workload] = {"failed": failed, "metrics": rows,
                                          "unscaled_wall_s": raw_walls}
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n",
                            encoding="utf-8")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
