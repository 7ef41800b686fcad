"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads npbe_pullback,nominal_3d \
        --seeds 1-10 --seconds 30 [--trace 1] [--out summary.json]

For each workload and metric it prints the median of the per-run values,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile distance as a share of the median, next to the bound
that ``BENCHMARK.json`` fixes for the metric.  ``--out`` writes the values
of every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, run_wall_s=wall)
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names}
        summary["run_wall_s"] = summarize([r["run_wall_s"] for r in runs])
        report[workload] = {"runs": runs, "summary": summary}
        print(f"{workload}: {'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}  bound")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  {bound:g}" + (" OVER" if s["spread"] > bound else "")
            print(f"{workload}: {name:<32}{s['median']:>12.6g}{s['q1']:>12.6g}"
                  f"{s['q3']:>12.6g}{s['spread']:>9.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
