#!/usr/bin/env python3
"""Steadiness command: run one or more workloads repeatedly, one seed per
run, and report each metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload lorenz_staged \
        --workload diffusion_source_joint --seeds 0-9 --seconds 20

The spread is the distance between the first and the third quartile as a
share of the median, with the quartiles from
`statistics.quantiles(values, n=4)`. The summary is printed and written to
perfbench/out/steady-<workload>.json; BENCHMARK.json's end-to-end bounds are
set from it (README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(results):
    """{metric: {median, q1, q3, spread, unit, values}} plus the failed
    shares seen, from the parsed result lines of several runs."""
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "unit": results[0]["metrics"][name]["unit"],
                     "values": vals}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if len(a.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    for wl in a.workload:
        results = []
        for seed in a.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(a.seconds),
                 "--trace", str(a.trace)], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{wl} seed {seed}: run.py exited {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={m['value']:.4g}"
                      for k, m in res["metrics"].items()), flush=True)
        summary = {"workload": wl, "seeds": a.seeds, "seconds": a.seconds,
                   "trace": a.trace,
                   "correct": all(r["correct"] for r in results),
                   "failed_shares": sorted({r["failed"] / r["attempted"]
                                            for r in results}),
                   "metrics": summarize(results)}
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"steady-{wl}.json").write_text(
            json.dumps(summary, indent=1))
        print(f"\n{wl}: {len(results)} runs, correct={summary['correct']}, "
              f"failed shares {summary['failed_shares']}")
        print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}  unit")
        for name, m in summary["metrics"].items():
            print(f"{name:<34}{m['median']:>12.5g}{m['q1']:>12.5g}"
                  f"{m['q3']:>12.5g}{m['spread']:>9.2%}  {m['unit']}")


if __name__ == "__main__":
    main()
