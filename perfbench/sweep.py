"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/sweep.py --seeds 11 --trace 0 1 --out perfbench/baseline/seed11.json
    python3 perfbench/sweep.py --seeds 1-10 --compare perfbench/baseline/seeds1-10_set1.json

Runs ``run.py`` once per (declared workload, seed, trace) in sequence, each
run as long as ``run_seconds`` in ``BENCHMARK.json``, prints every
metric with its unit, and for each end-to-end metric the median, quartiles
and spread (inter-quartile distance over the median) across seeds. With
``--compare`` it checks that outer iterations, inner iterations and oracle
units per seed equal those of an earlier sweep exactly. The exit code is
nonzero when any run fails or any count differs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SECONDS = DECLARED["run_seconds"]
COUNTS = ("outer_iters", "inner_iters", "oracles")


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    if sep:
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"workload": workload, "seed": seed, "trace": trace,
                "exit": proc.returncode, "correct": False}
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            **json.loads(lines[-2])["info"], **result}


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="11", help="'11', '1,5,9' or '1-10'")
    ap.add_argument("--trace", nargs="+", type=int, default=[0], choices=(0, 1))
    ap.add_argument("--out", type=Path, help="write every run and the spreads as JSON")
    ap.add_argument("--compare", type=Path, help="earlier --out file to match counts against")
    args = ap.parse_args(argv)

    runs, ok = [], True
    for workload in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            for trace in args.trace:
                run = run_once(workload, seed, trace)
                runs.append(run)
                ok &= run["exit"] == 0 and run["correct"]
                shown = {k: f"{m['value']:.6g} {m['unit']}"
                         for k, m in run.get("metrics", {}).items()}
                print(f"{workload} seed={seed} trace={trace} exit={run['exit']} "
                      f"correct={run['correct']} {json.dumps(shown)}", flush=True)

    spreads = {}
    for workload in WORKLOADS:
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0
                 and "metrics" in r]
        if not plain:
            continue
        spreads[workload] = {k: spread([r["metrics"][k]["value"] for r in plain])
                             for k in plain[0]["metrics"]}
        for k, s in spreads[workload].items():
            print(f"{workload} {k}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}")

    if args.compare:
        earlier = {(r["workload"], r["seed"]): r
                   for r in json.loads(args.compare.read_text())["runs"] if "outer_iters" in r}
        for r in runs:
            ref = earlier.get((r["workload"], r["seed"]))
            if ref is None or "outer_iters" not in r:
                continue
            diff = {k: (ref[k], r[k]) for k in COUNTS if ref[k] != r[k]}
            if diff:
                ok = False
                print(f"counts differ: {r['workload']} seed={r['seed']} {diff}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seconds": SECONDS, "runs": runs,
                                        "spreads": spreads}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
