"""Time-to-solution benchmark of minresls, one workload per call.

    python3 perfbench/run.py --workload newton_large --seed 11 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a fresh process
(``workload.py``) with BLAS pinned to one thread. Set-up time is sampled in
that process and in ``SETUP_PROBES`` more fresh processes that stop before
the first timed call, half of them before the workload and half after, so
that the samples span the run. The fastest sample is reported, because host
load can only lengthen a sample, scaled like the workload's wall time to the
reference machine's speed (see ``reference_kernel`` in ``workload.py``).

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``, named and in the units ``BENCHMARK.json``
declares. The line before it holds the run's context (machine, thread
settings, measured and scaled wall times, reference-kernel and set-up
samples). The exit code is nonzero when any correctness
check fails; then the result line still prints. It is also nonzero, with no
result line, when the checkout has no program to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 10
# A hung workload process is killed so that the whole call ends within this.
TIME_LIMIT_S = 170.0

# Single-threaded BLAS: one process per workload, one thread per process.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(workload, seed, seconds, trace, setup_only, deadline):
    """Run workload.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED}
    launched_at = time.time()
    proc = subprocess.run(cmd + ["--launched-at", repr(launched_at)], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in DECLARED["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "minresls" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'minresls'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probe = lambda: child(args.workload, args.seed, 0, 0, True, deadline)["setup_s"]  # noqa: E731
        setup = [probe() for _ in range(SETUP_PROBES // 2)]
        res = child(args.workload, args.seed, args.seconds, args.trace, False, deadline)
        setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if "metrics" not in res:
        return 1
    setup.append(res["setup_s"])
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_s_samples": setup, **res["info"]}
    # the fastest sample, at the reference machine's speed like wall_s
    values = {**res["metrics"], "setup_s": min(setup) / res["slowdown"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in DECLARED["per_layer" if args.trace else "end_to_end"]}
    correct = res["failed"] == 0 and not res["errors"]
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
