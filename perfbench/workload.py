"""One benchmark workload in one process: set-up, timed repetitions, checks.

``run.py`` starts this script with BLAS pinned to one thread and passes the
time it launched the process, so set-up time counts from process start. The
script prints one JSON object on its last stdout line for ``run.py``.

Every repetition solves the same inputs, drawn from ``--seed`` through
``repeat_rng``. Only the call into the program is timed; the correctness
checks and a reference kernel, which scales the times to a fixed host speed,
run between repetitions. With ``--trace 1`` untraced and traced
repetitions alternate, so one process gives both the per-layer split and the
tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import minresls  # noqa: E402
from minresls import bench, core, driver, hessians  # noqa: E402
from minresls.minres import NPC  # noqa: E402

from tracer import Tracer, patched  # noqa: E402

# |f_final - f_opt| allowed for a solve to count as correct. Every workload's
# f_opt is 0 or -0.25, and a run stuck at the quartic_saddle saddle sits 0.25
# away, so this also checks that the run escaped the saddle.
F_TOL = 1e-8

# (problem, problem parameters, builtin config, start points) of the workloads
# that solve one problem. A repetition solves every start point, repeats
# 0, 1, ... of the seed; newton_large takes two because the length of one
# rosenbrock solve varies by up to 12% (inner iterations) between seeds.
SINGLE = {
    "newton_large": ("rosenbrock", {"n": 100_000}, "newton_mr", 2),
    # condition number 1e3; the spectrum is fixed, the start point is drawn
    "lbfgs_mid": ("quadratic", {"spectrum": np.geomspace(1.0, 1e3, 10_000)}, "lbfgs_mr", 1),
}

# Repetitions a run makes even when they take longer than --seconds: two
# untraced ones, whose deterministic fields must agree, or one untraced and
# one traced.
MIN_REPETITIONS = 2

# Share of the traced wall time that may fall outside every measured span
# (the harness's own work inside the timed body); above it a layer is missing.
UNATTRIBUTED_MAX = 0.01

# suite_small: many tiny cells, so per-call overhead dominates. Rosenbrock
# cells are left out: the length of a rosenbrock solve varies with the start
# point by 25-45% (standard deviation over mean), so a few of them would set
# the spread of the whole suite's counts and time.
SUITE_CELLS = [
    ("quartic_saddle", 10, "newton_mr"),
    ("quartic_saddle", 10, "lbfgs_mr"),
    ("toy_sine", 100, "newton_mr"),
    ("toy_sine", 100, "lbfgs_mr"),
]
SUITE_REPEATS = 100

WORKLOADS = (*SINGLE, "suite_small")

# Computed array traffic of one steady-state MINRES iteration at dimension n,
# operator excluded: 24n float64 reads and 15n writes (temporaries included)
# and 19n flops, counted from the numpy expressions in ``minres_npc``.
MINRES_BYTES_PER_N = 8 * (24 + 15)
MINRES_FLOPS_PER_N = 19

# Seconds ``reference_kernel`` takes on the reference machine (2-vCPU VM,
# OpenBLAS on one thread); times are reported at this speed.
REF_KERNEL_S = 0.45

# Cache sizes of the reference machine, stated next to the vector sizes.
L2_PER_CORE_BYTES = 2 * 2**20
L3_SHARED_BYTES = 105 * 2**20


def lbfgs_apply_computed(n: int, m: int) -> tuple[float, float]:
    """(bytes, flops) of ``LbfgsStore.apply`` with m pairs: two gemv over the
    n x 2m block, then gamma*v minus the product; an empty store copies v."""
    if m == 0:
        return 16.0 * n, 0.0
    return 8.0 * (4 * m + 7) * n, 8.0 * m * n + 2.0 * n


def suite_manifest(seed: int) -> str:
    return "\n".join(
        f"problem={p} p.n={n} config={c} seed={seed} repeats={SUITE_REPEATS}"
        for p, n, c in SUITE_CELLS)


# ---------------------------------------------------------------------------
# workloads: set-up, timed body, and the solves it returns


class Single:
    def __init__(self, name: str, seed: int):
        problem, params, config, starts = SINGLE[name]
        self.spec = minresls.build_problem(problem, self_test=False, **params)
        self.cfg = bench.builtin_config(config)
        self.x0s = [self.spec.start(bench.repeat_rng(seed, r)) for r in range(starts)]
        self.label = (f"{problem}(n={self.spec.dim})", config, seed)
        self.dims = [self.spec.dim]

    def body(self, out_dir):
        traces = []
        for repeat, x0 in enumerate(self.x0s):
            trace = driver.solve(self.spec.make_objective(), x0, self.cfg)
            trace.problem, trace.config, trace.seed = self.label
            trace.repeat = repeat
            traces.append(trace)
        return traces, None

    def solves(self, traces, extra, out_dir):
        """Rows of (trace, spec, cfg, parsed trace file, file bytes), one per
        solve, and a defect of the repetition as a whole or None."""
        rows = []
        for trace in traces:
            path = out_dir / f"run{trace.repeat}.trace"
            bench.emit_trace(trace, path)
            parsed = bench.parse_trace_text(path.read_text(), origin=str(path))
            rows.append((trace, self.spec, self.cfg, parsed, path.stat().st_size))
        return rows, None


class Suite:
    def __init__(self, seed: int):
        self.text = suite_manifest(seed)
        self.cells = bench.parse_manifest(self.text)
        self.dims = sorted({cell.spec.dim for cell in self.cells})

    def body(self, out_dir):
        cells = bench.parse_manifest(self.text)
        traces = bench.run_suite(cells)
        bench.write_suite(traces, out_dir)
        parsed = bench.load_trace_dir(out_dir)
        table = bench.table_from_traces(parsed, "oracles")
        profile = bench.performance_profile(table)
        bench.write_profile_csv(profile, out_dir / "profile.csv")
        return traces, (parsed, profile)

    def solves(self, traces, extra, out_dir):
        parsed, profile = extra
        units = [cell for cell in self.cells for _ in range(cell.repeats)]
        sizes = [(out_dir / bench.trace_filename(i, tr)).stat().st_size
                 for i, tr in enumerate(traces)]
        if len(parsed) != len(traces):
            return [], f"{len(parsed)} trace files for {len(traces)} runs"
        rows = list(zip(traces, [c.spec for c in units], [c.cfg for c in units],
                        parsed, sizes))
        return rows, profile_defect(profile, out_dir / "profile.csv")


def profile_defect(profile, csv_path) -> str | None:
    """Every instance is solved by every config, so each profile ends at 1."""
    ends = {s: f[-1] for s, f in profile.fractions.items()}
    if any(v != 1.0 for v in ends.values()):
        return f"profile does not reach 1 for every solver: {ends}"
    rows = csv_path.read_text().splitlines()
    if len(rows) != 1 + len(profile.solvers) * len(profile.taus):
        return f"profile csv has {len(rows)} lines"
    return None


def make_workload(name: str, seed: int):
    return Suite(seed) if name == "suite_small" else Single(name, seed)


# ---------------------------------------------------------------------------
# correctness checks


def _h(x) -> str:
    return float(x).hex()


def run_fields(tr):
    """Every field of a run that a trace file stores, except ``time_ms``."""
    recs = [(r.k, _h(r.f), _h(r.gnorm), r.flag, _h(r.step), r.inner_iters,
             _h(r.theta), _h(r.zeta), _h(r.oracles)) for r in tr.records]
    return recs, (tr.problem, tr.config, tr.seed, tr.repeat, tr.status, tr.iters,
                  _h(tr.oracles), _h(tr.f_final), _h(tr.gnorm_final))


def parsed_fields(pt):
    recs = [(p["k"], _h(p["f"]), _h(p["gnorm"]), p["flag"], _h(p["lambda"]),
             p["inner_iters"], _h(p["theta_k"]), _h(p["zeta_k"]), _h(p["oracles"]))
            for p in pt.records]
    s = pt.summary
    return recs, (s["problem"], s["config"], s["seed"], s["repeat"], s["status"],
                  s["iters"], _h(s["oracles"]), _h(s["final_f"]), _h(s["final_gnorm"]))


def solve_defect(tr, spec, cfg, parsed, reference) -> str | None:
    if tr.status != driver.CONVERGED:
        return f"status {tr.status}"
    if not tr.gnorm_final <= cfg.grad_tol:
        return f"gnorm_final {tr.gnorm_final!r} > grad_tol {cfg.grad_tol!r}"
    if not abs(tr.f_final - spec.f_opt) <= F_TOL:
        return f"f_final {tr.f_final!r} is not within {F_TOL} of f_opt {spec.f_opt!r}"
    fields = run_fields(tr)
    if parsed_fields(parsed) != fields:
        return "trace file does not reproduce the run's non-time fields"
    if reference is not None and fields != reference:
        return "deterministic fields differ from the first repetition"
    return None


# ---------------------------------------------------------------------------
# per-layer instrumentation


def instrument(tr: Tracer):
    """(owner, attribute, wrapper) triples for every measured entry point."""
    def on_minres(out, A, b, *rest, **kw):
        tr.add("minres.inner_iters", out.inner_iters)
        tr.add("minres.npc", out.flag == NPC)
        tr.add("minres.bytes", MINRES_BYTES_PER_N * b.size * out.inner_iters)
        tr.add("minres.flops", MINRES_FLOPS_PER_N * b.size * out.inner_iters)

    def on_armijo(res, *args, **kw):
        tr.add("armijo.evals", res.n_evals)

    def on_npc(res, *args, **kw):
        tr.add("npc.evals", res.n_evals)
        tr.add("npc.capped", res.capped)

    def on_update(kept, store, s, y):
        tr.add("lbfgs.accepted", kept)

    def on_apply(out, store, v):
        nbytes, flops = lbfgs_apply_computed(store.dim, store.n_pairs)
        tr.add("lbfgs.apply_bytes", nbytes)
        tr.add("lbfgs.apply_flops", flops)

    def on(owner, attr, name, observe=None):
        return owner, attr, tr.wrap(name, getattr(owner, attr), observe)

    Op, Obj, Store = core.SymmetricOperator, core.Objective, hessians.LbfgsStore
    return [
        on(driver, "solve", "driver.solve"),
        on(bench, "solve", "driver.solve"),
        on(driver, "minres_npc", "minres.minres_npc", on_minres),
        on(driver, "armijo_backtrack", "linesearch.armijo", on_armijo),
        on(driver, "npc_linesearch", "linesearch.npc", on_npc),
        on(Store, "update", "hessians.lbfgs_update", on_update),
        on(Store, "apply", "hessians.lbfgs_apply", on_apply),
        on(Op, "__call__", "core.operator"),
        on(Obj, "f", "problems.f"),
        on(Obj, "grad", "problems.grad"),
        on(Obj, "hvp", "problems.hvp"),
        *(on(bench, fn, f"bench.{fn}") for fn in (
            "parse_manifest", "run_suite", "write_suite", "load_trace_dir",
            "table_from_traces", "performance_profile", "write_profile_csv")),
    ]


# metric name -> span names whose self times it sums; the self times of all of
# them together equal the traced wall time by construction
SELF_TIME_METRICS = {
    "minres.self_s": ["minres.minres_npc"],
    "problems.f_s": ["problems.f"],
    "problems.grad_s": ["problems.grad"],
    "problems.hvp_s": ["problems.hvp"],
    "hessians.lbfgs_update_s": ["hessians.lbfgs_update"],
    "hessians.lbfgs_apply_s": ["hessians.lbfgs_apply"],
    "core.operator_self_s": ["core.operator"],
    "linesearch.armijo_self_s": ["linesearch.armijo"],
    "linesearch.npc_self_s": ["linesearch.npc"],
    "driver.self_s": ["driver.solve"],
    "bench.parse_manifest_s": ["bench.parse_manifest"],
    "bench.run_suite_s": ["bench.run_suite"],
    "bench.write_suite_s": ["bench.write_suite"],
    "bench.load_trace_dir_s": ["bench.load_trace_dir"],
    "bench.profile_s": ["bench.table_from_traces", "bench.performance_profile",
                        "bench.write_profile_csv"],
    "harness.self_s": ["harness.body"],
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_reps: int, untraced_walls, traces, trace_bytes):
    """Per-layer values per traced repetition; ``traces`` are one repetition's
    runs and ``trace_bytes`` the bytes of trace files it wrote."""
    agg = tr.aggregate()
    stat = lambda span, key: agg.get(span, {}).get(key, 0.0) / traced_reps  # noqa: E731
    count = lambda key: tr.counts.get(key, 0.0) / traced_reps  # noqa: E731
    m = {name: sum(stat(s, "self_s") for s in spans)
         for name, spans in SELF_TIME_METRICS.items()}
    inner = count("minres.inner_iters")
    records = [r for t in traces for r in t.records]
    gd_inner = sum(r.inner_iters for r in records if r.flag == driver.GD)
    m.update({
        "minres.us_per_iter": 1e6 * _ratio(m["minres.self_s"], inner),
        "minres.calls": stat("minres.minres_npc", "calls"),
        "minres.inner_iters": inner,
        "minres.npc_ratio": _ratio(count("minres.npc"), stat("minres.minres_npc", "calls")),
        "minres.wasted_iter_ratio": _ratio(gd_inner, sum(r.inner_iters for r in records)),
        "minres.bytes_per_iter_computed": _ratio(count("minres.bytes"), inner),
        "minres.flops_per_iter_computed": _ratio(count("minres.flops"), inner),
        "problems.f_calls": stat("problems.f", "calls"),
        "problems.grad_calls": stat("problems.grad", "calls"),
        "problems.hvp_calls": stat("problems.hvp", "calls"),
        "problems.oracles": sum(t.oracles for t in traces),
        "hessians.lbfgs_update_calls": stat("hessians.lbfgs_update", "calls"),
        "hessians.lbfgs_apply_calls": stat("hessians.lbfgs_apply", "calls"),
        "hessians.lbfgs_accept_ratio": _ratio(count("lbfgs.accepted"),
                                              stat("hessians.lbfgs_update", "calls")),
        "hessians.lbfgs_apply_bytes_computed": _ratio(count("lbfgs.apply_bytes"),
                                                      stat("hessians.lbfgs_apply", "calls")),
        "hessians.lbfgs_apply_flops_computed": _ratio(count("lbfgs.apply_flops"),
                                                      stat("hessians.lbfgs_apply", "calls")),
        "core.operator_calls": stat("core.operator", "calls"),
        "linesearch.armijo_calls": stat("linesearch.armijo", "calls"),
        "linesearch.npc_calls": stat("linesearch.npc", "calls"),
        "linesearch.armijo_evals_per_call": _ratio(count("armijo.evals"),
                                                   stat("linesearch.armijo", "calls")),
        "linesearch.npc_evals_per_call": _ratio(count("npc.evals"),
                                                stat("linesearch.npc", "calls")),
        "linesearch.npc_capped": count("npc.capped"),
        "driver.outer_iters": len(records),
        "driver.gd_fallbacks": sum(r.flag == driver.GD for r in records),
        "traced_wall_s": stat("harness.body", "total_s"),
        "untraced_wall_s": statistics.median(untraced_walls),
    })
    m["tracing_overhead_s"] = m["traced_wall_s"] - m["untraced_wall_s"]
    outer = m["driver.outer_iters"]
    m.update({
        "ms_per_iter": 1e3 * m["untraced_wall_s"] / outer,
        "oracles_per_iter": m["problems.oracles"] / outer,
        "inner_per_iter": inner / outer,
        "trace_bytes_per_iter": trace_bytes / outer,
    })
    return m


def iter_ms(traces) -> np.ndarray:
    """Wall milliseconds of each outer iteration, from the records' time_ms."""
    return np.concatenate([np.diff([0.0] + [r.time_ms for r in t.records])
                           for t in traces])


# ---------------------------------------------------------------------------
# the run


def tail_percentile(samples: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    if samples < 11:
        return None
    return int(100 * (1 - 10 / samples))


def summary(walls) -> dict:
    """Median, sample count and tail of the untraced wall seconds."""
    tail = tail_percentile(len(walls))
    return {"median": statistics.median(walls), "min": min(walls), "samples": len(walls),
            "tail_percentile": tail,
            "tail_s": None if tail is None else float(np.percentile(walls, tail))}


def reference_kernel() -> float:
    """Seconds of a fixed piece of work that calls no minresls code.

    The host's speed drifts by up to 1.5x over minutes, so each repetition's
    time is scaled by this kernel's time measured just before and just after
    it in the same process. Like the workloads, the kernel mixes MINRES-like
    vector traffic at n=1e5 (0.8 MB vectors) with interpreter-bound work on
    tiny arrays and a dict. Its arrays are allocated before the clock
    starts, so no large allocation falls in the timed part.
    """
    rng = np.random.default_rng(0)
    x, y, z, w, t = (rng.standard_normal(100_000) for _ in range(5))
    small, tiny = np.arange(10.0), np.empty(10)
    counts = dict.fromkeys(range(997), 0)
    t0 = time.perf_counter()
    for _ in range(600):
        np.multiply(x, 0.5, out=w)
        np.multiply(y, 0.25, out=t)
        np.subtract(w, t, out=w)
        np.multiply(z, 1e-6 * float(w @ z), out=t)
        np.subtract(w, t, out=z)
        np.divide(z, float(np.linalg.norm(z)), out=t)
        x, y, t = y, t, x
    for i in range(30_000):
        np.multiply(small, 0.5, out=tiny)
        tiny += small
        counts[i % 997] += int(float(tiny @ tiny)) & 1
    for i in range(150_000):
        counts[i % 997] += i
    return time.perf_counter() - t0


def timed_body(wl, out_dir, tracer, wrappers):
    """Wall seconds of one call of the body, traced when ``tracer`` is given."""
    if tracer is None:
        t0 = time.perf_counter()
        traces, extra = wl.body(out_dir)
        return time.perf_counter() - t0, traces, extra
    body = tracer.wrap("harness.body", wl.body)   # the root span of the repetition
    with patched(wrappers):
        t0 = time.perf_counter()
        traces, extra = body(out_dir)
        return time.perf_counter() - t0, traces, extra


def measure(name: str, seed: int, seconds: float, trace: bool, launched_at: float,
            setup_only: bool) -> dict:
    wl = make_workload(name, seed)
    if setup_only:
        return {"setup_s": time.time() - launched_at}
    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    wrappers = instrument(tracer) if trace else None
    walls = {False: [], True: []}       # traced? -> wall seconds per repetition
    scaled = []                         # untraced wall seconds at reference speed
    trace_bytes, errors = [], []
    attempted = failed = rep = 0
    first = reference = None            # runs and fields of the first repetition
    setup_s = time.time() - launched_at
    kernel_s = [reference_kernel()]     # before the first repetition and after each
    start = time.perf_counter()
    try:
        while rep < MIN_REPETITIONS or time.perf_counter() - start < seconds:
            traced = trace and rep % 2 == 1
            rep += 1
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            try:
                wall, traces, extra = timed_body(wl, out_dir, tracer if traced else None,
                                                 wrappers)
                kernel_s.append(reference_kernel())
                rows, suite_defect = wl.solves(traces, extra, out_dir)
            except Exception as exc:   # a raising solve is a failed solve
                errors.append(f"{type(exc).__name__}: {exc}")
                units = len(reference) if reference else 1
                attempted += units
                failed += units
                continue
            if suite_defect:
                errors.append(suite_defect)
            if reference is None:
                reference = [run_fields(row[0]) for row in rows]
            for i, (tr, spec, cfg, parsed, _) in enumerate(rows):
                defect = solve_defect(tr, spec, cfg, parsed,
                                      reference[i] if i < len(reference) else None)
                attempted += 1
                if defect:
                    failed += 1
                    errors.append(f"{tr.problem} {tr.config} repeat {tr.repeat}: {defect}")
            walls[traced].append(wall)
            if not traced:
                scaled.append(wall * REF_KERNEL_S / statistics.mean(kernel_s[-2:]))
                trace_bytes.append(sum(row[4] for row in rows))
                # later repetitions' runs are dropped, so memory does not grow with their number
                first = first or traces
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # host speed relative to the reference machine: >1 when the host runs slower
    slowdown = statistics.median(kernel_s) / REF_KERNEL_S
    result = {"setup_s": setup_s, "slowdown": slowdown, "attempted": attempted,
              "failed": failed, "errors": errors[:20]}
    plain = walls[False]
    if not plain or (trace and not walls[True]):
        result["errors"].append("no complete repetition")
        result["attempted"], result["failed"] = max(attempted, 1), max(failed, 1)
        return result

    outer = sum(t.iters for t in first)
    inner = sum(r.inner_iters for t in first for r in t.records)
    oracles = sum(t.oracles for t in first)
    result["info"] = {
        "measured_wall_s": {**summary(plain), "samples_s": plain},
        "wall_s": summary(scaled),
        "kernel_s": kernel_s, "ref_kernel_s": REF_KERNEL_S,
        "outer_iters": outer, "inner_iters": inner, "oracles": oracles,
        "trace_bytes": statistics.median(trace_bytes),
        "dims": wl.dims,
        "vector_bytes": [8 * n for n in wl.dims],
        "l2_per_core_bytes": L2_PER_CORE_BYTES, "l3_shared_bytes": L3_SHARED_BYTES,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__, "python": sys.version.split()[0],
    }
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(scaled),
            "oracles": oracles,
            "outer_iters": outer,
            "inner_iters": inner,
            "solved_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "trace_bytes": statistics.median(trace_bytes),
        }
        return result

    metrics = layer_metrics(tracer, len(walls[True]), plain, first,
                            statistics.median(trace_bytes))
    per_iter = iter_ms(first)
    metrics["driver.iter_ms.p50"] = float(np.percentile(per_iter, 50))
    metrics["driver.iter_ms.p95"] = float(np.percentile(per_iter, 95))
    if metrics["harness.self_s"] > UNATTRIBUTED_MAX * metrics["traced_wall_s"]:
        result["errors"].append(
            f"{metrics['harness.self_s']:.4g} s of {metrics['traced_wall_s']:.4g} s traced "
            f"lie outside every measured layer (allowed: {UNATTRIBUTED_MAX:.0%})")
    span_file = out_root / f"spans-{name}.npz"
    result["info"]["spans"] = tracer.write(span_file)
    result["info"]["span_file"] = str(span_file.relative_to(ROOT))
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched-at", type=float, required=True,
                    help="time.time() at which the parent started this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop before the first timed call and report set-up time")
    args = ap.parse_args(argv)
    if not Path(minresls.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported minresls from {minresls.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.launched_at, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
