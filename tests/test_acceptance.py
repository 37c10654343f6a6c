"""Acceptance gate: one test per release criterion, full stated scale.

Each test function is one criterion; ``pytest -v`` therefore prints one
pass/fail line per criterion. Tolerances appear inline next to each assert.
"""
import math
import re
import time

import numpy as np
import pytest

from minresls import driver
from minresls.bench import parse_manifest, run_suite, write_suite
from minresls.checks import (
    check_lbfgs_cautious_rule,
    check_lbfgs_equivalence,
    check_minres_oracle_equivalence,
    check_monotone_iterate_growth,
    check_npc_certificates,
    check_profile_example,
)
from minresls.core import ensure_operator
from minresls.driver import (
    CONVERGED,
    GD,
    ScheduleParams,
    SolverConfig,
    schedule_eval,
    solve,
)
from minresls.problems import build_problem
from minresls.reference import profile_fraction_reference


# --- shared experiment fixtures ---------------------------------------------

SWEEP_COMBOS = [(0.1, beta, zmult)
               for beta in (1.0, 0.5, 0.25)
               for zmult in (1.0, 0.1, 0.01)]


@pytest.fixture(scope="module")
def coupled_sweep_runs():
    """Nine coupled-schedule runs on the sine fit, invariants armed."""
    problem = build_problem("toy_sine", n=200)
    runs = []
    t0 = time.perf_counter()
    for i, (cap, beta, zmult) in enumerate(SWEEP_COMBOS):
        sp = ScheduleParams(mode="coupled", tol_cap=cap, beta=beta,
                            zeta_mult=zmult)
        cfg = SolverConfig(schedule=sp, check_invariants=True)
        x0 = problem.start(np.random.default_rng([41, i]))
        trace = solve(problem.make_objective(), x0, cfg)
        runs.append(((cap, beta, zmult), trace))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def saddle_runs():
    """100 seeded starts within 1e-3 of the strict saddle, invariants armed."""
    problem = build_problem("quartic_saddle", n=10)
    cfg = SolverConfig(check_invariants=True)
    runs = []
    for i in range(100):
        x0 = problem.start(np.random.default_rng([909, i]))
        assert np.linalg.norm(x0) <= 1e-3
        runs.append(solve(problem.make_objective(), x0, cfg))
    return problem, runs


def dense_hessian(obj, x):
    n = x.size
    return np.column_stack([obj.hvp(x, e) for e in np.eye(n)])


# --- criteria ----------------------------------------------------------------


def test_criterion_01_minres_oracle_equivalence():
    """200 seeded systems (n <= 8, mixed): phi_t within 1e-8 of the dense
    Krylov least-squares oracle at every iteration, in under 5 seconds."""
    t0 = time.perf_counter()
    detail = check_minres_oracle_equivalence(n_systems=200)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f} s"
    print(f"criterion 1: {detail} in {elapsed:.2f} s")


def test_criterion_02_npc_certificate_soundness():
    """200 indefinite systems: every certificate satisfies d'Ad <= 1e-10 ||b||^2,
    ||d|| = ||b|| (1e-10), d'b = ||b|| ||r|| > 0; theta=0 solves hit 1e-8."""
    detail = check_npc_certificates(n_systems=200, seed=23)
    print(f"criterion 2: {detail}")


def test_criterion_03_solution_path_inequalities():
    """On the same 200 indefinite systems: p_t'b > p_t'Ap_t - 1e-10 at every
    solution-path iterate, p_1 matches its closed form to 1e-10."""
    detail = check_monotone_iterate_growth(n_systems=200, seed=23,
                                           kind="indefinite")
    print(f"criterion 3: {detail}")


def test_criterion_04_coupled_sweep_superlinear(coupled_sweep_runs):
    """Sine fit, n=200, 9 coupled schedules: every run reaches ||g|| <= 1e-10
    within 200 iterations; beta=1 runs end with log-gradient ratios >= 1.2
    over the last three iterations; all nine runs finish inside 60 s."""
    runs, elapsed = coupled_sweep_runs
    assert elapsed < 60.0, f"figure-1 suite took {elapsed:.1f} s"
    for (cap, beta, zmult), trace in runs:
        tag = f"cap={cap} beta={beta} zeta_mult={zmult}"
        assert trace.status == CONVERGED, f"{tag}: {trace.status}"
        assert trace.iters <= 200, f"{tag}: {trace.iters} iterations"
        assert trace.gnorm_final <= 1e-10, f"{tag}: ||g|| = {trace.gnorm_final:.2e}"
        if beta == 1.0:
            gs = [r.gnorm for r in trace.records] + [trace.gnorm_final]
            assert len(gs) >= 4, f"{tag}: too few iterations for a tail"
            tail = gs[-4:]
            assert all(g < 1.0 for g in tail), f"{tag}: tail not yet below 1"
            for g_k, g_next in zip(tail, tail[1:]):
                ratio = math.inf if g_next == 0.0 \
                    else math.log(g_next) / math.log(g_k)
                assert ratio >= 1.2, f"{tag}: tail log-ratio {ratio:.3f} < 1.2"
    iters = [t.iters for _, t in runs]
    print(f"criterion 4: 9 runs converged, iterations {min(iters)}-{max(iters)}, "
          f"{elapsed:.2f} s")


def test_criterion_05_saddle_avoidance(saddle_runs):
    """100 starts within 1e-3 of the strict saddle: >= 99 converge to the
    global minimum (f within 1e-8 of -1/4, lambda_min(H) >= -1e-6), and at
    least one run takes a certificate step longer than the initial step."""
    problem, runs = saddle_runs
    escaped = 0
    npc_forward = 0
    for trace in runs:
        if any(r.flag == "NPC" and r.step > 1.0 for r in trace.records):
            npc_forward += 1
        if trace.status != CONVERGED:
            continue
        obj = problem.make_objective()
        lam_min = float(np.linalg.eigvalsh(dense_hessian(obj, trace.x_final))[0])
        if lam_min >= -1e-6 and abs(trace.f_final - (-0.25)) <= 1e-8:
            escaped += 1
    assert escaped >= 99, f"only {escaped}/100 runs reached the minimum"
    assert npc_forward >= 1, "no run logged a forward certificate step"
    print(f"criterion 5: {escaped}/100 escaped, {npc_forward} runs with "
          f"certificate steps beyond 1.0")


def test_criterion_06_direction_invariant_suite(coupled_sweep_runs, saddle_runs):
    """Direction-property assertions were armed inside the driver for every
    iteration of both experiments; a violation raises, so reaching here with
    all runs complete is the pass."""
    runs, _ = coupled_sweep_runs
    problem, sruns = saddle_runs
    total = sum(t.iters for _, t in runs) + sum(t.iters for t in sruns)
    assert all(t.status == CONVERGED for _, t in runs)
    assert all(t.status is not None for t in sruns)
    print(f"criterion 6: invariants held on {total} instrumented iterations")


def test_criterion_07_lbfgs_compact_equivalence():
    """100 random pair sequences (n <= 10, m <= 4): compact-form products
    within 1e-8 of the dense recursion on 20 probes each; the cautious rule
    rejects every pair with |y's| < 1e-18 ||s||^2."""
    detail = check_lbfgs_equivalence(n_sequences=100, probes=20)
    detail2 = check_lbfgs_cautious_rule()
    print(f"criterion 7: {detail}; {detail2}")


def test_criterion_08_lbfgs_mr_end_to_end():
    """Chained Rosenbrock n=100 under the quasi-Newton schedule with the
    L-BFGS curvature screen: converges to ||g|| <= 1e-10 inside 1e5 oracle
    calls with monotone objective values."""
    problem = build_problem("rosenbrock", n=100)
    sp = ScheduleParams(mode="lbfgs_mr")
    cfg = SolverConfig(schedule=sp, max_oracles=1e5)
    # the screen measures d'Bd against max(||d||^2, ||g||^2): the stiff model's
    # d'Bd = 1e-13 ||g||^2 fails it
    g = np.ones(2)
    gnorm = float(np.linalg.norm(g))
    stiff = driver._choose_direction(ensure_operator(1e13 * np.eye(2)), g, gnorm,
                                     *schedule_eval(1, gnorm, sp), cfg)
    assert stiff[0] == GD
    x0 = problem.start(np.random.default_rng(2718))
    trace = solve(problem.make_objective(), x0, cfg)
    assert trace.status == CONVERGED, trace.status
    assert trace.gnorm_final <= 1e-10
    assert trace.oracles <= 1e5, f"{trace.oracles} oracle calls"
    fs = [r.f for r in trace.records] + [trace.f_final]
    assert all(b <= a for a, b in zip(fs, fs[1:])), "objective not monotone"
    print(f"criterion 8: converged in {trace.iters} iterations, "
          f"{trace.oracles:.0f} oracles")


def test_criterion_09_performance_profile_correctness():
    """Two-solver hand example is exact; the profile agrees with a
    brute-force recount on 20 random metric tables."""
    detail = check_profile_example()
    from minresls.bench import performance_profile
    rng = np.random.default_rng(4242)
    tables = 0
    for _ in range(20):
        solvers = [f"s{i}" for i in range(int(rng.integers(1, 5)))]
        problems = [f"p{i}" for i in range(int(rng.integers(1, 8)))]
        table = {}
        for s in solvers:
            for p in problems:
                if rng.uniform() < 0.1:
                    continue                    # missing cell
                table[(s, p)] = (float(rng.uniform(0.1, 5.0)),
                                 bool(rng.uniform() < 0.75))
        if not table:
            continue
        prof = performance_profile(table)
        for s in prof.solvers:
            for tau, frac in zip(prof.taus, prof.fractions[s]):
                ref = profile_fraction_reference(table, s, tau)
                assert frac == ref, (s, tau, frac, ref)
        tables += 1
    assert tables >= 19
    print(f"criterion 9: {detail}; {tables} random tables recounted")


def test_criterion_10_trace_determinism(tmp_path):
    """Re-running a manifest with identical seeds reproduces every trace file
    byte for byte once wall-clock fields are masked."""
    manifest = (
        "problem=quadratic p.n=8 config=newton_mr seed=11 repeats=2\n"
        "problem=quartic_saddle config=newton_mr seed=12 repeats=2\n"
        "problem=toy_sine p.n=20 config=lbfgs_mr seed=13\n"
        "problem=toy_sine p.n=20 config=coupled seed=13\n")

    def run_to_dir(name):
        traces = run_suite(parse_manifest(manifest))
        return write_suite(traces, tmp_path / name)

    # time_ms is the last field of every record and summary line
    scrub = lambda p: re.sub(r"(?m)^([^#].*) \S+$", r"\1 *",  # noqa: E731
                             open(p).read())
    first = run_to_dir("a")
    second = run_to_dir("b")
    assert len(first) == 6
    for pa, pb in zip(first, second):
        assert scrub(pa) == scrub(pb), f"serial rerun differs: {pa}"
    print("criterion 10: 6 traces byte-identical across reruns")
