"""Limited-memory variant on the n=100 Rosenbrock valley.

Instead of Hessian-vector products the inner solver sees a compact L-BFGS
matrix built from the last ten (s, y) pairs. The matrix is applied through
its low-rank representation, so each inner iteration costs O(mn) and the
iteration count per outer step is bounded by twice the memory.
"""
import numpy as np

from minresls import ScheduleParams, SolverConfig, build_problem, solve

spec = build_problem("rosenbrock", n=100)
obj = spec.make_objective()
x0 = spec.start(np.random.default_rng(2718))

# the lbfgs_mr schedule mode also selects the L-BFGS model
cfg = SolverConfig(
    schedule=ScheduleParams(mode="lbfgs_mr"),
    grad_tol=1e-10,
    max_oracles=1e5,
)
trace = solve(obj, x0, cfg)

print(f"status={trace.status}")
print(f"iterations: {trace.iters}")
print(f"oracle calls: {trace.oracles:.0f}")
print(f"f_final={trace.f_final:.3e} gnorm_final={trace.gnorm_final:.3e}")

inner = [r.inner_iters for r in trace.records]
print(f"inner iterations per step: max={max(inner)}, mean={np.mean(inner):.2f}")

fs = [r.f for r in trace.records] + [trace.f_final]
drops = np.diff(fs)
print(f"objective decrease is monotone: {bool(np.all(drops <= 0.0))}")

assert trace.status == "CONVERGED"
assert max(inner) <= 2 * cfg.lbfgs_memory + 2
