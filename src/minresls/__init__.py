"""Matrix-free nonconvex minimization built on a MINRES inner solver.

The inner solver treats every symmetric system as a least-squares problem and
watches the Lanczos recurrence for certified non-positive curvature; the outer
loop turns its three outcomes (inexact Newton step, curvature certificate,
gradient fallback) into globally convergent descent with Armijo backtracking
and a forward linesearch along negative-curvature directions. A benchmark
harness with deterministic trace files and performance profiles rides on top.
"""
from .core import (
    NoHessianOracle,
    NotEvaluable,
    NumericalBreakdown,
    Objective,
    OptimizationError,
    SymmetricOperator,
    ZeroRightHandSide,
)
from .minres import MAXITER, NPC, SOL, MinresOutcome, minres_npc
from .linesearch import LinesearchConfig
from .driver import (
    BUDGET,
    CONVERGED,
    DIVERGED,
    GD,
    STAGNATED,
    IterateRecord,
    RunTrace,
    ScheduleParams,
    SolverConfig,
    solve,
)
from .problems import ProblemSpec, build_problem, list_problems
from .bench import (
    ParsedTrace,
    ProfileTable,
    RunCell,
    emit_trace,
    parse_manifest,
    parse_trace,
    performance_profile,
    run_suite,
    write_profile_csv,
)

__version__ = "0.1.0"

# the names README's "Public API" section lists, in the same order
__all__ = [
    # outer loop
    "solve",
    "SolverConfig",
    "ScheduleParams",
    "LinesearchConfig",
    "RunTrace",
    "IterateRecord",
    "GD",
    "CONVERGED",
    "STAGNATED",
    "BUDGET",
    "DIVERGED",
    # objectives, operators and problems
    "Objective",
    "SymmetricOperator",
    "build_problem",
    "list_problems",
    "ProblemSpec",
    # inner solver
    "minres_npc",
    "MinresOutcome",
    "SOL",
    "NPC",
    "MAXITER",
    # errors
    "OptimizationError",
    "NotEvaluable",
    "NoHessianOracle",
    "ZeroRightHandSide",
    "NumericalBreakdown",
    # benchmark harness
    "parse_manifest",
    "RunCell",
    "run_suite",
    "emit_trace",
    "parse_trace",
    "ParsedTrace",
    "performance_profile",
    "ProfileTable",
    "write_profile_csv",
    "__version__",
]
