"""Matrix-free nonconvex minimization built on a MINRES inner solver.

The inner solver treats every symmetric system as a least-squares problem and
watches the Lanczos recurrence for certified non-positive curvature; the outer
loop turns its three outcomes (inexact Newton step, curvature certificate,
gradient fallback) into globally convergent descent with Armijo backtracking
and a forward linesearch along negative-curvature directions. A benchmark
harness with deterministic trace files and performance profiles rides on top.
"""
from .core import (
    DegenerateMiddleMatrix,
    NoHessianOracle,
    NotEvaluable,
    NumericalBreakdown,
    Objective,
    OptimizationError,
    StepsizeStagnation,
    SymmetricOperator,
    ZeroRightHandSide,
    ensure_operator,
)
from .minres import MAXITER, NPC, SOL, MinresOutcome, minres_npc
from .hessians import LbfgsStore
from .linesearch import (
    LinesearchConfig,
    LinesearchResult,
    armijo_backtrack,
    npc_linesearch,
)
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
    schedule_eval,
    solve,
)
from .problems import REGISTRY, ProblemSpec, build_problem, list_problems
from .bench import (
    ProfileTable,
    emit_trace,
    parse_manifest,
    parse_trace,
    parse_trace_text,
    performance_profile,
    run_suite,
    write_profile_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BUDGET",
    "CONVERGED",
    "DIVERGED",
    "DegenerateMiddleMatrix",
    "GD",
    "IterateRecord",
    "LbfgsStore",
    "LinesearchConfig",
    "LinesearchResult",
    "MAXITER",
    "MinresOutcome",
    "NPC",
    "NoHessianOracle",
    "NotEvaluable",
    "NumericalBreakdown",
    "Objective",
    "OptimizationError",
    "ProblemSpec",
    "ProfileTable",
    "REGISTRY",
    "RunTrace",
    "SOL",
    "STAGNATED",
    "ScheduleParams",
    "SolverConfig",
    "StepsizeStagnation",
    "SymmetricOperator",
    "ZeroRightHandSide",
    "armijo_backtrack",
    "build_problem",
    "emit_trace",
    "ensure_operator",
    "list_problems",
    "minres_npc",
    "npc_linesearch",
    "parse_manifest",
    "parse_trace",
    "parse_trace_text",
    "performance_profile",
    "run_suite",
    "schedule_eval",
    "solve",
    "write_profile_csv",
    "__version__",
]
