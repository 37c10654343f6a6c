"""Matrix-free nonconvex minimization built on a MINRES inner solver.

The inner solver treats every symmetric system as a least-squares problem and
watches the Lanczos recurrence for certified non-positive curvature; the outer
loop turns its three outcomes (inexact Newton step, curvature certificate,
gradient fallback) into globally convergent descent with Armijo backtracking
and a forward linesearch along negative-curvature directions. A benchmark
harness with deterministic trace files and performance profiles rides on top.
"""
from . import bench, core, driver, linesearch, minres, problems
from .driver import *
from .linesearch import *
from .core import *
from .problems import *
from .minres import *
from .bench import *

__version__ = "0.1.0"

# each library module declares its public names once, in its own __all__;
# README's "Public API" lists them in this order
__all__ = [*driver.__all__, *linesearch.__all__, *core.__all__, *problems.__all__,
           *minres.__all__, *bench.__all__, "__version__"]
