"""The package's public names: the package exports each library module's
``__all__`` in order and nothing else, and README lists them all. Also the
test machinery loaded only on request, the code-line counter in ``tools/``,
no unused import in the package, tests, demos or tools, one exception type
per kind of failure in the library, perfbench's instrumentation, which
must see every solver layer through the names it wraps, and every suite of
``minresls check`` at the arguments the command runs it with."""
import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minresls
from minresls import bench, checks, driver

# the library modules, in the order the package __all__ concatenates their
# own; hessians keeps its store internal (an empty __all__), and checks and
# reference (test machinery) and cli (the entry point) are not star-imported
LIBRARY_MODULES = ("driver", "linesearch", "core", "problems", "minres", "bench")
OTHER_MODULES = ("hessians", "checks", "reference", "cli", "__main__")


def test_package_all_is_the_module_lists_in_order():
    modules = [importlib.import_module(f"minresls.{mod}") for mod in LIBRARY_MODULES]
    assert minresls.__all__ == [*(name for m in modules for name in m.__all__),
                                "__version__"]
    wrong = [f"{m.__name__}.{name}" for m in modules for name in m.__all__
             if getattr(minresls, name) is not getattr(m, name)]
    assert not wrong, f"the package exports another object under: {wrong}"
    assert importlib.import_module("minresls.hessians").__all__ == []


def test_every_module_is_accounted_for():
    found = {info.name for info in pkgutil.iter_modules(minresls.__path__)}
    assert found == {*LIBRARY_MODULES, *OTHER_MODULES}


def test_readme_public_api_lists_the_package_all():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* (.*(?:\n  .*)*)", section, re.M)
    listed = [name for b in bullets for name in re.findall(r"`(\w+)`", b)]
    assert listed == minresls.__all__


def test_package_and_cli_leave_the_test_machinery_unloaded():
    # checks and reference load only under `minresls check` or
    # check_invariants=True, never for `run` or `profile`
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, minresls, minresls.cli; "
            "print(' '.join(m for m in ('minresls.checks', 'minresls.reference') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def test_code_lines_count_code_tokens_outside_docstrings():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = ('"""Module docstring."""\n'
              'import os  # a trailing comment\n'
              '\n'
              '# a comment line\n'
              'def f(x):\n'
              '    """Function docstring,\n'
              '    two lines."""\n'
              '    s = """a string,\n'
              '    not a docstring"""\n'
              '    return (x +\n'
              '            1)\n')
    # import, def, both lines of s and both lines of the return
    assert tool.code_lines(source) == 6


def _unused_imports(source: str) -> list:
    """(line, name) of each name imported in ``source`` and never referenced.

    A reference is a bare name anywhere in the module (``os.path.join`` starts
    with one); a name listed in a literal ``__all__`` counts as used, and
    ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_finds_each_unreferenced_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import re, sys as system\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(os.path.join(re.escape('x')))\n")
    assert _unused_imports(source) == [(3, "system"), (4, "dumps")]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    unused = [f"{path.relative_to(root)}:{line} {name}"
              for folder in ("src/minresls", "tests", "demos", "tools")
              for path in sorted((root / folder).rglob("*.py"))
              for line, name in _unused_imports(path.read_text())]
    assert not unused, f"imported but never referenced: {unused}"


# one type per kind of failure: ValueError for an input refused before any
# work, AssertionError for a failed derivative check, OSError and
# FileExistsError for the file system, OptimizationError and its
# NumericalBreakdown for a run that failed
ALLOWED_RAISES = {"ValueError", "AssertionError", "OSError", "FileExistsError",
                  "OptimizationError", "NumericalBreakdown"}


def _raised_types(source: str) -> list:
    """(line, class) of each ``raise`` in ``source`` that names an exception;
    a bare ``raise`` names none."""
    raised = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.append((node.lineno, ast.unparse(exc)))
    return sorted(raised)


def test_raised_types_names_each_raised_class():
    source = ("try:\n"
              "    raise ValueError('x') from None\n"
              "except ValueError:\n"
              "    raise\n"
              "raise KeyError\n"
              "raise core.NotEvaluable('y')\n")
    assert _raised_types(source) == [(2, "ValueError"), (5, "KeyError"),
                                     (6, "core.NotEvaluable")]


def test_library_raises_one_type_per_kind_of_failure():
    # checks.py and reference.py are test machinery, free to raise their own
    package = Path(minresls.__file__).resolve().parent
    stray = [f"{path.name}:{line} {name}"
             for path in sorted(package.glob("*.py"))
             if path.name not in ("checks.py", "reference.py")
             for line, name in _raised_types(path.read_text())
             if name not in ALLOWED_RAISES]
    assert not stray, f"raises outside {sorted(ALLOWED_RAISES)}: {stray}"


# the solver-side spans of perfbench/workload.py's instrument(); the bench.*
# spans open only in the suite workload
SOLVER_SPANS = ("driver.solve", "minres.minres_npc", "linesearch.armijo",
                "linesearch.npc", "core.operator", "problems.f", "problems.grad",
                "problems.hvp", "hessians.lbfgs_update", "hessians.lbfgs_apply")


def test_perfbench_instrumentation_sees_every_solver_layer(monkeypatch):
    # perfbench times each layer by replacing the names it wraps; a refactor
    # that renames one, or calls past it, leaves that layer's span unopened
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        tracer = importlib.import_module("tracer")
        workload = importlib.import_module("workload")
        tr = tracer.Tracer()
        pairs = workload.instrument(tr)
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in pairs]
        spec = minresls.build_problem("quartic_saddle", n=10)
        with tracer.patched(pairs):
            for config in ("newton_mr", "lbfgs_mr"):
                x0 = spec.start(np.random.default_rng(0))
                driver.solve(spec.make_objective(), x0, bench.builtin_config(config))
    finally:
        for name in ("tracer", "workload"):
            sys.modules.pop(name, None)
    calls = {name: row["calls"] for name, row in tr.aggregate().items()}
    unopened = [name for name in SOLVER_SPANS if not calls.get(name)]
    assert not unopened, f"spans that never opened: {unopened}"
    unrestored = [f"{owner.__name__}.{attr}" for owner, attr, fn in originals
                  if getattr(owner, attr) is not fn]
    assert not unrestored, f"left patched: {unrestored}"


@pytest.mark.parametrize("name", [name for name, _, _ in checks._FAST_SUITE])
def test_every_check_suite_passes(name):
    # `minresls check` runs these through run_all_checks, which turns a failed
    # assertion into a result line; here each one fails the test suite itself
    [(suite, kwargs)] = [(fn, kw) for n, fn, kw in checks._FAST_SUITE if n == name]
    tally = suite(**kwargs)
    assert isinstance(tally, str) and tally
