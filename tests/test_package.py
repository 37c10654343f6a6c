"""The package's public names: the package exports each library module's
``__all__`` in order and nothing else, and README lists them all. Also the
code-line counter in ``tools/``."""
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import minresls

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
