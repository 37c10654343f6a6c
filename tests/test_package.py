"""The package's public names: each is public in the module that defines them,
no module makes public a name the package does not export, and README lists
them all."""
import ast
import importlib
import re
from pathlib import Path

import minresls


def test_every_export_is_in_its_module_all():
    tree = ast.parse(Path(minresls.__file__).read_text())
    source = {alias.name: node.module for node in tree.body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    missing = []
    for name in minresls.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"minresls.{source[name]}")
        if name not in module.__all__:
            missing.append(f"{name} (minresls.{source[name]})")
    assert not missing, f"exported but missing from the module's __all__: {missing}"


# modules whose public names are the package's; checks and reference (test
# machinery) and cli (the entry point) keep their own __all__
LIBRARY_MODULES = ("core", "minres", "hessians", "linesearch", "driver", "problems", "bench")


def test_module_all_names_only_package_exports():
    extra = [f"minresls.{mod}.{name}" for mod in LIBRARY_MODULES
             for name in importlib.import_module(f"minresls.{mod}").__all__
             if name not in minresls.__all__]
    assert not extra, f"in a module's __all__ but not exported by the package: {extra}"


def test_readme_public_api_lists_the_package_all():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* (.*(?:\n  .*)*)", section, re.M)
    listed = [name for b in bullets for name in re.findall(r"`(\w+)`", b)]
    assert listed == minresls.__all__
