"""The package's public names are each public in the module that defines them."""
import ast
import importlib
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
