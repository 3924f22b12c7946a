"""The package namespace re-exports exactly the library modules' public names,
and no library module imports a name it neither uses nor exports."""

import ast
import importlib
from pathlib import Path

import polsim

LIBRARY_MODULES = (
    "core_model", "errors", "susceptibility", "polariton_spectrum",
    "propagation", "spinwave", "fidelity",
)


def test_package_exports_the_union_of_module_exports():
    union = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"polsim.{name}")
        for export in module.__all__:
            assert hasattr(module, export), f"polsim.{name}.{export}"
        union.update(module.__all__)
    assert len(polsim.__all__) == len(set(polsim.__all__))
    assert set(polsim.__all__) == union | {"__version__"}
    for export in polsim.__all__:
        assert hasattr(polsim, export), export


def test_every_import_is_used_or_exported():
    # stdlib stand-in for a linter's unused-import rule
    for path in sorted(Path(polsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.add(name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = (
            polsim if path.stem == "__init__"
            else importlib.import_module(f"polsim.{path.stem}")
        )
        exported = set(getattr(module, "__all__", ()))
        unused = sorted(imported - used - exported)
        assert not unused, f"{path.name}: unused imports {unused}"
