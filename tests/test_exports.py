"""The package namespace re-exports exactly the library modules' public names,
no library module imports a name it neither uses nor exports, every
module-level private name and every result field has a reader, and no
function takes scales apart from its config."""

import ast
import importlib
import inspect
from pathlib import Path

import polsim

ROOT = Path(__file__).resolve().parents[1]

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
                    if alias.name == "*":
                        # `from .m import *` binds each name of m.__all__
                        star = importlib.import_module(f"polsim.{node.module}")
                        imported.update(star.__all__)
                        continue
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


def test_every_private_name_is_read():
    # stdlib stand-in for a linter's dead-code rule: a module-level `_name`
    # (constant, function or class) must be read somewhere in the package
    defined, read = {}, set()
    for path in sorted(Path(polsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = sorted(f"{where}: {name}" for name, where in defined.items() if name not in read)
    assert not unread, f"private names nothing reads: {unread}"


def test_every_result_field_is_read():
    # a field of a library class (an annotated name in a class body) must be
    # read as an attribute somewhere in the library, its tests or its
    # benchmark; a field that nothing reads is computed and carried for no one
    fields, read = [], set()
    for path in sorted(Path(polsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                fields += [
                    (f"{path.name}: {node.name}", item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    sources = [p for part in ("src", "tests", "perfbench") for p in (ROOT / part).rglob("*.py")]
    for path in sorted(sources):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert fields
    unread = sorted(f"{owner}.{name}" for owner, name in fields if name not in read)
    assert not unread, f"result fields nothing reads: {unread}"


def test_scales_come_from_the_config():
    # derive_scales(config) is the one source of scales: no callable, public
    # or private, accepts scales, required or optional, that could disagree
    # with its config or go unchecked, and none has an oversized-blockade switch
    offenders = []
    for module_name in (*LIBRARY_MODULES, "cli"):
        module = importlib.import_module(f"polsim.{module_name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and "scales" in inspect.signature(fn).parameters:
                offenders.append(f"{module_name}.{name}(scales)")
    for name in polsim.__all__:
        obj = getattr(polsim, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "scales" in params:
            offenders.append(f"{name}(scales)")
        if "allow_oversized_blockade" in params:
            offenders.append(f"{name}(allow_oversized_blockade=...)")
    assert not offenders, f"scales settable apart from the config: {offenders}"
