"""The package namespace re-exports exactly the library modules' public names."""

import importlib

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
