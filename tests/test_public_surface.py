"""Every module under ``repro`` imports, and every name it exports exists."""

import importlib
import pkgutil

import pytest

import repro


def _raise(name):
    # walk_packages calls this when a subpackage fails to import; by
    # default it would skip the package and every module under it.
    raise


MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=_raise)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_its_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [
        export
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
