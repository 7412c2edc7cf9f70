"""The package's public names: each is declared once, in its module's ``__all__``."""

from __future__ import annotations

import ehsched
from ehsched import broadcast, curves, leakage, oracle, rate, string_solver

MODULES = (curves, rate, string_solver, broadcast, leakage, oracle)


def test_package_exports_each_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert ehsched.__all__ == ["__version__", *names]
    # no name is declared by two modules, or twice by one
    assert len(set(names)) == len(names)
    assert isinstance(ehsched.__version__, str)


def test_exported_names_bind_their_modules_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ehsched, name) is getattr(module, name)
            # a class or function is listed by the module that defines it
            defined_in = getattr(getattr(module, name), "__module__", module.__name__)
            assert defined_in == module.__name__, name
