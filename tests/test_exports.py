"""Export lists: every name a module or the package exports resolves, and
the package's list is sorted."""

import importlib
import pkgutil

import pytest

import casimir_pendulum

MODULES = sorted(info.name for info in pkgutil.iter_modules(casimir_pendulum.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"casimir_pendulum.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve_and_are_sorted():
    names = casimir_pendulum.__all__
    assert [n for n in names if not hasattr(casimir_pendulum, n)] == []
    assert names == sorted(names)
