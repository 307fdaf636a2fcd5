"""The package API: boxforce.__all__ is the union of its modules' __all__ lists."""

import importlib

import pytest

import boxforce

MODULES = ("spectrum", "occupancy", "force", "approx", "cli")


def test_all_has_no_duplicates():
    assert len(boxforce.__all__) == len(set(boxforce.__all__))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from boxforce import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(boxforce.__all__)


def test_each_name_is_its_defining_module_object():
    seen = {"__version__"}
    for module_name in MODULES:
        module = importlib.import_module(f"boxforce.{module_name}")
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(boxforce, name) is value
            assert getattr(value, "__module__", module.__name__) == module.__name__
            seen.add(name)
    assert seen == set(boxforce.__all__)


@pytest.mark.parametrize(
    "module_name, name",
    [
        ("occupancy", "DEFAULT_TOL"),
        ("occupancy", "OVERFLOW_EXPONENT"),
        ("occupancy", "RowSolutions"),
        ("occupancy", "TAIL_EXPONENT"),
        ("occupancy", "solve_rows"),
        ("approx", "semi_analytic_rows"),
    ],
)
def test_internal_names_stay_importable_by_module_path(module_name, name):
    module = importlib.import_module(f"boxforce.{module_name}")
    assert hasattr(module, name)
    assert name not in boxforce.__all__
