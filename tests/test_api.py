"""The package API: boxforce.__all__ is the union of its modules' __all__ lists, and the names the benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import boxforce

MODULES = ("spectrum", "occupancy", "force", "approx", "cli")
SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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


def test_benchmark_trace_finds_every_name_it_wraps_and_restores_it():
    # bench/spans.py's Tracer wraps module attributes by name, some kept for it alone (occupancy.level_gap,
    # force.solve_alpha): a change that drops one fails here, not only in the traced benchmark run
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = [importlib.import_module(f"boxforce.{name}") for name in MODULES]
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    try:
        tracer.install(boxforce)
        wrapped = [(module, name, original) for module, names in zip(modules, before)
                   for name, original in names.items() if getattr(module, name) is not original]
    finally:
        tracer.restore()
    assert {(module.__name__, name) for module, name, _ in wrapped} >= {
        ("boxforce.occupancy", "level_gap"), ("boxforce.force", "solve_alpha"), ("boxforce.force", "net_force")}
    for module, name, original in wrapped:
        assert getattr(module, name) is original
