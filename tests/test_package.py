"""The package's public surface, the import boundary of its grid estimators, and the
names the benchmark tracer wraps."""

import ast
import importlib
from pathlib import Path

import pytest

import nodalab

ORACLES = {
    "nodal_distance_exact",
    "tube_volume_exact",
    "nodal_measure_exact",
    "density_radius_exact",
}


def test_exports_resolve_without_duplicates():
    names = nodalab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(nodalab, n)] == []


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("grid.py", set()),
        ("nodal.py", set()),
        ("distance.py", set()),
        ("components.py", set()),
        ("boxes.py", set()),
        # known debt: tube_volume takes each straddle cell's share of the tube
        # from per-axis miss tables built from the oracle's distances
        ("measures.py", {"nodal_distance_exact"}),
    ],
)
def test_grid_estimators_do_not_reach_the_closed_form_oracles(module, allowed):
    tree = ast.parse((Path(nodalab.__file__).parent / module).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):  # spectrum.tube_volume_exact after `import spectrum`
            used.add(node.attr)
    assert used & ORACLES == allowed


def test_benchmark_tracer_sites_exist():
    """Every ``install(module, "attr")`` in perfbench/tracer.py names a live attribute.

    The tracer replaces these attributes with timing wrappers, so a renamed or
    deleted one would break a traced benchmark pass unseen by the other tests.
    """
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    sites = [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(ast.parse(tracer.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "install"
        and isinstance(node.args[0], ast.Name)
        and isinstance(node.args[1], ast.Constant)
    ]
    assert ("spectrum", "tube_volume_exact") in sites
    missing = [
        f"{module}.{attr}"
        for module, attr in sites
        if not hasattr(importlib.import_module(f"nodalab.{module}"), attr)
    ]
    assert missing == []
