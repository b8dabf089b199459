"""The package's public surface, the import boundary of its grid estimators, the
tube stream without a float band path, the names the benchmark tracer wraps,
imports and definitions that nothing uses, per-axis index scans, per-point
loops in the tail-hit scan, and what `import nodalab` loads."""

import ast
import importlib
import os
import subprocess
import sys
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
        # from the oracle's 1-d distances at the ends of each axis's cells
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


def test_the_tube_stream_has_no_float_band_path():
    """The band cells are classified by bool seed stencils: the float capped-distance pass
    ``distance.capped_rows`` is gone, and ``measures`` imports no such name."""
    assert not hasattr(importlib.import_module("nodalab.distance"), "capped_rows")
    tree = ast.parse((Path(nodalab.__file__).parent / "measures.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "capped_rows" not in imported


def test_one_seed_raster():
    """Every grid's seeds come from the tube stream's chunks: ``distance`` imports
    nothing from ``nodal``, whose float vertices it no longer rounds, and only
    ``measures`` calls ``raster_index``."""
    src = Path(nodalab.__file__).parent
    tree = ast.parse((src / "distance.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name and name.rsplit(".", 1)[-1] == "nodal"}

    def calls_raster_index(path):
        return any(
            isinstance(node, ast.Call)
            and "raster_index" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(path.read_text()))
        )

    assert [p.name for p in sorted(src.glob("*.py")) if calls_raster_index(p)] == ["measures.py"]


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


ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports to re-export, so only the other modules are checked
MODULES = sorted(p for p in (ROOT / "src" / "nodalab").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in code or in a string annotation."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [
        ast.parse(text.value, mode="eval")
        for ann in annotations if ann is not None
        for text in ast.walk(ann)
        if isinstance(text, ast.Constant) and isinstance(text.value, str)
    ]
    read = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau as full_turn\n"
        "from .spectrum import DomainSpec, ModeList\n"
        "def f(d: 'DomainSpec') -> int:\n"
        "    return np.floor(pi)\n"
    )
    assert unused_imports(source) == ["os", "full_turn", "ModeList"]


def index_scans(source: str) -> list[str]:
    """``nonzero`` and ``argwhere`` calls, as name:line: one index array per axis.

    ``np.flatnonzero`` and ``np.unravel_index`` take the same indices in row-major
    order about five times faster on a 2-d mask (3.0 against 14 ms on a 2519^2
    mask with 1% set, numpy 2.4), so the package uses those.
    """
    return [
        f"{node.func.attr}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("nonzero", "argwhere")
    ]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "nodalab").glob("*.py")), ids=lambda p: f"nodalab/{p.name}"
)
def test_no_per_axis_index_scans(path):
    assert index_scans(path.read_text()) == []


def test_index_scan_check_sees_each_form():
    source = (
        "import numpy as np\n"
        "i, j = np.nonzero(a)\n"
        "k = np.argwhere(a)\n"
        "m = a.nonzero()\n"
        "f = np.flatnonzero(a)\n"
        "n = np.count_nonzero(a)\n"
    )
    assert index_scans(source) == ["nonzero:2", "argwhere:3", "nonzero:4"]


def for_statements(source: str, function: str) -> list[int]:
    """Lines of the ``for`` statements in a module-level function of ``source``.

    A comprehension is an expression, not a statement, and is not counted.
    """
    (fn,) = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return [node.lineno for node in ast.walk(fn) if isinstance(node, (ast.For, ast.AsyncFor))]


@pytest.mark.parametrize("function", ["_axis_tail_hits", "_axis_convergent_table"])
def test_tail_hits_loop_over_no_point(function):
    """The one-axis tail scan and its convergents take all points in numpy passes.

    A Python loop of exact Euclid over points took about 70 of the 75 ms that
    ``run_approx_theorem``'s 10,000 default points spent in ``tail_hits``.
    """
    assert for_statements((ROOT / "src" / "nodalab" / "dioph.py").read_text(), function) == []


def test_for_statement_check_sees_each_form():
    source = (
        "def f(xs):\n"
        "    for x in xs:\n"
        "        for y in x:\n"
        "            pass\n"
        "    ys = [x for x in xs]\n"
        "    while xs:\n"
        "        xs = xs[1:]\n"
        "    return ys\n"
        "def g(xs):\n"
        "    for x in xs:\n"
        "        pass\n"
    )
    assert for_statements(source, "f") == [2, 3]


def test_import_and_dim2_load_no_scipy_sparse():
    """scipy.sparse adds about 0.1 s to `import nodalab`; only a signed seam needs it.

    Every m_j >= 1 axis of a sampled mode has an exact zero hyperplane at index
    0, so the default dim2 run has no seam to join and must not load it either.
    """
    code = (
        "import sys\n"
        "def sparse():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy.sparse'))\n"
        "import nodalab\n"
        "assert sparse() == [], sparse()\n"
        "from nodalab.harness import run_dim2_checks\n"
        "assert run_dim2_checks().passed\n"
        "assert sparse() == [], sparse()\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, check=True
    )


def module_level_names(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each function, class and constant a module defines."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out.append((name.id, node.lineno, node.end_lineno))
    return out


def name_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each read: a loaded name, an attribute, or a name imported from a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
    return out


def unread_definitions(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``file:name`` of each module-level definition of ``modules`` that no line outside it reads.

    Both arguments map a file name to its text; ``modules`` are read from too.
    The dunders of ``__init__.py`` (``__all__``) are the package's own surface
    and are not checked.
    """
    trees = {name: ast.parse(text) for name, text in {**readers, **modules}.items()}
    reads = [(file, name, line) for file, tree in trees.items() for name, line in name_reads(tree)]
    unread = []
    for file in modules:
        for name, first, last in module_level_names(trees[file]):
            if file == "__init__.py" and name.startswith("__"):
                continue
            if not any(
                n == name and not (f == file and first <= line <= last) for f, n, line in reads
            ):
                unread.append(f"{file}:{name}")
    return unread


def test_every_module_level_definition_is_read():
    """A function, class or constant of the package that no line of src/ or scripts/ reads."""
    modules = {p.name: p.read_text() for p in (ROOT / "src" / "nodalab").glob("*.py")}
    readers = {f"scripts/{p.name}": p.read_text() for p in SCRIPTS}
    assert unread_definitions(modules, readers) == []


def test_unread_definition_check_sees_each_form():
    modules = {
        "a.py": (
            "LIMIT = 3\n"
            "STEP: float = 0.5\n"
            "U_STEPS, U_ULP = 1, 2.0\n"
            "def used():\n"
            "    return LIMIT\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Kept:\n"
            "    pass\n"
            "class Dropped:\n"
            "    pass\n"
        ),
        "b.py": "from .a import used\nimport a\nprint(a.Kept)\n",
        "__init__.py": "__all__ = []\n",
    }
    readers = {"scripts/run.py": "from nodalab.a import U_ULP\n"}
    assert unread_definitions(modules, readers) == [
        "a.py:STEP", "a.py:U_STEPS", "a.py:recursive", "a.py:Dropped"
    ]
