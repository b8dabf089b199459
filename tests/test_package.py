"""The package's public surface, the import boundary of its grid estimators, the
tube stream without a float band path, the names the benchmark tracer wraps,
imports and definitions that nothing uses, functions that no entry point
reaches, per-axis index scans, per-point loops in the Diophantine scans, and
what `import nodalab` loads."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import nodalab
from nodalab.cli import EXIT_GATE_FAIL, EXIT_PASS, main

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
    nothing from ``nodal``, whose float vertices it no longer rounds, and no longer
    defines ``raster_index``; only ``measures`` calls its ``_raster_index``."""
    src = Path(nodalab.__file__).parent
    assert not hasattr(importlib.import_module("nodalab.distance"), "raster_index")
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
            and "_raster_index"
            in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
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
# Definitions of src/nodalab that no entry point reaches and no line outside them
# reads, each with the reason it stays.
ALLOWED = {
    "measures.tube_volume": (
        "perfbench/tracer.py installs a span on it: deleting it is a benchmark change"
    ),
}


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


DISTANCES = {"modes_nodal_distance", "lattice_distance"}
# the names dioph gives an array of points; a point's own coordinates are ``point``
POINT_ARRAYS = {"points", "xs"}
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def per_point_scans(source: str) -> list[str]:
    """function:line of each loop over points whose body computes nodal distances.

    A ``for`` statement or comprehension whose iterable reads an array of
    points, and that calls ``modes_nodal_distance`` or ``lattice_distance``
    (by name or as an attribute), is a per-point scan. Loops over the axes
    (``range(dom.n)``, a list's ``axis_families``) are not: they run at most
    n times, each on every point at once.
    """
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, LOOPS):
                continue
            iters = [node.iter] if isinstance(node, (ast.For, ast.AsyncFor)) else [
                g.iter for g in node.generators
            ]
            over_points = any(
                isinstance(name, ast.Name) and name.id in POINT_ARRAYS
                for it in iters for name in ast.walk(it)
            )
            calls = {
                call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
            }
            if over_points and calls & DISTANCES:
                found.append(f"{fn.name}:{node.lineno}")
    return found


def test_dioph_has_no_per_point_full_scan():
    """tail_hits and estimate_exponent each have one scan, over every point at once.

    Each once had, beside it, a per-point full scan over every row of a list
    that no entry point reached; ``tests/test_dioph.py`` keeps those scans as
    ``tail_hits_reference`` and ``full_scan_exponent``.
    """
    assert per_point_scans((ROOT / "src" / "nodalab" / "dioph.py").read_text()) == []


def test_per_point_scan_check_sees_each_form():
    source = (
        "def a(points, modes):\n"
        "    return [modes_nodal_distance(p, modes) for p in points]\n"
        "def b(xs, s):\n"
        "    for i in range(len(xs)):\n"
        "        d = lattice_distance(xs[i], s)\n"
        "def c(points, modes):\n"
        "    return {i: dioph.modes_nodal_distance(p, modes) for i, p in enumerate(points)}\n"
        "def d(points, s):\n"
        "    return any(bool(lattice_distance(x, s).min()) for p in points for x in p)\n"
        "def e(point, points, modes):\n"
        "    for j in range(modes.domain.n):\n"
        "        lattice_distance(points[:, j], 1.0)\n"
        "    return [other(p) for p in points], modes_nodal_distance(point, modes)\n"
    )
    assert per_point_scans(source) == ["a:2", "b:4", "c:7", "d:9"]


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


def name_reads(tree: ast.Module, imports: bool = True) -> list[tuple[str, int]]:
    """(name, line) of each read: a loaded name, an attribute, or with ``imports`` a
    name imported from a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif imports and isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
    return out


def unread_definitions(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``file:name`` of each module-level definition of ``modules`` that no line outside it reads.

    Both arguments map a file name to its text; ``modules`` are read from too.
    The dunders of ``__init__.py`` (``__all__``) are the package's own surface
    and are not checked, and its imports only re-export: they read nothing.
    """
    trees = {name: ast.parse(text) for name, text in {**readers, **modules}.items()}
    reads = [
        (file, name, line)
        for file, tree in trees.items()
        for name, line in name_reads(tree, imports=file != "__init__.py")
    ]
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
    """A function, class or constant of the package that no line of src/ or scripts/
    reads, a re-export in ``__init__.py`` aside, is in ``ALLOWED``."""
    modules = {p.name: p.read_text() for p in (ROOT / "src" / "nodalab").glob("*.py")}
    readers = {f"scripts/{p.name}": p.read_text() for p in SCRIPTS}
    unread = [name.replace(".py:", ".") for name in unread_definitions(modules, readers)]
    assert sorted(unread) == sorted(ALLOWED)


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
        "__init__.py": "from .a import Dropped\n__all__ = ['Dropped']\n",
    }
    readers = {"scripts/run.py": "from nodalab.a import U_ULP\n"}
    assert unread_definitions(modules, readers) == [
        "a.py:STEP", "a.py:U_STEPS", "a.py:recursive", "a.py:Dropped"
    ]


def definitions(paths) -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualified name of every def in ``paths``.

    A decorated def's first line is its first decorator's line, as in the
    ``co_firstlineno`` of its code object.
    """
    out = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0] if child.decorator_list else child
                    out[(file, first.lineno)] = name
            visit(child, file, name)

    for path in paths:
        visit(ast.parse(Path(path).read_text()), os.path.realpath(path), Path(path).stem)
    return out


def unreached(paths, run) -> list[str]:
    """Names of the defs in ``paths`` whose code ``run()`` never calls.

    ``run`` executes under ``sys.setprofile`` and ``threading.setprofile``, so
    the threads it starts are seen too; the hooks come off in a ``finally``.
    """
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    before = sys.getprofile(), threading.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}
    return sorted(name for key, name in definitions(paths).items() if key not in reached)


def run_entry_points(out: Path) -> None:
    """Every CLI subcommand on a small config, one grid-capped cell, ``report`` on the
    stored reports, and the quick battery."""
    cli = out / "cli"
    dim2 = out / "dim2.cfg"
    dim2.write_text("modes = 2,3\n")
    spectra = out / "spectrum"
    assert main(["spectrum", "--mu-max", "20", "--out", str(spectra)]) == EXIT_PASS
    assert main(["spectrum", "--domain", "torus2", "--mu-max", "10", "--distinct",
                 "--out", str(spectra)]) == EXIT_PASS
    runs = [
        ["tube", "--modes", "10", "--mu-delta", "0.1,0.2"],
        ["tube", "--domain", "torus2", "--modes", "3,4", "--mu-delta", "0.1,0.2"],
        ["tube", "--domain", "box", "--alpha", "1,1,1", "--modes", "1,1,2", "--mu-delta", "0.3"],
        ["tube", "--domain", "torus2", "--modes", "3,4", "--no-grid", "--break-cell"],
        ["yau", "--modes", "3,3"],
        ["yau", "--domain", "interval", "--modes", "10"],
        ["density", "--modes", "3,3"],
        ["density", "--domain", "interval", "--modes", "8"],
        ["boxes", "--m", "4", "--mu-delta", "0.1,0.2"],
        ["dim2", "--config", str(dim2)],
        ["dioph", "--n-interval", "5", "--n-box", "3", "--point-min", "4"],
        ["borel-cantelli", "--k-max", "200", "--n-points", "100", "--k0", "10"],
    ]
    assert [main(argv + ["--out", str(cli)]) for argv in runs] == [EXIT_PASS] * len(runs)
    # over the grid cap: the only grid cell is skipped with the guard's message, so no
    # gate can be evaluated
    capped = ["tube", "--domain", "torus2", "--modes", "20,21", "--mu-delta", "0.05"]
    assert main(capped + ["--out", str(cli)]) == EXIT_GATE_FAIL
    reports = sorted(cli.glob("*.json"))
    assert [main(["report", str(path)]) for path in reports] == [EXIT_PASS] * len(reports)
    spec = importlib.util.spec_from_file_location(
        "run_all_experiments", ROOT / "scripts" / "run_all_experiments.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--quick", "--out", str(out / "battery")]) == 0


def test_every_function_is_reached_from_an_entry_point(tmp_path):
    """Each def in src/nodalab runs on some CLI or battery path, or is in ``ALLOWED``."""
    paths = sorted((ROOT / "src" / "nodalab").glob("*.py"))
    assert unreached(paths, lambda: run_entry_points(tmp_path)) == sorted(ALLOWED)


def test_unreached_check_sees_each_form(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(
        "import functools\n"
        "import threading\n"
        "def called():\n"
        "    worker = threading.Thread(target=Box().used)\n"
        "    worker.start()\n"
        "    worker.join()\n"
        "def never():\n"
        "    pass\n"
        "@functools.cache\n"
        "def decorated():\n"
        "    pass\n"
        "@functools.cache\n"
        "def decorated_called():\n"
        "    pass\n"
        "class Box:\n"
        "    def used(self):\n"
        "        return decorated_called()\n"
        "    def method(self):\n"
        "        pass\n"
    )
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Box.used and decorated_called run only on the thread that called() starts
    assert unreached([path], module.called) == [
        "synthetic.Box.method", "synthetic.decorated", "synthetic.never"
    ]

    def fails():
        module.called()
        raise RuntimeError("a failed run")

    hooks = sys.getprofile(), threading.getprofile()
    with pytest.raises(RuntimeError, match="a failed run"):
        unreached([path], fails)
    assert (sys.getprofile(), threading.getprofile()) == hooks
