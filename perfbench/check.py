"""Correctness checks on the reports one pass writes.

A pass is correct when every report's gates pass, ``verify_report``
re-derives each stored verdict from the stored cells, no cell was skipped,
and (across passes of one run) every report's JSON and CSV bytes are equal.
Each problem is a line that names the report file it concerns.
"""

from __future__ import annotations

import json
from pathlib import Path


def check_pass(out_dir) -> dict:
    """Cell, gate and verify_report tallies over the reports in ``out_dir``."""
    from nodalab import harness, reports

    out = {"cells": 0, "cells_failed": 0, "gates_failed": 0, "unverified": [], "bad": []}
    problems = []
    for path in sorted(Path(out_dir).glob("*.json")):
        data = json.loads(path.read_text())
        out["cells"] += len(data["cells"])
        skipped = [c["cell"] for c in data["cells"] if c["skipped"]]
        failed = [g["name"] for g in data["gates"] if not g["passed"]]
        out["cells_failed"] += len(skipped)
        out["gates_failed"] += len(failed)
        if skipped:
            problems.append(f"{path.name}: skipped cells {skipped}")
        if failed:
            problems.append(f"{path.name}: failed gates {failed}")
        ok, msg = reports.verify_report(path, harness.GATE_BUILDERS)
        if not ok:
            out["unverified"].append(path.stem)
            problems.append(f"{path.name}: verify_report: {msg}")
        if skipped or failed or not ok:
            out["bad"].append(path.stem)
    out["problems"] = problems
    return out


def compare_passes(first, other) -> tuple[set, list]:
    """Report stems whose JSON or CSV bytes differ between two pass directories."""
    first, other = Path(first), Path(other)
    names = {p.name for p in first.iterdir()} | {p.name for p in other.iterdir()}
    unstable, problems = set(), []
    for name in sorted(names):
        a, b = first / name, other / name
        if not (a.is_file() and b.is_file()):
            problems.append(f"{name}: written by only one of {first.name}, {other.name}")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{name}: bytes differ between {first.name} and {other.name}")
        else:
            continue
        unstable.add(Path(name).stem)
    return unstable, problems
