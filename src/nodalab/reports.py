"""Experiment reports: cells, gates, and deterministic JSON/CSV emission.

A report is a flat record of what was measured (cells), what was checked
(gates), and the fully resolved configuration that produced it. Pass/fail is
a pure function of the recorded numbers: every harness experiment registers a
gate builder keyed by experiment id, and verify_report re-derives the gates
from the stored cells to confirm the stored verdict. Serialization avoids
wall-clock fields so identical configs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError

CODE_VERSION = "0.1.0"
SCHEMA = 1


def _json_safe(value):
    """Floats that JSON cannot carry become strings; containers recurse."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass
class CellResult:
    """One parameter-grid point: raw measurements plus its own verdict.

    passed is None for purely informational cells; skipped cells keep the
    guard message in note and never enter gate statistics.
    """

    cell: str
    params: dict
    measured: dict = field(default_factory=dict)
    error: float | None = None
    passed: bool | None = None
    skipped: bool = False
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "cell": self.cell,
            "params": _json_safe(self.params),
            "measured": _json_safe(self.measured),
            "error": _json_safe(self.error),
            "passed": self.passed,
            "skipped": self.skipped,
            "note": self.note,
        }

    @staticmethod
    def from_dict(d: dict) -> "CellResult":
        return CellResult(
            cell=d["cell"],
            params=d["params"],
            measured=d["measured"],
            error=d["error"],
            passed=d["passed"],
            skipped=d["skipped"],
            note=d["note"],
        )


@dataclass(frozen=True)
class GateResult:
    """One acceptance check: value OP bound, evaluated on recorded numbers."""

    name: str
    value: float
    bound: float
    op: str  # "<=" or ">="
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": _json_safe(self.value),
            "bound": _json_safe(self.bound),
            "op": self.op,
            "passed": self.passed,
        }


def verdict(gates) -> bool:
    """A report passes when it has gates and every one of them passed."""
    return bool(gates) and all(g.passed for g in gates)


def gate(name: str, value: float, bound: float, op: str) -> GateResult:
    value = float(value)
    bound = float(bound)
    if op == "<=":
        ok = value <= bound
    elif op == ">=":
        ok = value >= bound
    else:
        raise ValidationError(f"unknown gate op {op!r}")
    return GateResult(name, value, bound, op, ok)


@dataclass
class ExperimentReport:
    experiment: str
    domain: dict
    config: dict
    cells: list
    gates: list
    summary: dict = field(default_factory=dict)
    seed: int | None = None
    schema: int = SCHEMA
    code_version: str = CODE_VERSION

    @property
    def passed(self) -> bool:
        return verdict(self.gates)

    def param_hash(self) -> str:
        """Short content hash of the scientific parameters (not output paths)."""
        key = json.dumps(
            {
                "experiment": self.experiment,
                "domain": _json_safe(self.domain),
                "config": _json_safe(self.config),
                "seed": self.seed,
                "schema": self.schema,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    def filename_stem(self) -> str:
        return f"{self.experiment}_{self.param_hash()}"

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "code_version": self.code_version,
            "experiment": self.experiment,
            "domain": _json_safe(self.domain),
            "config": _json_safe(self.config),
            "seed": self.seed,
            "cells": [c.as_dict() for c in self.cells],
            "gates": [g.as_dict() for g in self.gates],
            "summary": _json_safe(self.summary),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """One row per cell; param and measured keys become columns."""
        param_keys = sorted({k for c in self.cells for k in c.params})
        meas_keys = sorted({k for c in self.cells for k in c.measured})
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["cell"] + param_keys + meas_keys + ["error", "passed", "skipped", "note"]
        )
        for c in self.cells:
            row = [c.cell]
            row += [_csv_field(c.params.get(k)) for k in param_keys]
            row += [_csv_field(c.measured.get(k)) for k in meas_keys]
            row += [_csv_field(c.error), _csv_field(c.passed), _csv_field(c.skipped), c.note]
            writer.writerow(row)
        return buf.getvalue()


def _csv_field(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value


def write_report(report: ExperimentReport, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = report.filename_stem()
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}.csv"
    json_path.write_text(report.to_json())
    with open(csv_path, "w", newline="") as fh:
        fh.write(report.to_csv())
    return json_path, csv_path


def load_report_dict(path) -> dict:
    return json.loads(Path(path).read_text())


def verify_report(path, gate_builders: dict) -> tuple[bool, str]:
    """Recompute a stored report's gates from its cells and compare verdicts.

    gate_builders maps experiment id to a pure function
    (cells, config) -> list[GateResult]. Returns (ok, message); a mismatch
    names the first gate that disagrees with the stored record.
    """
    data = load_report_dict(path)
    builder = gate_builders.get(data["experiment"])
    if builder is None:
        raise ValidationError(f"no gate builder for experiment {data['experiment']!r}")
    cells = [CellResult.from_dict(c) for c in data["cells"]]
    rebuilt = builder(cells, data["config"])
    stored = data["gates"]
    if len(rebuilt) != len(stored):
        return False, f"gate count mismatch: rebuilt {len(rebuilt)} vs stored {len(stored)}"
    for g, s in zip(rebuilt, stored):
        if g.as_dict() != s:
            return False, f"gate {g.name!r} disagrees: rebuilt {g.as_dict()} vs stored {s}"
    if verdict(rebuilt) != data["passed"]:
        return False, "overall verdict disagrees with stored gates"
    return True, f"{len(rebuilt)} gates reproduced"
