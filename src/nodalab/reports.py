"""Experiment reports: cells, gates, and deterministic JSON/CSV emission.

A report is a flat record of what was measured (cells), what was checked
(gates), and the fully resolved configuration that produced it. Pass/fail is
a pure function of the recorded numbers: every harness experiment registers a
gate builder keyed by experiment id, and verify_report re-derives the gates
from the stored cells to confirm the stored verdict. Serialization avoids
wall-clock fields so identical configs produce byte-identical files.

This is the only module that knows the JSON encoding: ``_json_safe`` writes
non-finite floats as the strings 'inf', '-inf' and 'nan', and read_report,
the only reader of a stored report, turns them back into floats and rejects
a malformed file, so gate builders see plain numbers.
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
_REPORT_KEYS = (
    "schema", "code_version", "experiment", "domain", "config", "seed",
    "cells", "gates", "summary", "passed",
)
_CELL_KEYS = ("cell", "params", "measured", "error", "passed", "skipped", "note")
_NON_FINITE = {repr(v): v for v in (math.inf, -math.inf, math.nan)}


def _json_safe(value):
    """Floats that JSON cannot carry become strings; containers recurse."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _decode(value):
    """Undo _json_safe: the strings it writes for non-finite floats become floats."""
    if isinstance(value, str):
        return _NON_FINITE.get(value, value)
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _number(value, where: str):
    """A stored value that must decode to a number; a bool is not one."""
    value = _decode(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} is not a number: {value!r}")
    return value


def _expect(value, kind, where: str, keys=()):
    """Reject a stored value of the wrong type, or an object missing a key."""
    if not isinstance(value, kind):
        raise ValidationError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ValidationError(f"{where}: missing key(s) {missing}")


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
        """Read one stored cell: check its keys, decode and check its numbers."""
        where = f"cell {d.get('cell')!r}" if isinstance(d, dict) else "cell"
        _expect(d, dict, where, _CELL_KEYS)
        _expect(d["params"], dict, f"{where} params")
        _expect(d["measured"], dict, f"{where} measured")
        measured = {k: _number(v, f"{where}: measured {k!r}") for k, v in d["measured"].items()}
        error = None if d["error"] is None else _number(d["error"], f"{where}: error")
        return CellResult(
            d["cell"], _decode(d["params"]), measured, error, d["passed"], d["skipped"], d["note"]
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
                "schema": SCHEMA,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    def filename_stem(self) -> str:
        return f"{self.experiment}_{self.param_hash()}"

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "code_version": CODE_VERSION,
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


def read_report(path) -> dict:
    """Parse a stored report, check its keys and decode its cells and config.

    ``gates`` and ``passed`` stay as stored, for comparison with rebuilt
    gates. A malformed file raises ValidationError naming it and the cell or key.
    """
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise ValidationError(f"{path}: not a JSON report: {e}") from None
    try:
        _expect(data, dict, "report", _REPORT_KEYS)
        _expect(data["experiment"], str, "experiment")
        _expect(data["cells"], list, "cells")
        _expect(data["gates"], list, "gates")
        cells = [CellResult.from_dict(c) for c in data["cells"]]
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None
    return {**data, "config": _decode(data["config"]), "cells": cells}


def verify_report(path, gate_builders: dict) -> tuple[bool, str]:
    """Recompute a stored report's gates from its cells and compare verdicts.

    gate_builders maps experiment id to a pure function
    (cells, config) -> list[GateResult]. Returns (ok, message); a mismatch
    names the first gate that disagrees with the stored record. A malformed
    file, or cells or config the builder cannot read, raise ValidationError.
    """
    data = read_report(path)
    builder = gate_builders.get(data["experiment"])
    if builder is None:
        raise ValidationError(f"no gate builder for experiment {data['experiment']!r}")
    try:
        rebuilt = builder(data["cells"], data["config"])
    except (KeyError, IndexError, TypeError, ValueError) as e:  # a key or type the file lacks
        raise ValidationError(f"{path}: cannot rebuild the gates: {e!r}") from None
    stored = data["gates"]
    if len(rebuilt) != len(stored):
        return False, f"gate count mismatch: rebuilt {len(rebuilt)} vs stored {len(stored)}"
    for g, s in zip(rebuilt, stored):
        if g.as_dict() != s:
            return False, f"gate {g.name!r} disagrees: rebuilt {g.as_dict()} vs stored {s}"
    if verdict(rebuilt) != data["passed"]:
        return False, "overall verdict disagrees with stored gates"
    return True, f"{len(rebuilt)} gates reproduced"
