import json
import math

import pytest

from nodalab.errors import ValidationError
from nodalab.harness import GATE_BUILDERS, run_density_check
from nodalab.reports import (
    CellResult,
    ExperimentReport,
    gate,
    read_report,
    verify_report,
    write_report,
)
from nodalab.spectrum import DomainSpec


def small_report():
    cells = [
        CellResult("a", {"k": 1}, {"v": 2.0}, error=0.1),
        CellResult("b", {"k": 2}, {"v": 3.0, "extra": [1.0, 2.0]}, error=0.1),
        CellResult("c", {"k": 3}, skipped=True, note="guard"),
    ]
    gates = [gate("v_max", 3.0, 4.0, "<=")]
    return ExperimentReport(
        "tube_scaling", {"kind": "interval"}, {"band_cap": 4.0}, cells, gates,
        {"n": 3}, seed=7,
    )


def test_gate_ops():
    assert gate("g", 1.0, 2.0, "<=").passed
    assert not gate("g", 3.0, 2.0, "<=").passed
    assert gate("g", 2.0, 2.0, "<=").passed
    assert gate("g", 2.0, 2.0, ">=").passed
    assert not gate("g", 1.0, 2.0, ">=").passed
    with pytest.raises(ValidationError):
        gate("g", 1.0, 2.0, "==")


def test_cell_round_trip_nonfinite():
    c = CellResult("x", {"p": 1}, {"e": math.inf, "f": math.nan, "g": -math.inf}, error=math.inf)
    d = json.loads(json.dumps(c.as_dict()))
    assert d["measured"] == {"e": "inf", "f": "nan", "g": "-inf"}  # JSON has no inf or nan
    back = CellResult.from_dict(d)
    assert back.measured["e"] == math.inf
    assert math.isnan(back.measured["f"])
    assert back.measured["g"] == -math.inf
    assert back.error == math.inf
    assert back.as_dict() == c.as_dict()


def test_json_deterministic_and_parsable():
    r = small_report()
    blob = r.to_json()
    assert blob == small_report().to_json()
    doc = json.loads(blob)
    assert doc["experiment"] == "tube_scaling"
    assert doc["passed"] is True
    assert len(doc["cells"]) == 3
    assert doc["gates"][0]["name"] == "v_max"


def test_param_hash_tracks_config_only():
    r = small_report()
    h = r.param_hash()
    assert len(h) == 12
    r.summary["n"] = 99
    r.cells.append(CellResult("d", {"k": 4}))
    assert r.param_hash() == h
    r.config["band_cap"] = 5.0
    assert r.param_hash() != h
    assert r.filename_stem().startswith("tube_scaling_")


def test_csv_shape():
    rows = small_report().to_csv().strip().split("\r\n")
    header = rows[0].split(",")
    assert header[0] == "cell"
    assert "k" in header and "v" in header and "extra" in header
    assert header[-4:] == ["error", "passed", "skipped", "note"]
    assert len(rows) == 4
    assert "1.0;2.0" in rows[2]
    assert rows[3].endswith("True,guard")


def test_write_report_byte_identical(tmp_path):
    r = small_report()
    jp, cp = write_report(r, tmp_path)
    first = (jp.read_bytes(), cp.read_bytes())
    jp2, cp2 = write_report(small_report(), tmp_path)
    assert (jp, cp) == (jp2, cp2)
    assert (jp2.read_bytes(), cp2.read_bytes()) == first


def test_verify_report_and_tamper(tmp_path):
    r = run_density_check(DomainSpec.torus((1.0, 1.0)), modes=((3, 3), (4, 1)))
    jp, _ = write_report(r, tmp_path)
    ok, msg = verify_report(jp, GATE_BUILDERS)
    assert ok, msg
    doc = json.loads(jp.read_text())
    doc["cells"][0]["measured"]["product"] = 99.0
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    ok, msg = verify_report(bad, GATE_BUILDERS)
    assert not ok
    assert "analytic_cap" in msg


def test_verify_unknown_experiment(tmp_path):
    r = small_report()
    r.experiment = "mystery"
    jp, _ = write_report(r, tmp_path)
    with pytest.raises(ValidationError):
        verify_report(jp, GATE_BUILDERS)


def test_report_without_gates_fails_and_verifies(tmp_path):
    report = small_report()
    report.gates = []
    assert not report.passed  # nothing checked is not a pass
    assert json.loads(report.to_json())["passed"] is False
    report.cells = [CellResult("c", {"k": 3}, skipped=True, note="guard")]
    report.config = {"domain_kind": "interval"}
    json_path, _ = write_report(report, tmp_path)
    ok, msg = verify_report(json_path, {"tube_scaling": lambda cells, config: []})
    assert ok, msg


def _density_report(tmp_path):
    r = run_density_check(DomainSpec.torus((1.0, 1.0)), modes=((3, 3), (4, 1)))
    jp, _ = write_report(r, tmp_path)
    return jp, json.loads(jp.read_text())


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda doc: doc.pop("cells"), "missing key(s) ['cells']"),
        (lambda doc: doc["cells"][1].pop("measured"), "cell 'm=4,1': missing key(s) ['measured']"),
        (lambda doc: doc["cells"][1].update(error="x"), "cell 'm=4,1': error is not a number: 'x'"),
        (lambda doc: doc["cells"][0].update(params=[]), "params: expected dict, got list"),
        (lambda doc: doc.update(cells={}), "cells: expected list, got dict"),
        (lambda doc: doc["cells"].append(3), "cell: expected dict, got int"),
        (lambda doc: doc.update(experiment=["density"]), "experiment: expected str, got list"),
    ],
    ids=["no-cells", "cell-no-measured", "error-str", "params-list", "cells-dict", "cell-int",
         "experiment-list"],
)
def test_reader_rejects_malformed_report(tamper, message, tmp_path):
    """Every malformed report is a ValidationError naming the file and the key or cell."""
    jp, doc = _density_report(tmp_path)
    tamper(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info:
        read_report(bad)
    assert str(info.value).startswith(f"{bad}: ") and message in str(info.value)
    with pytest.raises(ValidationError):
        verify_report(bad, GATE_BUILDERS)


def test_reader_decodes_only_the_non_finite_strings(tmp_path):
    jp, doc = _density_report(tmp_path)
    doc["cells"][1]["measured"]["rel_dev"] = "nan"
    doc["cells"][1]["error"] = "-inf"
    doc["config"]["cap_tol"] = "inf"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    data = read_report(bad)
    cell = data["cells"][1]
    assert math.isnan(cell.measured["rel_dev"]) and cell.error == -math.inf
    assert data["config"]["cap_tol"] == math.inf
    assert data["config"]["domain_kind"] == "torus"
    assert data["gates"] == doc["gates"] and data["passed"] is doc["passed"]


def test_verify_report_nan_past_the_first_cell_is_a_mismatch(tmp_path):
    """A NaN in the second cell fails its gate; builtin max dropped it and verified."""
    jp, doc = _density_report(tmp_path)
    doc["cells"][1]["measured"]["rel_dev"] = "nan"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    ok, msg = verify_report(bad, GATE_BUILDERS)
    assert not ok and "cell_formula_dev" in msg and "'nan'" in msg


@pytest.mark.parametrize(
    "tamper, message",
    [(lambda doc: doc["cells"][0]["measured"].pop("rel_dev"), "KeyError('rel_dev')"),
     (lambda doc: doc["config"].pop("cap_tol"), "KeyError('cap_tol')"),
     (lambda doc: doc["config"].update(cell_tol="abc"), "'abc'")],
    ids=["measured-key-missing", "config-key-missing", "config-value-str"],
)
def test_verify_report_names_what_the_builder_cannot_read(tamper, message, tmp_path):
    jp, doc = _density_report(tmp_path)
    tamper(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info:
        verify_report(bad, GATE_BUILDERS)
    assert str(info.value).startswith(f"{bad}: cannot rebuild the gates: ")
    assert message in str(info.value)
