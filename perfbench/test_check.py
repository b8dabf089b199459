"""Tests of the benchmark's own checks; they run two cheap drivers only.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import check
import run
import tracer
from nodalab import DomainSpec, run_comparability_scaling, run_density_check, write_report


def _write_pass(out_dir, **comparability):
    write_report(run_density_check(DomainSpec.interval()), out_dir)
    return write_report(run_comparability_scaling(**comparability), out_dir)[0]


def _pass_result(out_dir):
    result = check.check_pass(out_dir)
    result.update(drivers=2, raised=[])
    return result


def test_clean_passes_are_correct(tmp_path):
    a, b = tmp_path / "pass0", tmp_path / "pass1"
    _write_pass(a)
    _write_pass(b)
    tally = run.assess([_pass_result(a), _pass_result(b)], [a, b])
    assert tally["problems"] == []
    assert (tally["attempted"], tally["failed"]) == (4, 0)
    assert tally["cells_failed_frac"] == tally["gates_failed"] == tally["reports_unstable"] == 0


def test_tampered_report_is_named(tmp_path):
    a, b = tmp_path / "pass0", tmp_path / "pass1"
    _write_pass(a)
    path = _write_pass(b)
    data = json.loads(path.read_text())
    data["gates"][0]["value"] *= 0.5
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")

    tally = run.assess([_pass_result(a), _pass_result(b)], [a, b])
    assert tally["reports_unstable"] == 1
    assert tally["failed"] == 1
    named = [line for line in tally["problems"] if path.name in line]
    assert any("verify_report" in line for line in named)
    assert any("bytes differ" in line for line in named)


def test_failed_gate_is_named(tmp_path):
    # a variation cap below 1 cannot hold, so the stored report fails its gate
    path = _write_pass(tmp_path, variation_cap=0.5)
    result = check.check_pass(tmp_path)
    assert result["gates_failed"] == 1
    assert result["bad"] == [path.stem]
    assert any(path.name in line and "ratio_variation" in line for line in result["problems"])


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "sign-domains", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [
        {"name": "harness.run_x", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "measures.tube_volume", "parent": 0, "start": 1.0, "end": 7.0},
        {"name": "measures.oracle", "parent": 1, "start": 2.0, "end": 6.0, "points": 5},
        {"name": "measures.oracle", "parent": 1, "start": 6.0, "end": 6.5, "points": 7},
    ]
    s = t.summary()
    assert s["harness.run_x"]["self_s"] == 4.0
    assert s["measures.tube_volume"]["self_s"] == 1.5
    assert s["measures.oracle"] == {"calls": 2, "total_s": 4.5, "self_s": 4.5, "points": 12}


def test_speed_scale_uses_probes_inside_the_windows():
    samples = [(0.0, 0.010), (1.0, 0.002), (1.5, 0.003), (9.0, 0.010)]
    scale = run.speed_scale(samples, [(0.5, 1.0), (20.0, 1.0)])
    assert scale == pytest.approx(run.REFERENCE_PROBE_S / 0.0025)
    with pytest.raises(run.BenchError):
        run.speed_scale(samples, [(3.0, 1.0)])
