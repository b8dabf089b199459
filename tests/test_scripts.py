"""scripts/run_all_experiments.py: the last line hashes the reports it wrote,
the line before it gives the peak RSS, and the --quick battery keeps its bytes."""

import importlib.util
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from nodalab import DomainSpec, run_density_check

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
# the last line of `run_all_experiments.py --quick`; any change to a report's bytes changes it
QUICK_REPORTS_SHA256 = "3a7a7abf2df21c952952933897e114c6b40c9f4dd238629b5f2f736bcbcf242c"


def load_script():
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def small_battery(monkeypatch):
    """The script module with two small density jobs in place of the battery."""
    script = load_script()
    jobs = [
        ("density interval", lambda: run_density_check(DomainSpec.interval(), modes=((8,),))),
        ("density torus", lambda: run_density_check(DomainSpec.torus((1.0, 1.0)), modes=((3, 3),))),
    ]
    monkeypatch.setattr(script, "build_jobs", lambda quick, seed: jobs)
    return script


@pytest.mark.skipif(shutil.which("sha256sum") is None, reason="needs coreutils sha256sum")
def test_last_line_is_the_hash_of_the_sha256sum_listing(tmp_path, capsys, monkeypatch):
    script = small_battery(monkeypatch)
    assert script.main(["--out", str(tmp_path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    shell = subprocess.run(
        "sha256sum * | sha256sum", shell=True, cwd=tmp_path, check=True,
        capture_output=True, text=True, env={**os.environ, "LC_ALL": "C"},
    )
    assert len(list(tmp_path.iterdir())) == 4
    assert last == f"reports sha256 {shell.stdout.split()[0]}"


def test_peak_rss_line_comes_before_the_hash(tmp_path, capsys, monkeypatch):
    script = small_battery(monkeypatch)
    assert script.main(["--out", str(tmp_path)]) == 0
    peak, last = capsys.readouterr().out.splitlines()[-2:]
    match = re.fullmatch(r"peak rss (\d+\.\d) MB", peak)
    assert match and float(match.group(1)) > 0
    assert last.startswith("reports sha256 ")


def test_quick_battery_reports_keep_their_bytes(tmp_path, capsys):
    assert load_script().main(["--quick", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"reports sha256 {QUICK_REPORTS_SHA256}"
