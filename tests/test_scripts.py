"""scripts/run_all_experiments.py: the last line hashes the reports it wrote,
the line before it gives the peak RSS, each summary line the peak after its
experiment, and the --quick battery keeps its bytes, with and without numpy's
AVX-512 kernels."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nodalab import DomainSpec, run_density_check

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
# the last line of `run_all_experiments.py --quick`; any change to a report's bytes changes it
QUICK_REPORTS_SHA256 = "c5cb4f2c1b515182eba72f7e7150b7fe62bf6d0f46d32bd80e30028a732dfb47"


def has_avx512f() -> bool:
    try:
        return "avx512f" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


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


def test_negative_seed_exits_2_before_any_experiment(tmp_path):
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--seed", "-1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr, done.stdout) == (2, "error: seed must be >= 0, got -1\n", "")
    assert not out.exists()


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


def test_summary_line_ends_with_the_peak_rss_after_its_experiment(tmp_path, capsys, monkeypatch):
    script = small_battery(monkeypatch)
    assert script.main(["--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = r"{} +PASS  gates \d+/\d+  cells \d+ \(0 skipped\) +\d+\.\ds  \S+\.json  rss (\d+\.\d) MB"
    rss = []
    for line, label in zip(lines, ("density interval", "density torus")):
        match = re.fullmatch(summary.format(label), line)
        assert match, line
        rss.append(float(match.group(1)))
    peak = float(re.fullmatch(r"peak rss (\d+\.\d) MB", lines[-2]).group(1))
    # a peak never falls: each line's is at most the next one's
    assert 0 < rss[0] <= rss[1] <= peak


def test_quick_battery_reports_keep_their_bytes(tmp_path, capsys):
    assert load_script().main(["--quick", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"reports sha256 {QUICK_REPORTS_SHA256}"


@pytest.mark.skipif(not has_avx512f(), reason="the host has no AVX-512 kernels to disable")
def test_quick_battery_bytes_do_not_depend_on_avx512(tmp_path):
    # a fresh process: numpy reads NPY_DISABLE_CPU_FEATURES once, at import
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--out", str(tmp_path)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    assert out.splitlines()[-1] == f"reports sha256 {QUICK_REPORTS_SHA256}"
