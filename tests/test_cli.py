import argparse
import inspect
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalab.cli as cli_mod
import nodalab.spectrum as spectrum_mod
from nodalab.cli import (
    EXIT_GATE_FAIL,
    EXIT_GUARD,
    EXIT_INVALID,
    EXIT_PASS,
    DRIVERS,
    META_KEYS,
    _parse_domain,
    _parse_floats,
    _parse_modes,
    build_parser,
    main,
    read_config_file,
)
from nodalab.errors import ValidationError


def test_parse_helpers():
    assert _parse_modes("3,4;5,5") == ((3, 4), (5, 5))
    assert _parse_modes("10") == ((10,),)
    assert _parse_floats("0.05,0.1") == (0.05, 0.1)
    with pytest.raises(ValidationError):
        _parse_modes("3,x")
    with pytest.raises(ValidationError):
        _parse_floats("a,b")


def test_parse_domain():
    assert _parse_domain("interval", None).n == 1
    assert _parse_domain("torus2", None).alpha == (1.0, 1.0)
    box = _parse_domain("box", "1,1.5")
    assert box.alpha == (1.0, 1.5) and not box.periodic
    with pytest.raises(ValidationError):
        _parse_domain("torus2", "1,2")
    with pytest.raises(ValidationError):
        _parse_domain("klein", None)


def test_density_pass_and_report_verify(tmp_path):
    out = tmp_path / "r"
    code = main(["density", "--domain", "torus2", "--modes", "3,3", "--out", str(out)])
    assert code == EXIT_PASS
    (jp,) = out.glob("density_*.json")
    assert main(["report", str(jp)]) == EXIT_PASS
    doc = json.loads(jp.read_text())
    doc["cells"][0]["measured"]["product"] = 99.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["report", str(bad)]) == EXIT_GATE_FAIL


def _second_product(value):
    """A stored density report's text with its second cell's product replaced."""
    def edit(doc):
        doc["cells"][1]["measured"]["product"] = value
        return json.dumps(doc)
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: '{"experiment": "density"}', "missing key(s)"),
        (lambda doc: "not json {", "not a JSON report"),
        (_second_product("abc"), "measured 'product' is not a number: 'abc'"),
        (_second_product(None), "measured 'product' is not a number: None"),
        (_second_product(True), "measured 'product' is not a number: True"),
    ],
    ids=["missing-key", "not-json", "measured-str", "measured-none", "measured-bool"],
)
def test_report_on_malformed_file_exits_2(edit, message, tmp_path, capsys):
    """A malformed report is invalid input, not a mismatch, and ends without a traceback."""
    out = tmp_path / "r"
    assert main(["density", "--modes", "3,3;4,1", "--out", str(out)]) == EXIT_PASS
    (jp,) = out.glob("density_*.json")
    bad = tmp_path / "bad.json"
    bad.write_text(edit(json.loads(jp.read_text())))
    capsys.readouterr()
    assert main(["report", str(bad)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err


def test_negative_delta_is_invalid(tmp_path):
    code = main(["tube", "--delta", "-0.1", "--out", str(tmp_path)])
    assert code == EXIT_INVALID


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--bogus", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_empty_spectrum_warns_exit_zero(tmp_path, capsys):
    code = main([
        "spectrum", "--domain", "box", "--alpha", "1,1",
        "--mu-max", "0.5", "--out", str(tmp_path),
    ])
    assert code == EXIT_PASS
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "0 modes" in captured.out


def test_spectrum_of_a_weight_whose_square_overflows(tmp_path, capsys):
    # mu^2 = (1e200 m_1)^2 + m_2^2 is inf, above mu_max: no modes, and no
    # RuntimeWarning (tier-1 turns one into an error)
    code = main([
        "spectrum", "--domain", "box", "--alpha", "1e200,1",
        "--mu-max", "5", "--out", str(tmp_path),
    ])
    assert code == EXIT_PASS
    assert "0 modes" in capsys.readouterr().out


def test_distinct_spectrum_matches_integer_count(tmp_path, capsys):
    # box (1, sqrt2): mu^2 = m1^2 + 2 m2^2, so distinct eigenvalues are distinct integers
    code = main([
        "spectrum", "--domain", "box", "--alpha", "1,1.4142135623730951",
        "--mu-max", "300.5", "--distinct", "--out", str(tmp_path),
    ])
    assert code == EXIT_PASS
    bound = 300.5**2
    exact = {a * a + 2 * b * b for a in range(1, 301) for b in range(1, 213)
             if a * a + 2 * b * b <= bound}
    assert f"spectrum: {len(exact)} distinct frequencies" in capsys.readouterr().out


def test_distinct_spectrum_enumerates_once(tmp_path, capsys, monkeypatch):
    argv = ["spectrum", "--domain", "torus2", "--mu-max", "20"]
    assert main(argv + ["--out", str(tmp_path / "all")]) == EXIT_PASS
    modes_line = capsys.readouterr().out
    calls = []
    real = spectrum_mod.enumerate_modes

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "enumerate_modes", counted)
    monkeypatch.setattr(spectrum_mod, "enumerate_modes", counted)
    assert main(argv + ["--distinct", "--out", str(tmp_path / "distinct")]) == EXIT_PASS
    assert len(calls) == 1
    want = spectrum_mod.distinct_count(real(spectrum_mod.DomainSpec.torus((1.0, 1.0)), 20.0).mu)
    assert f"spectrum: {want} distinct frequencies" in capsys.readouterr().out
    assert "spectrum: 334 modes" in modes_line
    # the JSON is the mode list either way
    (a,) = (tmp_path / "all").iterdir()
    (b,) = (tmp_path / "distinct").iterdir()
    assert a.read_bytes() == b.read_bytes()


def test_survey_candidate_cap_exits_3_before_allocating(tmp_path, capsys):
    start = time.perf_counter()
    code = main(["dioph", "--mu-max-box", "1e8", "--n-interval", "1", "--n-box", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_GUARD
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("guard: ") and "record candidates" in err
    assert not any(tmp_path.iterdir())


# a child over this much address space fails its allocation instead of
# growing; the limit is set in the child only
CHILD_ADDRESS_SPACE = 3 << 30
SRC = Path(cli_mod.__file__).resolve().parents[1]


def limited_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_limited(argv, out):
    """The CLI in a child process under ``CHILD_ADDRESS_SPACE``, one thread per BLAS."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "nodalab.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limited_child,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # point counts whose arrays would take 7-15 TiB: refused before any point is drawn
        (["dioph", "--n-interval=1000000000000"],
         "guard: n_interval=1000000000000 sampled points (cap 1000000)"),
        (["dioph", "--n-box=1000000000000"],
         "guard: n_box=1000000000000 sampled points (cap 1000000)"),
        (["borel-cantelli", "--n-points=1000000000000"],
         "guard: n_points=1000000000000 sampled points (cap 1000000)"),
        # a finite mu_max whose candidate count is past any cap is a guard, as
        # 1e8 is: exit 3, not the OverflowError of floor(inf)
        (["dioph", "--mu-max=1e300"],
         "guard: mu_max=1e+300 implies over 10000000 record candidates (cap 10000000)"),
        (["dioph", "--mu-max-box=1e300"],
         "guard: mu_max=1e+300 implies over 10000000 record candidates (cap 10000000)"),
    ],
    ids=["n-interval", "n-box", "n-points", "mu-max", "mu-max-box"],
)
def test_huge_requests_exit_3_without_a_traceback(argv, message, tmp_path):
    done = run_limited(argv, tmp_path)
    assert (done.returncode, done.stderr, done.stdout) == (EXIT_GUARD, message + "\n", "")
    assert not any(tmp_path.iterdir())


def test_box_count_past_the_float_range_skips_the_cells(tmp_path):
    # delta = 1e-300 / mu = 1e-312 leaves L / (1.5 delta) = inf, whose floor
    # raised OverflowError with a traceback: now each cell is skipped by a guard
    done = run_limited(["boxes", "--m=1000000000000", "--mu-delta=1e-300"], tmp_path)
    assert (done.returncode, done.stderr) == (EXIT_GATE_FAIL, "")
    assert ("skipped cell scaling;mud=1e-300: skipped: axis length 3.14159 at "
            "delta=1e-312 needs over 1e308 boxes") in done.stdout
    # the stability modes' 303-digit grid shapes are printed and stored in short form
    note = "skipped: grid of shape (5.34e+302,) has 5.34e+302 points (cap 30000000)"
    assert f"skipped cell stability;m=30: {note}\n" in done.stdout
    notes = [line for line in done.stdout.splitlines() if "skipped cell" in line]
    assert len(notes) == 8 and max(map(len, notes)) < 120
    [report] = tmp_path.glob("*.json")
    assert note in report.read_text()


@pytest.mark.parametrize("cmd", ["dioph", "borel-cantelli"])
def test_negative_seed_exits_2_without_a_traceback(cmd, tmp_path):
    # numpy's generators reject a negative seed with a ValueError of their own
    message = "error: seed must be >= 0, got -1\n"
    done = run_limited([cmd, "--seed=-1"], tmp_path / "flag")
    assert (done.returncode, done.stderr, done.stdout) == (EXIT_INVALID, message, "")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=-1\n")
    done = run_limited([cmd, "--config", str(cfg)], tmp_path / "file")
    assert (done.returncode, done.stderr, done.stdout) == (EXIT_INVALID, message, "")
    assert list(tmp_path.iterdir()) == [cfg]


def test_the_child_address_space_limit_stops_a_large_allocation(tmp_path):
    # the limit turns a missing guard into a fast failure: without the point
    # cap, 1e9 points ask for 8 GB at once, which the child is refused at once
    code = (
        "import nodalab.harness as h; h.SAMPLED_POINT_CAP = 10**12; "
        "from nodalab.cli import main; main(['borel-cantelli', '--n-points=1000000000', "
        f"'--out', {str(tmp_path)!r}])"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=limited_child)
    assert done.returncode == 1 and "MemoryError" in done.stderr


def numeric_flags() -> dict:
    """Per subcommand, its flags whose type reads numbers (none of yau, density, dim2)."""
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    numeric = (int, float, _parse_floats)
    flags = {name: [a.option_strings[0] for a in sub._actions if a.type in numeric]
             for name, sub in subs.choices.items()}
    return {name: names for name, names in flags.items() if names}


NUMERIC_FLAGS = numeric_flags()
# zero, a sign, both ends of the float range, the non-finite values and a count
# past every cap: none may end in a traceback
EDGE_VALUES = ("0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "1000000000000")


@st.composite
def edge_flags(draw):
    """A subcommand with one or two of its numeric flags, each at an edge value."""
    cmd = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    flags = draw(st.lists(st.sampled_from(NUMERIC_FLAGS[cmd]), min_size=1, max_size=2, unique=True))
    return [cmd] + [f"{flag}={draw(st.sampled_from(EDGE_VALUES))}" for flag in flags]


def test_numeric_flags_cover_the_report_subcommands():
    assert set(NUMERIC_FLAGS) == {"spectrum", "tube", "boxes", "dioph", "borel-cantelli"}
    assert sum(map(len, NUMERIC_FLAGS.values())) == 20


@given(argv=edge_flags())
@settings(derandomize=True, max_examples=24, deadline=None)
def test_edge_flag_values_end_without_a_traceback(argv, tmp_path_factory):
    """Every case ends in a documented exit code (0 pass, 1 gate, 2 invalid,
    3 guard), never in a traceback, in a child under the address-space limit."""
    done = run_limited(argv, tmp_path_factory.mktemp("edge"))
    assert done.returncode in (EXIT_PASS, EXIT_GATE_FAIL, EXIT_INVALID, EXIT_GUARD), done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dioph", "--n-interval", "0"], "n_interval"),
        (["dioph", "--n-box", "0"], "n_box"),
        (["borel-cantelli", "--k-max", "50"], "no mode with mu > k0=100 up to k_max=50"),
        (["borel-cantelli", "--n-points", "0"], "n_points"),
        # an empty radius list is not a request for the default radii
        (["boxes", "--mu-delta", ","], "mu_delta is empty"),
        # a repeated radius measures one cell twice, and a band over the copies passes
        (["boxes", "--mu-delta=0.1,0.1"], "mu_delta repeats 0.1"),
        (["tube", "--delta", ","], "deltas is empty"),
        (["tube", "--mu-delta", ","], "mu_delta is empty"),
        # non-finite numbers are invalid input, caught where the library first reads them
        (["boxes", "--mu-delta", "0.1,nan"], "delta must be positive"),
        (["boxes", "--A", "nan"], "A must lie in (1, inf)"),
        (["boxes", "--A", "inf"], "A must lie in (1, inf)"),
        (["tube", "--domain", "torus2", "--modes", "3,4", "--mu-delta", "nan"],
         "tube radii must lie in (0, inf)"),
        (["tube", "--domain", "interval", "--delta", "nan"], "tube radii must lie in (0, inf)"),
        (["tube", "--domain", "interval", "--mu-delta", "inf"], "tube radii must lie in (0, inf)"),
        (["borel-cantelli", "--eps", "nan", "--k-max", "40", "--n-points", "20", "--k0", "10"],
         "eps must lie in (0, inf)"),
        (["borel-cantelli", "--eps", "inf", "--k-max", "40", "--n-points", "20", "--k0", "10"],
         "eps must lie in (0, inf)"),
        (["dioph", "--mu-max-box", "nan", "--n-interval", "1", "--n-box", "1"],
         "mu_max must be finite and nonnegative"),
        (["dioph", "--mu-max-box=-5", "--n-interval", "1", "--n-box", "1"],
         "mu_max must be finite and nonnegative"),
        # a fit window that the list's mu_max empties names both of its ends
        (["dioph", "--mu-max", "3", "--n-interval", "1", "--n-box", "1"],
         "empty fit window: mu_min=3 is not below mu_max=3"),
        (["dioph", "--mu-max-box", "2.5", "--n-interval", "1", "--n-box", "1"],
         "empty fit window: mu_min=3 is not below mu_max=2.5"),
        # a mode whose mu^2 has no float: through a weight, and through an index
        (["density", "--domain", "torus", "--alpha", "1e300,1", "--modes", "1,1"],
         "mu^2 overflows"),
        (["tube", "--domain", "torus", "--alpha", "1e300,1", "--modes", "1,1"],
         "mu^2 overflows"),
        (["yau", "--modes", "1" + "0" * 400 + ",1"], "mu^2 overflows"),
        # a bound flag must leave its gate able to fail
        (["tube", "--band-cap", "inf", "--agree-tol", "inf"],
         "band_cap must be finite and >= 1, got inf"),
        (["tube", "--band-cap", "nan"], "band_cap must be finite and >= 1, got nan"),
        (["tube", "--band-cap=-1"], "band_cap must be finite and >= 1, got -1.0"),
        (["tube", "--agree-tol", "inf"], "agree_tol must be finite and >= 0, got inf"),
        (["tube", "--agree-tol", "nan"], "agree_tol must be finite and >= 0, got nan"),
        (["dioph", "--point-min", "0", "--n-interval", "5", "--n-box", "5"],
         "interval_point_min must lie in [1, n_interval=5], got 0"),
        # a bound flag must leave its gate able to pass
        (["tube", "--band-cap", "0.5"], "band_cap must be finite and >= 1, got 0.5"),
        (["dioph", "--point-min", "6", "--n-interval", "5", "--n-box", "5"],
         "interval_point_min must lie in [1, n_interval=5], got 6"),
    ],
    ids=["n-interval-0", "n-box-0", "k-max-below-k0", "n-points-0",
         "boxes-mu-delta-empty", "boxes-mu-delta-repeated", "tube-delta-empty", "tube-mu-delta-empty",
         "boxes-mu-delta-nan", "boxes-A-nan", "boxes-A-inf", "tube-torus-mu-delta-nan",
         "tube-interval-delta-nan", "tube-interval-mu-delta-inf", "borel-cantelli-eps-nan",
         "borel-cantelli-eps-inf", "dioph-mu-max-box-nan", "dioph-mu-max-box-negative",
         "dioph-mu-max-empty-window", "dioph-mu-max-box-empty-window",
         "density-mu-overflows", "tube-mu-overflows", "yau-index-overflows",
         "tube-bounds-inf", "tube-band-cap-nan", "tube-band-cap-negative",
         "tube-agree-tol-inf", "tube-agree-tol-nan", "dioph-point-min-0",
         "tube-band-cap-below-1", "dioph-point-min-above-n-interval"],
)
def test_degenerate_spectral_config_exits_2(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not any(tmp_path.iterdir())


def test_config_file_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\nk_max=400\nn_points=60\nk0=40\n")
    out = tmp_path / "r"
    code = main([
        "borel-cantelli", "--config", str(cfg), "--seed", "9", "--out", str(out),
    ])
    assert code == EXIT_PASS
    (jp,) = out.glob("approx_theorem_*.json")
    doc = json.loads(jp.read_text())
    assert doc["seed"] == 9  # flag beats file
    assert doc["config"]["k_max"] == 400  # file fills the rest
    assert doc["config"]["n_points"] == 60


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key=1\n")
    assert main(["boxes", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INVALID


def test_config_file_syntax_and_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nm = 30  # trailing\n")
    assert read_config_file(cfg) == {"m": "30"}
    cfg.write_text("just a line\n")
    with pytest.raises(ValidationError):
        read_config_file(cfg)


def test_gate_failure_exit_code(tmp_path, capsys):
    code = main([
        "tube", "--domain", "torus2", "--modes", "3,4;2,7",
        "--mu-delta", "0.05,0.3", "--no-grid", "--band-cap", "1.01",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_GATE_FAIL
    assert "failed gate band_ratio" in capsys.readouterr().out


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["density", "--domain", "torus2", "--modes", "4,1"]
    assert main(argv + ["--out", str(a)]) == EXIT_PASS
    assert main(argv + ["--out", str(b)]) == EXIT_PASS
    (ja,) = a.glob("*.json")
    (jb,) = b.glob("*.json")
    assert ja.read_bytes() == jb.read_bytes()
    (ca,) = a.glob("*.csv")
    (cb,) = b.glob("*.csv")
    assert ca.read_bytes() == cb.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["yau", "--domain", "torus", "--alpha", "1,2", "--modes", "3,3;2,5"],
        ["yau", "--domain", "box", "--modes", "3,3"],
    ],
    ids=["torus-alpha-1-2", "box"],
)
def test_yau_off_its_calibrated_domains_exits_2(argv, tmp_path, capsys):
    """The Yau band and square target hold on the interval and the unit 2-torus only."""
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Yau checks run on the interval" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["borel-cantelli", "--k0", "1", "--k-max", "30", "--n-points", "50"],
         "2C < eps*k0^eps"),
        (["borel-cantelli", "--C", "1", "--eps", "0.1", "--k0", "100", "--k-max", "200",
          "--n-points", "50"], "2C < eps*k0^eps"),
        (["borel-cantelli", "--C", "0.5", "--k0", "2", "--k-max", "3", "--n-points", "50"],
         "k_max must be >= 4"),
        # checked before the modes up to k_max are enumerated, so it names k_max
        (["borel-cantelli", "--k-max=-5"], "k_max must be >= 4, got -5"),
        (["borel-cantelli", "--k-max=3"], "k_max must be >= 4, got 3"),
        # mu^(n+1+eps) overflows on the whole tail, and so does k0^eps
        (["borel-cantelli", "--eps", "2000", "--k-max", "200", "--k0", "50", "--n-points", "50"],
         "eps is too large: mu^b overflows for b = n + 1 + eps = 2002"),
        # k0^eps is finite, mu^(n+1+eps) overflows from mu = 107 up
        (["borel-cantelli", "--eps", "150", "--k-max", "200", "--k0", "50", "--n-points", "50"],
         "eps is too large: mu^b overflows for b = n + 1 + eps = 152"),
    ],
    ids=["tail-bound-above-1", "tail-bound-above-1-small-eps", "k-max-below-4",
         "k-max-negative", "k-max-below-4-default-k0",
         "eps-overflows-every-tail-radius", "eps-overflows-upper-tail-radii"],
)
def test_degenerate_borel_cantelli_exits_2(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["yau", "--modes", "400,400"], "skipped cell m=400,400: skipped: grid of shape"),
        (["density", "--modes", "3000,3000"], "skipped cell m=3000,3000: skipped: grid of shape"),
        (["dim2", "--modes", "300,300"], "skipped cell m=300,300: skipped: grid of shape"),
        (["tube", "--domain", "torus2", "--modes", "3,4", "--mu-delta", "0.5"],
         "no gate could be evaluated"),
        (["boxes", "--m", "10000000"],
         "skipped cell scaling;mud=0.1: skipped: grid of shape"),
        # one oracle ratio is left, and a band over one value is no gate
        (["tube", "--domain", "torus2", "--modes", "3,4", "--delta", "1e-9"],
         "skipped cell grid;m=3,4;mud=5e-09: grid skipped: grid of shape"),
    ],
    ids=["yau", "density", "dim2", "tube", "boxes", "tube-one-oracle-ratio"],
)
def test_all_cells_skipped_fails_with_a_message(argv, message, tmp_path, capsys):
    """A report with no live cell has no gates: exit 1 and say why, no traceback."""
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_GATE_FAIL
    out = capsys.readouterr().out
    assert "gates 0/0 passed, FAIL" in out and message in out
    (jp,) = tmp_path.glob("*.json")
    assert main(["report", str(jp)]) == EXIT_PASS  # the stored verdict reproduces


def test_jobs_flag_is_gone(tmp_path, capsys):
    """Removed options (--jobs, the distance-field cache) are unknown flags and config keys."""
    for argv in (["--jobs", "2"], ["--cache-dir", "x"], ["--no-cache"]):
        with pytest.raises(SystemExit) as exc:
            main(["density", *argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cache_dir={tmp_path / 'cache'}\n")
    capsys.readouterr()
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INVALID
    assert "unknown config keys: ['cache_dir']" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit an argparse error raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# one cheap run per driver, to read the keys of its report's config block
SMALL_RUNS = {
    "tube": ["--domain", "torus2", "--modes", "3,4", "--no-grid"],
    "yau": ["--domain", "interval", "--modes", "8"],
    "density": ["--domain", "interval", "--modes", "8"],
    "boxes": ["--m", "20"],
    "dim2": ["--modes", "2,3"],
    "dioph": ["--n-interval", "5", "--n-box", "5", "--mu-max", "1000", "--mu-max-box", "100"],
    "borel-cantelli": ["--k-max", "400", "--n-points", "60", "--k0", "40"],
}


def driver_dests(cmd) -> set:
    sub = build_parser().parse_args([cmd])._subparser
    return {a.dest for a in sub._actions} - {"help", *META_KEYS}


@pytest.mark.parametrize("cmd", sorted(DRIVERS))
def test_flags_are_driver_keywords_and_report_config_keys(cmd, tmp_path):
    """A flag's dest is its driver's keyword, and the report records it under that name."""
    dests = driver_dests(cmd)
    assert dests <= set(inspect.signature(DRIVERS[cmd]).parameters)
    assert exit_code([cmd, *SMALL_RUNS[cmd], "--out", str(tmp_path)]) in (EXIT_PASS, EXIT_GATE_FAIL)
    (jp,) = tmp_path.glob("*.json")
    doc = json.loads(jp.read_text())
    # the seed and the domain have their own blocks in the report
    assert dests - {"seed", "domain"} <= set(doc["config"])
    assert {"seed", "domain"} <= set(doc)


# driver keywords that no flag sets: experiment parameters a Python caller may
# vary; a gate bound belongs in the driver's config, not in this list
PYTHON_ONLY_KEYWORDS = {
    "tube": set(),
    # yau and dim2 accept an ignored seed: their tube volumes draw nothing
    "yau": {"mu_t", "seed"},
    "density": set(),
    "boxes": {"domain", "a_sweep", "stability_modes", "variation_cap"},
    "dim2": {"domain", "seed"},
    "dioph": {"box_alpha"},
    "borel-cantelli": {"domain", "box_k_max"},
}


@pytest.mark.parametrize("cmd", sorted(DRIVERS))
def test_driver_keywords_are_flags_or_listed_python_only(cmd):
    """Every driver keyword is a flag of its subcommand or a listed Python-only keyword."""
    keywords = set(inspect.signature(DRIVERS[cmd]).parameters)
    dests = driver_dests(cmd)
    assert keywords - dests == PYTHON_ONLY_KEYWORDS[cmd]


@pytest.mark.parametrize("cmd", sorted(DRIVERS))
def test_bare_command_sets_no_driver_keyword(cmd):
    """Unset flags leave every default to the driver; only the CLI's domain is filled in."""
    args = vars(build_parser().parse_args([cmd]))
    assert set(args) - set(META_KEYS) <= {"domain"}


@pytest.mark.parametrize(
    "cmd, line, flag",
    [
        ("boxes", "m=abc", "--m"),
        ("dioph", "seed=x", "--seed"),
        ("borel-cantelli", "eps=1e", "--eps"),
        ("yau", "modes=3,x", "--modes"),
        ("tube", "include_break_cell=maybe", "include_break_cell"),
    ],
    ids=["int", "seed", "float", "modes", "bool"],
)
def test_bad_config_value_exits_2_without_traceback(cmd, line, flag, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert exit_code([cmd, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    value = line.partition("=")[2]
    assert "Traceback" not in err and flag in err and repr(value) in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("cmd", ["density", "boxes", "spectrum", "tube", "yau", "dim2"])
def test_seed_flag_only_where_the_driver_takes_one(cmd, tmp_path):
    extra = ["--mu-max", "5"] if cmd == "spectrum" else []
    assert exit_code([cmd, *extra, "--seed", "1", "--out", str(tmp_path)]) == EXIT_INVALID
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "cmd, line",
    [
        ("tube", "delta=0.1"),
        ("tube", "no_grid=true"),
        ("tube", "break_cell=true"),
        ("dioph", "mu_max=1000"),
        ("dioph", "point_min=3"),
    ],
)
def test_renamed_config_keys_are_unknown(cmd, line, tmp_path, capsys):
    """Config keys are driver keywords: the old flag-shaped names are rejected."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INVALID
    assert f"unknown config keys: ['{line.partition('=')[0]}']" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "cmd, text, want",
    [
        ("tube",
         "domain=torus2\nmodes=3,4\ndeltas=0.02,0.05\ngrid=false\ninclude_break_cell=yes\n",
         {"deltas": [0.02, 0.05], "grid": False, "include_break_cell": True, "mu_delta": None}),
        ("dioph",
         "n_interval=5\nn_box=5\nmu_max_interval=1000\nmu_max_box=100\ninterval_point_min=3\n",
         {"mu_max_interval": 1000.0, "interval_point_min": 3}),
    ],
    ids=["tube", "dioph"],
)
def test_config_keys_reach_the_report_config(cmd, text, want, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "r"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) in (EXIT_PASS, EXIT_GATE_FAIL)
    (jp,) = out.glob("*.json")
    config = json.loads(jp.read_text())["config"]
    assert {k: config[k] for k in want} == want


def test_readme_examples_parse():
    """Every `nodalab ...` example line of the README is a valid command line."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    examples = [line.strip() for line in readme.read_text().splitlines()
                if line.strip().startswith("nodalab ")]
    assert len(examples) >= 10
    parser = build_parser()
    for line in examples:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0], line
