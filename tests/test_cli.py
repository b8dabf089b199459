import json

import pytest

from nodalab.cli import (
    EXIT_GATE_FAIL,
    EXIT_INVALID,
    EXIT_PASS,
    _parse_domain,
    _parse_floats,
    _parse_modes,
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dioph", "--n-interval", "0"], "n_interval"),
        (["dioph", "--n-box", "0"], "n_box"),
        (["borel-cantelli", "--k-max", "3"], "k0=100"),
        (["borel-cantelli", "--n-points", "0"], "n_points"),
        # an empty radius list is not a request for the default radii
        (["boxes", "--mu-delta", ","], "mu_delta is empty"),
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
    ],
    ids=["n-interval-0", "n-box-0", "k-max-below-k0", "n-points-0",
         "boxes-mu-delta-empty", "tube-delta-empty", "tube-mu-delta-empty",
         "boxes-mu-delta-nan", "boxes-A-nan", "boxes-A-inf", "tube-torus-mu-delta-nan",
         "tube-interval-delta-nan", "tube-interval-mu-delta-inf", "borel-cantelli-eps-nan",
         "borel-cantelli-eps-inf"],
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
    "argv, message",
    [
        (["borel-cantelli", "--k0", "1", "--k-max", "30", "--n-points", "50"], "2C < k0"),
        (["borel-cantelli", "--C", "0.5", "--k0", "2", "--k-max", "3", "--n-points", "50"],
         "k_max must be >= 4"),
    ],
    ids=["tail-bound-above-1", "k-max-below-4"],
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
    ],
    ids=["yau", "density", "dim2", "tube", "boxes"],
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
