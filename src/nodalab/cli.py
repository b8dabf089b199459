"""Command-line front end: one subcommand per experiment, key=value configs.

Exit codes: 0 all gates passed, 1 a gate failed, 2 invalid input,
3 a resolution or resource guard stopped the run outright.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ResolutionError, ResourceGuardError, ValidationError
from .harness import (
    GATE_BUILDERS,
    run_approx_theorem,
    run_comparability_scaling,
    run_density_check,
    run_dim2_checks,
    run_exponent_survey,
    run_tube_scaling,
    run_yau_check,
)
from .reports import verify_report, write_report
from .spectrum import DomainSpec, distinct_count, enumerate_modes

EXIT_PASS = 0
EXIT_GATE_FAIL = 1
EXIT_INVALID = 2
EXIT_GUARD = 3


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}")


def _parse_modes(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolons separate modes, commas separate indices: '3,4;5,5'."""
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(tuple(int(v) for v in part.split(",")))
        except ValueError:
            raise ValidationError(f"bad mode {part!r}")
    if not out:
        raise ValidationError(f"no modes in {text!r}")
    return tuple(out)


def _parse_domain(kind: str, alpha: str | None) -> DomainSpec:
    weights = _parse_floats(alpha) if alpha else None
    if kind == "interval":
        if weights not in (None, (1.0,)):
            raise ValidationError("the interval is pinned to alpha=(1,)")
        return DomainSpec.interval()
    if kind == "box":
        return DomainSpec.box(weights or (1.0, 1.0))
    if kind == "torus":
        return DomainSpec.torus(weights or (1.0, 1.0))
    if kind == "torus2":
        if weights not in (None, (1.0, 1.0)):
            raise ValidationError("torus2 is shorthand for torus with alpha=(1,1)")
        return DomainSpec.torus((1.0, 1.0))
    raise ValidationError(f"unknown domain {kind!r}")


def read_config_file(path) -> dict:
    """Flat key=value lines; '#' comments and blank lines ignored."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def apply_config_file(args: argparse.Namespace, parser_keys: set) -> argparse.Namespace:
    """File values fill in flags the user did not pass; flags always win."""
    if not getattr(args, "config", None):
        return args
    values = read_config_file(args.config)
    unknown = set(values) - parser_keys
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, text in values.items():
        if key in args._explicit:
            continue
        setattr(args, key, text)
    return args


class _TrackingParser(argparse.ArgumentParser):
    """Records which destinations were set on the command line.

    Abbreviated flags are disabled so the explicit-flag bookkeeping that
    decides config-file precedence only has exact spellings to match.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def parse_args(self, argv=None, namespace=None):
        ns = super().parse_args(argv, namespace)
        explicit = set()
        argv = sys.argv[1:] if argv is None else list(argv)
        for action in self._subcommand_actions(ns):
            for opt in action.option_strings:
                if any(a == opt or a.startswith(opt + "=") for a in argv):
                    explicit.add(action.dest)
        ns._explicit = explicit
        return ns

    def _subcommand_actions(self, ns):
        sub = getattr(ns, "_subparser", None)
        return sub._actions if sub is not None else self._actions


def _coerce(value, kind):
    """Config-file strings arrive untyped; flags arrive already converted."""
    if not isinstance(value, str):
        return value
    if kind is bool:
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"expected a boolean, got {value!r}")
    return kind(value)


def build_parser() -> _TrackingParser:
    parser = _TrackingParser(prog="nodalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--out", default="results", help="report output directory")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(_subparser=p)

    def domain_flags(p, default="interval"):
        p.add_argument("--domain", default=default,
                       choices=("interval", "box", "torus", "torus2"))
        p.add_argument("--alpha", default=None, help="comma-separated axis weights")

    p = sub.add_parser("spectrum", help="enumerate modes up to a frequency cap")
    common(p)
    domain_flags(p)
    p.add_argument("--mu-max", dest="mu_max", type=float, required=True)
    p.add_argument("--distinct", action="store_true",
                   help="count distinct frequencies instead of modes")

    p = sub.add_parser("tube", help="tube volume against the mu*delta law")
    common(p)
    domain_flags(p)
    p.add_argument("--modes", default=None, help="e.g. '3,4;5,5'")
    p.add_argument("--mu-delta", dest="mu_delta", default=None, help="targets, e.g. '0.05,0.1'")
    p.add_argument("--delta", default=None, help="explicit radii, e.g. '0.02,0.05'")
    p.add_argument("--no-grid", dest="no_grid", action="store_true",
                   help="oracle cells only")
    p.add_argument("--break-cell", dest="break_cell", action="store_true",
                   help="add the mu*delta=3 saturation cell (excluded from gates)")
    p.add_argument("--band-cap", dest="band_cap", type=float, default=4.0)
    p.add_argument("--agree-tol", dest="agree_tol", type=float, default=0.02)

    p = sub.add_parser("yau", help="nodal measure per unit frequency")
    common(p)
    domain_flags(p, default="torus2")
    p.add_argument("--modes", default=None)

    p = sub.add_parser("density", help="largest nodal-free hole times mu")
    common(p)
    domain_flags(p, default="torus2")
    p.add_argument("--modes", default=None)

    p = sub.add_parser("boxes", help="comparability-set scaling and box statistics")
    common(p)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--A", type=float, default=10.0)
    p.add_argument("--mu-delta", dest="mu_delta", default="0.1,0.2,0.4")

    p = sub.add_parser("dim2", help="2-d sign-domain statistics")
    common(p)
    p.add_argument("--modes", default=None)

    p = sub.add_parser("dioph", help="per-point approximation exponents")
    common(p)
    p.add_argument("--n-interval", dest="n_interval", type=int, default=200)
    p.add_argument("--mu-max", dest="mu_max", type=float, default=100_000.0)
    p.add_argument("--n-box", dest="n_box", type=int, default=500)
    p.add_argument("--mu-max-box", dest="mu_max_box", type=float, default=2000.0)
    p.add_argument(
        "--point-min",
        dest="point_min",
        type=int,
        default=None,
        help="in-band point-count gate (default 90%% of --n-interval)",
    )

    p = sub.add_parser("borel-cantelli", help="tube-volume sums and hit fractions")
    common(p)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--k-max", dest="k_max", type=int, default=10_000)
    p.add_argument("--k0", type=int, default=100)
    p.add_argument("--n-points", dest="n_points", type=int, default=10_000)

    p = sub.add_parser("report", help="verify a stored report's gates from its cells")
    p.add_argument("path")
    p.set_defaults(_subparser=p)

    return parser


def _float_list(args, name):
    val = getattr(args, name, None)
    return _parse_floats(val) if isinstance(val, str) else val


def _mode_list(args):
    val = getattr(args, "modes", None)
    return _parse_modes(val) if isinstance(val, str) else val


def dispatch(args) -> int:
    if args.command == "report":
        ok, msg = verify_report(args.path, GATE_BUILDERS)
        print(("ok: " if ok else "MISMATCH: ") + msg)
        return EXIT_PASS if ok else EXIT_GATE_FAIL

    seed = None if args.seed is None else _coerce(args.seed, int)

    if args.command == "spectrum":
        domain = _parse_domain(args.domain, args.alpha)
        mu_max = _coerce(args.mu_max, float)
        modes = enumerate_modes(domain, mu_max)
        if _coerce(args.distinct, bool):
            count = distinct_count(modes.mu)
            label = "distinct frequencies"
        else:
            count = len(modes)
            label = "modes"
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"spectrum_{args.domain}_mu{mu_max:g}.json"
        path.write_text(modes.to_json())
        if count == 0:
            print(f"warning: no {label} with mu <= {mu_max:g}", file=sys.stderr)
        print(f"spectrum: {count} {label}, wrote {path}")
        return EXIT_PASS

    if args.command == "tube":
        domain = _parse_domain(args.domain, args.alpha)
        report = run_tube_scaling(
            domain,
            modes=_mode_list(args),
            mu_delta=_float_list(args, "mu_delta"),
            deltas=_float_list(args, "delta"),
            grid=not _coerce(args.no_grid, bool),
            include_break_cell=_coerce(args.break_cell, bool),
            band_cap=_coerce(args.band_cap, float),
            agree_tol=_coerce(args.agree_tol, float),
            seed=seed or 0,
        )
    elif args.command == "yau":
        domain = _parse_domain(args.domain, args.alpha)
        report = run_yau_check(domain, modes=_mode_list(args), seed=seed or 0)
    elif args.command == "density":
        domain = _parse_domain(args.domain, args.alpha)
        report = run_density_check(domain, modes=_mode_list(args))
    elif args.command == "boxes":
        report = run_comparability_scaling(
            m=_coerce(args.m, int),
            A=_coerce(args.A, float),
            mu_delta=_float_list(args, "mu_delta"),
        )
    elif args.command == "dim2":
        report = run_dim2_checks(modes=_mode_list(args), seed=seed or 0)
    elif args.command == "dioph":
        report = run_exponent_survey(
            n_interval=_coerce(args.n_interval, int),
            mu_max_interval=_coerce(args.mu_max, float),
            n_box=_coerce(args.n_box, int),
            mu_max_box=_coerce(args.mu_max_box, float),
            interval_point_min=None if args.point_min is None else _coerce(args.point_min, int),
            seed=12345 if seed is None else seed,
        )
    elif args.command == "borel-cantelli":
        report = run_approx_theorem(
            C=_coerce(args.C, float),
            eps=_coerce(args.eps, float),
            k_max=_coerce(args.k_max, int),
            k0=_coerce(args.k0, int),
            n_points=_coerce(args.n_points, int),
            seed=2718 if seed is None else seed,
        )
    else:
        raise ValidationError(f"unknown command {args.command!r}")

    json_path, csv_path = write_report(report, args.out)
    n_pass = sum(1 for g in report.gates if g.passed)
    print(
        f"{report.experiment}: gates {n_pass}/{len(report.gates)} passed, "
        f"{'PASS' if report.passed else 'FAIL'}, wrote {json_path}"
    )
    if not report.passed:
        if not report.gates:
            print("  no gate could be evaluated: the cells the gates need were skipped or excluded")
        for g in report.gates:
            if not g.passed:
                print(f"  failed gate {g.name}: {g.value!r} not {g.op} {g.bound!r}")
        for c in report.cells:
            if c.skipped:
                print(f"  skipped cell {c.cell}: {c.note}")
    return EXIT_PASS if report.passed else EXIT_GATE_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            keys = {a.dest for a in args._subparser._actions if a.dest != "help"}
            apply_config_file(args, keys)
        return dispatch(args)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ResolutionError, ResourceGuardError) as e:
        print(f"guard: {e}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
