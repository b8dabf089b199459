"""Command-line front end: one subcommand per experiment, key=value configs.

Each report subcommand calls one driver of ``nodalab.harness`` with only the
options the user set. A flag's destination is its driver's keyword name, so
an unset flag leaves the driver's own default in force, and the same name is
the flag's key in a config file and in the report's ``config`` block. A
config file's values become the subcommand's argparse defaults: each flag's
``type`` converts them, explicit flags override them, and a bad value is an
argparse error like a bad flag.

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

DRIVERS = {
    "tube": run_tube_scaling,
    "yau": run_yau_check,
    "density": run_density_check,
    "boxes": run_comparability_scaling,
    "dim2": run_dim2_checks,
    "dioph": run_exponent_survey,
    "borel-cantelli": run_approx_theorem,
}

# parsed names that are not driver keywords; --alpha is folded into the domain
META_KEYS = ("command", "config", "out", "_subparser", "alpha")

_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True)
_BOOLS.update(dict.fromkeys(("0", "false", "no", "off"), False))


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


def apply_config_file(parser: argparse.ArgumentParser, args, argv) -> argparse.Namespace:
    """Parse ``argv`` again with the file's values as the subcommand's defaults.

    argparse runs a string default through its flag's ``type`` only when the
    flag is absent, so flags win and a bad value exits 2 like a bad flag.
    Switches have no ``type``; their file values are read as booleans here.
    """
    sub = args._subparser
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    values = read_config_file(args.config)
    unknown = set(values) - set(actions)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, text in values.items():
        if actions[key].nargs == 0:
            if text.lower() not in _BOOLS:
                raise ValidationError(f"config key {key}: expected a boolean, got {text!r}")
            values[key] = _BOOLS[text.lower()]
    sub.set_defaults(**values)
    return parser.parse_args(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nodalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, domain=None, seed=True):
        # an unset flag stays out of the namespace, so its driver's default applies
        p = sub.add_parser(name, help=help, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--out", default="results", help="report output directory")
        if seed:
            p.add_argument("--seed", type=int)
        if domain:
            p.add_argument("--domain", default=domain,
                           choices=("interval", "box", "torus", "torus2"))
            p.add_argument("--alpha", help="comma-separated axis weights")
        p.set_defaults(_subparser=p)
        return p

    p = command("spectrum", "enumerate modes up to a frequency cap", "interval", seed=False)
    p.add_argument("--mu-max", type=float, required=True)
    p.add_argument("--distinct", action="store_true", default=False,
                   help="count distinct frequencies instead of modes")

    p = command("tube", "tube volume against the mu*delta law", "interval")
    p.add_argument("--modes", type=_parse_modes, help="e.g. '3,4;5,5'")
    p.add_argument("--mu-delta", type=_parse_floats, help="targets, e.g. '0.05,0.1'")
    p.add_argument("--delta", dest="deltas", type=_parse_floats,
                   help="explicit radii, e.g. '0.02,0.05'")
    p.add_argument("--no-grid", dest="grid", action="store_false", help="oracle cells only")
    p.add_argument("--break-cell", dest="include_break_cell", action="store_true",
                   help="add the mu*delta=3 saturation cell (excluded from gates)")
    p.add_argument("--band-cap", type=float)
    p.add_argument("--agree-tol", type=float)

    p = command("yau", "nodal measure per unit frequency", "torus2")
    p.add_argument("--modes", type=_parse_modes)

    p = command("density", "largest nodal-free hole times mu", "torus2", seed=False)
    p.add_argument("--modes", type=_parse_modes)

    p = command("boxes", "comparability-set scaling and box statistics", seed=False)
    p.add_argument("--m", type=int)
    p.add_argument("--A", type=float)
    p.add_argument("--mu-delta", type=_parse_floats)

    p = command("dim2", "2-d sign-domain statistics")
    p.add_argument("--modes", type=_parse_modes)

    p = command("dioph", "per-point approximation exponents")
    p.add_argument("--n-interval", type=int)
    p.add_argument("--mu-max", dest="mu_max_interval", type=float)
    p.add_argument("--n-box", type=int)
    p.add_argument("--mu-max-box", type=float)
    p.add_argument("--point-min", dest="interval_point_min", type=int,
                   help="in-band point-count gate (default 90%% of --n-interval)")

    p = command("borel-cantelli", "tube-volume sums and hit fractions")
    p.add_argument("--C", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--k-max", type=int)
    p.add_argument("--k0", type=int)
    p.add_argument("--n-points", type=int)

    p = sub.add_parser("report", help="verify a stored report's gates from its cells")
    p.add_argument("path")

    return parser


def dispatch(args) -> int:
    if args.command == "report":
        ok, msg = verify_report(args.path, GATE_BUILDERS)
        print(("ok: " if ok else "MISMATCH: ") + msg)
        return EXIT_PASS if ok else EXIT_GATE_FAIL

    kwargs = {k: v for k, v in vars(args).items() if k not in META_KEYS}
    if "domain" in kwargs:
        kwargs["domain"] = _parse_domain(args.domain, getattr(args, "alpha", None))

    if args.command == "spectrum":
        modes = enumerate_modes(kwargs["domain"], args.mu_max)
        if args.distinct:
            count = distinct_count(modes.mu)
            label = "distinct frequencies"
        else:
            count = len(modes)
            label = "modes"
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"spectrum_{args.domain}_mu{args.mu_max:g}.json"
        path.write_text(modes.to_json())
        if count == 0:
            print(f"warning: no {label} with mu <= {args.mu_max:g}", file=sys.stderr)
        print(f"spectrum: {count} {label}, wrote {path}")
        return EXIT_PASS

    report = DRIVERS[args.command](**kwargs)
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
            args = apply_config_file(parser, args, argv)
        return dispatch(args)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ResolutionError, ResourceGuardError) as e:
        print(f"guard: {e}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
