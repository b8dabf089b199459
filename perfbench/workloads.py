"""The benchmark's workloads: driver calls through the public nodalab API.

Each workload is one closed loop: a single client in one process calls its
drivers one after another, each with its default config and ``cache=None``
(the CLI default). The workload seed replaces the ``seed=`` of the drivers
whose gates hold on every seed; ``run_density_check`` and
``run_comparability_scaling`` take no seed and are deterministic.
``run_exponent_survey`` keeps its default seed, the one the CLI uses without
``--seed``: its ``box_mean_high`` gate fails on about 2% of seeds (a 50-point
box mean of about 2.16 against a band ending at 2.3), so a seeded survey
would make some benchmark runs fail on a verdict, not on speed. Drivers are
looked up on ``nodalab.harness`` at call time, so a traced pass sees them
through the tracer's wrappers.
"""

from __future__ import annotations


def _torus_measure(h, spec, seed):
    return [("run_yau_check", lambda: h.run_yau_check(spec.torus((1, 1)), seed=seed))]


def _sign_domains(h, spec, seed):
    return [
        ("run_dim2_checks", lambda: h.run_dim2_checks(seed=seed)),
        ("run_density_check[torus2]", lambda: h.run_density_check(spec.torus((1, 1)))),
        ("run_density_check[interval]", lambda: h.run_density_check(spec.interval())),
        ("run_comparability_scaling", lambda: h.run_comparability_scaling()),
    ]


def _spectral_scan(h, spec, seed):
    return [
        ("run_approx_theorem", lambda: h.run_approx_theorem(seed=seed)),
        # default seed: the box_mean_high gate fails on about 2% of seeds
        ("run_exponent_survey", lambda: h.run_exponent_survey()),
    ]


WORKLOADS = {
    "torus-measure": _torus_measure,
    "sign-domains": _sign_domains,
    "spectral-scan": _spectral_scan,
}


def driver_calls(workload: str, seed: int):
    """(label, thunk) pairs of one pass; each thunk returns an ExperimentReport."""
    from nodalab import harness
    from nodalab.spectrum import DomainSpec

    return WORKLOADS[workload](harness, DomainSpec, seed)
