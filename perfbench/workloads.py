"""Seeded inputs, ops and output checks of the three workloads.

An op is one call sequence into fedamp's public API. Every call goes
through the module attribute (``accountant.calibrate_sigma``, not a name
imported here), so the tracer's wrappers see it. Inputs come from the
seed alone; fedamp only ever sees the generated values.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from fedamp import accountant, cli, divergence, simulator
from fedamp.accountant import SamplingParams, Scheme, SweepVariable

import checks

SIGMA_SCHEMES = (Scheme.MAIN, Scheme.UPPER_BOUND, Scheme.ONLY_LOCAL)
ALL_SCHEMES = SIGMA_SCHEMES + (Scheme.LOWER_BOUND,)


def _log_uniform(lo, hi, u):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _latin_hypercube(rng, ranges, count):
    """``count`` settings, one per stratum of every log-uniform range,
    strata paired at random; d is rounded to an integer."""
    columns = {
        key: [_log_uniform(lo, hi, u) for u in (rng.permutation(count) + rng.uniform(size=count)) / count]
        for key, (lo, hi) in ranges.items()
    }
    columns["d"] = [int(round(d)) for d in columns["d"]]
    return [{key: columns[key][i] for key in ranges} for i in range(count)]


class Calibrate:
    """Closed-form accounting queries answered by bisection."""

    name = "calibrate"

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.scenario_b_main_sigma = None

    def rounds(self):
        """Cycles of ops; the first also holds the fixed scenarios.

        Cost grows steeply with d: stratified draws give every cycle, and
        so every seed, about the same amount of work.
        """
        spec = self.spec
        target = spec["fixed_target"]
        fixed = [
            ("sigma", {**setting, "eps": target["eps"], "delta": target["delta"], "label": label})
            for label, setting in spec["fixed_settings"].items()
        ]
        rng = np.random.default_rng(self.seed)
        while True:
            drawn = [
                [(kind, s) for s in _latin_hypercube(rng, spec["ranges"][kind], spec["ops_per_kind"])]
                for kind in ("sigma", "eps", "sweep")
            ]
            yield fixed + [op for group in zip(*drawn) for op in group]
            fixed = []

    def run(self, op):
        kind, s = op
        if kind == "sigma":
            return {
                scheme: accountant.calibrate_sigma(
                    scheme, p=s["p"], q=s["q"], d=s["d"], C=1.0,
                    eps_target=s["eps"], delta_target=s["delta"],
                )
                for scheme in SIGMA_SCHEMES
            }
        if kind == "eps":
            params = SamplingParams(p=s["p"], q=s["q"], d=s["d"], C=1.0, sigma=s["sigma"])
            return {
                scheme: accountant.eps_for_delta(scheme, params, s["delta"])
                for scheme in ALL_SCHEMES
            }
        sigmas = np.linspace(s["sigma_lo"], s["sigma_lo"] * self.spec["sweep_span"], self.spec["sweep_points"])
        return accountant.sweep(
            ALL_SCHEMES, SweepVariable.SIGMA, list(sigmas),
            p=s["p"], q=s["q"], d=s["d"], C=1.0, eps=s["eps"],
        )

    def check(self, op, out):
        kind, s = op
        if kind == "sweep":
            return checks.check_sweep(out, ALL_SCHEMES, self.spec["sweep_points"])
        if s.get("label") == "scenario_b":
            self.scenario_b_main_sigma = out[Scheme.MAIN]
        if kind == "sigma":
            floor = accountant.SIGMA_BRACKET[0]

            def step_below(sigma):
                return sigma / (1.0 + accountant.SIGMA_REL_TOL)

            def delta_at(scheme, sigma):
                params = SamplingParams(p=s["p"], q=s["q"], d=s["d"], C=1.0, sigma=sigma)
                return accountant.delta_for_scheme(scheme, params, s["eps"]).delta
        else:
            floor = accountant.EPS_BRACKET[0]
            params = SamplingParams(p=s["p"], q=s["q"], d=s["d"], C=1.0, sigma=s["sigma"])

            def step_below(eps):
                return max(eps - accountant.EPS_ABS_TOL, floor)

            def delta_at(scheme, eps):
                return accountant.delta_for_scheme(scheme, params, eps).delta
        problems = []
        for scheme, answer in out.items():
            problems += checks.check_inversion(
                f"{kind}[{scheme.value}]", answer, floor, step_below,
                functools.partial(delta_at, scheme), s["delta"],
            )
        return problems

    def finish(self):
        return [], {"calibrate.scenario_b_main_sigma": self.scenario_b_main_sigma}


def verify_grid():
    """The built-in grid of ``fedamp verify``, in its own order."""
    return [
        (SamplingParams(p=p, q=q, d=d, C=1.0, sigma=sigma), eps)
        for p, q, d, sigma, eps in itertools.product(
            cli.VERIFY_GRID_P, cli.VERIFY_GRID_Q, cli.VERIFY_GRID_D,
            cli.VERIFY_GRID_SIGMA, cli.VERIFY_GRID_EPS,
        )
    ]


class Verify:
    """Every evaluation route of the closed form, one grid point per op."""

    name = "verify"

    def __init__(self, spec, seed):
        self.grid = verify_grid()
        self.seed = seed
        self.lb_above_main = {}

    def rounds(self):
        """Half passes over the grid, two per pass. Each pass shuffles the
        points of every d, gives each half the same number of every d and
        interleaves the d values."""
        strata = {}
        for index, (params, _) in enumerate(self.grid):
            strata.setdefault(params.d, []).append(index)
        rng = np.random.default_rng(self.seed)
        while True:
            shuffled = [rng.permutation(group) for group in strata.values()]
            for half in (slice(None, len(shuffled[0]) // 2), slice(len(shuffled[0]) // 2, None)):
                yield [int(i) for column in zip(*(group[half] for group in shuffled)) for i in rng.permutation(column)]

    def run(self, op):
        params, eps = self.grid[op]
        xi, xi_prime = divergence.worst_case_pair(params)
        return {
            "closed": accountant.delta_main(params, eps).delta,
            "quadrature": accountant.delta_main_quadrature(params, eps),
            "crossings": accountant.count_integrand_sign_changes(params, eps),
            "lb": accountant.delta_lower_bound(params, eps).delta,
            "ub": accountant.delta_upper_bound(params, eps).delta,
            "ols": accountant.delta_only_local(params.q, params.sigma, params.C, eps).delta,
            "pair": divergence.hockey_stick(divergence.HockeyStickQuery(math.exp(eps), xi, xi_prime)),
        }

    def check(self, op, out):
        # lb above main is the known defect behind acceptance criterion 5:
        # reported, not counted as a failure.
        self.lb_above_main[op] = out["lb"] > out["closed"] + cli.ORDERING_SLACK
        return checks.check_verify_point(
            out["closed"], out["quadrature"], out["crossings"], out["pair"], out["ub"], out["ols"]
        )

    def finish(self):
        return [], {
            "verify.lb_above_main": sum(self.lb_above_main.values()),
            "verify.points_checked": len(self.lb_above_main),
        }


class Train:
    """Synthetic federated training at a fixed sigma, one run per op."""

    name = "train"

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.finals = {}

    def rounds(self):
        """One training run of every task per round; run i trains with the
        first word of SeedSequence([workload seed, i])."""
        tasks = [simulator.Task(name) for name in self.spec["tasks"]]
        i = 0
        while True:
            round_ = []
            for task in tasks:
                round_.append((task, int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])))
                i += 1
            yield round_

    def run(self, op):
        task, train_seed = op
        config = simulator.SimConfig(**self.spec["config"], sigma=self.spec["sigma"], seed=train_seed)
        return simulator.run_training(config, task)

    def check(self, op, rows):
        losses = [row.loss for row in rows]
        if losses:
            self.finals.setdefault(op[0].value, []).append(losses[-1])
        return checks.check_training(losses, self.spec["config"]["T"])

    def finish(self):
        problems = []
        for task, finals in self.finals.items():
            problems += checks.check_mean_final_loss(task, finals)
        means = {f"train.{task}.mean_final_loss": sum(v) / len(v) for task, v in self.finals.items()}
        return problems, means


WORKLOADS = {cls.name: cls for cls in (Calibrate, Verify, Train)}
