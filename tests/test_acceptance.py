"""Acceptance checklist. One test per criterion, in order.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
values, then asserts. Criteria are checked exactly as stated, at their
stated tolerances; where a stated target is not what the implemented
formulas produce, the test fails with the measurement in its message
rather than loosening the check. The repository README summarizes which
criteria are in that state and why.

Grid for criteria 3, 4, 5, 8: the built-in grid of `fedamp verify`
(fedamp.cli._default_verify_points): p, q in {0.01, 0.1, 0.5}; d in
{1, 10, 30, 100}; sigma in {0.5, 1, 2, 5}; eps in {0.015, 0.1, 0.5, 1};
C = 1 (576 points).
"""

import math
import time

import numpy as np

from fedamp.accountant import (
    SamplingParams,
    Scheme,
    calibrate_sigma,
    count_integrand_sign_changes,
    delta_lower_bound,
    delta_main,
    delta_main_quadrature,
    delta_only_local,
    delta_upper_bound,
)
from fedamp.cli import _default_verify_points
from fedamp.divergence import (
    HockeyStickQuery,
    ajc_decompose,
    hockey_stick,
    seeded_ajc_triples,
    worst_case_pair,
)
from fedamp.numerics import gaussian_mechanism_delta
from fedamp.simulator import (
    ModelState,
    SimConfig,
    Task,
    draw_rounds,
    make_streams,
    make_synthetic_datasets,
    run_round,
    run_training,
    task_sample_grads,
)

def report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def relerr(value: float, target: float) -> float:
    return abs(value - target) / target


def calibration_criterion(n, p, q, d, targets, budget=10.0):
    start = time.monotonic()
    measured = {}
    for scheme in (Scheme.MAIN, Scheme.UPPER_BOUND, Scheme.ONLY_LOCAL):
        measured[scheme.value] = calibrate_sigma(
            scheme, p=p, q=q, d=d, C=1.0, eps_target=0.015, delta_target=1e-6
        )
    elapsed = time.monotonic() - start
    parts = []
    ok = elapsed < budget
    for name in ("main", "ub", "ols"):
        err = relerr(measured[name], targets[name])
        verdict = "ok" if err <= 0.01 else f"off by {err:.3g}"
        ok = ok and err <= 0.01
        parts.append(
            f"{name}: sigma={measured[name]:.6g} vs target {targets[name]} ({verdict})"
        )
    report(n, ok, ", ".join(parts) + f"; elapsed {elapsed:.1f}s")


def test_criterion_01_calibration_scenario_a():
    calibration_criterion(
        1, p=0.001, q=0.1, d=30, targets={"main": 1.065, "ub": 7.65, "ols": 22.4}
    )


def test_criterion_02_calibration_scenario_b():
    calibration_criterion(
        2, p=0.1, q=0.001, d=1000,
        targets={"main": 0.646, "ub": 0.873, "ols": 1.103},
    )


def test_criterion_03_closed_form_matches_quadrature():
    start = time.monotonic()
    worst = 0.0
    for params, eps in _default_verify_points():
        closed = delta_main(params, eps).delta
        quad = delta_main_quadrature(params, eps)
        worst = max(worst, abs(closed - quad))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    report(3, ok, f"576 points, max |closed - quadrature| = {worst:.3e}, "
                  f"elapsed {elapsed:.1f}s")


def test_criterion_04_bound_dominates_constructed_pair():
    worst = -math.inf
    for params, eps in _default_verify_points():
        xi, xi_prime = worst_case_pair(params)
        oracle = hockey_stick(HockeyStickQuery(math.exp(eps), xi, xi_prime))
        worst = max(worst, oracle - delta_main(params, eps).delta)
    ok = worst <= 2e-13
    report(4, ok, f"576 points, max (pair divergence - closed form) = {worst:.3e}")


def test_criterion_05_scheme_ordering():
    slack = 1e-12
    violations = {"lb<=main": 0, "main<=ub": 0, "ub<=ols": 0}
    worst_gap = 0.0
    for params, eps in _default_verify_points():
        lb = delta_lower_bound(params, eps).delta
        mn = delta_main(params, eps).delta
        ub = delta_upper_bound(params, eps).delta
        ols = delta_only_local(params.q, params.sigma, params.C, eps).delta
        if lb > mn + slack:
            violations["lb<=main"] += 1
            worst_gap = max(worst_gap, lb - mn)
        if mn > ub + slack:
            violations["main<=ub"] += 1
        if ub > ols + slack:
            violations["ub<=ols"] += 1
    ok = all(v == 0 for v in violations.values())
    report(5, ok, f"violations over 576 points: {violations}, "
                  f"worst lb-main gap = {worst_gap:.4g}")


def test_criterion_06_limit_behavior():
    base = dict(p=0.1, q=0.1, C=1.0)
    eps = 1.0
    small = SamplingParams(d=1, sigma=1.0, **base)
    big = SamplingParams(d=100, sigma=1.0, **base)
    ratio = delta_main(small, eps).delta / delta_lower_bound(small, eps).delta
    ub = delta_upper_bound(big, eps).delta
    relgap = abs(delta_main(big, eps).delta - ub) / ub
    ok = ratio <= 1.05 and relgap <= 0.02
    report(6, ok, f"d=1: main/lb = {ratio:.4g} (need <= 1.05); "
                  f"d=100: |main-ub|/ub = {relgap:.4g} (need <= 0.02)")


def test_criterion_07_reductions():
    worst = 0.0
    for eps, sigma in [(0.015, 3.0), (0.5, 1.0), (1.0, 0.7)]:
        plain = gaussian_mechanism_delta(eps, sigma, 1.0)
        full = SamplingParams(p=1.0, q=1.0, d=0, C=1.0, sigma=sigma)
        worst = max(worst, relerr(delta_main(full, eps).delta, plain))
        worst = max(worst, relerr(delta_only_local(1.0, sigma, 1.0, eps).delta, plain))
        half = SamplingParams(p=1.0, q=0.3, d=5, C=1.0, sigma=sigma)
        ols = delta_only_local(0.3, sigma, 1.0, eps).delta
        worst = max(worst, relerr(delta_upper_bound(half, eps).delta, ols))
        worst = max(worst, relerr(delta_lower_bound(half, eps).delta, ols))
    ok = worst <= 1e-12
    report(7, ok, f"max relative deviation from analytic reductions = {worst:.3e}")


def test_criterion_08_single_crossing():
    bad = 0
    for params, eps in _default_verify_points():
        if count_integrand_sign_changes(params, eps) != 1:
            bad += 1
    ok = bad == 0
    report(8, ok, f"{bad} of 576 points have coefficient sign-change count "
                  f"!= 1")


def test_criterion_09_ajc_identity():
    worst = 0.0
    for mu0, mu1, mu1p, gamma, alpha in seeded_ajc_triples(50):
        lhs, rhs = ajc_decompose(mu0, mu1, mu1p, gamma, alpha)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 2e-13
    report(9, ok, f"50 seeded triples, max |lhs - rhs| = {worst:.3e}")


def test_criterion_10_simulator_statistics():
    start = time.monotonic()
    cfg = SimConfig(
        N=30, d=10, p=0.2, q=0.3, C=1.0, sigma=0.5, T=1, eta=0.1, m=4, seed=11
    )
    streams = make_streams(cfg.seed, cfg.N)
    data, _ = make_synthetic_datasets(cfg, Task.LINEAR_REGRESSION, streams.data)
    state = ModelState(weights=np.zeros(cfg.m), iteration=0)

    rounds = 10_000
    participants = np.empty(rounds)
    elements = np.empty(rounds)
    clip_ok = True
    # blocks of rounds' draws give the same values as one-round draws
    block_rounds = 1_000
    for first in range(0, rounds, block_rounds):
        block = draw_rounds(cfg, data, streams, block_rounds)
        for r in range(block_rounds):
            t = first + r
            _, outcome = run_round(state, cfg, block, r, Task.LINEAR_REGRESSION)
            participants[t] = len(outcome.participants)
            elements[t] = sum(len(s) for s in outcome.sampled_elements.values())
            assert outcome.max_clipped_norm is not None
            clip_ok = clip_ok and outcome.max_clipped_norm <= cfg.C + 1e-12

    se_part = math.sqrt(cfg.N * cfg.p * (1 - cfg.p) / rounds)
    part_dev = abs(participants.mean() - cfg.N * cfg.p)
    per_client_var = cfg.p * (
        cfg.d * cfg.q * (1 - cfg.q) + (1 - cfg.p) * (cfg.q * cfg.d) ** 2
    )
    se_elem = math.sqrt(cfg.N * per_client_var / rounds)
    elem_dev = abs(elements.mean() - cfg.N * cfg.p * cfg.q * cfg.d)

    # unbiasedness at a fixed model over 10^5 rounds
    fixed_rounds = 100_000
    rng = np.random.default_rng(5)
    w = rng.standard_normal(cfg.m) * 0.3
    fixed_state = ModelState(weights=w, iteration=0)
    expected = np.zeros(cfg.m)
    for lo, hi in zip(data.offsets[:-1], data.offsets[1:]):
        grads = task_sample_grads(Task.LINEAR_REGRESSION, w, data.features[lo:hi], data.labels[lo:hi])
        norms = np.linalg.norm(grads, axis=1)
        expected += (grads / np.maximum(1.0, norms / cfg.C)[:, None]).sum(axis=0)
    expected /= cfg.N * cfg.d

    estimates = np.empty((fixed_rounds, cfg.m))
    for first in range(0, fixed_rounds, block_rounds):
        block = draw_rounds(cfg, data, streams, block_rounds)
        for r in range(block_rounds):
            _, outcome = run_round(fixed_state, cfg, block, r, Task.LINEAR_REGRESSION)
            estimates[first + r] = outcome.noisy_estimate
    se_coord = estimates.std(axis=0, ddof=1) / math.sqrt(fixed_rounds)
    bias_z = np.abs(estimates.mean(axis=0) - expected) / se_coord

    elapsed = time.monotonic() - start
    ok = (
        clip_ok
        and part_dev <= 3 * se_part
        and elem_dev <= 3 * se_elem
        and bool(np.all(bias_z <= 4.0))
        and elapsed < 120.0
    )
    report(10, ok, f"clipping {'ok' if clip_ok else 'VIOLATED'}; "
                   f"participants off by {part_dev / se_part:.2f} se; "
                   f"batch size off by {elem_dev / se_elem:.2f} se; "
                   f"max per-coordinate bias {bias_z.max():.2f} se "
                   f"over 10^5 rounds; elapsed {elapsed:.1f}s")


def test_criterion_11_training_loss_ordering():
    sigmas = {
        scheme: calibrate_sigma(
            scheme, p=0.1, q=0.1, d=30, C=1.0, eps_target=0.015, delta_target=1e-6
        )
        for scheme in (Scheme.MAIN, Scheme.UPPER_BOUND, Scheme.ONLY_LOCAL)
    }
    finals = {scheme: [] for scheme in sigmas}
    for seed in range(5):
        for scheme, sigma in sigmas.items():
            cfg = SimConfig(
                N=100, d=30, p=0.1, q=0.1, C=1.0, sigma=sigma,
                T=150, eta=0.5, m=20, seed=seed,
            )
            rows = run_training(cfg, Task.LOGISTIC_REGRESSION)
            finals[scheme].append(rows[-1].loss)
    means = {scheme.value: float(np.mean(v)) for scheme, v in finals.items()}
    ok = means["main"] < means["ub"] < means["ols"]
    report(11, ok, f"mean final loss over 5 seeds: main={means['main']:.4g}, "
                   f"ub={means['ub']:.4g}, ols={means['ols']:.4g} "
                   f"(sigmas {sigmas[Scheme.MAIN]:.3g}/"
                   f"{sigmas[Scheme.UPPER_BOUND]:.3g}/"
                   f"{sigmas[Scheme.ONLY_LOCAL]:.3g})")
