"""Accounting schemes: the amplified level, the amplified bound, and calibration.

The closed forms are cross-checked three ways: against the quadrature
evaluation of the same integrand, against hockey-stick divergences of the
explicitly constructed mixture pair, and against analytic reductions at
boundary parameter values.
"""

import itertools
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from fedamp import accountant
from fedamp.accountant import (
    EPS_ABS_TOL,
    EPS_BRACKET,
    SIGMA_BRACKET,
    SIGMA_REL_TOL,
    CalibrationError,
    DegenerateIntegrandError,
    PrivacyPoint,
    SamplingParams,
    Scheme,
    SweepVariable,
    _scan_window,
    amplified_eps,
    calibrate_sigma,
    count_integrand_sign_changes,
    delta_for_scheme,
    delta_lower_bound,
    delta_main,
    delta_main_quadrature,
    delta_only_local,
    delta_upper_bound,
    eps_for_delta,
    find_z_star,
    main_pair,
    sweep,
)
from fedamp.cli import (
    VERIFY_GRID_EPS,
    VERIFY_GRID_P,
    VERIFY_GRID_Q,
    VERIFY_GRID_SIGMA,
    _default_verify_points,
)
from fedamp.divergence import (
    GaussianMixture1D,
    HockeyStickQuery,
    hockey_stick,
    weighted_normal_pdf,
    worst_case_pair,
)
from fedamp.numerics import DomainError, gaussian_mechanism_delta

EPS_PRIME_REF = 5.024739665867514  # eps'(0.015) at pq = 1e-4

# regression anchors for calibrate_sigma (frozen from this implementation)
SIGMA_UB_A = 7.665127764843183  # p=0.001 q=0.1 d=30   eps=0.015 delta=1e-6
SIGMA_OLS_A = 22.497464339959848
SIGMA_UB_B = 0.8738671427359291  # p=0.1  q=0.001 d=1000 eps=0.015 delta=1e-6
SIGMA_OLS_B = 1.1035372958479206


def params(p=0.1, q=0.1, d=1, C=1.0, sigma=1.0) -> SamplingParams:
    return SamplingParams(p=p, q=q, d=d, C=C, sigma=sigma)


def main_z_star(pr: SamplingParams, eps: float):
    """find_z_star on the Main pair over the window delta_main scans."""
    return find_z_star(main_pair(pr, eps), *_scan_window(pr, eps))


class TestSamplingParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=0.0),
            dict(p=1.2),
            dict(q=0.0),
            dict(q=math.nan),
            dict(d=-1),
            dict(d=2.5),
            dict(C=0.0),
            dict(sigma=0.0),
            dict(sigma=-1.0),
            dict(d=math.inf),
            dict(d=math.nan),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            params(**kwargs)

    @pytest.mark.parametrize("name", ["C", "sigma"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_scale_message(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be finite and positive, got"):
            params(**{name: value})

    def test_d_zero_allowed(self):
        assert params(d=0).d == 0


class TestDeriveConstants:
    """The constants derived from eps: amplified_eps's level and the
    alpha' and denominator split of main_pair."""

    def test_reference_eps_prime(self):
        assert amplified_eps(0.015, 0.001 * 0.1) == pytest.approx(EPS_PRIME_REF, rel=1e-13, abs=0.0)

    def test_amplification_identity(self):
        for p, q, eps in [(0.1, 0.1, 0.5), (0.01, 0.5, 1.0), (0.9, 0.9, 0.015)]:
            expected = 1.0 + (math.exp(eps) - 1.0) / (p * q)
            assert math.exp(amplified_eps(eps, p * q)) == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert main_pair(params(p=p, q=q), eps).alpha == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_round_trip_through_eps_prime(self):
        for p, q, eps in [(0.1, 0.1, 0.015), (0.001, 0.1, 0.5), (0.5, 0.9, 2.0)]:
            back = math.log1p(p * q * math.expm1(amplified_eps(eps, p * q)))
            assert back == pytest.approx(eps, rel=1e-12, abs=0.0)

    def test_tilted_split_sums_to_one(self):
        for p, q, eps in [(0.1, 0.1, 0.5), (0.01, 0.9, 0.1), (0.99, 0.01, 1.5)]:
            den = main_pair(params(p=p, q=q, d=1), eps).denominator
            assert den.total_mass == pytest.approx(1.0, abs=1e-12)
            # den = c1_bar N(0) + c2_bar ((1-q) N(0) + q N(C)), so c1_bar >= 0
            c2_bar = den.weights[1] / q
            assert den.weights[0] >= c2_bar * (1.0 - q)

    def test_no_amplification_at_full_sampling(self):
        assert amplified_eps(0.7, 1.0) == 0.7
        # c1_bar = 0 drops N(0); c2_bar = 1 keeps N(C) whole
        pair = main_pair(params(p=1.0, q=1.0, d=1), 0.7)
        assert pair.alpha == math.exp(0.7)
        assert pair.denominator.means.tolist() == [1.0]
        assert pair.denominator.weights.tolist() == [1.0]

    def test_eps_zero(self):
        assert amplified_eps(0.0, 0.01) == 0.0
        assert main_pair(params(), 0.0).alpha == 1.0

    def test_domain(self):
        for eps, rate in [
            (-0.1, 0.01),
            (math.inf, 0.01),
            (math.nan, 0.01),
            (710.0, 1.0),  # e^eps - 1 overflows
            (700.0, 1e-6),  # (e^eps - 1)/rate overflows
        ]:
            with pytest.raises(DomainError):
                amplified_eps(eps, rate)
            with pytest.raises(DomainError):
                main_pair(params(p=1.0, q=rate), eps)
            with pytest.raises(DomainError):
                delta_only_local(rate, 1.0, 1.0, eps)


class TestMainIntegrand:
    def test_negligible_far_left(self):
        pr = params(p=0.1, q=0.1, d=5, sigma=1.0)
        assert abs(main_pair(pr, 0.1).signed(-12.0)) < 1e-30

    def test_vectorized(self):
        pr = params(d=3)
        z = np.linspace(-2.0, 6.0, 17)
        values = main_pair(pr, 0.2).signed(z)
        assert np.shape(values) == z.shape

    def test_single_sign_change_spot_checks(self):
        for p, q, d, sigma, eps in [
            (0.1, 0.1, 1, 1.0, 0.1),
            (0.5, 0.5, 30, 2.0, 0.5),
            (0.01, 0.5, 100, 0.5, 1.0),
        ]:
            assert count_integrand_sign_changes(params(p, q, d, 1.0, sigma), eps) == 1

    def test_single_sign_change_edge_spot_checks(self):
        for p, q, d, C, sigma, eps in [
            (0.1, 0.1, 0, 1.0, 1.0, 0.5),  # no other elements
            (0.1, 1.0, 10, 1.0, 1.0, 0.5),  # every element sampled
            (0.1, 0.1, 10, 0.3, 1.0, 0.5),  # lattice finer than sigma
            (0.1, 0.1, 10, 7.0, 1.0, 0.5),  # lattice coarser than sigma
            (0.02592, 0.01713, 20, 1.0, 0.0142, 0.02835),  # narrow components
            (0.1, 0.5, 100, 10.0, 0.01, 0.5),  # widest table relative to sigma
        ]:
            pr = params(p, q, d, C, sigma)
            assert count_integrand_sign_changes(pr, eps) == 1, pr

    def test_sign_count_matches_linspace_scan(self):
        # the linspace scan the coefficient count replaced, kept as a
        # reference: both mixture densities on LINSPACE_POINTS of the window
        LINSPACE_POINTS = 10_000

        def linspace_count(pr, eps):
            grid = np.linspace(*_scan_window(pr, eps), LINSPACE_POINTS)
            pair = main_pair(pr, eps)
            a, b = weighted_normal_pdf(grid, pair.means, pair.weights, pair.numerator.sigma).T
            values = a - b
            signs = np.sign(values[np.abs(values) > np.maximum(1e-13 * (a + b), 1e-300)])
            return int(np.count_nonzero(signs[:-1] != signs[1:]))

        rng = np.random.default_rng(11)
        cases = []
        for _ in range(150):
            sigma = math.exp(rng.uniform(math.log(0.01), math.log(10.0)))
            C = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            d = int(rng.integers(0, 101))
            p, q, eps = (float(x) for x in rng.uniform(1e-3, 1.0, size=3))
            cases.append((params(p, q, d, C, sigma), eps))
        # two later draws of the same distribution, rounded, where the scan
        # is blind past z*: both densities, or their difference, lie below
        # its 1e-300 floor there
        blind = [
            (params(0.248, 0.0222, 75, 0.354, 3.05), 0.811),
            (params(0.803, 0.00627, 13, 0.332, 3.30), 0.220),
        ]
        scan_zero = []
        for i, (pr, eps) in enumerate(cases + blind):
            assert count_integrand_sign_changes(pr, eps) == 1, (i, pr, eps)
            scan = linspace_count(pr, eps)
            if scan == 0:
                scan_zero.append(i)
            else:
                assert scan == 1, (i, pr, eps)
        # the scan's underflow blind spots: draws 66, 76 and 100, and both
        # explicit cases
        assert scan_zero == [66, 76, 100, 150, 151], scan_zero

    def test_coefficient_count_bounds_dense_scan(self, monkeypatch):
        # Laguerre's rule of signs on random lattice pairs at alpha >= 1:
        # the integrand's sign changes on a dense scan never exceed the
        # coefficient count, and have the same parity
        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(80):
            C = float(rng.choice([0.3, 1.0, 7.0]))
            sigma = float(rng.choice([1.0, 0.3, 0.02])) * C

            def mixture():
                ks = np.sort(rng.choice(9, size=int(rng.integers(1, 5)), replace=False))
                ws = rng.uniform(0.2, 1.0, size=ks.size)
                return GaussianMixture1D(ks * C, ws / ws.sum(), sigma)

            alpha = math.exp(rng.uniform(0.0, 1.0))
            pair = HockeyStickQuery(alpha, mixture(), mixture())
            monkeypatch.setattr(accountant, "main_pair", lambda pr, eps: pair)
            grid = np.linspace(-20.0 * sigma, 8.0 * C + 20.0 * sigma, 20_001)
            a, b = weighted_normal_pdf(grid, pair.means, pair.weights, sigma).T
            values = a - b
            signs = np.sign(values[np.abs(values) > np.maximum(1e-13 * (a + b), 1e-300)])
            scan = int(np.count_nonzero(signs[:-1] != signs[1:]))
            try:
                count = count_integrand_sign_changes(params(0.5, 0.5, 10, C, sigma), 0.5)
            except DegenerateIntegrandError:
                # one coefficient sign change, from + to -
                assert scan == 1 and signs[0] > 0.0, pair
                outcomes.add("reversed")
                continue
            assert scan <= count and (count - scan) % 2 == 0, (scan, count, pair)
            outcomes.add("exact" if scan == count else "below")
            outcomes.add(f"count {min(count, 3)}")
        assert outcomes >= {"reversed", "exact", "below", "count 2", "count 3"}

    @pytest.mark.parametrize(
        "num, den, expected",
        [
            ([(1, 0.5), (3, 0.5)], [(2, 1.0)], 2),
            ([(0, 0.5), (2, 0.5)], [(1, 0.5), (3, 0.5)], 3),
            ([(5, 1.0)], [(0, 0.5), (2, 0.5)], 1),  # gaps at 1, 3 and 4
        ],
    )
    @pytest.mark.parametrize("C", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("sigma_over_C", [0.3, 0.02])
    def test_planted_sign_structure(
        self, monkeypatch, num, den, expected, C, sigma_over_C
    ):
        # lattice pairs at alpha = 1 whose sign pattern is known; d = 10
        # puts all of them inside the scan window
        sigma = sigma_over_C * C

        def mixture(parts):
            ks, ws = zip(*parts)
            return GaussianMixture1D(np.array(ks) * C, np.array(ws), sigma)

        pair = HockeyStickQuery(1.0, mixture(num), mixture(den))
        monkeypatch.setattr(accountant, "main_pair", lambda pr, eps: pair)
        pr = params(0.5, 0.5, 10, C, sigma)
        assert count_integrand_sign_changes(pr, 0.5) == expected


class TestFindZStar:
    def test_no_cosampling_closed_form(self):
        # with d=0 the integrand is phi_C - alpha' * phi_0, whose crossing
        # has the two-Gaussian closed form
        for p, q, sigma, C, eps in [
            (1.0, 0.5, 1.0, 1.0, 0.1),
            (0.3, 0.2, 2.0, 1.0, 0.5),
            (0.9, 0.9, 0.5, 3.0, 1.0),
            (0.01, 0.01, 5.0, 1.0, 5.0),
        ]:
            pr = params(p=p, q=q, d=0, C=C, sigma=sigma)
            expected = C / 2.0 + sigma**2 * amplified_eps(eps, p * q) / C
            assert main_z_star(pr, eps).root == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_brute_force_scan_oracle(self):
        pr = params(p=0.1, q=0.1, d=30, C=1.0, sigma=1.0)
        pair = main_pair(pr, 0.1)

        grid = np.linspace(-12.0, 46.0, 2_000_001)
        values = pair.signed(grid)
        first_positive = int(np.argmax(values > 0.0))
        assert first_positive > 0
        lo, hi = grid[first_positive - 1], grid[first_positive]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if pair.signed(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        z_oracle = 0.5 * (lo + hi)

        root = main_z_star(pr, 0.1)
        assert root.root == pytest.approx(z_oracle, abs=1e-9)
        assert root.bracket[0] <= root.root <= root.bracket[1]

    def test_never_positive_fails_closed(self):
        # equal mixtures at alpha = 2: the log ratio is -log 2 everywhere
        g = GaussianMixture1D(np.array([0.0]), np.array([1.0]), 1.0)
        with pytest.raises(DegenerateIntegrandError):
            find_z_star(HockeyStickQuery(2.0, g, g), -12.0, 12.0)


class TestDeltaMain:
    def test_full_sampling_reduces_to_plain_mechanism(self):
        # p=q=1 shifts the whole lattice by C regardless of d
        for d in (0, 7):
            for eps, sigma in [(0.0, 1.0), (0.5, 1.0), (0.015, 3.0)]:
                pr = params(p=1.0, q=1.0, d=d, sigma=sigma)
                assert delta_main(pr, eps).delta == pytest.approx(
                    gaussian_mechanism_delta(eps, sigma, 1.0), rel=1e-12
                )

    def test_d_zero_is_lower_bound(self):
        # with no other elements the pair is N(C, s^2) against N(0, s^2) at
        # alpha', so main is the subsampled Gaussian bound at rate pq
        for p, q, sigma, eps in itertools.product(
            VERIFY_GRID_P, VERIFY_GRID_Q, VERIFY_GRID_SIGMA, VERIFY_GRID_EPS
        ):
            pr = params(p, q, 0, 1.0, sigma)
            assert delta_main(pr, eps).delta == pytest.approx(
                delta_lower_bound(pr, eps).delta, rel=1e-9
            )

    def test_degenerate_regime_is_zero(self):
        # z* exists here, but the tail above it is below the double range
        assert delta_main(params(p=0.01, q=0.01, d=1, sigma=5.0), 5.0).delta == 0.0

    def test_matches_quadrature(self):
        for p, q, d, sigma, eps in [
            (0.1, 0.1, 1, 1.0, 0.015),
            (0.5, 0.5, 10, 0.5, 0.1),
            (0.01, 0.5, 30, 2.0, 0.5),
            (0.1, 0.001, 100, 0.646, 0.015),
        ]:
            pr = params(p, q, d, 1.0, sigma)
            closed = delta_main(pr, eps).delta
            quad = delta_main_quadrature(pr, eps)
            assert abs(closed - quad) <= 1e-10

    def test_quadrature_sees_narrow_components(self):
        # sigma far below C: the numerator is a row of narrow bumps, and
        # without a break point at each mean GK15 read 1.5e-19 here
        pr = params(p=0.02592, q=0.01713, d=20, sigma=0.0142)
        closed = delta_main(pr, 0.02835).delta
        quad = delta_main_quadrature(pr, 0.02835)
        assert closed == pytest.approx(9.650086933666891e-05, rel=1e-12, abs=0.0)
        assert abs(closed - quad) <= 1e-10
        assert abs(closed - quad) <= 1e-6 * closed

    def test_quadrature_agrees_on_random_draws(self):
        # absolute agreement only: the oracle's error is bounded by its
        # 1e-13 absolute tolerance, which can exceed 1e-6 of a tiny delta
        rng = np.random.default_rng(11)
        for _ in range(200):
            sigma = math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
            p, q = rng.uniform(1e-3, 1.0, size=2)
            d = int(rng.integers(1, 101))
            eps = rng.uniform(1e-3, 1.0)
            pr = params(float(p), float(q), d, 1.0, sigma)
            closed = delta_main(pr, eps).delta
            quad = delta_main_quadrature(pr, eps)
            assert abs(closed - quad) <= 1e-10, (pr, eps, closed, quad)

    def test_matches_constructed_pair_divergence(self):
        for p, q, d, C, sigma, eps in [
            (0.1, 0.1, 1, 1.0, 1.0, 0.1),
            (0.5, 0.2, 5, 1.0, 1.0, 0.5),
            (0.9, 0.9, 3, 1.0, 0.8, 0.2),
            # off the unit lattice, where i*C + C and (i+1)*C round apart
            (0.1, 0.1, 1, 0.3, 0.3, 0.1),
            (0.5, 0.2, 5, 1.7, 1.5, 0.5),
        ]:
            pr = params(p, q, d, C, sigma)
            xi, xi_prime = worst_case_pair(pr)
            oracle = hockey_stick(HockeyStickQuery(math.exp(eps), xi, xi_prime))
            assert delta_main(pr, eps).delta == pytest.approx(oracle, abs=2e-13)

    def test_negative_tail_fails_closed(self, monkeypatch):
        # a tail below -1e-15 is an error, not a certified 0; rounding
        # noise closer to 0 reads 0
        monkeypatch.setattr(HockeyStickQuery, "tail", lambda self, z: -1e-12)
        with pytest.raises(DegenerateIntegrandError):
            delta_main(params(), 0.5)
        rows = sweep(
            [Scheme.MAIN], SweepVariable.EPS, [0.5], p=0.1, q=0.1, d=1, C=1.0, sigma=1.0
        )
        assert rows[0].delta is None and "negative" in rows[0].error
        monkeypatch.setattr(HockeyStickQuery, "tail", lambda self, z: -1e-20)
        assert delta_main(params(), 0.5).delta == 0.0

    def test_monotone_in_sigma_and_eps(self):
        pr = params(p=0.2, q=0.2, d=10)
        deltas = [delta_main(replace(pr, sigma=s), 0.1).delta for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        deltas = [delta_main(pr, e).delta for e in (0.0, 0.1, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_point_metadata(self):
        # a point is its delta and Main's crossing; eps and the scheme are
        # the caller's inputs, not part of the result
        point = delta_main(params(), 0.25)
        assert 0.0 <= point.delta <= 1.0
        assert [f.name for f in fields(PrivacyPoint)] == ["delta", "z_star"]


class TestDeltaOnlyLocal:
    def test_q_one_is_plain_mechanism(self):
        assert delta_only_local(1.0, 1.3, 1.0, 0.4).delta == pytest.approx(
            gaussian_mechanism_delta(0.4, 1.3, 1.0), rel=1e-14
        )

    def test_reference_values(self):
        assert delta_only_local(0.1, 22.4, 1.0, 0.015).delta == pytest.approx(
            1.0562536385592828e-6, rel=1e-9
        )
        assert delta_only_local(0.001, 1.103, 1.0, 0.015).delta == pytest.approx(
            1.0057886029497453e-6, rel=1e-9
        )

    def test_amplified_level(self):
        q, sigma, eps = 0.25, 1.0, 0.3
        eps_prime = math.log1p(math.expm1(eps) / q)
        expected = q * gaussian_mechanism_delta(eps_prime, sigma, 1.0)
        assert delta_only_local(q, sigma, 1.0, eps).delta == pytest.approx(
            expected, rel=1e-13
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_only_local(0.0, 1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            delta_only_local(1.1, 1.0, 1.0, 0.1)


class TestDeltaUpperBound:
    def test_full_participation_matches_only_local(self):
        pr = params(p=1.0, q=0.2, d=50, sigma=1.5)
        assert delta_upper_bound(pr, 0.3).delta == pytest.approx(
            delta_only_local(0.2, 1.5, 1.0, 0.3).delta, rel=1e-14
        )

    def test_participation_factor_identity(self):
        # the bound is exactly p times the local-only curve
        for p, q, sigma, eps in [
            (0.1, 0.1, 1.0, 0.015),
            (0.5, 0.01, 0.5, 0.5),
            (0.01, 0.9, 2.0, 1.0),
        ]:
            ub = delta_upper_bound(params(p=p, q=q, sigma=sigma), eps).delta
            ols = delta_only_local(q, sigma, 1.0, eps).delta
            assert ub == pytest.approx(p * ols, rel=1e-12, abs=0.0)

    def test_reference_value(self):
        pr = params(p=0.001, q=0.1, d=30, sigma=7.65)
        assert delta_upper_bound(pr, 0.015).delta == pytest.approx(
            1.0061622955158222e-6, rel=1e-9
        )

    def test_d_is_ignored(self):
        a = delta_upper_bound(params(d=0), 0.2).delta
        b = delta_upper_bound(params(d=1000), 0.2).delta
        assert a == b


class TestDeltaLowerBound:
    def test_full_participation_matches_only_local(self):
        pr = params(p=1.0, q=0.3, sigma=1.2)
        assert delta_lower_bound(pr, 0.4).delta == pytest.approx(
            delta_only_local(0.3, 1.2, 1.0, 0.4).delta, rel=1e-14
        )

    def test_is_only_local_at_combined_rate(self):
        for p, q in [(0.1, 0.1), (0.5, 0.01), (0.2, 1.0)]:
            lb = delta_lower_bound(params(p=p, q=q, sigma=1.0), 0.3).delta
            ols = delta_only_local(p * q, 1.0, 1.0, 0.3).delta
            assert lb == pytest.approx(ols, rel=1e-14, abs=0.0)

    def test_below_main_at_moderate_eps(self):
        pr = params(p=0.1, q=0.1, d=1, sigma=1.0)
        assert delta_lower_bound(pr, 0.5).delta <= delta_main(pr, 0.5).delta + 1e-12


class TestDeltaForScheme:
    def test_dispatch(self):
        pr = params(p=0.2, q=0.3, d=4, sigma=1.1)
        eps = 0.25
        assert delta_for_scheme(Scheme.MAIN, pr, eps).delta == delta_main(pr, eps).delta
        assert (
            delta_for_scheme(Scheme.ONLY_LOCAL, pr, eps).delta
            == delta_only_local(0.3, 1.1, 1.0, eps).delta
        )
        assert (
            delta_for_scheme(Scheme.UPPER_BOUND, pr, eps).delta
            == delta_upper_bound(pr, eps).delta
        )
        assert (
            delta_for_scheme(Scheme.LOWER_BOUND, pr, eps).delta
            == delta_lower_bound(pr, eps).delta
        )

    def test_z_star_only_on_main(self):
        pr = params(p=0.2, q=0.3, d=4, sigma=1.1)
        for scheme in Scheme:
            z_star = delta_for_scheme(scheme, pr, 0.25).z_star
            if scheme is Scheme.MAIN:
                assert z_star == main_z_star(pr, 0.25).root
            else:
                assert z_star is None

    def test_closed_forms_exact_on_verify_grid(self):
        # compared with ==, so a reordered float operation shows here
        points = list(_default_verify_points())
        assert len(points) == 576
        for pr, eps in points:
            assert delta_lower_bound(pr, eps).delta == delta_only_local(
                pr.p * pr.q, pr.sigma, pr.C, eps
            ).delta
            assert delta_upper_bound(pr, eps).delta == pr.p * delta_only_local(
                pr.q, pr.sigma, pr.C, eps
            ).delta
            assert delta_for_scheme(
                Scheme.GAUSSIAN_MECHANISM, pr, eps
            ).delta == gaussian_mechanism_delta(eps, pr.sigma, pr.C)

    def test_plain_mechanism_ignores_sampling(self):
        a = delta_for_scheme(Scheme.GAUSSIAN_MECHANISM, params(p=0.1, q=0.1), 0.3)
        b = delta_for_scheme(Scheme.GAUSSIAN_MECHANISM, params(p=0.9, q=0.5, d=99), 0.3)
        assert a.delta == b.delta == gaussian_mechanism_delta(0.3, 1.0, 1.0)


class TestCalibrateSigma:
    def test_reference_calibrations(self):
        assert calibrate_sigma(
            Scheme.UPPER_BOUND, p=0.001, q=0.1, d=30, C=1.0,
            eps_target=0.015, delta_target=1e-6,
        ) == pytest.approx(SIGMA_UB_A, rel=1e-6, abs=0.0)
        assert calibrate_sigma(
            Scheme.ONLY_LOCAL, p=0.001, q=0.1, d=30, C=1.0,
            eps_target=0.015, delta_target=1e-6,
        ) == pytest.approx(SIGMA_OLS_A, rel=1e-6, abs=0.0)
        assert calibrate_sigma(
            Scheme.UPPER_BOUND, p=0.1, q=0.001, d=1000, C=1.0,
            eps_target=0.015, delta_target=1e-6,
        ) == pytest.approx(SIGMA_UB_B, rel=1e-6, abs=0.0)
        assert calibrate_sigma(
            Scheme.ONLY_LOCAL, p=0.1, q=0.001, d=1000, C=1.0,
            eps_target=0.015, delta_target=1e-6,
        ) == pytest.approx(SIGMA_OLS_B, rel=1e-6, abs=0.0)

    def test_minimality(self):
        sigma = calibrate_sigma(
            Scheme.ONLY_LOCAL, p=0.1, q=0.001, d=1000, C=1.0,
            eps_target=0.015, delta_target=1e-6,
        )
        at = delta_only_local(0.001, sigma, 1.0, 0.015).delta
        below = delta_only_local(
            0.001, sigma / (1.0 + 5.0 * SIGMA_REL_TOL), 1.0, 0.015
        ).delta
        assert at <= 1e-6 < below

    @pytest.mark.parametrize(
        "scheme", [Scheme.MAIN, Scheme.UPPER_BOUND, Scheme.ONLY_LOCAL]
    )
    def test_resolution_in_scenario_a(self, scheme):
        def delta_at(sigma):
            pr = params(p=0.001, q=0.1, d=30, sigma=sigma)
            return delta_for_scheme(scheme, pr, 0.015).delta

        sigma = calibrate_sigma(
            scheme, p=0.001, q=0.1, d=30, C=1.0,
            eps_target=0.015, delta_target=1e-6,
        )
        assert delta_at(sigma) <= 1e-6 < delta_at(sigma / (1.0 + SIGMA_REL_TOL))

    def test_bracket_floor_when_target_is_loose(self):
        # delta_OLS <= q everywhere, so a loose target is met at the floor
        sigma = calibrate_sigma(
            Scheme.ONLY_LOCAL, p=1.0, q=1e-9, d=0, C=1.0,
            eps_target=0.5, delta_target=1e-3,
        )
        assert sigma == SIGMA_BRACKET[0]

    def test_unreachable_under_cap(self):
        with pytest.raises(CalibrationError):
            calibrate_sigma(
                Scheme.ONLY_LOCAL, p=0.001, q=0.1, d=30, C=1.0,
                eps_target=0.015, delta_target=1e-6, sigma_cap=5.0,
            )

    def test_empty_bracket(self):
        # a cap below the floor is a domain error, not an unreachable target
        args = dict(p=0.1, q=0.1, d=30, C=1.0, eps_target=0.015, delta_target=1e-6)
        with pytest.raises(DomainError, match="empty"):
            calibrate_sigma(Scheme.UPPER_BOUND, **args, sigma_cap=1e-4)
        # a cap at the floor leaves one sigma to try
        with pytest.raises(CalibrationError):
            calibrate_sigma(Scheme.UPPER_BOUND, **args, sigma_cap=1e-3)
        loose = dict(args, p=1.0, q=1e-9, d=0, eps_target=0.5, delta_target=1e-3)
        assert calibrate_sigma(Scheme.ONLY_LOCAL, **loose, sigma_cap=1e-3) == 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            calibrate_sigma(
                Scheme.MAIN, p=0.1, q=0.1, d=1, C=1.0,
                eps_target=0.0, delta_target=1e-6,
            )
        with pytest.raises(DomainError):
            calibrate_sigma(
                Scheme.MAIN, p=0.1, q=0.1, d=1, C=1.0,
                eps_target=0.1, delta_target=0.0,
            )


class TestEpsForDelta:
    @pytest.mark.parametrize(
        "scheme",
        [
            Scheme.MAIN,
            Scheme.ONLY_LOCAL,
            Scheme.UPPER_BOUND,
            Scheme.LOWER_BOUND,
            Scheme.GAUSSIAN_MECHANISM,
        ],
    )
    def test_round_trip(self, scheme):
        pr = params(p=0.1, q=0.1, d=5, sigma=2.0)
        eps = eps_for_delta(scheme, pr, 1e-5)
        assert delta_for_scheme(scheme, pr, eps).delta <= 1e-5
        lower = max(0.0, eps - 10.0 * EPS_ABS_TOL)
        assert delta_for_scheme(scheme, pr, lower).delta >= 1e-5 * (1.0 - 1e-6)

    def test_no_cosampling_full_participation_matches_only_local(self):
        pr = params(p=1.0, q=0.3, d=0, sigma=2.0)
        eps_main = eps_for_delta(Scheme.MAIN, pr, 1e-5)
        eps_ols = eps_for_delta(Scheme.ONLY_LOCAL, pr, 1e-5)
        assert eps_main == pytest.approx(eps_ols, abs=2.0 * EPS_ABS_TOL)

    def test_tradeoff_shape_along_fixed_product(self):
        # fixed pq: smaller q (larger p) always certifies a smaller eps,
        # with the other schemes' gap narrowest at full participation
        pq, d, sigma, delta = 1e-4, 1000, 1.0, 1e-6
        qs = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        ratios = []
        eps_main_path = []
        for q in qs:
            pr = params(p=pq / q, q=q, d=d, sigma=sigma)
            eps_main = eps_for_delta(Scheme.MAIN, pr, delta)
            eps_ols = eps_for_delta(Scheme.ONLY_LOCAL, pr, delta)
            assert eps_main < eps_ols
            ratios.append(eps_main / eps_ols)
            eps_main_path.append(eps_main)
        assert all(a < b for a, b in zip(eps_main_path, eps_main_path[1:]))
        assert ratios[0] == max(ratios)
        assert eps_main_path[-1] / eps_main_path[0] > 1e3

    @pytest.mark.parametrize(
        "scheme, p, q, d, sigma, delta",
        [
            (Scheme.ONLY_LOCAL, 0.34779846438808965, 0.21106188222026984, 3,
             0.5707481211342424, 1.6296681760548764e-08),
            (Scheme.UPPER_BOUND, 0.5515718902400736, 0.01567393192662551, 5,
             0.8136464354095634, 9.063831862910903e-06),
        ],
        ids=["ols", "ub"],
    )
    def test_exact_hit_meets_resolution(self, scheme, p, q, d, sigma, delta):
        # the root finder lands exactly on the target at these points, while
        # the other end of its bracket is still far above the answer
        pr = params(p=p, q=q, d=d, sigma=sigma)
        eps = eps_for_delta(scheme, pr, delta)
        assert delta_for_scheme(scheme, pr, eps).delta <= delta
        assert delta_for_scheme(scheme, pr, eps - EPS_ABS_TOL).delta > delta

    @pytest.mark.parametrize("scheme", [Scheme.MAIN, Scheme.UPPER_BOUND])
    def test_each_eps_evaluated_once(self, monkeypatch, scheme):
        # eps is its own root-finding coordinate, so Brent's first two
        # residuals reuse the bracket ends' deltas from the endpoint checks
        seen = []

        def counting(s, pr, eps):
            seen.append(eps)
            return delta_for_scheme(s, pr, eps)

        monkeypatch.setattr(accountant, "delta_for_scheme", counting)
        pr = params(p=0.1, q=0.1, d=5, sigma=2.0)
        eps = eps_for_delta(scheme, pr, 1e-5)
        assert seen[:2] == list(EPS_BRACKET)
        assert len(seen) == len(set(seen)) > 2
        assert delta_for_scheme(scheme, pr, eps).delta <= 1e-5

    def test_bracket_floor_when_target_is_loose(self):
        pr = params(p=0.1, q=0.01, d=5, sigma=100.0)
        assert eps_for_delta(Scheme.ONLY_LOCAL, pr, 1e-4) == EPS_BRACKET[0] == 0.0

    def test_unreachable_at_bracket_top(self):
        pr = params(p=0.1, q=0.5, d=5, sigma=0.01)
        with pytest.raises(CalibrationError, match="unreachable"):
            eps_for_delta(Scheme.ONLY_LOCAL, pr, 1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            eps_for_delta(Scheme.MAIN, params(), 0.0)
        with pytest.raises(DomainError):
            eps_for_delta(Scheme.MAIN, params(), 1.0)


class TestSweep:
    def test_scheme_major_order_and_values(self):
        rows = sweep(
            [Scheme.MAIN, Scheme.ONLY_LOCAL],
            SweepVariable.SIGMA,
            [0.5, 1.0, 2.0],
            p=0.1, q=0.1, d=1, C=1.0, eps=0.1,
        )
        assert [r.scheme for r in rows[:3]] == [Scheme.MAIN] * 3
        assert [r.scheme for r in rows[3:]] == [Scheme.ONLY_LOCAL] * 3
        assert [r.sigma for r in rows[:3]] == [0.5, 1.0, 2.0]
        deltas = [r.delta for r in rows[:3]]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_z_star_only_on_main_rows(self):
        eps_target = sweep(
            [Scheme.MAIN, Scheme.UPPER_BOUND],
            SweepVariable.SIGMA,
            [1.0, 2.0],
            p=0.1, q=0.1, d=5, C=1.0, eps=0.1,
        )
        delta_target = sweep(
            [Scheme.MAIN, Scheme.UPPER_BOUND],
            SweepVariable.DELTA,
            [1e-5, 1e-6],
            p=0.1, q=0.1, d=5, C=1.0, sigma=1.0,
        )
        for rows in (eps_target, delta_target):
            for row in rows[:2]:
                pr = params(row.p, row.q, row.d, row.C, row.sigma)
                # on delta-target rows z* is taken at the computed eps
                assert row.z_star == main_z_star(pr, row.eps).root
            assert [row.z_star for row in rows[2:]] == [None, None]

    def test_error_rows_do_not_abort(self):
        rows = sweep(
            [Scheme.MAIN],
            SweepVariable.SIGMA,
            [1.0, -2.0],
            p=0.1, q=0.1, d=1, C=1.0, eps=0.1,
        )
        assert rows[0].error is None and rows[0].delta is not None
        assert rows[1].error is not None and rows[1].delta is None

    def test_delta_sweep_computes_eps(self):
        rows = sweep(
            [Scheme.ONLY_LOCAL],
            SweepVariable.DELTA,
            [1e-5, 1e-6],
            p=0.1, q=0.1, d=1, C=1.0, sigma=2.0,
        )
        assert all(r.eps is not None for r in rows)
        assert rows[0].eps < rows[1].eps  # tighter delta costs more eps

    def test_q_sweep_at_fixed_product(self):
        rows = sweep(
            [Scheme.MAIN],
            SweepVariable.Q_FIXED_PQ,
            [0.01, 0.1],
            pq_product=1e-3, d=10, C=1.0, sigma=1.0, eps=0.1,
        )
        assert rows[0].q == 0.01 and rows[0].p == pytest.approx(0.1)
        assert rows[1].q == 0.1 and rows[1].p == pytest.approx(0.01)

    def test_d_sweep_coerces_integers(self):
        rows = sweep(
            [Scheme.MAIN],
            SweepVariable.D,
            [1.0, 10.0],
            p=0.1, q=0.1, C=1.0, sigma=1.0, eps=0.1,
        )
        assert [r.d for r in rows] == [1, 10]
        assert all(type(r.d) is int for r in rows)

    def test_non_integer_d_is_an_error_row(self):
        fixed = dict(p=0.1, q=0.1, C=1.0, eps=0.1)
        # a fixed fractional d is not truncated to its integer part
        row, = sweep([Scheme.UPPER_BOUND], SweepVariable.SIGMA, [1.0], d=2.5, **fixed)
        assert row.delta is None and row.d == 2.5
        assert "d must be a nonnegative integer" in row.error
        rows = sweep(
            [Scheme.UPPER_BOUND], SweepVariable.D, [2.5, math.inf, math.nan], sigma=1.0, **fixed
        )
        assert [r.delta for r in rows] == [None] * 3
        assert all("d must be a nonnegative integer" in r.error for r in rows)

    @pytest.mark.parametrize("variable, supplied", [
        (SweepVariable.SIGMA, dict(sigma=9.0)),
        (SweepVariable.D, dict(d=5)),
        (SweepVariable.Q_FIXED_PQ, dict(p=0.9)),
        (SweepVariable.Q_FIXED_PQ, dict(q=0.9)),
        (SweepVariable.DELTA, dict(delta=1e-6)),
    ], ids=["sigma", "d", "q-fixed-pq-p", "q-fixed-pq-q", "delta"])
    def test_supplied_value_rejected(self, variable, supplied):
        # every other value the sweep needs is fixed, and nothing else it supplies
        fixed = dict(p=0.1, q=0.1, d=1, C=1.0, sigma=1.0, eps=0.1, pq_product=1e-3)
        for name in variable.supplies:
            fixed.pop(name, None)
        with pytest.raises(DomainError, match="must not be fixed"):
            sweep([Scheme.UPPER_BOUND], variable, [0.5], **fixed, **supplied)

    @pytest.mark.parametrize("variable", list(SweepVariable), ids=lambda v: v.value)
    def test_needed_value_required(self, variable):
        # each of p, q, d, C and sigma that the sweep does not supply must be
        # fixed; left out or None, it is a DomainError that names it
        fixed = dict(p=0.1, q=0.1, d=1, C=1.0, sigma=1.0, eps=0.1, pq_product=1e-3)
        for name in variable.supplies:
            fixed.pop(name, None)
        assert sweep([Scheme.UPPER_BOUND], variable, [0.5], **fixed)
        needed = [n for n in ("p", "q", "d", "C", "sigma") if n not in variable.supplies]
        assert len(needed) >= 3
        for name in needed:
            message = f"^{re.escape(variable.value)} sweep needs {name} fixed$"
            left_out = {k: v for k, v in fixed.items() if k != name}
            with pytest.raises(DomainError, match=message):
                sweep([Scheme.UPPER_BOUND], variable, [0.5], **left_out)
            with pytest.raises(DomainError, match=message):
                sweep([Scheme.UPPER_BOUND], variable, [0.5], **left_out, **{name: None})

    def test_validation(self):
        with pytest.raises(DomainError):
            sweep([Scheme.MAIN], SweepVariable.SIGMA, [], p=0.1, q=0.1, d=1, C=1.0, eps=0.1)
        with pytest.raises(DomainError):
            sweep(
                [Scheme.MAIN], SweepVariable.SIGMA, [1.0],
                p=0.1, q=0.1, d=1, C=1.0,  # no target at all
            )
        with pytest.raises(DomainError):
            sweep(
                [Scheme.MAIN], SweepVariable.SIGMA, [1.0],
                p=0.1, q=0.1, d=1, C=1.0, eps=0.1, delta=1e-6,  # both targets
            )
        with pytest.raises(DomainError):
            sweep(
                [Scheme.MAIN], SweepVariable.EPS, [0.1],
                p=0.1, q=0.1, d=1, C=1.0, sigma=1.0, eps=0.5,  # fixed target on eps sweep
            )
        with pytest.raises(DomainError):
            sweep(
                [Scheme.MAIN], SweepVariable.Q_FIXED_PQ, [0.1],
                d=1, C=1.0, sigma=1.0, eps=0.1,  # missing pq_product
            )


class TestSharedMainPair:
    """main_pair keeps one pair: the closed form and both oracles at one
    (params, eps) read the same read-only object."""

    def test_same_object_for_equal_arguments(self):
        pr = params(p=0.1, q=0.1, d=30, sigma=2.0)
        pair = main_pair(pr, 0.5)
        again = params(p=0.1, q=0.1, d=30, sigma=2.0)
        assert main_pair(again, 0.5) is pair
        assert main_pair(pr, 0.1) is not pair
        other = params(p=0.1, q=0.1, d=31, sigma=2.0)
        assert main_pair(other, 0.5) is not pair

    def test_pair_is_read_only(self):
        pr = params(p=0.1, q=0.1, d=30, sigma=2.0)
        pair = main_pair(pr, 0.5)
        with pytest.raises(ValueError):
            pair.means[0] = 1.0
        with pytest.raises(ValueError):
            pair.weights[:, 1] = 0.0
        for mixture in (pair.numerator, pair.denominator):
            for array in (mixture.means, mixture.weights, mixture.log_weights):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_results_do_not_depend_on_the_cache(self):
        grid = list(
            itertools.product(
                VERIFY_GRID_P, VERIFY_GRID_Q, (1, 10, 30, 100), VERIFY_GRID_SIGMA, VERIFY_GRID_EPS
            )
        )
        picks = np.random.default_rng(21).choice(len(grid), size=16, replace=False)
        for i in picks:
            p, q, d, sigma, eps = grid[i]
            pr = params(p, q, d, 1.0, sigma)
            routes = (
                lambda: delta_main(pr, eps).delta,
                lambda: delta_main_quadrature(pr, eps),
                lambda: count_integrand_sign_changes(pr, eps),
            )
            shared = [route() for route in routes]
            fresh = []
            for route in routes:
                main_pair.cache_clear()
                fresh.append(route())
            assert shared == fresh, grid[i]
