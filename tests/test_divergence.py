import math
import warnings

import numpy as np
import pytest

from fedamp.accountant import SamplingParams
from fedamp.divergence import (
    DEFAULT_ABS_TOL,
    GaussianMixture1D,
    HockeyStickQuery,
    ajc_decompose,
    binomial_mixture,
    hockey_stick,
    mix,
    seeded_ajc_triples,
    single_gaussian,
    worst_case_pair,
)
from fedamp.numerics import DomainError, gaussian_mechanism_delta

TV_UNIT_SHIFT = 0.3829249225480262
DELTA_HALF_EPS = 0.23842170813487663


class TestGaussianMixture1D:
    def test_basic_construction(self):
        m = GaussianMixture1D(np.array([0.0, 1.0]), np.array([0.25, 0.75]), 2.0)
        assert m.total_mass == pytest.approx(1.0)
        assert not m.means.flags.writeable

    def test_means_must_increase(self):
        with pytest.raises(DomainError):
            GaussianMixture1D(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 1.0)
        with pytest.raises(DomainError):
            GaussianMixture1D(np.array([2.0, 1.0]), np.array([0.5, 0.5]), 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            GaussianMixture1D(np.array([0.0, 1.0]), np.array([-0.1, 1.1]), 1.0)

    def test_zero_mass_rejected(self):
        with pytest.raises(DomainError):
            GaussianMixture1D(np.array([0.0]), np.array([0.0]), 1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(DomainError):
            GaussianMixture1D(np.array([0.0]), np.array([1.0]), 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            GaussianMixture1D(np.array([0.0, 1.0]), np.array([1.0]), 1.0)

    def test_from_components_sorts_and_merges(self):
        m = GaussianMixture1D.from_components(
            [(1.0, 0.3), (0.0, 0.2), (1.0 + 1e-13, 0.5)], 1.0
        )
        assert m.means.size == 2
        assert m.means[0] == 0.0
        assert m.means[1] == pytest.approx(1.0, abs=1e-12)
        assert m.weights[1] == pytest.approx(0.8)

    def test_from_components_drops_zero_weights(self):
        m = GaussianMixture1D.from_components([(0.0, 1.0), (5.0, 0.0)], 1.0)
        assert m.means.size == 1

    def test_pdf_matches_manual_sum(self):
        m = GaussianMixture1D(np.array([0.0, 2.0]), np.array([0.4, 0.6]), 1.5)
        z = np.array([-1.0, 0.5, 3.0])
        manual = sum(
            w * np.exp(-0.5 * ((z - mu) / 1.5) ** 2) / (1.5 * math.sqrt(2 * math.pi))
            for mu, w in [(0.0, 0.4), (2.0, 0.6)]
        )
        np.testing.assert_allclose(m.pdf(z), manual, rtol=1e-13)

    def test_log_pdf_matches_pdf_and_survives_underflow(self):
        # a zero-weight component contributes nothing and raises no warning
        m = GaussianMixture1D(np.array([0.0, 2.0, 5.0]), np.array([0.4, 0.6, 0.0]), 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (-1.0, 0.5, 3.0):
                assert m.log_pdf(z) == pytest.approx(math.log(m.pdf(z)), rel=1e-13)
            # pdf underflows at z=100; the mean-2 component dominates by e^88
            assert m.pdf(100.0) == 0.0
            expected = (
                math.log(0.6) - 0.5 * (98.0 / 1.5) ** 2
                - math.log(1.5 * math.sqrt(2 * math.pi))
            )
            assert m.log_pdf(100.0) == pytest.approx(expected, rel=1e-14)

    def test_pdf_scalar_returns_float(self):
        m = single_gaussian(0.0, 1.0)
        value = m.pdf(0.0)
        assert isinstance(value, float)
        assert value == pytest.approx(0.3989422804014327, rel=1e-14)

    def test_mix_requires_shared_sigma(self):
        with pytest.raises(DomainError):
            mix([(0.5, single_gaussian(0.0, 1.0)), (0.5, single_gaussian(0.0, 2.0))])

    def test_mix_convex_combination(self):
        m = mix([(0.3, single_gaussian(0.0, 1.0)), (0.7, single_gaussian(1.0, 1.0))])
        np.testing.assert_allclose(m.weights, [0.3, 0.7])
        np.testing.assert_allclose(m.means, [0.0, 1.0])


class TestBinomialMixture:
    def test_d_zero_single_component(self):
        m = binomial_mixture(0, 0.3, 1.0, 1.0, mean_offset=0.7)
        assert m.means.tolist() == [0.7]
        assert m.weights.tolist() == [1.0]

    def test_small_exact_case(self):
        m = binomial_mixture(2, 0.5, 1.0, 1.0)
        np.testing.assert_allclose(m.means, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(m.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_q_one_concentrates(self):
        m = binomial_mixture(3, 1.0, 2.0, 1.0, mean_offset=1.0)
        assert m.means.tolist() == [7.0]
        assert m.weights.tolist() == [1.0]

    def test_moderate_case_mass_and_mode(self):
        m = binomial_mixture(100, 0.1, 1.0, 1.0)
        assert m.means.size == 101
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)
        assert m.means[int(np.argmax(m.weights))] == 10.0

    def test_huge_d_stays_in_log_space(self):
        m = binomial_mixture(10**6, 1e-4, 1.0, 1.0)
        # mass concentrates near k=100; far tail entries fall below the
        # representable weight floor and get dropped. At this scale the
        # log-weight evaluation itself carries ~1e-9 rounding (differences
        # of gammaln terms of magnitude 1e7), which lands in dropped_mass.
        assert m.means.size < 2000
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= m.dropped_mass < 1e-8
        assert abs(m.means[int(np.argmax(m.weights))] - 100.0) <= 1.0

    def test_non_integer_d_rejected(self):
        with pytest.raises(DomainError):
            binomial_mixture(2.5, 0.5, 1.0, 1.0)


class TestHockeyStick:
    def test_query_validation(self):
        num = single_gaussian(0.0, 1.0)
        with pytest.raises(DomainError):
            HockeyStickQuery(0.9, num, num)
        half = GaussianMixture1D(np.array([0.0]), np.array([0.5]), 1.0)
        with pytest.raises(DomainError):
            HockeyStickQuery(1.0, half, num)  # numerator must be probability
        with pytest.raises(DomainError):
            HockeyStickQuery(1.0, num, GaussianMixture1D(np.array([0.0]), np.array([1.5]), 1.0))

    def test_identical_pair_is_zero(self):
        num = single_gaussian(0.0, 1.0)
        value = hockey_stick(HockeyStickQuery(1.0, num, num))
        assert 0.0 <= value <= 1e-13

    def test_total_variation_reference(self):
        value = hockey_stick(
            HockeyStickQuery(1.0, single_gaussian(1.0, 1.0), single_gaussian(0.0, 1.0))
        )
        assert value == pytest.approx(TV_UNIT_SHIFT, abs=1e-12)

    def test_matches_gaussian_mechanism_closed_form(self):
        value = hockey_stick(
            HockeyStickQuery(
                math.exp(0.5), single_gaussian(1.0, 1.0), single_gaussian(0.0, 1.0)
            )
        )
        assert value == pytest.approx(DELTA_HALF_EPS, abs=1e-10)

    def test_tail_at_crossing_is_gaussian_mechanism_delta(self):
        # N(1, 1) and e^0.5 N(0, 1) cross at z = 1/2 + 0.5
        query = HockeyStickQuery(
            math.exp(0.5), single_gaussian(1.0, 1.0), single_gaussian(0.0, 1.0)
        )
        a, b = query.terms(1.0)
        assert a == pytest.approx(b, rel=1e-15)
        assert query.signed(1.0) == a - b
        assert query.log_ratio(1.0) == pytest.approx(0.0, abs=1e-15)
        assert query.tail(1.0) == pytest.approx(DELTA_HALF_EPS, rel=1e-13)

    def test_monotone_in_alpha(self):
        num = single_gaussian(1.0, 1.0)
        den = single_gaussian(0.0, 1.0)
        values = [
            hockey_stick(HockeyStickQuery(a, num, den))
            for a in np.exp(np.linspace(0.0, 2.0, 9))
        ]
        assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))

    def test_subprobability_denominator_closed_form(self):
        # D_a(N || 0.5 N) integrates [1 - a/2]_+ of a unit mass
        num = single_gaussian(0.0, 1.0)
        den = GaussianMixture1D(np.array([0.0]), np.array([0.5]), 1.0)
        value = hockey_stick(HockeyStickQuery(1.2, num, den))
        assert value == pytest.approx(1.0 - 0.6, abs=1e-12)

    def test_clamped_to_unit_interval(self):
        num = single_gaussian(50.0, 0.1)
        den = single_gaussian(0.0, 0.1)
        assert hockey_stick(HockeyStickQuery(1.0, num, den)) == 1.0


class TestAjcIdentity:
    def test_equal_conditionals_vanish(self):
        mu0 = single_gaussian(-1.0, 1.0)
        mu1 = single_gaussian(1.0, 1.0)
        lhs, rhs = ajc_decompose(mu0, mu1, mu1, gamma=0.3, alpha=math.exp(0.5))
        assert lhs <= 1e-12
        assert rhs <= 1e-12

    def test_reference_triple(self):
        lhs, rhs = ajc_decompose(
            single_gaussian(0.0, 1.0),
            single_gaussian(1.0, 1.0),
            single_gaussian(-1.0, 1.0),
            gamma=0.1,
            alpha=math.e,
        )
        assert lhs == pytest.approx(rhs, abs=2 * DEFAULT_ABS_TOL)
        assert lhs > 1e-4  # a non-trivial case, not vacuous agreement

    def test_gamma_one_degenerates_to_plain_divergence(self):
        mu1 = single_gaussian(1.0, 1.0)
        mu1p = single_gaussian(0.0, 1.0)
        lhs, rhs = ajc_decompose(single_gaussian(5.0, 1.0), mu1, mu1p, 1.0, math.exp(0.5))
        direct = hockey_stick(HockeyStickQuery(math.exp(0.5), mu1, mu1p))
        assert lhs == pytest.approx(direct, abs=1e-12)
        assert rhs == pytest.approx(direct, abs=1e-12)

    def test_gamma_domain(self):
        mu = single_gaussian(0.0, 1.0)
        with pytest.raises(DomainError):
            ajc_decompose(mu, mu, mu, gamma=0.0, alpha=2.0)
        with pytest.raises(DomainError):
            ajc_decompose(mu, mu, mu, gamma=0.5, alpha=0.5)

    def test_seeded_triples_satisfy_identity(self):
        for mu0, mu1, mu1p, gamma, alpha in seeded_ajc_triples(10):
            lhs, rhs = ajc_decompose(mu0, mu1, mu1p, gamma, alpha)
            assert abs(lhs - rhs) <= 2e-13

    def test_seeded_triples_deterministic(self):
        first = seeded_ajc_triples(5, seed=123)
        second = seeded_ajc_triples(5, seed=123)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a[0].means, b[0].means)
            np.testing.assert_array_equal(a[1].weights, b[1].weights)
            assert a[3] == b[3] and a[4] == b[4]


class TestWorstCasePair:
    def test_everyone_everything(self):
        xi, xi_prime = worst_case_pair(SamplingParams(p=1.0, q=1.0, d=0, C=1.0, sigma=1.0))
        assert xi.means.tolist() == [1.0]
        assert xi_prime.means.tolist() == [0.0]

    def test_full_participation_no_cosampling(self):
        xi, xi_prime = worst_case_pair(SamplingParams(p=1.0, q=0.3, d=0, C=2.0, sigma=1.0))
        np.testing.assert_allclose(xi.means, [0.0, 2.0])
        np.testing.assert_allclose(xi.weights, [0.7, 0.3])
        assert xi_prime.means.tolist() == [0.0]
        assert xi_prime.weights.tolist() == [1.0]

    def test_small_case_weights(self):
        p, q, d, C = 0.5, 0.5, 1, 1.0
        xi, xi_prime = worst_case_pair(SamplingParams(p=p, q=q, d=d, C=C, sigma=1.0))
        # lattice {0, C, 2C}; the shifted branch contributes at C and 2C
        np.testing.assert_allclose(xi.means, [0.0, 1.0, 2.0])
        expected = [
            (1 - p) + p * (1 - q) * (1 - q),
            p * (1 - q) * q + p * q * (1 - q),
            p * q * q,
        ]
        np.testing.assert_allclose(xi.weights, expected, atol=1e-15)
        np.testing.assert_allclose(xi_prime.means, [0.0, 1.0])
        np.testing.assert_allclose(
            xi_prime.weights, [(1 - p) + p * (1 - q), p * q], atol=1e-15
        )

    def test_masses(self):
        xi, xi_prime = worst_case_pair(SamplingParams(p=0.1, q=0.1, d=30, C=1.0, sigma=1.0))
        assert xi.total_mass == pytest.approx(1.0, abs=1e-12)
        assert xi_prime.total_mass == pytest.approx(1.0, abs=1e-12)
        assert xi.means[-1] == pytest.approx(31.0)
        assert xi_prime.means[-1] == pytest.approx(30.0)
