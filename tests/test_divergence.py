import collections
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, ndtr

from fedamp import accountant, divergence
from fedamp.accountant import SamplingParams, delta_main, main_pair
from fedamp.cli import (
    VERIFY_GRID_D,
    VERIFY_GRID_EPS,
    VERIFY_GRID_P,
    VERIFY_GRID_Q,
    VERIFY_GRID_SIGMA,
)
from fedamp.divergence import (
    _BAND_SIGMAS,
    _BLOCK_ELEMENTS,
    DEFAULT_ABS_TOL,
    HOCKEY_STICK_SCAN_POINTS,
    SCAN_POINTS_PER_SIGMA,
    SQRT_2PI,
    WEIGHT_DROP_THRESHOLD,
    GaussianMixture1D,
    HockeyStickQuery,
    ajc_decompose,
    binomial_log_weights,
    hockey_stick,
    mix,
    round_mixtures,
    seeded_ajc_triples,
    weighted_normal_pdf,
    worst_case_pair,
)
from fedamp.numerics import (
    DomainError,
    QuadratureResult,
    find_root_bracketed,
    gaussian_mechanism_delta,
    gk15_nodes,
    integrate_adaptive,
)

TV_UNIT_SHIFT = 0.3829249225480262
DELTA_HALF_EPS = 0.23842170813487663


def kernel_columns(query: HockeyStickQuery, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """num(z) and alpha * den(z), the two columns of one weighted_normal_pdf
    pass over the query's means; `signed` is their difference."""
    out = weighted_normal_pdf(z, query.means, query.weights, query.numerator.sigma)
    return out[:, 0], out[:, 1]


def single_gaussian(mean: float, sigma: float) -> GaussianMixture1D:
    return GaussianMixture1D(np.array([float(mean)]), np.array([1.0]), sigma)


def lattice_mixture(k, weights, step, sigma) -> GaussianMixture1D:
    """The mixture on means k * step that records its step, built the way
    round_mixtures builds one."""
    mixture = object.__new__(GaussianMixture1D)
    mixture._store(np.array(k) * step, np.array(weights, dtype=float), sigma, step)
    return mixture


def binomial_branch(d, q, C=1.0, shift=False) -> GaussianMixture1D:
    """The unsampled (iC) or sampled ((i+1)C) binomial branch alone."""
    params = SamplingParams(p=1.0, q=q, d=d, C=C, sigma=1.0)
    return round_mixtures(params, (0.0, 0.0, 1.0) if shift else (0.0, 1.0, 0.0))[0]


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

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_message(self, sigma):
        with pytest.raises(DomainError, match="^sigma must be finite and positive, got"):
            GaussianMixture1D(np.array([0.0]), np.array([1.0]), sigma)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            GaussianMixture1D(np.array([0.0, 1.0]), np.array([1.0]), 1.0)

    def test_from_components_sorts_and_merges(self):
        # mix sorts the parts' components and merges exactly equal means;
        # means that differ at all, even by 1e-13, stay separate
        m = mix([
            (0.5, GaussianMixture1D(np.array([1.0, 2.0]), np.array([0.6, 0.4]), 1.0)),
            (0.5, GaussianMixture1D(np.array([0.0, 1.0]), np.array([0.4, 0.6]), 1.0)),
        ])
        assert m.means.tolist() == [0.0, 1.0, 2.0]
        np.testing.assert_allclose(m.weights, [0.2, 0.6, 0.2], rtol=1e-15)
        near = mix([
            (0.5, single_gaussian(1.0, 1.0)),
            (0.5, single_gaussian(1.0 + 1e-13, 1.0)),
        ])
        assert near.means.tolist() == [1.0, 1.0 + 1e-13]
        # a plain loop summing each mean's weights in part order is the
        # reference, exactly; mu0 enters twice so its means merge
        for mu0, mu1, mu1p, gamma, _ in seeded_ajc_triples(10):
            parts = [(1.0 - gamma, mu0), (gamma, mu1), (0.3, mu0), (gamma / 2, mu1p)]
            sums = {}
            for coeff, part in parts:
                for mean, weight in zip(part.means.tolist(), part.weights.tolist()):
                    sums[mean] = sums.get(mean, 0.0) + coeff * weight
            m = mix(parts)
            assert m.means.tolist() == sorted(sums)
            assert m.weights.tolist() == [sums[mean] for mean in sorted(sums)]

    def test_from_components_drops_zero_weights(self):
        parts = GaussianMixture1D(np.array([0.0, 5.0]), np.array([1.0, 0.0]), 1.0)
        m = mix([(1.0, parts)])
        assert m.means.tolist() == [0.0]
        assert m.weights.tolist() == [1.0]

    def test_pdf_matches_manual_sum(self):
        m = GaussianMixture1D(np.array([0.0, 2.0]), np.array([0.4, 0.6]), 1.5)
        z = np.array([-1.0, 0.5, 3.0])
        manual = sum(
            w * np.exp(-0.5 * ((z - mu) / 1.5) ** 2) / (1.5 * math.sqrt(2 * math.pi))
            for mu, w in [(0.0, 0.4), (2.0, 0.6)]
        )
        np.testing.assert_allclose(
            weighted_normal_pdf(z, m.means, m.weights[:, None], m.sigma)[:, 0], manual, rtol=1e-13
        )

    def test_log_pdf_matches_pdf_and_survives_underflow(self):
        # a zero-weight component contributes nothing and raises no warning
        m = GaussianMixture1D(np.array([0.0, 2.0, 5.0]), np.array([0.4, 0.6, 0.0]), 1.5)

        def pdf(z):
            return weighted_normal_pdf(np.array([z]), m.means, m.weights[:, None], m.sigma)[0, 0]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (-1.0, 0.5, 3.0):
                assert m.log_pdf(z) == pytest.approx(math.log(pdf(z)), rel=1e-13, abs=0.0)
            # pdf underflows at z=100; the mean-2 component dominates by e^88
            assert pdf(100.0) == 0.0
            expected = (
                math.log(0.6) - 0.5 * (98.0 / 1.5) ** 2
                - math.log(1.5 * math.sqrt(2 * math.pi))
            )
            assert m.log_pdf(100.0) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_pdf_scalar_returns_float(self):
        m = single_gaussian(0.0, 1.0)
        query = HockeyStickQuery(2.0, m, m)
        a, b = kernel_columns(query, np.array([0.0]))
        assert a[0] == pytest.approx(0.3989422804014327, rel=1e-14, abs=0.0)
        assert b[0] == pytest.approx(2.0 * 0.3989422804014327, rel=1e-14, abs=0.0)
        value = query.signed(0.0)
        assert isinstance(value, float)
        assert value == pytest.approx(-0.3989422804014327, rel=1e-14, abs=0.0)

    def test_mix_requires_shared_sigma(self):
        with pytest.raises(DomainError):
            mix([(0.5, single_gaussian(0.0, 1.0)), (0.5, single_gaussian(0.0, 2.0))])

    def test_mix_convex_combination(self):
        m = mix([(0.3, single_gaussian(0.0, 1.0)), (0.7, single_gaussian(1.0, 1.0))])
        np.testing.assert_allclose(m.weights, [0.3, 0.7])
        np.testing.assert_allclose(m.means, [0.0, 1.0])


class TestBinomialMixture:
    def test_d_zero_single_component(self):
        m = binomial_branch(0, 0.3, C=0.7, shift=True)
        assert m.means.tolist() == [0.7]
        assert m.weights.tolist() == [1.0]

    def test_small_exact_case(self):
        m = binomial_branch(2, 0.5)
        np.testing.assert_allclose(m.means, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(m.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_q_one_concentrates(self):
        m = binomial_branch(3, 1.0, C=2.0, shift=True)
        assert m.means.tolist() == [8.0]
        assert m.weights.tolist() == [1.0]

    def test_moderate_case_mass_and_mode(self):
        m = binomial_branch(100, 0.1)
        assert m.means.size == 101
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)
        assert m.means[int(np.argmax(m.weights))] == 10.0

    def test_huge_d_stays_in_log_space(self):
        m = binomial_branch(10**6, 1e-4)
        # mass concentrates near k=100; far tail entries fall below the
        # representable weight floor and get dropped.
        assert m.means.size < 2000
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)
        assert abs(m.means[int(np.argmax(m.weights))] - 100.0) <= 1.0

    @pytest.mark.parametrize("d, q", [(30, 0.1), (1000, 0.5), (10**6, 0.1), (10**6, 1e-4)])
    def test_window_keeps_what_the_full_support_keeps(self, d, q):
        # the Hoeffding window drops only counts below the threshold
        i = np.arange(d + 1)
        logw = (gammaln(d + 1.0) - gammaln(i + 1.0) - gammaln(d - i + 1.0)
                + i * math.log(q) + (d - i) * math.log1p(-q))
        keep = logw >= math.log(WEIGHT_DROP_THRESHOLD)
        indices, log_weights = binomial_log_weights(d, q)
        np.testing.assert_array_equal(indices, i[keep])
        np.testing.assert_array_equal(log_weights, logw[keep])

    def test_round_mixtures_branches(self):
        # one call, several triples, all over the same Binom(d, q) weights
        pr = SamplingParams(p=0.5, q=0.5, d=2, C=1.5, sigma=1.0)
        absent, both = round_mixtures(pr, (1.0, 0.0, 0.0), (0.2, 0.4, 0.4))
        assert absent.means.tolist() == [0.0]
        np.testing.assert_array_equal(both.means, np.arange(4) * 1.5)
        np.testing.assert_allclose(both.weights, [0.3, 0.3, 0.3, 0.1], rtol=1e-15)


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

    def test_sigma_mismatch_rejected(self):
        with pytest.raises(DomainError):
            HockeyStickQuery(1.0, single_gaussian(0.0, 1.0), single_gaussian(0.0, 1.1))

    @pytest.mark.parametrize("sigma", [1e-3, 0.5, 1.0, 7.0])
    def test_sigma_one_ulp_apart_rejected(self, sigma):
        # a pair has one sigma: a closed form and its oracle must not read
        # two different pairs
        num = single_gaussian(0.0, sigma)
        for other in (math.nextafter(sigma, 0.0), math.nextafter(sigma, math.inf)):
            with pytest.raises(DomainError, match="share sigma"):
                HockeyStickQuery(1.0, num, single_gaussian(1.0, other))
            with pytest.raises(DomainError, match="share sigma"):
                mix([(0.5, num), (0.5, single_gaussian(1.0, other))])
        assert HockeyStickQuery(1.0, num, single_gaussian(1.0, sigma)).sigma == sigma

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
        (a,), (b,) = kernel_columns(query, np.array([1.0]))
        assert a == pytest.approx(b, rel=1e-15, abs=0.0)
        assert query.signed(1.0) == a - b
        assert query.log_ratio(1.0) == pytest.approx(0.0, abs=1e-15)
        assert query.tail(1.0) == pytest.approx(DELTA_HALF_EPS, rel=1e-13, abs=0.0)

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

    def test_clamps_quadrature_outside_unit_interval(self, monkeypatch):
        query = HockeyStickQuery(1.0, single_gaussian(1.0, 1.0), single_gaussian(0.0, 1.0))
        for value, clamped in ((1.0 + 1e-9, 1.0), (-1e-9, 0.0)):
            monkeypatch.setattr(
                divergence,
                "integrate_adaptive",
                lambda *args, value=value, **kwargs: QuadratureResult(value, 0),
            )
            assert hockey_stick(query) == clamped


def all_verify_grid_points():
    """Every (params, eps) point of fedamp verify's built-in grid."""
    return [
        (SamplingParams(p=p, q=q, d=d, C=1.0, sigma=sigma), eps)
        for p, q, d, sigma, eps in itertools.product(
            VERIFY_GRID_P, VERIFY_GRID_Q, VERIFY_GRID_D, VERIFY_GRID_SIGMA, VERIFY_GRID_EPS
        )
    ]


def verify_grid_queries(points):
    """Main's pair and the constructed pair at each (params, eps) point."""
    queries = []
    for pr, eps in points:
        xi, xi_prime = worst_case_pair(pr)
        queries += [main_pair(pr, eps), HockeyStickQuery(math.exp(eps), xi, xi_prime)]
    return queries


def ajc_queries():
    """Both sides' pairs of ajc_decompose on the 50 seeded triples."""
    queries = []
    for mu0, mu1, mu1p, gamma, alpha in seeded_ajc_triples(50):
        alpha_prime = 1.0 + gamma * (alpha - 1.0)
        beta = alpha_prime / alpha
        queries += [
            HockeyStickQuery(
                alpha_prime,
                mix([(1.0 - gamma, mu0), (gamma, mu1)]),
                mix([(1.0 - gamma, mu0), (gamma, mu1p)]),
            ),
            HockeyStickQuery(alpha, mu1, mix([(1.0 - beta, mu0), (beta, mu1p)])),
        ]
    return queries


def two_mixture_tail(query: HockeyStickQuery, z: float) -> float:
    """tail as a sum over the two mixtures, each at its own sigma."""
    num, den = query.numerator, query.denominator
    return math.fsum(
        np.concatenate([
            num.weights * ndtr((num.means - z) / num.sigma),
            -query.alpha * den.weights * ndtr((den.means - z) / den.sigma),
        ])
    )


class TestTableTail:
    """tail reads the pair's table, bit for bit the two-mixture sum."""

    @staticmethod
    def assert_tails_equal(query, z_values):
        for z in z_values:
            z = float(z)
            assert query.tail(z).hex() == two_mixture_tail(query, z).hex(), z

    @staticmethod
    def probe_points(query, rng):
        sigma = query.sigma
        seeded = rng.uniform(query.means[0] - 15.0 * sigma, query.means[-1] + 15.0 * sigma, 8)
        return np.concatenate([query.means, seeded])

    def test_verify_grid_pairs_and_z_star(self):
        rng = np.random.default_rng(28)
        for pr, eps in all_verify_grid_points():
            z_star = delta_main(pr, eps).z_star
            for query in verify_grid_queries([(pr, eps)]):
                self.assert_tails_equal(query, [*self.probe_points(query, rng), z_star])

    def test_ajc_sides(self):
        rng = np.random.default_rng(29)
        for query in ajc_queries():
            self.assert_tails_equal(query, self.probe_points(query, rng))


class TestSignScan:
    """The kernel sign scan: spacing at most sigma/10, at most 2048 points."""

    @staticmethod
    def window(query):
        pad = 12.0 * query.numerator.sigma
        return float(query.means[0]) - pad, float(query.means[-1]) + pad

    @staticmethod
    def boundaries(query, grid):
        positive = query.signed(grid) > 0.0
        return [
            find_root_bracketed(query.signed, float(grid[i]), float(grid[i + 1])).root
            for i in np.nonzero(positive[:-1] != positive[1:])[0]
        ]

    @pytest.mark.parametrize(
        "query, points",
        [
            # means 0, 1, 2 and sigma 5: a 122-wide window, 1 + 10 * 122 / 5 points
            (HockeyStickQuery(math.exp(0.5), *worst_case_pair(
                SamplingParams(p=0.1, q=0.1, d=1, C=1.0, sigma=5.0))), 245),
            # means 0..101 and sigma 0.5: 1 + 10 * 113 / 0.5 = 2261 points, capped
            (HockeyStickQuery(math.exp(0.5), *worst_case_pair(
                SamplingParams(p=0.1, q=0.1, d=100, C=1.0, sigma=0.5))), 2048),
            (HockeyStickQuery(1.0, single_gaussian(50.0, 0.1), single_gaussian(0.0, 0.1)), 2048),
        ],
    )
    def test_point_count(self, query, points):
        assert len(divergence._scan_grid(query)) == points

    def test_spacing_and_cap(self):
        grid_points = [
            (SamplingParams(p=p, q=q, d=d, C=1.0, sigma=sigma), eps)
            for p, q, d, sigma, eps in itertools.product(
                VERIFY_GRID_P, VERIFY_GRID_Q, VERIFY_GRID_D, VERIFY_GRID_SIGMA, VERIFY_GRID_EPS
            )
        ]
        capped = 0
        for query in verify_grid_queries(grid_points) + ajc_queries():
            lo, hi = self.window(query)
            grid = divergence._scan_grid(query)
            assert (grid[0], grid[-1]) == (lo, hi)
            if len(grid) == HOCKEY_STICK_SCAN_POINTS:
                # the cap keeps the fixed 2048-point scan, bit for bit
                capped += 1
                assert grid.tobytes() == np.linspace(lo, hi, HOCKEY_STICK_SCAN_POINTS).tobytes()
            else:
                sigma = query.numerator.sigma
                assert len(grid) < HOCKEY_STICK_SCAN_POINTS
                assert np.diff(grid).max() <= sigma / SCAN_POINTS_PER_SIGMA * (1.0 + 1e-12)
        assert capped > 0

    def test_brackets_every_boundary_of_the_fixed_scan(self):
        queries = verify_grid_queries(verify_grid_sample(96, seed=21)) + ajc_queries()
        counts = set()
        for query in queries:
            reference = self.boundaries(
                query, np.linspace(*self.window(query), HOCKEY_STICK_SCAN_POINTS)
            )
            roots = self.boundaries(query, divergence._scan_grid(query))
            assert len(roots) == len(reference)
            np.testing.assert_allclose(roots, reference, rtol=0.0, atol=1e-11)
            counts.add(len(roots))
        assert {0, 1, 2} <= counts

    @pytest.mark.parametrize("sigma", [0.05, 1.0, 20.0])
    def test_planted_two_crossing_pair(self, sigma):
        # num / den = e^{1/2} / cosh(z / sigma), so num > alpha * den
        # exactly on (-sigma/4, sigma/4)
        num = single_gaussian(0.0, sigma)
        den = GaussianMixture1D(np.array([-sigma, sigma]), np.array([0.5, 0.5]), sigma)
        query = HockeyStickQuery(math.exp(0.5) / math.cosh(0.25), num, den)
        roots = self.boundaries(query, divergence._scan_grid(query))
        np.testing.assert_allclose(roots, [-sigma / 4, sigma / 4], rtol=0.0, atol=1e-11)
        exact = query.tail(-sigma / 4) - query.tail(sigma / 4)
        assert hockey_stick(query) == pytest.approx(exact, abs=1e-13)


def capped_grid_queries():
    """The 72 grid pairs at d=100, sigma=0.5, whose kernel scan is capped."""
    return verify_grid_queries(
        (SamplingParams(p=p, q=q, d=100, C=1.0, sigma=0.5), eps)
        for p, q, eps in itertools.product(VERIFY_GRID_P, VERIFY_GRID_Q, VERIFY_GRID_EPS)
    )


def whole_window_hockey_stick(query: HockeyStickQuery) -> float:
    """hockey_stick as one quadrature of the clamped integrand over the whole
    scan window, with every boundary and every mean as a break point."""
    grid = divergence._scan_grid(query)
    breaks = TestSignScan.boundaries(query, grid) + query.means.tolist()
    result = integrate_adaptive(
        lambda z: np.maximum(query.signed(z), 0.0),
        float(grid[0]),
        float(grid[-1]),
        abs_tol=DEFAULT_ABS_TOL,
        break_points=breaks,
    )
    return min(1.0, max(0.0, result.value))


def perturbed(query: HockeyStickQuery) -> HockeyStickQuery:
    """query with 0.001 of its numerator's mass moved to N(pi, sigma^2)."""
    bump = single_gaussian(math.pi, query.sigma)
    return HockeyStickQuery(
        query.alpha, mix([(0.999, query.numerator), (0.001, bump)]), query.denominator
    )


def two_tail_pair(sigma: float) -> HockeyStickQuery:
    """num / den = e^{-1/2} cosh(z / sigma), so num > den exactly where
    |z| > sigma * arccosh(e^{1/2}): two positive pieces, one per tail."""
    num = GaussianMixture1D(np.array([-sigma, sigma]), np.array([0.5, 0.5]), sigma)
    return HockeyStickQuery(1.0, num, single_gaussian(0.0, sigma))


class TestPieces:
    """hockey_stick integrates only the pieces its scan finds positive."""

    @staticmethod
    def recorded_tolerances(monkeypatch, query):
        tolerances = []

        def recording(*args, abs_tol, **kwargs):
            tolerances.append(abs_tol)
            return integrate_adaptive(*args, abs_tol=abs_tol, **kwargs)

        monkeypatch.setattr(divergence, "integrate_adaptive", recording)
        hockey_stick(query)
        return tolerances

    @pytest.mark.parametrize("sigma", [0.05, 1.0, 20.0])
    def test_two_positive_pieces(self, monkeypatch, sigma):
        query = two_tail_pair(sigma)
        r = sigma * math.acosh(math.exp(0.5))
        exact = query.tail(r) - query.tail(-r)
        assert hockey_stick(query) == pytest.approx(exact, abs=1e-13)
        assert len(self.recorded_tolerances(monkeypatch, query)) == 2

    def test_nowhere_positive_pair_skips_quadrature(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("no positive piece, so no quadrature")

        monkeypatch.setattr(divergence, "integrate_adaptive", unreachable)
        num = single_gaussian(0.0, 1.0)
        assert hockey_stick(HockeyStickQuery(2.0, num, num)) == 0.0

    def test_tolerances_sum_to_default(self, monkeypatch):
        queries = [two_tail_pair(1.0)] + verify_grid_queries(verify_grid_sample(8, seed=5))
        for query in queries:
            tolerances = self.recorded_tolerances(monkeypatch, query)
            if tolerances:
                assert math.fsum(tolerances) == pytest.approx(DEFAULT_ABS_TOL, rel=1e-15, abs=0.0)

    def test_matches_whole_window_quadrature(self):
        queries = verify_grid_queries(verify_grid_sample(96, seed=21)) + ajc_queries()
        queries += capped_grid_queries()
        for query in queries:
            assert hockey_stick(query) == pytest.approx(
                whole_window_hockey_stick(query), rel=0.0, abs=1e-15
            )

    def test_capped_pairs_bit_identical(self):
        # a numerator mixed with a component at pi records no lattice step,
        # so its scan stays the capped kernel scan over the whole window: the
        # 72 grid pairs at d=100, sigma=0.5 and the far-tail pair of
        # test_clamped_to_unit_interval
        far_tail = HockeyStickQuery(1.0, single_gaussian(50.0, 0.1), single_gaussian(0.0, 0.1))
        for query in map(perturbed, capped_grid_queries() + [far_tail]):
            assert query.numerator.step is None
            assert len(divergence._scan_grid(query)) == HOCKEY_STICK_SCAN_POINTS
            assert hockey_stick(query).hex() == whole_window_hockey_stick(query).hex()


def scan_boundaries(query, grid, values):
    """The boundaries as hockey_stick refines them: Brent from the scan's
    values at each bracket's ends."""
    roots = []
    for i in divergence._flips(values):
        lo, hi = float(grid[i]), float(grid[i + 1])
        known = {lo: float(values[i]), hi: float(values[i + 1])}
        roots.append(
            find_root_bracketed(lambda z: known[z] if z in known else query.signed(z), lo, hi).root
        )
    return roots


class TestLatticeScan:
    """Pairs on the lattice k * s take one Toeplitz product instead of an
    exp per kernel term; their scan must read the signs `signed` reads."""

    def test_signs_match_signed_on_verify_grid(self):
        # values within 1e-12 of num + alpha * den of `signed` (2.4e-13
        # measured: a tap sees n h where the kernel sees fl(z) - m), and
        # the same sign at every point
        for query in verify_grid_queries(all_verify_grid_points()):
            grid, values = divergence._lattice_scan(query)
            assert (grid[0], grid[-1]) == TestSignScan.window(query)
            sigma = query.numerator.sigma
            assert np.diff(grid).max() <= sigma / SCAN_POINTS_PER_SIGMA * (1.0 + 1e-12)
            a, b = kernel_columns(query, grid)
            assert ((values > 0.0) == (a - b > 0.0)).all()
            assert (np.abs(values - (a - b)) <= 1e-12 * (a + b)).all()

    def test_boundaries_match_exact_scan(self):
        counts = set()
        for query in verify_grid_queries(all_verify_grid_points()):
            grid, values = divergence._lattice_scan(query)
            roots = scan_boundaries(query, grid, values)
            reference = TestSignScan.boundaries(query, grid)
            assert len(roots) == len(reference)
            np.testing.assert_allclose(roots, reference, rtol=0.0, atol=1e-11)
            counts.add(len(roots))
        assert {0, 1} <= counts

    def test_brackets_every_boundary_of_the_fixed_scan(self):
        for query in verify_grid_queries(verify_grid_sample(96, seed=21)):
            reference = TestSignScan.boundaries(
                query, np.linspace(*TestSignScan.window(query), HOCKEY_STICK_SCAN_POINTS)
            )
            roots = scan_boundaries(query, *divergence._lattice_scan(query))
            assert len(roots) == len(reference)
            np.testing.assert_allclose(roots, reference, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("sigma", [0.05, 1.0, 20.0])
    def test_planted_pairs(self, monkeypatch, sigma):
        # means -sigma, 0, sigma: negative k, and r = 200, 10 and 1 points
        # per step; the lattice scan is forced for pairs this small
        monkeypatch.setattr(divergence, "_LATTICE_MIN_TERMS", 0)
        crossing, tail = sigma / 4, sigma * math.acosh(math.exp(0.5))
        two_crossing = HockeyStickQuery(
            math.exp(0.5) / math.cosh(0.25),
            lattice_mixture([0], [1.0], sigma, sigma),
            lattice_mixture([-1, 1], [0.5, 0.5], sigma, sigma),
        )
        two_tail = HockeyStickQuery(
            1.0,
            lattice_mixture([-1, 1], [0.5, 0.5], sigma, sigma),
            lattice_mixture([0], [1.0], sigma, sigma),
        )
        cases = [
            (two_crossing, [-crossing, crossing], (-crossing, crossing)),
            (two_tail, [-tail, tail], (tail, -tail)),
        ]
        for query, roots, (a, b) in cases:
            exact = query.tail(a) - query.tail(b)
            assert query.means.tolist() == [-sigma, 0.0, sigma]
            grid, values = divergence._lattice_scan(query)
            assert divergence._sign_scan(query)[0].tobytes() == grid.tobytes()
            np.testing.assert_allclose(
                scan_boundaries(query, grid, values), roots, rtol=0.0, atol=1e-11
            )
            assert hockey_stick(query) == pytest.approx(exact, abs=1e-13)

    def test_far_tail_pair(self):
        # between the bumps every term underflows and the product reads 0;
        # the exact values below the flush floor put the one flip where
        # `signed` puts it: where the density of N(50, 0.1^2) first rises
        # above 0 (2e-323 at z = 46.14), beyond the taps' flush band
        pr = SamplingParams(p=1.0, q=1.0, d=0, C=50.0, sigma=0.1)
        query = HockeyStickQuery(1.0, *round_mixtures(pr, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)))
        assert (query.numerator.means.tolist(), query.denominator.means.tolist()) == ([50.0], [0.0])
        grid, values, capped = divergence._sign_scan(query)
        assert not capped and len(grid) > HOCKEY_STICK_SCAN_POINTS
        assert ((values > 0.0) == (query.signed(grid) > 0.0)).all()
        assert len(divergence._flips(values)) == 1
        assert hockey_stick(query) == pytest.approx(
            whole_window_hockey_stick(query), rel=0.0, abs=1e-15
        )

    def test_off_lattice_pairs_keep_the_kernel_scan(self):
        for query in ajc_queries():
            assert query.numerator.step is None and query.denominator.step is None
            grid, values, capped = divergence._sign_scan(query)
            kernel = divergence._scan_grid(query)
            assert not capped
            assert grid.tobytes() == kernel.tobytes()
            assert values.tobytes() == query.signed(kernel).tobytes()

    @pytest.mark.parametrize("C", [0.1, 0.3, 1.7])
    @pytest.mark.parametrize("d, q", [(30, 0.1), (10**5, 0.5)])
    def test_step_recovered(self, C, d, q):
        # the step is recorded as C, and the scan's k = rint(means / C) is
        # exact: at d = 1e5 the smallest nonzero k is 44,156
        pair = worst_case_pair(SamplingParams(p=0.1, q=q, d=d, C=C, sigma=1.0))
        query = HockeyStickQuery(1.5, *pair)
        assert pair[0].step == pair[1].step == C
        k = np.rint(query.means / C).astype(np.int64)
        assert (k * C == query.means).all()

    def test_only_round_mixtures_record_a_step(self):
        # the constructor and mix record no step, so a hand-built pair takes
        # the kernel scan even where its means sit on a lattice whose scan
        # would be the cheaper one
        built = HockeyStickQuery(1.5, *worst_case_pair(
            SamplingParams(p=0.1, q=0.1, d=30, C=1.0, sigma=1.0)))
        num, den = (GaussianMixture1D(m.means, m.weights, m.sigma)
                    for m in (built.numerator, built.denominator))
        copied = HockeyStickQuery(built.alpha, num, den)
        assert built.numerator.step == built.denominator.step == 1.0
        assert num.step is None and den.step is None
        assert mix([(1.0, built.numerator)]).step is None
        with pytest.raises(TypeError):
            GaussianMixture1D(num.means, num.weights, num.sigma, step=1.0)
        kernel = divergence._scan_grid(copied)
        assert len(kernel) * copied.means.size >= divergence._LATTICE_MIN_TERMS
        grid, values, capped = divergence._sign_scan(copied)
        assert not capped and grid.tobytes() == kernel.tobytes()
        assert values.tobytes() == copied.signed(kernel).tobytes()
        lattice = divergence._lattice_scan(built)[0]
        assert divergence._sign_scan(built)[0].tobytes() == lattice.tobytes()

    def test_scan_choice_on_verify_grid_and_ajc_sides(self, monkeypatch):
        # every pair `fedamp verify --ajc` evaluates: the grid's pairs take
        # the lattice scan where it gains, and no scan is capped
        lattice_scan, found = divergence._lattice_scan, []

        def recording(query):
            scan = lattice_scan(query)
            found.append(scan is not None)
            return scan

        monkeypatch.setattr(divergence, "_lattice_scan", recording)
        counts = collections.Counter()
        for query in verify_grid_queries(all_verify_grid_points()) + ajc_queries():
            found.clear()
            capped = divergence._sign_scan(query)[2]
            counts["lattice" if any(found) else "capped" if capped else "kernel"] += 1
        assert dict(counts) == {"lattice": 432, "kernel": 820}

    def test_point_bound(self):
        # sigma/10 spacing over means 0..13,687 would take 1.4e7 points:
        # the scan falls back to the capped kernel scan
        pair = worst_case_pair(SamplingParams(p=0.1, q=0.1, d=10**5, C=1.0, sigma=0.01))
        query = HockeyStickQuery(1.5, *pair)
        assert query.numerator.step == query.denominator.step == 1.0
        assert divergence._lattice_scan(query) is None
        grid, _, capped = divergence._sign_scan(query)
        assert capped and len(grid) == HOCKEY_STICK_SCAN_POINTS


def dense_hockey_stick(query: HockeyStickQuery) -> float:
    """hockey_stick by brute force: boundaries from a 400,001-point scan of
    the window, refined by brentq, and scipy's quad over each positive
    piece, with the means inside it as break points."""
    lo, hi = TestSignScan.window(query)
    grid = np.linspace(lo, hi, 400_001)
    values = query.signed(grid)
    flips = np.flatnonzero((values[:-1] > 0.0) != (values[1:] > 0.0))
    edges = [lo, *(brentq(query.signed, grid[i], grid[i + 1], xtol=1e-15) for i in flips), hi]
    signs = values[np.concatenate([[0], flips + 1])] > 0.0
    total = 0.0
    for a, b, up in zip(edges, edges[1:], signs):
        if up:
            inner = [m for m in query.means.tolist() if a < m < b] or None
            total += quad(lambda z: max(query.signed(z), 0.0), a, b,
                          epsabs=1e-15, epsrel=0.0, limit=2000, points=inner)[0]
    return total


class TestDenseReference:
    """Capped kernel scans integrate the whole window with every boundary
    and mean as a break point; that must match a dense reference."""

    @staticmethod
    def rerouted_pair(sigma):
        # the planted two-crossing pair with a far bump in the numerator:
        # its means lie on multiples of sigma, but mix records no step, so
        # its 325-sigma window takes the capped kernel scan
        num = mix([(0.999, single_gaussian(0.0, sigma)),
                   (0.001, single_gaussian(300.0 * sigma, sigma))])
        den = GaussianMixture1D(np.array([-sigma, sigma]), np.array([0.5, 0.5]), sigma)
        return HockeyStickQuery(math.exp(0.5) / math.cosh(0.25), num, den)

    @pytest.mark.parametrize("sigma", [0.05, 1.0])
    def test_rerouted_pair(self, sigma):
        query = self.rerouted_pair(sigma)
        assert divergence._sign_scan(query)[2]
        assert hockey_stick(query) == pytest.approx(dense_hockey_stick(query), rel=0.0, abs=1e-13)

    def test_perturbed_capped_grid_pairs(self):
        # the three pairs that read 2.8e-11, 1.4e-10 and 4.6e-9 off the
        # reference when the boundaries are dropped from the break points
        queries = capped_grid_queries()
        for query in (perturbed(queries[i]) for i in (35, 59, 66)):
            assert divergence._sign_scan(query)[2]
            assert hockey_stick(query) == pytest.approx(
                dense_hockey_stick(query), rel=0.0, abs=1e-13
            )


def random_lattice_queries(seed):
    """Main's pair and the constructed pair at one random point for every
    step C in {1, 0.3, 1.7, 0.05} and d in {0, 1, 3, 10, 40}; sigma is
    log-uniform on [0.02, 5], p, q and eps uniform on [0.01, 1]."""
    rng = np.random.default_rng(seed)
    queries = []
    for C, d in itertools.product((1.0, 0.3, 1.7, 0.05), (0, 1, 3, 10, 40)):
        sigma = math.exp(rng.uniform(math.log(0.02), math.log(5.0)))
        p, q, eps = (float(x) for x in rng.uniform(0.01, 1.0, size=3))
        pr = SamplingParams(p=p, q=q, d=d, C=C, sigma=sigma)
        queries += [main_pair(pr, eps), HockeyStickQuery(math.exp(eps), *worst_case_pair(pr))]
    return queries


class TestLatticeCells:
    """Uncapped lattice pairs integrate GK15 on cells at most sigma wide,
    the whole cells' nodes from one Toeplitz product; that must match the
    dense reference, and a cell whose error estimate is over its budget
    must fall back to adaptive quadrature."""

    @staticmethod
    def record_cells(monkeypatch):
        cells, found = divergence._lattice_cells, []

        def recording(query, pieces):
            out = cells(query, pieces)
            found.append(out)
            return out

        monkeypatch.setattr(divergence, "_lattice_cells", recording)
        return found

    @staticmethod
    def record_quadratures(monkeypatch):
        calls = []

        def recording(f, lo, hi, abs_tol, break_points):
            calls.append((lo, hi))
            return integrate_adaptive(f, lo, hi, abs_tol=abs_tol, break_points=break_points)

        monkeypatch.setattr(divergence, "integrate_adaptive", recording)
        return calls

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_matches_dense_reference(self, monkeypatch):
        # 5.6e-16 at most, measured; every query with a positive piece
        # takes the cells
        found = self.record_cells(monkeypatch)
        for query in random_lattice_queries(seed=3):
            found.clear()
            value = hockey_stick(query)
            assert all(cells is not None for cells in found)
            assert value == pytest.approx(dense_hockey_stick(query), rel=0.0, abs=1e-13)

    def test_whole_cell_nodes_match_signed(self):
        # at the nodes gk15_nodes places in cells j * h to (j + 1) * h over
        # the whole window, the product is num - alpha * den within rounding:
        # a tap sees (n + f) h where the kernel sees fl(z) - m, and |z| 2^-53
        # in z moves a term by |t| <= _FLUSH_SIGMAS times that over sigma
        # (1.4e-12 measured at |z| / sigma = 447); terms the taps flush are
        # below 2^-1022 each
        queries = verify_grid_queries(verify_grid_sample(48, seed=8))
        for query in queries + random_lattice_queries(seed=4):
            step, sigma = query.numerator.step, query.sigma
            r = math.ceil(step / sigma)
            h = step / r
            lo, hi = TestSignScan.window(query)
            j = np.arange(math.ceil(lo / h), math.floor(hi / h))
            sums, c = divergence._lattice_sums(
                query, step, r, int(j[0]), -(-j.size // r), divergence._CELL_FRACTIONS
            )
            values = sums[: j.size] / (sigma * SQRT_2PI)
            points, _ = gk15_nodes(j * h, (j + 1) * h)
            a, b = (column.reshape(points.shape) for column in kernel_columns(query, points.ravel()))
            rel = 1e-12 + 1e-14 * np.abs(points) / sigma
            flushed = 2.0**-1022 * np.abs(c).sum() / (sigma * SQRT_2PI)
            assert (np.abs(values - (a - b)) <= rel * (a + b) + flushed).all()

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_rough_cells_fall_back(self, monkeypatch):
        # with every error estimate over its budget, each cell is one
        # adaptive quadrature at its share of DEFAULT_ABS_TOL, and the sum
        # still matches
        sums = divergence.gk15_sums

        def over_budget(values, half):
            return sums(values, half)[0], np.full(len(half), np.inf)

        monkeypatch.setattr(divergence, "gk15_sums", over_budget)
        found = self.record_cells(monkeypatch)
        calls = self.record_quadratures(monkeypatch)
        for query in random_lattice_queries(seed=5)[::4]:
            found.clear()
            calls.clear()
            value = hockey_stick(query)
            assert len(calls) == sum(len(cells[0]) for cells in found)
            assert value == pytest.approx(dense_hockey_stick(query), rel=0.0, abs=1e-13)

    def test_verify_grid_rarely_falls_back(self, monkeypatch):
        # of the 1,152 lattice pairs fedamp verify integrates, the 1,062 with
        # a positive piece all take the cells, and 3 cells fall back
        found = self.record_cells(monkeypatch)
        calls = self.record_quadratures(monkeypatch)
        for query in verify_grid_queries(all_verify_grid_points()):
            hockey_stick(query)
        assert len(found) == 1062 and all(cells is not None for cells in found)
        assert len(calls) == 3

    def test_off_lattice_and_capped_pairs_integrate_each_piece(self, monkeypatch):
        found = self.record_cells(monkeypatch)
        calls = self.record_quadratures(monkeypatch)
        queries = ajc_queries() + [perturbed(q) for q in capped_grid_queries()[:2]]
        for query in queries:
            calls.clear()
            grid, values, capped = divergence._sign_scan(query)
            hockey_stick(query)
            signs = values[np.concatenate([[0], divergence._flips(values) + 1])] > 0.0
            assert len(calls) == (1 if capped else np.count_nonzero(signs))
        assert found == [None] * len(found)


def reference_terms(query: HockeyStickQuery, z: float) -> tuple[float, float]:
    """num(z) and alpha * den(z) as plain loops over math.exp."""

    def density(m: GaussianMixture1D) -> float:
        total = 0.0
        for mean, weight in zip(m.means.tolist(), m.weights.tolist()):
            t = (z - mean) / m.sigma
            total += weight * math.exp(-0.5 * t * t)
        return total / (m.sigma * math.sqrt(2.0 * math.pi))

    return density(query.numerator), query.alpha * density(query.denominator)


class TestDensityKernel:
    """The kernel's two columns and `signed` against a plain-loop reference.

    The kernel sums blocks of z over a band of components; the terms it
    leaves out are exactly 0, and the in-band terms it flushes (below
    2^-1022) are too small to move a row above its floor, so it must agree
    with the full sum to rounding. TestSubnormalFlush checks the flush bit
    for bit.
    """

    @staticmethod
    def assert_matches_reference(query, z):
        a, b = kernel_columns(query, z)
        want = np.array([reference_terms(query, zi) for zi in z.tolist()])
        got = np.column_stack([a, b])
        above = want > 1e-300
        assert above.any()
        np.testing.assert_allclose(got[above], want[above], rtol=1e-14, atol=0.0)

    @staticmethod
    def lattice_query(d, q, sigma, eps=0.5):
        pr = SamplingParams(p=0.3, q=q, d=d, C=1.0, sigma=sigma)
        return HockeyStickQuery(math.exp(eps), *worst_case_pair(pr))

    def test_z_spanning_several_blocks(self):
        query = self.lattice_query(100, 0.3, 1.0)
        z = np.linspace(-15.0, 115.0, 2001)
        assert z.size * query.means.size > 4 * _BLOCK_ELEMENTS
        self.assert_matches_reference(query, z)

    def test_band_drops_far_components(self):
        query = self.lattice_query(20, 0.5, 0.1)
        assert query.means[-1] - query.means[0] > 80 * 0.1
        self.assert_matches_reference(query, np.linspace(-2.0, 23.0, 3001))

    def test_unsorted_z(self):
        query = self.lattice_query(60, 0.2, 0.3)
        z = np.random.default_rng(3).permutation(np.linspace(-4.0, 65.0, 4001))
        assert z.size * query.means.size > 4 * _BLOCK_ELEMENTS
        self.assert_matches_reference(query, z)

    def test_scalar_z(self):
        query = self.lattice_query(5, 0.4, 0.7)
        for z in (-3.0, 0.0, 2.5, 9.0):
            want_a, want_b = reference_terms(query, z)
            assert want_a + want_b > 1e-300
            assert abs(query.signed(z) - (want_a - want_b)) <= 1e-14 * (want_a + want_b)

    def test_subprobability_denominator(self):
        num = GaussianMixture1D(np.array([0.0, 1.0, 4.0]), np.array([0.2, 0.5, 0.3]), 0.4)
        den = GaussianMixture1D(np.array([-1.0, 1.0]), np.array([0.1, 0.4]), 0.4)
        query = HockeyStickQuery(1.5, num, den)
        self.assert_matches_reference(query, np.linspace(-6.0, 9.0, 301))


def unflushed_band_rows(z, z_lo, z_hi, means, weights, sigma, exponent_floor):
    """The band kernel with every in-band lane through exp and the matmul,
    subnormal results included. Appends the lowest exponent of each block
    of two or more rows to exponent_floor."""
    band = _BAND_SIGMAS * sigma
    lo, hi = np.searchsorted(means, [z_lo - band, z_hi + band])
    t = z - means[None, lo:hi]
    t /= sigma
    t *= t
    t *= -0.5
    if len(t) > 1 and t.size:
        exponent_floor.append(float(t.min()))
    return np.exp(t, out=t) @ weights[lo:hi]


class TestSubnormalFlush:
    """_band_rows flushes in-band lanes whose exp would be subnormal; every
    output must stay bit-identical to the kernel that runs them through."""

    @staticmethod
    def outputs(query):
        sigma = query.numerator.sigma
        pad = 12.0 * sigma
        z = np.linspace(query.means[0] - pad, query.means[-1] + pad, 2048)
        scalars = [query.signed(float(zi)) for zi in z[::97].tolist()]
        a, b = kernel_columns(query, z)
        values = scalars + a.tolist() + b.tolist()
        values.append(hockey_stick(query))
        return [float(x).hex() for x in values]

    @staticmethod
    def far_query(kind, sigma):
        if kind == "separated":  # the pair of test_clamped_to_unit_interval
            return HockeyStickQuery(
                1.0, single_gaussian(50.0, sigma), single_gaussian(0.0, sigma)
            )
        pr = SamplingParams(p=0.1, q=0.1, d=100, C=1.0, sigma=sigma)
        if kind == "main":
            return main_pair(pr, 0.5)
        return HockeyStickQuery(math.exp(0.5), *worst_case_pair(pr))

    @pytest.mark.parametrize(
        "kind, sigma",
        [("main", 0.5), ("main", 1.0), ("worst", 0.5), ("worst", 1.0), ("separated", 0.1)],
    )
    def test_bit_identical_to_unflushed_kernel(self, monkeypatch, kind, sigma):
        query = self.far_query(kind, sigma)
        shipped = self.outputs(query)
        exponent_floor = []

        def reference(*args):
            return unflushed_band_rows(*args, exponent_floor)

        monkeypatch.setattr(divergence, "_band_rows", reference)
        assert self.outputs(query) == shipped
        # the reference ran blocks with lanes whose exp is subnormal or 0,
        # the blocks that the shipped kernel flushes
        assert min(exponent_floor) < divergence._LOG_DBL_MIN

    def test_rows_below_floor_keep_subnormal_terms(self):
        # at z = 38.2 the mean-0 lane is flushed and its column falls below
        # the floor, so that row comes from the unflushed pass: exp(-729.62)
        num = single_gaussian(0.0, 1.0)
        query = HockeyStickQuery(1.0, num, single_gaussian(1.0, 1.0))
        z = np.array([0.0, 38.2])
        want = unflushed_band_rows(z[:, None], 0.0, 38.2, query.means, query.weights, 1.0, [])
        want /= SQRT_2PI
        a, b = kernel_columns(query, z)
        assert 0.0 < a[1] < np.finfo(float).tiny < b[1]
        assert np.column_stack([a, b]).tolist() == want.tolist()
        assert query.signed(38.2) == float(want[1, 0] - want[1, 1])
        # the scalar path keeps the subnormal term too: with the
        # denominator's mass far off, signed is the numerator alone
        far = HockeyStickQuery(1.0, num, single_gaussian(-100.0, 1.0))
        assert far.signed(38.2) == a[1]
        # one mixture (one weight column) takes the same path
        pdf = weighted_normal_pdf(z, num.means, num.weights[:, None], num.sigma)
        assert pdf[:, 0].tolist() == a.tolist()

    @pytest.mark.parametrize("z_row, near", [
        (math.sqrt(1202), 0.3),  # lanes e^-590.6 and e^-601
        (math.sqrt(1304), math.sqrt(1304) - math.sqrt(1240)),  # e^-620 and e^-652
    ], ids=["lane-e-601", "lane-e-652"])
    def test_normal_lanes_kept_above_floor(self, z_row, near):
        """A row above the floor in both columns keeps every lane whose exp
        is normal: flushing below -600 (first row) or -650 (second) changes
        it. A -700 flush cannot be told apart: any lane at or below e^-700
        is at most e^-76 of a row above the 2^-900 floor, under half an ulp."""
        means = np.array([0.0, near, 80.0])
        weights = np.array([[0.5, 0.0], [0.5, 1.0], [0.0, 0.0]])
        z = np.array([z_row, 50.0])  # the row at 50 puts the block past the flush reach
        exponent_floor = []
        want = unflushed_band_rows(z[:, None], z[0], z[1], means, weights, 1.0, exponent_floor)
        assert min(exponent_floor) < divergence._LOG_DBL_MIN
        lanes = -0.5 * (z_row - means[:2]) ** 2
        assert -708.0 < lanes.min() < -600.0 and lanes.max() < -590.0
        assert (want[0] > 2.0**-900).all()
        want /= SQRT_2PI
        pdf = weighted_normal_pdf(z, means, weights, 1.0)
        assert [x.hex() for x in pdf[0].tolist()] == [x.hex() for x in want[0].tolist()]


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
        # the same cases on every call, a shorter draw being a prefix
        first = seeded_ajc_triples(5)
        second = seeded_ajc_triples(8)[:5]
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

    @pytest.mark.parametrize("C", [0.1, 0.3, 1.7])
    def test_means_lie_exactly_on_lattice(self, C):
        # i*C + C and (i+1)*C round differently at these C; every branch
        # must land on the same lattice point k*C
        xi, xi_prime = worst_case_pair(SamplingParams(p=0.1, q=0.1, d=30, C=C, sigma=1.0))
        np.testing.assert_array_equal(xi.means, np.arange(32) * C)
        np.testing.assert_array_equal(xi_prime.means, np.arange(31) * C)


def verify_grid_sample(count, seed):
    """count (params, eps) points drawn from fedamp verify's built-in grid."""
    grid = list(
        itertools.product(
            VERIFY_GRID_P, VERIFY_GRID_Q, VERIFY_GRID_D, VERIFY_GRID_SIGMA, VERIFY_GRID_EPS
        )
    )
    picks = np.random.default_rng(seed).choice(len(grid), size=count, replace=False)
    return [
        (SamplingParams(p=p, q=q, d=d, C=1.0, sigma=sigma), eps)
        for p, q, d, sigma, eps in (grid[i] for i in sorted(picks))
    ]


class TestScalarTerms:
    """A scalar z takes its own one-row kernel path in `signed`; it must
    return the float of the array path on a one-element array, bit for bit."""

    @staticmethod
    def probe_points(query):
        means, sigma = query.means, query.numerator.sigma
        band = 39.0 * sigma
        picks = {means[0], means[len(means) // 2], means[-1]}
        z = [0.0, 0.5 * (means[0] + means[-1])]
        for m in picks:
            for edge in (m - band, m + band):
                z += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        # every term underflows to 0 this far out
        z += [means[0] - 100.0 * sigma, means[-1] + 100.0 * sigma]
        return [float(v) for v in z]

    def assert_scalar_matches_array(self, query):
        underflows = 0
        for z in self.probe_points(query):
            value = query.signed(z)
            (a,), (b,) = kernel_columns(query, np.array([z]))
            assert isinstance(value, float)
            assert value.hex() == float(a - b).hex(), z
            assert query.signed(np.array([z])).tolist() == [value]
            underflows += a == 0.0 and b == 0.0
        assert underflows >= 2

    def test_main_and_worst_case_pairs_on_verify_points(self):
        for pr, eps in verify_grid_sample(40, seed=13):
            self.assert_scalar_matches_array(main_pair(pr, eps))
            xi, xi_prime = worst_case_pair(pr)
            self.assert_scalar_matches_array(HockeyStickQuery(math.exp(eps), xi, xi_prime))

    def test_seeded_ajc_pairs(self):
        for mu0, mu1, mu1p, gamma, alpha in seeded_ajc_triples(50):
            self.assert_scalar_matches_array(HockeyStickQuery(alpha, mu1, mu1p))
            self.assert_scalar_matches_array(
                HockeyStickQuery(
                    1.0 + gamma * (alpha - 1.0),
                    mix([(1.0 - gamma, mu0), (gamma, mu1)]),
                    mix([(1.0 - gamma, mu0), (gamma, mu1p)]),
                )
            )

    def test_numpy_scalar_z(self):
        query = TestDensityKernel.lattice_query(5, 0.4, 0.7)
        for z in (np.float64(2.5), np.array(2.5), 2):
            assert query.signed(z) == query.signed(float(z))

    def test_pair_arrays_read_only(self):
        query = TestDensityKernel.lattice_query(5, 0.4, 0.7)
        with pytest.raises(ValueError):
            query.means[0] = 1.0
        with pytest.raises(ValueError):
            query.weights[0, 0] = 1.0


class TestRoundMixturesUnchecked:
    """round_mixtures skips GaussianMixture1D's checks; what it builds must
    equal the validated mixture of the same arrays."""

    @staticmethod
    def assert_equals_validated(mixture):
        checked = GaussianMixture1D(mixture.means, mixture.weights, mixture.sigma)
        for name in ("means", "weights", "log_weights"):
            got, want = getattr(mixture, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
        assert type(mixture.sigma) is float and mixture.sigma == checked.sigma

    @pytest.mark.parametrize(
        "p, q, d",
        [(0.3, 0.2, 0), (0.3, 1.0, 12), (0.3, 0.2, 30), (1.0, 0.5, 100), (0.1, 0.01, 10**5)],
    )
    def test_matches_validated_mixture(self, p, q, d):
        pr = SamplingParams(p=p, q=q, d=d, C=0.7, sigma=1.3)
        triples = [
            (1.0 - p, p * (1.0 - q), p * q),
            (1.0 - p, p, 0.0),
            (0.0, 0.0, 1.0),
            (0.25, 0.75, 0.0),
            (1.0, 0.0, 0.0),
        ]
        mixtures = round_mixtures(pr, *triples)
        assert len(mixtures) == len(triples)
        for mixture in mixtures:
            self.assert_equals_validated(mixture)
        if d == 10**5:
            # the binomial tails fall below the weight floor and are dropped
            assert mixtures[2].means.size < d + 1

    def test_bad_branch_weights_fail_closed(self):
        pr = SamplingParams(p=0.3, q=0.2, d=5, C=1.0, sigma=1.0)
        for triple in [(-0.1, 0.6, 0.5), (math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0), (0.0, 0.0, 0.0)]:
            with pytest.raises(DomainError):
                round_mixtures(pr, triple)
        with pytest.raises(DomainError):
            round_mixtures(SamplingParams(p=0.3, q=0.2, d=5, C=1e308, sigma=1.0), (0.0, 0.0, 1.0))


def whole_lattice_mixtures(params, *branch_weights):
    """round_mixtures' (means, weights) built as it once built them: on every
    lattice point from 0 to the top of the binomial band, then filtered."""
    idx, logw = binomial_log_weights(params.d, params.q)
    w = np.exp(logw)
    w = w / w.sum()
    means = np.arange(idx[-1] + 2) * params.C
    built = []
    for absent, unsampled, sampled in branch_weights:
        weights = np.zeros(means.size)
        weights[0] = absent
        weights[idx] += unsampled * w
        weights[idx + 1] += sampled * w
        keep = weights != 0.0
        built.append((means[keep], weights[keep]))
    return built


class TestRoundMixturesBand:
    """round_mixtures allocates only the lattice points that can carry
    weight: 0 and the binomial band."""

    def test_same_arrays_as_the_whole_lattice_on_the_verify_grid(self, monkeypatch):
        calls = []

        def recorded(params, *branch_weights):
            calls.append((params, branch_weights))
            return round_mixtures(params, *branch_weights)

        # main_pair's and worst_case_pair's triples at every grid point
        monkeypatch.setattr(accountant, "round_mixtures", recorded)
        monkeypatch.setattr(divergence, "round_mixtures", recorded)
        main_pair.cache_clear()
        for pr, eps in all_verify_grid_points():
            main_pair(pr, eps)
            worst_case_pair(pr)
        main_pair.cache_clear()
        assert len(calls) == 2 * 576
        for params, branch_weights in calls:
            got = round_mixtures(params, *branch_weights)
            for mixture, (means, weights) in zip(got, whole_lattice_mixtures(params, *branch_weights),
                                                 strict=True):
                assert mixture.means.tobytes() == means.tobytes()
                assert mixture.weights.tobytes() == weights.tobytes()
                assert mixture.step == params.C

    @pytest.mark.parametrize("d, q", [(3000, 0.5), (10**5, 0.1), (5000, 0.9), (12, 1.0), (0, 0.3)])
    def test_same_arrays_where_the_band_leaves_zero(self, d, q):
        # the verify grid's bands all start at count 0; these start above it
        pr = SamplingParams(p=0.3, q=q, d=d, C=0.7, sigma=1.3)
        triples = [(0.7, 0.24, 0.06), (0.7, 0.3, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]
        got = round_mixtures(pr, *triples)
        for mixture, (means, weights) in zip(got, whole_lattice_mixtures(pr, *triples), strict=True):
            assert mixture.means.tobytes() == means.tobytes()
            assert mixture.weights.tobytes() == weights.tobytes()

    def test_memory_at_huge_d(self):
        # the whole lattice at d = 1e8, q = 0.1 takes three 80 MB arrays
        pr = SamplingParams(p=0.1, q=0.1, d=10**8, C=1.0, sigma=1.0)
        tracemalloc.start()
        try:
            unsampled, sampled = round_mixtures(pr, (0.5, 0.5, 0.0), (0.0, 0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert unsampled.means[0] == 0.0 and unsampled.means[1] > 9e6
        np.testing.assert_array_equal(sampled.means, unsampled.means[1:] + 1.0)
        assert sampled.total_mass == pytest.approx(1.0, abs=1e-12)
