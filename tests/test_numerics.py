"""Scalar primitives: the input rules, the mechanism delta, roots, quadrature.

Reference values marked "mpmath" were frozen from 50-digit evaluations and
are compared at tolerances the double-precision implementations must meet.
"""

import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

from fedamp import numerics
from fedamp.accountant import SamplingParams, amplified_eps, delta_only_local
from fedamp.divergence import (
    GaussianMixture1D,
    HockeyStickQuery,
    ajc_decompose,
    binomial_log_weights,
)
from fedamp.numerics import (
    AccuracyError,
    BracketError,
    DomainError,
    Rule,
    checked,
    find_root_bracketed,
    gaussian_mechanism_delta,
    integrate_adaptive,
)
from fedamp.simulator import SimConfig

TV_UNIT_SHIFT = 0.3829249225480262  # mpmath: delta at eps=0, sigma=1, C=1
DELTA_HALF_EPS = 0.23842170813487663  # mpmath: delta at eps=0.5, sigma=1, C=1
DELTA_SIGMA_100 = 2.9527154135473316e-4  # mpmath: delta at eps=0.015, sigma=100, C=1


UNIT = GaussianMixture1D(np.array([0.0]), np.array([1.0]), 1.0)

# (callable, valid keyword arguments, the counts among them): every argument
# here is checked against one row of the rule table
RULED = {
    "SamplingParams": (SamplingParams, dict(p=0.1, q=0.1, d=3, C=1.0, sigma=1.0), {"d"}),
    "SimConfig": (
        SimConfig,
        dict(N=3, d=2, p=0.5, q=0.5, C=1.0, sigma=1.0, T=2, eta=0.1, m=2, seed=0),
        {"N", "d", "T", "m", "seed"},
    ),
    "gaussian_mechanism_delta": (
        gaussian_mechanism_delta, dict(eps=0.5, sigma=1.0, sensitivity=1.0), set()
    ),
    "amplified_eps": (amplified_eps, dict(eps=0.5, rate=0.1), set()),
}
RULED_FIELDS = [f"{call}.{name}" for call, (_, args, _) in RULED.items() for name in args]
COUNT_FIELDS = [f"{call}.{name}" for call, (_, _, counts) in RULED.items() for name in sorted(counts)]

# other checked arguments, each with a call that passes the value as that argument
OTHER_SITES = {
    "delta_only_local.q": lambda v: delta_only_local(v, 1.0, 1.0, 0.5),
    "GaussianMixture1D.sigma": lambda v: GaussianMixture1D(np.array([0.0]), np.array([1.0]), v),
    "HockeyStickQuery.alpha": lambda v: HockeyStickQuery(v, UNIT, UNIT),
    "ajc_decompose.gamma": lambda v: ajc_decompose(UNIT, UNIT, UNIT, gamma=v, alpha=2.0),
    "ajc_decompose.alpha": lambda v: ajc_decompose(UNIT, UNIT, UNIT, gamma=0.5, alpha=v),
    "binomial_log_weights.d": lambda v: binomial_log_weights(v, 0.5),
    "integrate_adaptive.abs_tol": lambda v: integrate_adaptive(
        np.ones_like, 0.0, 1.0, abs_tol=v, break_points=()
    ),
}


class TestInputRules:
    """One rule per scalar input: a value is read with float(), a count is
    whole and not a bool, and anything else is a DomainError naming it."""

    @pytest.mark.parametrize("bad", ["abc", None])
    @pytest.mark.parametrize("field", RULED_FIELDS)
    def test_unreadable_value_names_its_field(self, field, bad):
        call, name = field.split(".")
        fn, args, _ = RULED[call]
        with pytest.raises(DomainError, match=f"^{name} must .*, got {re.escape(repr(bad))}$"):
            fn(**{**args, name: bad})

    @pytest.mark.parametrize("bad", ["abc", None])
    @pytest.mark.parametrize("site", sorted(OTHER_SITES))
    def test_other_sites_name_their_argument(self, site, bad):
        name = site.split(".")[1]
        with pytest.raises(DomainError, match=f"^{name} must .*, got {re.escape(repr(bad))}$"):
            OTHER_SITES[site](bad)

    @pytest.mark.parametrize("field", [f for f in RULED_FIELDS if f != "SimConfig.seed"])
    def test_numeric_string_read_as_number(self, field):
        # seed keeps its own int-only rule
        call, name = field.split(".")
        fn, args, counts = RULED[call]
        number = 3 if name in counts else 1.0
        from_text = fn(**{**args, name: str(number)})
        assert from_text == fn(**{**args, name: number})
        if isinstance(from_text, (SamplingParams, SimConfig)):
            assert type(getattr(from_text, name)) is type(number)

    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_bool_count_refused(self, field):
        call, name = field.split(".")
        fn, args, _ = RULED[call]
        with pytest.raises(DomainError, match=f"^{name} must .*, got True$"):
            fn(**{**args, name: True})

    def test_int_count_kept_exactly(self):
        big = 2**60 + 1  # float(big) would round it
        assert checked("d", big, Rule.COUNT) == big
        assert SamplingParams(p=0.1, q=0.1, d=big, C=1.0, sigma=1.0).d == big
        assert checked("d", 3.0, Rule.COUNT) == 3 and type(checked("d", "3", Rule.COUNT)) is int
        with pytest.raises(DomainError, match=r"^C must be finite and positive, got 10{400}$"):
            checked("C", 10**400, Rule.POSITIVE)

    def test_main_refuses_d_past_exact_lattice_counts(self):
        # Main's lattice counts 0..d+1 must be exact doubles; the refusal
        # comes before any array is built
        with pytest.raises(DomainError, match=r"^d must be below 2\*\*53"):
            binomial_log_weights(2**53, 0.1)
        with pytest.raises(DomainError, match=r"^d must be below 2\*\*53"):
            binomial_log_weights(10**308, 0.1)


class TestGaussianMechanismDelta:
    def test_eps_zero_is_total_variation(self):
        assert gaussian_mechanism_delta(0.0, 1.0, 1.0) == pytest.approx(
            TV_UNIT_SHIFT, rel=1e-14
        )

    def test_reference_point(self):
        assert gaussian_mechanism_delta(0.5, 1.0, 1.0) == pytest.approx(
            DELTA_HALF_EPS, rel=1e-14
        )

    def test_large_sigma_small_eps(self):
        assert gaussian_mechanism_delta(0.015, 100.0, 1.0) == pytest.approx(
            DELTA_SIGMA_100, rel=1e-13
        )

    def test_matches_quadrature(self):
        eps, sigma, c = 0.5, 1.0, 1.0
        alpha = math.exp(eps)

        def integrand(z):
            num = np.exp(-0.5 * ((z - c) / sigma) ** 2)
            den = np.exp(-0.5 * (z / sigma) ** 2)
            return np.maximum(num - alpha * den, 0.0) / (sigma * math.sqrt(2 * math.pi))

        result = integrate_adaptive(integrand, -10.0, 11.0, abs_tol=1e-13, break_points=())
        assert gaussian_mechanism_delta(eps, sigma, c) == pytest.approx(
            result.value, abs=1e-12
        )

    def test_monotone_in_eps_and_sigma(self):
        eps_grid = np.linspace(0.0, 3.0, 20)
        sigma_grid = np.geomspace(0.2, 20.0, 20)
        for sigma in sigma_grid:
            deltas = [gaussian_mechanism_delta(float(e), float(sigma), 1.0) for e in eps_grid]
            assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        for eps in eps_grid:
            deltas = [gaussian_mechanism_delta(float(eps), float(s), 1.0) for s in sigma_grid]
            assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_bounds(self):
        assert 0.0 <= gaussian_mechanism_delta(12.0, 0.05, 1.0) <= 1.0
        assert gaussian_mechanism_delta(0.0, 0.01, 1.0) <= 1.0

    @pytest.mark.parametrize("sigma_over_c", [1.0 / math.sqrt(1400.0), 1e-6, 1e6])
    def test_large_eps_stays_finite(self, sigma_over_c):
        # sigma = C / sqrt(2 eps) minimises x = C/(2 sigma) + eps sigma / C,
        # where exp(eps + log Phi(-x)) comes closest to overflowing
        c = 2.0
        delta = gaussian_mechanism_delta(700.0, sigma_over_c * c, c)
        assert math.isfinite(delta) and 0.0 <= delta <= 1.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            gaussian_mechanism_delta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            gaussian_mechanism_delta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            gaussian_mechanism_delta(0.5, 1.0, -2.0)


class TestFindRootBracketed:
    def test_linear(self):
        result = find_root_bracketed(lambda x: 2.0 * x - 1.0, -4.0, 9.0)
        assert result.root == pytest.approx(0.5, abs=1e-12)
        assert abs(result.residual) <= 1e-12

    def test_cdf_offset(self):
        result = find_root_bracketed(lambda x: float(ndtr(x)) - 0.5, -3.0, 5.0)
        assert result.root == pytest.approx(0.0, abs=1e-10)

    def test_bracket_contains_root(self):
        result = find_root_bracketed(lambda x: x**3 - 2.0, 0.0, 4.0)
        lo, hi = result.bracket
        assert lo <= result.root <= hi
        assert result.root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12, abs=0.0)

    def test_same_root_as_scipy_brentq(self):
        # same steps and tolerances; at the 1e-200 scale the interpolation
        # slopes underflow and both fall back to bisection
        for f, lo, hi in [
            (lambda x: math.tanh(3.0 * (x - 0.7)), -4.0, 4.5),
            (lambda x: x**3 - 2.0, 0.0, 4.0),
            (lambda x: 1e-200 * (math.exp(x - 0.3) - 1.0), -4.0, 4.5),
        ]:
            assert find_root_bracketed(f, lo, hi).root == brentq(f, lo, hi)

    def test_tiny_scale_does_not_stop_early(self):
        # |f| <= 1e-20 on the whole bracket: only the bracket width may stop
        result = find_root_bracketed(
            lambda x: 1e-20 * math.tanh(5.0 * (x - 0.3)), -4.0, 4.5
        )
        assert result.root == pytest.approx(0.3, abs=2e-12)

    def test_endpoint_root_short_circuits(self):
        result = find_root_bracketed(lambda x: x, 0.0, 1.0)
        assert result.root == 0.0
        assert result.residual == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            find_root_bracketed(lambda x: x, 2.0, 2.0)

    def test_non_finite_value_rejected(self):
        with pytest.raises(DomainError):
            find_root_bracketed(lambda x: math.nan, 0.0, 1.0)


class TestIntegrateAdaptive:
    def test_constant(self):
        result = integrate_adaptive(np.ones_like, 0.0, 1.0, abs_tol=1e-14, break_points=())
        assert result.value == pytest.approx(1.0, abs=1e-15)
        assert result.evaluations > 0

    def test_integrand_shape_checked(self):
        # one value per evaluation point: a scalar is not broadcast
        for f in (lambda z: 1.0, lambda z: z[:-1], lambda z: z.reshape(-1, 15)):
            with pytest.raises(DomainError, match="integrand returned shape"):
                integrate_adaptive(f, 0.0, 1.0, abs_tol=1e-14, break_points=())
        with pytest.raises(DomainError, match="non-finite"):
            integrate_adaptive(lambda z: np.full_like(z, np.inf), 0.0, 1.0, abs_tol=1e-14,
                               break_points=())

    def test_gaussian_normalization(self):
        def pdf(z):
            return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

        result = integrate_adaptive(pdf, -8.0, 8.0, abs_tol=1e-13, break_points=())
        expected = 1.0 - 2.0 * float(ndtr(-8.0))
        assert result.value == pytest.approx(expected, abs=1e-12)

    def test_kink_with_break_point(self):
        result = integrate_adaptive(
            lambda z: np.abs(z - 0.3), 0.0, 1.0, abs_tol=1e-14, break_points=[0.3]
        )
        assert result.value == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, abs=1e-13)

    def test_break_points_outside_range_ignored(self):
        result = integrate_adaptive(
            np.ones_like, 0.0, 1.0, abs_tol=1e-14, break_points=[-5.0, 0.5, 7.0]
        )
        assert result.value == pytest.approx(1.0, abs=1e-14)

    def test_accuracy_error_when_budget_too_small(self, monkeypatch):
        monkeypatch.setattr(numerics, "QUADRATURE_MAX_EVALS", 200)
        # 15, 45 and 105 evaluations; splitting all four intervals would pass 200
        with pytest.raises(AccuracyError, match="after 105 evaluations"):
            integrate_adaptive(
                lambda z: np.sin(1000.0 * z), 0.0, 1.0, abs_tol=1e-16, break_points=()
            )

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(np.ones_like, 1.0, 0.0, abs_tol=1e-14, break_points=())

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            integrate_adaptive(np.ones_like, 0.0, 1.0, abs_tol=0.0, break_points=())


class TestBreakPoints:
    """integrate_adaptive checks and filters its break points as one array;
    the edges must be the floats the per-point loop gave."""

    @staticmethod
    def first_batch(lo, hi, break_points):
        seen = []

        def f(z):
            seen.append(z.copy())
            return np.zeros_like(z)

        integrate_adaptive(f, lo, hi, abs_tol=1e-14, break_points=break_points)
        return seen[0]

    @staticmethod
    def reference_batch(lo, hi, break_points):
        from fedamp.numerics import _GK_NODES

        edges = [lo, hi] + [float(x) for x in break_points if lo < float(x) < hi]
        edges = np.array(sorted(set(edges)))
        centers = 0.5 * (edges[:-1] + edges[1:])
        half_widths = 0.5 * (edges[1:] - edges[:-1])
        return (centers[:, None] + half_widths[:, None] * _GK_NODES[None, :]).reshape(-1)

    @pytest.mark.parametrize(
        "break_points",
        [
            [],
            [0.5, 0.25, 0.5, 0.75],
            [-1.0, 0.0, 1.0, 2.0, 0.3],  # outside and at the ends
            [-0.0, 0.0, 1e-300, 1.0 - 1e-16],
            np.array([0.9, 0.1, 0.4]),
            [1, 0, 2],  # integers, in a wider interval below
        ],
    )
    def test_edges_match_per_point_loop(self, break_points):
        lo, hi = (-1.0, 3.0) if list(break_points) == [1, 0, 2] else (0.0, 1.0)
        got = self.first_batch(lo, hi, break_points)
        want = self.reference_batch(lo, hi, break_points)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(DomainError, match=f"break point must be finite, got {bad!r}"):
            integrate_adaptive(lambda z: z, 0.0, 1.0, abs_tol=1e-14, break_points=[0.5, bad, 2.0])
