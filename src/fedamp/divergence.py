"""Equal-variance Gaussian mixtures and hockey-stick divergences.

Every distribution the accounting schemes compare is a univariate Gaussian
mixture whose components share one standard deviation. This module gives
that family a canonical value type, builds the binomially weighted mixtures
produced by Poisson subsampling, gives a mixture pair its densities, log
likelihood ratio, exact tails and hockey-stick divergence (by adaptive
quadrature), and checks the advanced-joint-convexity identity linking a
mixture divergence to its conditional parts.

Divergence quadrature runs at 1e-13 absolute tolerance, several orders
below the delta magnitudes the accountant certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy.special import gammaln, ndtr

from .numerics import DomainError, find_root_bracketed, integrate_adaptive

if TYPE_CHECKING:
    from .accountant import SamplingParams

MEAN_MERGE_TOL = 1e-12
WEIGHT_DROP_THRESHOLD = 1e-300
DEFAULT_ABS_TOL = 1e-13
HOCKEY_STICK_SCAN_POINTS = 2048

SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class GaussianMixture1D:
    """Mixture of Gaussians N(mean_i, sigma^2) with a shared sigma.

    Means are strictly increasing and weights nonnegative; construct through
    from_components to get canonical ordering and duplicate merging. Total
    mass is usually 1 but sub-probability mixtures are allowed, because the
    accounting bounds compare against denominators of mass below one.
    dropped_mass records weight discarded during construction (binomial
    tails below the representable range).
    """

    means: np.ndarray
    weights: np.ndarray
    sigma: float
    dropped_mass: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        means = np.atleast_1d(np.asarray(self.means, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if means.ndim != 1 or weights.ndim != 1 or means.shape != weights.shape:
            raise DomainError("means and weights must be 1-d arrays of equal length")
        if means.size == 0:
            raise DomainError("mixture needs at least one component")
        if not (np.isfinite(means).all() and np.isfinite(weights).all()):
            raise DomainError("mixture components must be finite")
        if (weights < 0.0).any():
            raise DomainError("mixture weights must be nonnegative")
        if not (np.diff(means) > 0.0).all():
            raise DomainError("component means must be strictly increasing")
        sigma = float(self.sigma)
        if not math.isfinite(sigma) or sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {sigma}")
        total = float(weights.sum())
        if total <= 0.0:
            raise DomainError("mixture must carry positive total mass")
        means = means.copy()
        weights = weights.copy()
        means.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "dropped_mass", float(self.dropped_mass))

    @classmethod
    def from_components(
        cls,
        components: Iterable[tuple[float, float]],
        sigma: float,
        dropped_mass: float = 0.0,
    ) -> "GaussianMixture1D":
        """Build a canonical mixture from (mean, weight) pairs.

        Components are sorted by mean; means that coincide within
        MEAN_MERGE_TOL are merged by weight addition (the merged mean is the
        weight-averaged location). Zero-weight components are removed.
        """
        pairs = [(float(m), float(w)) for m, w in components]
        pairs = [(m, w) for m, w in pairs if w != 0.0]
        if not pairs:
            raise DomainError("mixture needs at least one nonzero component")
        pairs.sort(key=lambda mw: mw[0])
        means: list[float] = []
        weights: list[float] = []
        for mean, weight in pairs:
            if means and mean - means[-1] <= MEAN_MERGE_TOL:
                merged = weights[-1] + weight
                means[-1] = (means[-1] * weights[-1] + mean * weight) / merged
                weights[-1] = merged
            else:
                means.append(mean)
                weights.append(weight)
        return cls(np.array(means), np.array(weights), sigma, dropped_mass)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def support(self, pad_sigmas: float = 12.0) -> tuple[float, float]:
        """Interval outside which the mixture carries negligible mass."""
        pad = pad_sigmas * self.sigma
        return float(self.means[0]) - pad, float(self.means[-1]) + pad

    def pdf(self, z) -> np.ndarray:
        """Mixture density, vectorized over z; large grids are chunked."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        out = weighted_normal_pdf(z_arr, self.means, self.weights, self.sigma)
        if np.ndim(z) == 0:
            return float(out[0])
        return out

    def log_pdf(self, z: float) -> float:
        """Log mixture density at a scalar z, as a max-shifted log-sum-exp,
        so it stays finite where the density itself underflows."""
        t = (z - self.means) / self.sigma
        with np.errstate(divide="ignore"):
            exponents = np.log(self.weights) - 0.5 * t * t
        top = exponents.max()
        log_sum = top + np.log(np.exp(exponents - top).sum())
        return float(log_sum) - math.log(self.sigma * SQRT_2PI)


def weighted_normal_pdf(
    z: np.ndarray, means: np.ndarray, weights: np.ndarray, sigma: float
) -> np.ndarray:
    """sum_i weights[i] * N(z; means[i], sigma^2), chunked over z."""
    n = z.shape[0]
    k = means.shape[0]
    if n * k <= _MAX_CHUNK_ELEMENTS:
        t = (z[:, None] - means[None, :]) / sigma
        return np.exp(-0.5 * t * t) @ weights / (sigma * SQRT_2PI)
    chunk = max(1, _MAX_CHUNK_ELEMENTS // k)
    out = np.empty(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        t = (z[start:stop, None] - means[None, :]) / sigma
        out[start:stop] = np.exp(-0.5 * t * t) @ weights / (sigma * SQRT_2PI)
    return out


@dataclass(frozen=True)
class HockeyStickQuery:
    """One divergence evaluation D_alpha(numerator || denominator).

    The numerator must be a probability mixture. The denominator may be
    sub-probability (mass in (0, alpha]): the bound derivations compare
    against composite denominators whose mass is below one, and
    renormalizing would change the divergence.
    """

    alpha: float
    numerator: GaussianMixture1D
    denominator: GaussianMixture1D

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or alpha < 1.0:
            raise DomainError(f"alpha must be >= 1, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        if abs(self.numerator.total_mass - 1.0) > 1e-12:
            raise DomainError(
                f"numerator mass {self.numerator.total_mass} is not 1 within 1e-12"
            )
        den_mass = self.denominator.total_mass
        if not 0.0 < den_mass <= alpha + 1e-12:
            raise DomainError(
                f"denominator mass {den_mass} outside (0, alpha={alpha}]"
            )

    def terms(self, z):
        """(num(z), alpha * den(z)), one density pass per mixture.

        Their difference is the signed integrand; their sum is the local
        magnitude that cancellation noise in the difference scales with.
        """
        return self.numerator.pdf(z), self.alpha * self.denominator.pdf(z)

    def signed(self, z):
        """num(z) - alpha * den(z), before the positive-part clamp."""
        a, b = self.terms(z)
        return a - b

    def log_ratio(self, z: float) -> float:
        """log num(z) - log den(z) - log alpha at a scalar z: the signed
        integrand's sign, without underflow far from the mixtures' means."""
        return (
            self.numerator.log_pdf(z)
            - self.denominator.log_pdf(z)
            - math.log(self.alpha)
        )

    def tail(self, z: float) -> float:
        """Exact integral of num - alpha * den over [z, inf).

        One compensated sum over the components' Gaussian survival terms;
        ndtr's erfc backend keeps each term accurate deep in the tail.
        """
        num, den = self.numerator, self.denominator
        return math.fsum(
            np.concatenate([
                num.weights * ndtr((num.means - z) / num.sigma),
                -self.alpha * den.weights * ndtr((den.means - z) / den.sigma),
            ])
        )


def single_gaussian(mean: float, sigma: float) -> GaussianMixture1D:
    return GaussianMixture1D(np.array([float(mean)]), np.array([1.0]), sigma)


def mix(parts: Sequence[tuple[float, GaussianMixture1D]]) -> GaussianMixture1D:
    """Convex (or conic) combination of mixtures sharing one sigma."""
    if not parts:
        raise DomainError("mix needs at least one part")
    sigma = parts[0][1].sigma
    components: list[tuple[float, float]] = []
    dropped = 0.0
    for coeff, mixture in parts:
        coeff = float(coeff)
        if coeff < 0.0:
            raise DomainError(f"mix coefficients must be nonnegative, got {coeff}")
        if coeff == 0.0:
            continue
        if abs(mixture.sigma - sigma) > 1e-12 * max(1.0, sigma):
            raise DomainError("mixtures in a mix must share sigma")
        dropped += coeff * mixture.dropped_mass
        for mean, weight in zip(mixture.means, mixture.weights):
            components.append((float(mean), coeff * float(weight)))
    return GaussianMixture1D.from_components(components, sigma, dropped_mass=dropped)


def binomial_log_weights(d: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Log Binom(d, q) pmf over the kept support.

    Returns (indices, log_weights) with entries below the representable
    density range removed. Evaluated through log-gamma, so d in the millions
    is fine.
    """
    if d < 0:
        raise DomainError(f"d must be nonnegative, got {d}")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q}")
    if d == 0 or q == 0.0:
        return np.array([0]), np.array([0.0])
    if q == 1.0:
        return np.array([d]), np.array([0.0])
    i = np.arange(d + 1)
    logw = (
        gammaln(d + 1.0)
        - gammaln(i + 1.0)
        - gammaln(d - i + 1.0)
        + i * math.log(q)
        + (d - i) * math.log1p(-q)
    )
    keep = logw >= math.log(WEIGHT_DROP_THRESHOLD)
    return i[keep], logw[keep]


def binomial_mixture(
    d: int, q: float, C: float, sigma: float, mean_offset: float = 0.0
) -> GaussianMixture1D:
    """Binomially weighted Gaussian mixture at means i*C + mean_offset.

    Component i carries weight Binom(d, q, i); weights below 1e-300 are
    dropped, the removed mass is recorded on the result, and the remainder
    is renormalized to total mass 1.
    """
    d = _check_count(d)
    C = float(C)
    sigma = float(sigma)
    mean_offset = float(mean_offset)
    if not math.isfinite(C) or C <= 0.0:
        raise DomainError(f"C must be positive, got {C}")
    if not math.isfinite(mean_offset):
        raise DomainError("mean_offset must be finite")
    idx, logw = binomial_log_weights(d, q)
    weights = np.exp(logw)
    kept = float(weights.sum())
    weights = weights / kept
    means = idx.astype(float) * C + mean_offset
    return GaussianMixture1D(
        means, weights, sigma, dropped_mass=max(0.0, 1.0 - kept)
    )


def _check_count(d) -> int:
    if isinstance(d, bool) or int(d) != d:
        raise DomainError(f"d must be an integer, got {d!r}")
    return int(d)


def hockey_stick(query: HockeyStickQuery) -> float:
    """D_alpha(num || den) = integral of [num(z) - alpha * den(z)]_+ dz.

    The signed difference is scanned for sign changes over the mixtures'
    12-sigma support, find_root_bracketed refines each boundary, and the
    clamped integrand is integrated piecewise so the quadrature only ever
    sees smooth pieces. Clamped to [0, 1].
    """
    num_lo, num_hi = query.numerator.support()
    den_lo, den_hi = query.denominator.support()
    lo, hi = min(num_lo, den_lo), max(num_hi, den_hi)
    grid = np.linspace(lo, hi, HOCKEY_STICK_SCAN_POINTS)
    positive = query.signed(grid) > 0.0
    flips = np.nonzero(positive[:-1] != positive[1:])[0]
    boundaries = [
        find_root_bracketed(query.signed, float(grid[i]), float(grid[i + 1])).root
        for i in flips
    ]

    def clamped(z: np.ndarray) -> np.ndarray:
        return np.maximum(query.signed(z), 0.0)

    result = integrate_adaptive(
        clamped, lo, hi, abs_tol=DEFAULT_ABS_TOL, break_points=boundaries
    )
    return min(1.0, max(0.0, result.value))


def ajc_decompose(
    mu0: GaussianMixture1D,
    mu1: GaussianMixture1D,
    mu1p: GaussianMixture1D,
    gamma: float,
    alpha: float,
) -> tuple[float, float]:
    """Both sides of the advanced-joint-convexity identity.

    lhs = D_alpha'((1-g) mu0 + g mu1 || (1-g) mu0 + g mu1') with
    alpha' = 1 + g (alpha - 1), and
    rhs = g * D_alpha(mu1 || (1-b) mu0 + b mu1') with b = alpha'/alpha.

    Returns (lhs, rhs); they agree up to quadrature error. Note the primed
    level sits on the mixture side here, matching the identity's statement;
    the accountant's epsilon'/epsilon convention is the inverse map.
    """
    gamma = float(gamma)
    alpha = float(alpha)
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    if alpha < 1.0:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    alpha_prime = 1.0 + gamma * (alpha - 1.0)
    beta = alpha_prime / alpha
    lhs = hockey_stick(
        HockeyStickQuery(
            alpha_prime,
            mix([(1.0 - gamma, mu0), (gamma, mu1)]),
            mix([(1.0 - gamma, mu0), (gamma, mu1p)]),
        )
    )
    rhs = gamma * hockey_stick(
        HockeyStickQuery(
            alpha,
            mu1,
            mix([(1.0 - beta, mu0), (beta, mu1p)]),
        )
    )
    return lhs, rhs


def worst_case_pair(
    params: "SamplingParams",
) -> tuple[GaussianMixture1D, GaussianMixture1D]:
    """The dominating pair for one round of the sampled Gaussian protocol.

    xi mixes the three participation outcomes for the client holding the
    differing element (not participating; participating without the element;
    participating with it); xi_prime is the same client without the element.
    Their hockey-stick divergence at e^eps is what the accounting schemes
    bound.
    """
    p, q, d, C, sigma = params.p, params.q, params.d, params.C, params.sigma
    base = binomial_mixture(d, q, C, sigma, mean_offset=0.0)
    shifted = binomial_mixture(d, q, C, sigma, mean_offset=C)
    stay_out = single_gaussian(0.0, sigma)
    xi = mix([(1.0 - p, stay_out), (p * (1.0 - q), base), (p * q, shifted)])
    xi_prime = mix([(1.0 - p, stay_out), (p, base)])
    return xi, xi_prime


def seeded_ajc_triples(count: int, seed: int = 7):
    """Random (mu0, mu1, mu1p, gamma, alpha) cases for identity checks.

    Deterministic for a given seed; shared by the test suite and the
    verification command so both exercise the same cases.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        sigma = float(rng.uniform(0.5, 2.0))
        mixtures = []
        for _ in range(3):
            k = int(rng.integers(1, 4))
            means = np.sort(rng.uniform(-3.0, 3.0, size=k))
            means = np.unique(np.round(means, 6))
            weights = rng.uniform(0.2, 1.0, size=means.size)
            weights = weights / weights.sum()
            mixtures.append(GaussianMixture1D(means, weights, sigma))
        gamma = float(rng.uniform(0.05, 0.95))
        alpha = float(np.exp(rng.uniform(0.05, 2.0)))
        cases.append((mixtures[0], mixtures[1], mixtures[2], gamma, alpha))
    return cases
