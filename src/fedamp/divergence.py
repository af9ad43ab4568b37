"""Equal-variance Gaussian mixtures and hockey-stick divergences.

Every distribution the accounting schemes compare is a univariate Gaussian
mixture whose components share one standard deviation. This module gives
that family a canonical value type, builds one round's output mixtures on
the lattice kC that Poisson subsampling produces, gives a mixture pair its
densities, log likelihood ratio, exact tails and hockey-stick divergence
(by adaptive quadrature), and checks the advanced-joint-convexity identity
linking a mixture divergence to its conditional parts.

Divergence quadrature runs at 1e-13 absolute tolerance, several orders
below the delta magnitudes the accountant certifies. A pair's two
densities come from one blocked kernel pass over the union of its means.
The sign scan ahead of the quadrature is sized by sigma: its spacing is at
most sigma / SCAN_POINTS_PER_SIGMA, on at most HOCKEY_STICK_SCAN_POINTS
points. The quadrature integrates only the pieces between sign boundaries
that the scan finds positive, or the whole 12-sigma support where the
point cap leaves the scan coarser than that spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.special import gammaln, ndtr

from .numerics import DomainError, find_root_bracketed, integrate_adaptive

if TYPE_CHECKING:
    from .accountant import SamplingParams

WEIGHT_DROP_THRESHOLD = 1e-300
DEFAULT_ABS_TOL = 1e-13
HOCKEY_STICK_SCAN_POINTS = 2048
SCAN_POINTS_PER_SIGMA = 10

SQRT_2PI = math.sqrt(2.0 * math.pi)
# Kernel block size in (z x component) terms: 256 KB of doubles per temporary.
_BLOCK_ELEMENTS = 1 << 15
# exp(-t * t / 2) underflows to exactly 0.0 once |t| exceeds 38.6.
_BAND_SIGMAS = 39.0
_LOG_DBL_MIN = math.log(np.finfo(float).tiny)  # -708.40; exp is subnormal or 0 below
_FLUSH_SIGMAS = math.sqrt(-2.0 * _LOG_DBL_MIN)  # 37.64; so is exp(-t * t / 2) beyond
_FLUSH_FLOOR = 2.0**-900  # flushed rows below this times their weight sum are redone


@dataclass(frozen=True)
class GaussianMixture1D:
    """Mixture of Gaussians N(mean_i, sigma^2) with a shared sigma.

    Means are strictly increasing and weights nonnegative. Total mass is
    usually 1 but sub-probability mixtures are allowed, because the
    accounting bounds compare against denominators of mass below one.
    log_weights is log(weights), -inf at zero weights, computed once.
    """

    means: np.ndarray
    weights: np.ndarray
    sigma: float
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

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
        self._store(means.copy(), weights.copy(), sigma)

    def _store(self, means: np.ndarray, weights: np.ndarray, sigma: float) -> None:
        """Set the fields from valid arrays that no one else holds."""
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights)
        for name, array in (("means", means), ("weights", weights), ("log_weights", log_weights)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "sigma", sigma)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def log_pdf(self, z: float) -> float:
        """Log mixture density at a scalar z, as a max-shifted log-sum-exp,
        so it stays finite where the density itself underflows."""
        t = (z - self.means) / self.sigma
        exponents = self.log_weights - 0.5 * t * t
        top = exponents.max()
        log_sum = top + np.log(np.exp(exponents - top).sum())
        return float(log_sum) - math.log(self.sigma * SQRT_2PI)


def weighted_normal_pdf(
    z: np.ndarray, means: np.ndarray, weights: np.ndarray, sigma: float
) -> np.ndarray:
    """sum_i weights[i] * N(z; means[i], sigma^2) at every z.

    means must increase; weights of shape (k,) or (k, m) give a result of
    shape (n,) or (n, m), one exp pass for m mixtures on shared means. z, in
    any order, goes in blocks of at most _BLOCK_ELEMENTS terms over the
    components within 39 sigma (the rest are exactly 0); _band_rows flushes
    in-band terms below 2^-1022 only where they cannot move a rounded row."""
    out = np.zeros((len(z),) + weights.shape[1:])
    rows = max(1, _BLOCK_ELEMENTS // len(means))
    for start in range(0, len(z), rows):
        block = z[start : start + rows]
        out[start : start + rows] = _band_rows(
            block[:, None], block.min(), block.max(), means, weights, sigma
        )
    out /= sigma * SQRT_2PI
    return out


def _band_rows(z, z_lo, z_hi, means, weights, sigma):
    """Unscaled kernel rows at z (a column, or a scalar for one row): the
    components within 39 sigma of [z_lo, z_hi], through one matmul.

    exp and the matmul are up to 100x slower on subnormals. Blocks of 2+
    rows (one row has too few such lanes to gain) with a lane past
    _FLUSH_SIGMAS set lanes with exponents below _LOG_DBL_MIN to 0 before
    and after exp. A row's flushed terms sum to under 2^-1022 of its band
    weight sum, 2^-122 of a row at _FLUSH_FLOOR, far below half its last
    bit. Rows below the floor in either column are redone exactly, unflushed."""
    band = _BAND_SIGMAS * sigma
    lo, hi = np.searchsorted(means, [z_lo - band, z_hi + band])
    means, weights = means[lo:hi], weights[lo:hi]
    t = z - means[None, :]
    t /= sigma
    t *= t
    t *= -0.5
    reach = _FLUSH_SIGMAS * sigma
    if len(t) == 1 or lo == hi or max(z_hi - means[0], means[-1] - z_lo) <= reach:
        return np.exp(t, out=t) @ weights
    far = t < _LOG_DBL_MIN
    np.copyto(t, 0.0, where=far)
    np.copyto(np.exp(t, out=t), 0.0, where=far)
    rows = t @ weights
    low = (rows < _FLUSH_FLOOR * weights.sum(axis=0)).reshape(len(rows), -1).any(axis=1)
    if low.any():
        rows[low] = (np.exp(-0.5 * ((z - means[None, :]) / sigma) ** 2) @ weights)[low]
    return rows


@dataclass(frozen=True)
class HockeyStickQuery:
    """One divergence evaluation D_alpha(numerator || denominator).

    The numerator must be a probability mixture. The denominator may be
    sub-probability (mass in (0, alpha]): the bound derivations compare
    against composite denominators whose mass is below one, and
    renormalizing would change the divergence. Both share sigma; weights
    holds num and alpha * den weights at means, the union of their means.
    """

    alpha: float
    numerator: GaussianMixture1D
    denominator: GaussianMixture1D
    means: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or alpha < 1.0:
            raise DomainError(f"alpha must be >= 1, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        num, den = self.numerator, self.denominator
        if abs(num.total_mass - 1.0) > 1e-12:
            raise DomainError(f"numerator mass {num.total_mass} is not 1 within 1e-12")
        if not 0.0 < den.total_mass <= alpha + 1e-12:
            raise DomainError(
                f"denominator mass {den.total_mass} outside (0, alpha={alpha}]"
            )
        if abs(den.sigma - num.sigma) > 1e-12 * max(1.0, num.sigma):
            raise DomainError("numerator and denominator must share sigma")
        means, slot = np.unique(
            np.concatenate([num.means, den.means]), return_inverse=True
        )
        weights = np.zeros((means.size, 2))
        weights[slot[: num.means.size], 0] = num.weights
        weights[slot[num.means.size :], 1] = alpha * den.weights
        for name, array in (("means", means), ("weights", weights)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def terms(self, z):
        """(num(z), alpha * den(z)), from one density pass over both.

        Their difference is the signed integrand; their sum is the local
        magnitude that cancellation noise in the difference scales with.
        A scalar z takes weighted_normal_pdf's one-row path, without its loop.
        """
        sigma = self.numerator.sigma
        if np.ndim(z) == 0:
            z = float(z)
            row = _band_rows(z, z, z, self.means, self.weights, sigma)
            row /= sigma * SQRT_2PI
            return float(row[0, 0]), float(row[0, 1])
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        out = weighted_normal_pdf(z_arr, self.means, self.weights, sigma)
        return out[:, 0], out[:, 1]

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


def mix(parts: Sequence[tuple[float, GaussianMixture1D]]) -> GaussianMixture1D:
    """Convex (or conic) combination of mixtures sharing one sigma.

    Components at exactly equal means merge by weight addition, in the
    order the parts are given; zero-weight components are removed.
    """
    if not parts:
        raise DomainError("mix needs at least one part")
    sigma = parts[0][1].sigma
    used = []
    for coeff, mixture in parts:
        coeff = float(coeff)
        if coeff < 0.0:
            raise DomainError(f"mix coefficients must be nonnegative, got {coeff}")
        if coeff == 0.0:
            continue
        if abs(mixture.sigma - sigma) > 1e-12 * max(1.0, sigma):
            raise DomainError("mixtures in a mix must share sigma")
        used.append((coeff, mixture))
    if not used:
        raise DomainError("mixture needs at least one nonzero component")
    means, slot = np.unique(
        np.concatenate([mixture.means for _, mixture in used]), return_inverse=True
    )
    weights = np.bincount(
        slot, np.concatenate([coeff * mixture.weights for coeff, mixture in used])
    )
    keep = weights != 0.0
    return GaussianMixture1D(means[keep], weights[keep], sigma)


def binomial_log_weights(d: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Log Binom(d, q) pmf over the kept support.

    Returns (indices, log_weights) with entries below the representable
    density range removed. Evaluated through log-gamma, and only over the
    O(sqrt(d)) counts near dq that can clear the threshold, so d in the
    millions is fine.
    """
    if d < 0:
        raise DomainError(f"d must be nonnegative, got {d}")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q}")
    if d == 0 or q == 0.0:
        return np.array([0]), np.array([0.0])
    if q == 1.0:
        return np.array([d]), np.array([0.0])
    # Hoeffding: P(X = i) <= exp(-2 (i - dq)^2 / d), so every count with
    # (i - dq)^2 > 350 d weighs below e^-700, under the drop threshold
    radius = math.sqrt(350.0 * d)
    i = np.arange(max(0, math.ceil(d * q - radius)), min(d, math.floor(d * q + radius)) + 1)
    logw = (
        gammaln(d + 1.0)
        - gammaln(i + 1.0)
        - gammaln(d - i + 1.0)
        + i * math.log(q)
        + (d - i) * math.log1p(-q)
    )
    keep = logw >= math.log(WEIGHT_DROP_THRESHOLD)
    return i[keep], logw[keep]


def round_mixtures(
    params: "SamplingParams", *branch_weights: tuple[float, float, float]
) -> tuple[GaussianMixture1D, ...]:
    """One round's output distributions, one per branch weight triple.

    The triple (absent, unsampled, sampled) weighs the three outcomes for
    the client holding the target element: it stays out of the round
    (N(0, s^2)); it takes part without sampling the element
    (sum_i w_i N(iC, s^2)); or it samples it (sum_i w_i N((i+1)C, s^2)).
    w_i is the Binom(d, q) probability that i of its d other elements are
    sampled. Weights below 1e-300 are dropped and the rest renormalized.
    Every branch sits on the lattice kC, so equal means coincide exactly;
    zero-weight lattice points are removed. GaussianMixture1D's checks are
    skipped: given finite nonnegative triples and a finite top lattice
    point, sorted means and finite positive weights hold by construction.
    """
    idx, logw = binomial_log_weights(params.d, params.q)
    w = np.exp(logw)
    w = w / w.sum()
    if not math.isfinite(float(idx[-1] + 1) * params.C):
        raise DomainError("mixture components must be finite")
    if not all(math.isfinite(sum(t)) and min(t) >= 0.0 for t in branch_weights):
        raise DomainError(f"branch weights must be finite and nonnegative: {branch_weights}")
    means = np.arange(idx[-1] + 2) * params.C
    mixtures = []
    for absent, unsampled, sampled in branch_weights:
        weights = np.zeros(means.size)
        weights[0] = absent
        weights[idx] += unsampled * w
        weights[idx + 1] += sampled * w
        keep = weights != 0.0
        if not keep.any():
            raise DomainError("mixture needs at least one nonzero component")
        mixture = object.__new__(GaussianMixture1D)
        mixture._store(means[keep], weights[keep], params.sigma)
        mixtures.append(mixture)
    return tuple(mixtures)


def _scan_grid(query: HockeyStickQuery) -> np.ndarray:
    """hockey_stick's sign-scan points over the mixtures' 12-sigma support,
    whose ends are the first and last points. Spaced at most
    sigma / SCAN_POINTS_PER_SIGMA apart, unless that takes more than
    HOCKEY_STICK_SCAN_POINTS points; then exactly that many."""
    sigma = query.numerator.sigma
    pad = 12.0 * sigma
    lo, hi = float(query.means[0]) - pad, float(query.means[-1]) + pad
    points = 1 + math.ceil(SCAN_POINTS_PER_SIGMA * (hi - lo) / sigma)
    return np.linspace(lo, hi, min(HOCKEY_STICK_SCAN_POINTS, points))


def hockey_stick(query: HockeyStickQuery) -> float:
    """D_alpha(num || den) = integral of [num(z) - alpha * den(z)]_+ dz.

    The signed difference is scanned for sign changes over the mixtures'
    12-sigma support (_scan_grid), and find_root_bracketed refines each
    boundary, starting from the scan's values at its bracket's ends. The
    boundaries cut the support into pieces of alternating sign. The clamped
    integrand is integrated only over the pieces the scan found positive,
    each at its width's share of DEFAULT_ABS_TOL, so the error budgets sum
    to DEFAULT_ABS_TOL; with no positive piece the result is 0 and no
    quadrature runs.

    That trusts a scan spaced sigma/10 or finer. A scan of
    HOCKEY_STICK_SCAN_POINTS points may be coarser (9.06 points per sigma
    at means 0..101, sigma 0.5), so there the whole support is one piece,
    and each bracket's ends are evaluated afresh: scalar kernel rows can
    differ from the scan's blocked ones in the last bit. Every boundary and
    every component mean is a break point, so no GK15 node set falls
    between narrow bumps (sigma far below their spacing); all break points
    come from the pair, none from find_z_star. Clamped to [0, 1].
    """
    grid = _scan_grid(query)
    values = query.signed(grid)
    positive = values > 0.0
    flips = np.nonzero(positive[:-1] != positive[1:])[0]
    capped = len(grid) == HOCKEY_STICK_SCAN_POINTS

    def boundary(i: int) -> float:
        lo, hi = float(grid[i]), float(grid[i + 1])
        known = {} if capped else {lo: float(values[i]), hi: float(values[i + 1])}
        return find_root_bracketed(
            lambda z: known[z] if z in known else query.signed(z), lo, hi
        ).root

    boundaries = [boundary(i) for i in flips]
    if capped:
        pieces = [(float(grid[0]), float(grid[-1]))]
    else:
        edges = [float(grid[0]), *boundaries, float(grid[-1])]
        signs = positive[np.concatenate([[0], flips + 1])]
        pieces = [(a, b) for a, b, up in zip(edges, edges[1:], signs) if up and a < b]
    if not pieces:
        return 0.0

    def clamped(z: np.ndarray) -> np.ndarray:
        return np.maximum(query.signed(z), 0.0)

    breaks = boundaries + query.means.tolist()
    width = sum(b - a for a, b in pieces)
    value = 0.0
    for a, b in pieces:
        tol = DEFAULT_ABS_TOL * (b - a) / width
        value += integrate_adaptive(clamped, a, b, abs_tol=tol, break_points=breaks).value
    return min(1.0, max(0.0, value))


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
    """The aligned pair for one round of the sampled Gaussian protocol.

    Every one of the client's d other elements has gradient +C. xi mixes the
    three participation outcomes for the client holding the differing
    element (not participating; participating without the element;
    participating with it); xi_prime is the same client without the element.
    Main is their exact hockey-stick divergence at e^eps. The pair is one
    valid neighbouring pair, not the worst case over all of them.
    """
    p, q = params.p, params.q
    return round_mixtures(params, (1.0 - p, p * (1.0 - q), p * q), (1.0 - p, p, 0.0))


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
