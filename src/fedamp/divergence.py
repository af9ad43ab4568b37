"""Equal-variance Gaussian mixtures and hockey-stick divergences.

Every distribution the accounting schemes compare is a univariate Gaussian
mixture whose components share one standard deviation. This module gives
that family a canonical value type, builds one round's output mixtures on
the lattice kC that Poisson subsampling produces, gives a mixture pair its
densities, log likelihood ratio, exact tails and hockey-stick divergence
(by adaptive quadrature), and checks the advanced-joint-convexity identity
linking a mixture divergence to its conditional parts.

Divergence quadrature runs at 1e-13 absolute tolerance, several orders
below the delta magnitudes the accountant certifies. A pair has one sigma
and one table, num and alpha * den weights on the union of its means: its
densities (one blocked kernel pass), scans and tails read the table.
The sign scan ahead of the quadrature is sized by sigma: its spacing is at
most sigma / SCAN_POINTS_PER_SIGMA. round_mixtures records the lattice step
C on every mixture it builds, so a pair of them is scanned on a lattice of
its own by one Toeplitz product of its coefficients with precomputed
Gaussian taps, with no point cap up to _LATTICE_MAX_POINTS points; small
lattice pairs and all hand-built pairs take the kernel scan, on at most
HOCKEY_STICK_SCAN_POINTS points. The quadrature integrates only the pieces
between sign boundaries that the scan finds positive, or the whole 12-sigma
support where the point cap leaves the scan coarser than that spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.special import gammaln, ndtr

from .numerics import DomainError, Rule, checked, find_root_bracketed, integrate_adaptive

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
# Lattice sign scans: at most this many points, and only for pairs whose
# kernel scan is capped or takes at least this many (point x mean) terms.
_LATTICE_MAX_POINTS = 1 << 16
_LATTICE_MIN_TERMS = 1 << 14


@dataclass(frozen=True)
class GaussianMixture1D:
    """Mixture of Gaussians N(mean_i, sigma^2) with a shared sigma.

    Means are strictly increasing and weights nonnegative. Total mass is
    usually 1 but sub-probability mixtures are allowed, because the
    accounting bounds compare against denominators of mass below one.
    log_weights is log(weights), -inf at zero weights, computed once.
    step is the lattice step C where round_mixtures built the mixture, so
    means == k * step exactly for integers k; None for every other mixture.
    """

    means: np.ndarray
    weights: np.ndarray
    sigma: float
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    step: float | None = field(init=False, repr=False, compare=False)

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
        sigma = checked("sigma", self.sigma, Rule.POSITIVE)
        total = float(weights.sum())
        if total <= 0.0:
            raise DomainError("mixture must carry positive total mass")
        self._store(means.copy(), weights.copy(), sigma, None)

    def _store(self, means: np.ndarray, weights: np.ndarray, sigma: float, step) -> None:
        """Set the fields from valid arrays that no one else holds."""
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights)
        for name, array in (("means", means), ("weights", weights), ("log_weights", log_weights)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "step", step)

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

    means must increase; weights of shape (k, m) give a result of shape
    (n, m), one exp pass for m mixtures on shared means. z, in any order,
    goes in blocks of at most _BLOCK_ELEMENTS terms over the components
    within 39 sigma (the rest are exactly 0); _band_rows flushes in-band
    terms below 2^-1022 only where they cannot move a rounded row."""
    out = np.zeros((len(z), weights.shape[1]))
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
    low = (rows < _FLUSH_FLOOR * weights.sum(axis=0)).any(axis=1)
    if low.any():
        rows[low] = (np.exp(-0.5 * ((z - means[None, :]) / sigma) ** 2) @ weights)[low]
    return rows


@dataclass(frozen=True)
class HockeyStickQuery:
    """One divergence evaluation D_alpha(numerator || denominator).

    The numerator must be a probability mixture. The denominator may be
    sub-probability (mass in (0, alpha]): the bound derivations compare
    against composite denominators whose mass is below one, and
    renormalizing would change the divergence. Both share sigma exactly;
    weights holds num and alpha * den weights at means, their union.
    """

    alpha: float
    numerator: GaussianMixture1D
    denominator: GaussianMixture1D
    sigma: float = field(init=False, repr=False, compare=False)
    means: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = checked("alpha", self.alpha, Rule.AT_LEAST_ONE)
        object.__setattr__(self, "alpha", alpha)
        num, den = self.numerator, self.denominator
        if abs(num.total_mass - 1.0) > 1e-12:
            raise DomainError(f"numerator mass {num.total_mass} is not 1 within 1e-12")
        if not 0.0 < den.total_mass <= alpha + 1e-12:
            raise DomainError(
                f"denominator mass {den.total_mass} outside (0, alpha={alpha}]"
            )
        if den.sigma != num.sigma:
            raise DomainError("numerator and denominator must share sigma")
        object.__setattr__(self, "sigma", num.sigma)
        means = np.unique(np.concatenate([num.means, den.means]))
        weights = np.zeros((means.size, 2))
        weights[np.searchsorted(means, num.means), 0] = num.weights
        weights[np.searchsorted(means, den.means), 1] = alpha * den.weights
        for name, array in (("means", means), ("weights", weights)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def signed(self, z):
        """num(z) - alpha * den(z), before the positive-part clamp; a scalar z
        takes weighted_normal_pdf's one-row path, without its loop."""
        sigma = self.sigma
        if type(z) is float or np.ndim(z) == 0:
            z = float(z)
            row = _band_rows(z, z, z, self.means, self.weights, sigma)
            row /= sigma * SQRT_2PI
            return float(row[0, 0]) - float(row[0, 1])
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        out = weighted_normal_pdf(z_arr, self.means, self.weights, sigma)
        return out[:, 0] - out[:, 1]

    def log_ratio(self, z: float) -> float:
        """log num(z) - log den(z) - log alpha at a scalar z: the signed
        integrand's sign, without underflow far from the mixtures' means.
        Not on the table: its log-sum-exp would add the terms in another
        order, moving find_z_star's root within its tolerance, and Main's delta."""
        return (
            self.numerator.log_pdf(z)
            - self.denominator.log_pdf(z)
            - math.log(self.alpha)
        )

    def tail(self, z: float) -> float:
        """Exact integral of num - alpha * den over [z, inf): one fsum of
        both table columns times the means' Gaussian survival terms, each
        accurate deep in the tail by ndtr's erfc backend."""
        s = ndtr((self.means - z) / self.sigma)
        return math.fsum(np.concatenate([self.weights[:, 0] * s, -self.weights[:, 1] * s]))


def mix(parts: Sequence[tuple[float, GaussianMixture1D]]) -> GaussianMixture1D:
    """Convex (or conic) combination of mixtures of exactly one sigma.

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
        if mixture.sigma != sigma:
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
    millions is fine. d must be below 2**53: the lattice counts up to d + 1
    must be exact doubles, as _lattice_scan's rint(means / C) needs.
    """
    d = checked("d", d, Rule.COUNT)
    if d + 1 > 2**53:
        raise DomainError(f"d must be below 2**53 for exact lattice counts, got {d:.6g}")
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
    zero-weight lattice points are removed, and each mixture records C as
    its step for the lattice sign scan. GaussianMixture1D's checks are
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
        mixture._store(means[keep], weights[keep], params.sigma, params.C)
        mixtures.append(mixture)
    return tuple(mixtures)


def _window(query: HockeyStickQuery) -> tuple[float, float]:
    """The mixtures' 12-sigma support, (lo, hi), that the sign scans span."""
    pad = 12.0 * query.sigma
    return float(query.means[0]) - pad, float(query.means[-1]) + pad


def _scan_grid(query: HockeyStickQuery) -> np.ndarray:
    """The kernel scan's points over _window, whose ends are the first and
    last points. Spaced at most sigma / SCAN_POINTS_PER_SIGMA apart, unless
    that takes more than HOCKEY_STICK_SCAN_POINTS points; then exactly that
    many."""
    lo, hi = _window(query)
    points = 1 + math.ceil(SCAN_POINTS_PER_SIGMA * (hi - lo) / query.sigma)
    return np.linspace(lo, hi, min(HOCKEY_STICK_SCAN_POINTS, points))


def _lattice_scan(query: HockeyStickQuery):
    """(grid, values): the sign scan of a pair whose mixtures record one
    lattice step s (means k * s, from round_mixtures), or None for any other.

    The grid is _window's ends lo and hi with the points j * h strictly
    between them, h = s / r, r = ceil(SCAN_POINTS_PER_SIGMA * s / sigma),
    so the spacing is at most sigma / SCAN_POINTS_PER_SIGMA. There the
    kernel term of point j and mean k is g(j - k r), g(n) = exp(-(n h /
    sigma)^2 / 2), so the interior values are one Toeplitz product
    (_lattice_product) of the coefficients c_k, num minus alpha * den
    weight, with r decimated tap columns g(u r + phase): one exp per tap,
    not one per term. Taps past _FLUSH_SIGMAS, subnormal or 0, are 0.
    Points whose value is below _FLUSH_FLOOR * sum |c_k|, both ends of
    every sign flip, lo, hi and the neighbours of each take exact `signed`
    values in one call, repeated only while a flip has an end without one.

    A scan of more than _LATTICE_MAX_POINTS points returns None, so no
    array here holds more than about 2 * _LATTICE_MAX_POINTS doubles,
    whatever the means and sigma.
    """
    step = query.numerator.step
    if step is None or step != query.denominator.step:
        return None
    k = np.rint(query.means / step).astype(np.int64)  # exact: the means are fl(k * step)
    sigma = query.sigma
    lo, hi = _window(query)
    # the scan has fewer points than this; it also keeps r finite
    if SCAN_POINTS_PER_SIGMA * (hi - lo) / sigma + (hi - lo) / step > _LATTICE_MAX_POINTS:
        return None
    r = math.ceil(SCAN_POINTS_PER_SIGMA * step / sigma)
    h = step / r
    j_lo, j_hi = math.floor(lo / h), math.ceil(hi / h)
    while j_lo * h <= lo:
        j_lo += 1
    while j_hi * h >= hi:
        j_hi -= 1
    inner = j_hi - j_lo + 1
    rows = -(-inner // r)  # interior point j_lo + row * r + phase
    c = np.zeros(int(k[-1] - k[0]) + 1)
    c[k - k[0]] = query.weights[:, 0] - query.weights[:, 1]
    # tap (u, phase) is g(offset + u r + phase); rows and c indices meet
    # only for u in [1 - c.size, rows - 1], and terms only within the band
    offset = j_lo - int(k[0]) * r
    band = _FLUSH_SIGMAS * sigma / h
    u_lo = max(1 - c.size, math.ceil((-band - offset - (r - 1)) / r))
    u_hi = min(rows - 1, math.floor((band - offset) / r))
    taps = (offset + u_lo * r + np.arange((u_hi - u_lo + 1) * r)) * (h / sigma)
    taps *= taps
    taps *= -0.5
    far = taps < _LOG_DBL_MIN
    np.copyto(np.exp(taps, out=taps), 0.0, where=far)

    grid = np.empty(inner + 2)
    grid[0], grid[-1] = lo, hi
    np.multiply(np.arange(j_lo, j_hi + 1), h, out=grid[1:-1])
    values = np.empty(inner + 2)
    product = _lattice_product(c, taps.reshape(-1, r), u_lo, rows)
    np.divide(product.ravel()[:inner], sigma * SQRT_2PI, out=values[1:-1])
    values[0], values[-1] = values[1], values[-2]
    need = np.abs(values) < _FLUSH_FLOOR * np.abs(c).sum() / (sigma * SQRT_2PI)
    need[0] = need[-1] = True
    flips = _flips(values)
    need[flips] = need[flips + 1] = True
    need[1:-1] |= need[:-2] | need[2:]
    exact = np.zeros(inner + 2, dtype=bool)
    while need.any():
        values[need] = query.signed(grid[need])
        exact |= need
        flips = _flips(values)
        need[:] = False
        need[flips] = need[flips + 1] = True
        need &= ~exact
    return grid, values


def _lattice_product(c: np.ndarray, taps: np.ndarray, u_lo: int, rows: int) -> np.ndarray:
    """out[q, phase] = sum over k of c[k] * taps[q - k - u_lo, phase] (0
    outside taps), for q in [0, rows): the Toeplitz product of _lattice_scan.

    One matrix product, O(rows * r * min(c.size, len(taps))) multiply-adds,
    of the reversed taps with a strided view of the 0-padded c whose row q
    is c[q - u_hi : q - u_lo + 1]; the view copies nothing."""
    rows_t = len(taps)
    u_hi = u_lo + rows_t - 1
    padded = np.zeros(rows + rows_t - 1)
    first, last = max(0, -u_hi), min(c.size, len(padded) - u_hi)
    padded[first + u_hi : last + u_hi] = c[first:last]
    window = np.ndarray((rows, rows_t), float, padded, 0, (padded.itemsize,) * 2)
    return window @ taps[::-1]


def _flips(values: np.ndarray) -> np.ndarray:
    """Indices i where values[i] > 0 and values[i + 1] > 0 differ."""
    positive = values > 0.0
    return np.flatnonzero(positive[:-1] != positive[1:])


def _sign_scan(query: HockeyStickQuery):
    """hockey_stick's sign scan: (grid, values, capped).

    A pair whose mixtures record one lattice step gets _lattice_scan where
    the kernel scan over _scan_grid would be capped or take at least
    _LATTICE_MIN_TERMS (point x mean) terms; below that the kernel scan is
    the cheaper one. Every other pair, and a lattice scan over
    _LATTICE_MAX_POINTS points, gets `signed` on _scan_grid, capped when
    that has HOCKEY_STICK_SCAN_POINTS points."""
    grid = _scan_grid(query)
    capped = len(grid) == HOCKEY_STICK_SCAN_POINTS
    if capped or len(grid) * query.means.size >= _LATTICE_MIN_TERMS:
        scan = _lattice_scan(query)
        if scan is not None:
            return (*scan, False)
    return grid, query.signed(grid), capped


def hockey_stick(query: HockeyStickQuery) -> float:
    """D_alpha(num || den) = integral of [num(z) - alpha * den(z)]_+ dz.

    The signed difference is scanned for sign changes over the mixtures'
    12-sigma support (_sign_scan), and find_root_bracketed refines each
    boundary, starting from the scan's values at its bracket's ends. The
    boundaries cut the support into pieces of alternating sign. The clamped
    integrand is integrated only over the pieces the scan found positive,
    each at its width's share of DEFAULT_ABS_TOL, so the error budgets sum
    to DEFAULT_ABS_TOL; with no positive piece the result is 0 and no
    quadrature runs.

    That trusts a scan spaced sigma/10 or finer. Pairs built by
    round_mixtures, which carry their lattice step, get one with no point
    cap wherever the kernel scan would be capped or costlier (_sign_scan),
    up to _LATTICE_MAX_POINTS points. Other pairs, and lattice pairs past that,
    get the kernel scan of at most HOCKEY_STICK_SCAN_POINTS points. Where
    that cap binds, the scan may be coarser, so the whole support is one
    piece, and each bracket's ends are evaluated afresh: scalar kernel rows
    can differ from the scan's blocked ones in the last bit. Every boundary
    and every component mean is a break point, so no GK15 node set falls
    between narrow bumps (sigma far below their spacing); all break points
    come from the pair, none from find_z_star. Clamped to [0, 1].
    """
    grid, values, capped = _sign_scan(query)
    flips = _flips(values)

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
        signs = values[np.concatenate([[0], flips + 1])] > 0.0
        pieces = [(a, b) for a, b, up in zip(edges, edges[1:], signs) if up and a < b]
    if not pieces:
        return 0.0

    def clamped(z: np.ndarray) -> np.ndarray:
        return np.maximum(query.signed(z), 0.0)

    breaks = np.concatenate([boundaries, query.means])
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
    gamma = checked("gamma", gamma, Rule.PROBABILITY)
    alpha = checked("alpha", alpha, Rule.AT_LEAST_ONE)
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


def seeded_ajc_triples(count: int):
    """Random (mu0, mu1, mu1p, gamma, alpha) cases for identity checks.

    Drawn from seed 7, so deterministic; shared by the test suite and the
    verification command so both exercise the same cases.
    """
    rng = np.random.default_rng(7)
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
