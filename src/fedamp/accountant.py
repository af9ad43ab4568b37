"""Per-round privacy accounting for the sampled Gaussian protocol.

A round releases a Gaussian-noised sum in which a target element appears
only if its client participates (probability p) and then samples it
(probability q). Four schemes certify (eps, delta) for that release:

* Main: the amplified bound. The final eps fixes an inner level eps' via
  eps = log(1 + pq (e^{eps'} - 1)); delta is pq times a hockey-stick
  divergence between binomially weighted Gaussian mixtures, evaluated in
  closed form at the integrand's crossing point z*.
* OnlyLocal (ols): amplification by the local sampling alone (probability
  q); a subsampled Gaussian mechanism bound.
* UpperBound (ub): a closed-form relaxation of Main; same shape as ols at
  a shifted level eps''.
* LowerBound (lb): the subsampled Gaussian bound at probability pq; no
  scheme consistent with the protocol can certify less.

All routines are pure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .divergence import SQRT_2PI, binomial_log_weights, weighted_normal_pdf
from .numerics import (
    DomainError,
    RootResult,
    find_root_bracketed,
    gaussian_mechanism_delta,
    integrate_adaptive,
)

logger = logging.getLogger(__name__)

SIGMA_BRACKET = (1e-3, 1e4)
SIGMA_REL_TOL = 1e-6
EPS_BRACKET = (0.0, 64.0)
EPS_ABS_TOL = 1e-7
Z_SCAN_POINTS = 4096
Z_ROOT_TOL = 1e-12
SIGN_SCAN_POINTS = 10_000
QUADRATURE_ABS_TOL = 1e-12


class CalibrationError(RuntimeError):
    """A calibration target cannot be met inside the search bracket."""


class DegenerateIntegrandError(RuntimeError):
    """The bound integrand never becomes positive inside the scan window."""

    def __init__(self, message: str, window: tuple[float, float], max_value: float):
        super().__init__(message)
        self.window = window
        self.max_value = max_value


class Scheme(Enum):
    MAIN = "main"
    ONLY_LOCAL = "ols"
    UPPER_BOUND = "ub"
    LOWER_BOUND = "lb"
    GAUSSIAN_MECHANISM = "gm"


@dataclass(frozen=True)
class SamplingParams:
    """Protocol parameters for one round.

    p: client participation probability; q: local element sampling
    probability; d: local dataset size excluding the differing element;
    C: clipping norm (per-element sensitivity); sigma: noise standard
    deviation.
    """

    p: float
    q: float
    d: int
    C: float
    sigma: float

    def __post_init__(self) -> None:
        p = float(self.p)
        q = float(self.q)
        C = float(self.C)
        sigma = float(self.sigma)
        if not math.isfinite(p) or not 0.0 < p <= 1.0:
            raise DomainError(f"p must lie in (0, 1], got {self.p}")
        if not math.isfinite(q) or not 0.0 < q <= 1.0:
            raise DomainError(f"q must lie in (0, 1], got {self.q}")
        if isinstance(self.d, bool) or int(self.d) != self.d or self.d < 0:
            raise DomainError(f"d must be a nonnegative integer, got {self.d!r}")
        if not math.isfinite(C) or C <= 0.0:
            raise DomainError(f"C must be positive, got {self.C}")
        if not math.isfinite(sigma) or sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class AmplificationConstants:
    """Derived quantities shared by the Main and UpperBound schemes.

    beta = e^{eps - eps'}; c1 and c2 split the denominator mass between the
    not-participating and participating-without-the-element branches, and
    c1_bar, c2_bar are their beta-tilted versions (c1_bar + c2_bar = 1).
    eps_double_prime = eps' + log(c2_bar) is the UpperBound level.
    """

    eps: float
    eps_prime: float
    eps_double_prime: float
    alpha: float
    alpha_prime: float
    beta: float
    c1: float
    c2: float
    c1_bar: float
    c2_bar: float


@dataclass(frozen=True)
class PrivacyPoint:
    eps: float
    delta: float
    scheme: Scheme

    def __post_init__(self) -> None:
        if not math.isfinite(self.eps) or self.eps < 0.0:
            raise DomainError(f"eps must be finite and >= 0, got {self.eps}")
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError(f"delta must lie in [0, 1], got {self.delta}")


def _constants_from(eps: float, eps_prime: float, params: SamplingParams):
    pq = params.p * params.q
    alpha = math.exp(eps)
    alpha_prime = math.exp(eps_prime)
    if not math.isfinite(alpha_prime):
        raise DomainError(
            f"alpha' overflows for eps={eps} at pq={pq}; target out of range"
        )
    if pq == 1.0:
        beta, c1, c2 = 1.0, 0.0, 1.0
    else:
        beta = math.exp(eps - eps_prime)
        c1 = (1.0 - params.p) / (1.0 - pq)
        c2 = params.p * (1.0 - params.q) / (1.0 - pq)
    c1_bar = (1.0 - beta) * c1
    c2_bar = (1.0 - beta) * c2 + beta
    eps_double_prime = eps_prime + math.log(c2_bar)
    return AmplificationConstants(
        eps=eps,
        eps_prime=eps_prime,
        eps_double_prime=eps_double_prime,
        alpha=alpha,
        alpha_prime=alpha_prime,
        beta=beta,
        c1=c1,
        c2=c2,
        c1_bar=c1_bar,
        c2_bar=c2_bar,
    )


def derive_constants(eps: float, params: SamplingParams) -> AmplificationConstants:
    """Constants for a target final eps; eps = 0 is the no-privacy-loss limit."""
    eps = float(eps)
    if not math.isfinite(eps) or eps < 0.0:
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    pq = params.p * params.q
    if pq == 1.0:
        eps_prime = eps
    else:
        eps_prime = math.log1p(math.expm1(eps) / pq)
    return _constants_from(eps, eps_prime, params)


def _integrand_terms(params: SamplingParams):
    idx, logw = binomial_log_weights(params.d, params.q)
    weights = np.exp(logw)
    weights = weights / weights.sum()
    means_sampled = (idx + 1.0) * params.C
    means_unsampled = idx * params.C
    return weights, means_sampled, means_unsampled


def main_integrand(z, consts: AmplificationConstants, params: SamplingParams):
    """Signed integrand of the Main bound (before the positive-part clamp).

    f(z) = sum_i w_i [N(z, (i+1)C, s^2) - a' c2_bar N(z, iC, s^2)]
           - a' c1_bar N(z, 0, s^2)

    with w_i the Binom(d, q) weights. Vectorized over z.
    """
    weights, means_s, means_u = _integrand_terms(params)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    value = _integrand_values(
        z_arr, weights, means_s, means_u, consts, params.sigma
    )
    if np.ndim(z) == 0:
        return float(value[0])
    return value


def _integrand_values(z, weights, means_s, means_u, consts, sigma, with_scale=False):
    pos = weighted_normal_pdf(z, means_s, weights, sigma)
    neg = consts.alpha_prime * consts.c2_bar * weighted_normal_pdf(
        z, means_u, weights, sigma
    )
    if consts.c1_bar != 0.0:
        t = z / sigma
        base = (
            consts.alpha_prime
            * consts.c1_bar
            * np.exp(-0.5 * t * t)
            / (sigma * SQRT_2PI)
        )
    else:
        base = np.zeros_like(pos)
    value = pos - neg - base
    if with_scale:
        # Cancellation noise lives at the local magnitude of the terms
        # being subtracted, so sign classification must compare against
        # this scale, not the integrand's global maximum.
        return value, pos + neg + base
    return value


def _scan_window(consts: AmplificationConstants, params: SamplingParams):
    lo = -12.0 * params.sigma
    hi = (
        (params.d + 1) * params.C
        + 12.0 * params.sigma
        + params.sigma**2 * consts.eps_prime / params.C
    )
    return lo, hi


def find_z_star(
    consts: AmplificationConstants, params: SamplingParams
) -> RootResult:
    """Crossing point z* above which the Main integrand is positive.

    Scans [-12s, (d+1)C + 12s + s^2 eps'/C] for the transition from
    clearly-negative to clearly-positive values (a relative noise floor
    discards cancellation dust and underflowed zeros), then refines the
    bracket. The window is doubled and the grid densified on a failed scan
    before the degenerate regime is reported.
    """
    weights, means_s, means_u = _integrand_terms(params)

    def f_vec(z: np.ndarray) -> np.ndarray:
        return _integrand_values(z, weights, means_s, means_u, consts, params.sigma)

    def f_scalar(z: float) -> float:
        return float(f_vec(np.array([z]))[0])

    lo, hi = _scan_window(consts, params)
    width = hi - lo
    points = Z_SCAN_POINTS
    max_seen = 0.0
    for attempt in range(3):
        grid = np.linspace(lo, hi, points)
        values, scales = _integrand_values(
            grid, weights, means_s, means_u, consts, params.sigma, with_scale=True
        )
        # the relative floor alone vanishes where the local scale itself
        # underflows, letting denormal dust pass as sign information
        floors = np.maximum(1e-13 * scales, 1e-300)
        negatives = np.nonzero(values < -floors)[0]
        positives = np.nonzero(values > floors)[0]
        max_seen = max(max_seen, float(values.max(initial=-math.inf)))
        if positives.size:
            if negatives.size == 0:
                # Positive already at the window edge: the negative side
                # underflowed; treat the first positive point as the start.
                first = int(positives[0])
                z0 = float(grid[max(first - 1, 0)])
                return RootResult(z0, float(values[max(first - 1, 0)]), (z0, z0))
            last_neg = int(negatives[-1])
            after = positives[positives > last_neg]
            if after.size:
                a = float(grid[last_neg])
                b = float(grid[int(after[0])])
                return find_root_bracketed(f_scalar, a, b, tol=Z_ROOT_TOL)
        hi = hi + width * (2.0**attempt)
        points *= 4
    raise DegenerateIntegrandError(
        f"no crossing inside [{lo}, {hi}]: integrand max {max_seen:.3e}",
        window=(lo, hi),
        max_value=max_seen,
    )


def _survival(x: np.ndarray) -> np.ndarray:
    # P(N(0,1) > x), tail-accurate via ndtr's erfc backend.
    return ndtr(-x)


def _delta_main_at(consts: AmplificationConstants, params: SamplingParams):
    """(delta, z_star) for the Main scheme at fully derived constants."""
    pq = params.p * params.q
    try:
        root = find_z_star(consts, params)
    except DegenerateIntegrandError as exc:
        logger.debug("main bound degenerate: %s", exc)
        return 0.0, None
    z_star = root.root
    weights, means_s, means_u = _integrand_terms(params)
    sf_sampled = _survival((z_star - means_s) / params.sigma)
    sf_unsampled = _survival((z_star - means_u) / params.sigma)
    scale = consts.alpha_prime * consts.c2_bar
    terms = weights * (sf_sampled - scale * sf_unsampled)
    tail = math.fsum(terms)
    if consts.c1_bar != 0.0:
        tail -= (
            consts.alpha_prime
            * consts.c1_bar
            * float(_survival(np.array([z_star / params.sigma]))[0])
        )
    delta = pq * tail
    if delta < 0.0:
        logger.debug("clamping raw main delta %.3e to 0", delta)
        delta = 0.0
    return min(delta, 1.0), z_star


def delta_main(params: SamplingParams, eps: float) -> PrivacyPoint:
    """Amplified bound: delta at the target eps for the full protocol.

    Evaluates the closed form at z* from find_z_star, pairing each
    positive CDF term with its scaled negative partner before compensated
    summation. The degenerate regime (integrand never positive) yields 0.
    """
    consts = derive_constants(eps, params)
    delta, _ = _delta_main_at(consts, params)
    return PrivacyPoint(eps=float(eps), delta=delta, scheme=Scheme.MAIN)


def delta_main_quadrature(params: SamplingParams, eps: float) -> float:
    """Quadrature oracle for delta_main: integrates the clamped integrand.

    Independent of the closed-form tail sums; shares only the integrand
    definition. Used by verification and the acceptance suite.
    """
    consts = derive_constants(eps, params)
    weights, means_s, means_u = _integrand_terms(params)

    def clamped(z: np.ndarray) -> np.ndarray:
        return np.maximum(
            _integrand_values(z, weights, means_s, means_u, consts, params.sigma),
            0.0,
        )

    lo, hi = _scan_window(consts, params)
    breaks = []
    try:
        breaks.append(find_z_star(consts, params).root)
    except DegenerateIntegrandError:
        pass
    result = integrate_adaptive(
        clamped, lo, hi, abs_tol=QUADRATURE_ABS_TOL, break_points=breaks
    )
    return min(1.0, max(0.0, params.p * params.q * result.value))


def count_integrand_sign_changes(params: SamplingParams, eps: float) -> int:
    """Sign changes of the Main integrand on a dense scan of its window.

    Values within a relative noise floor of zero (cancellation dust,
    underflowed tails) carry no sign information and are skipped.
    """
    consts = derive_constants(eps, params)
    weights, means_s, means_u = _integrand_terms(params)
    lo, hi = _scan_window(consts, params)
    grid = np.linspace(lo, hi, SIGN_SCAN_POINTS)
    values, scales = _integrand_values(
        grid, weights, means_s, means_u, consts, params.sigma, with_scale=True
    )
    signs = np.sign(values[np.abs(values) > 1e-13 * scales])
    if signs.size == 0:
        return 0
    return int(np.count_nonzero(signs[:-1] != signs[1:]))


def delta_only_local(q: float, sigma: float, C: float, eps: float) -> PrivacyPoint:
    """Amplification by local sampling only (participation ignored).

    eps' = log(1 + (e^eps - 1)/q), delta = q * delta_G(eps', sigma, C).
    """
    q = float(q)
    if not math.isfinite(q) or not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    eps = float(eps)
    if not math.isfinite(eps) or eps < 0.0:
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    eps_local = math.log1p(math.expm1(eps) / q)
    delta = q * gaussian_mechanism_delta(eps_local, sigma, C)
    return PrivacyPoint(eps=eps, delta=min(delta, 1.0), scheme=Scheme.ONLY_LOCAL)


def delta_upper_bound(params: SamplingParams, eps: float) -> PrivacyPoint:
    """Closed-form relaxation of the Main bound.

    delta = pq * delta_G(eps'', sigma, C) at the tilted level
    eps'' = eps' + log(c2_bar).
    """
    consts = derive_constants(eps, params)
    delta = (
        params.p
        * params.q
        * gaussian_mechanism_delta(consts.eps_double_prime, params.sigma, params.C)
    )
    return PrivacyPoint(eps=float(eps), delta=min(delta, 1.0), scheme=Scheme.UPPER_BOUND)


def delta_lower_bound(params: SamplingParams, eps: float) -> PrivacyPoint:
    """Subsampled Gaussian bound at the joint probability pq.

    The protocol includes the differing element with probability pq, so no
    valid accounting can certify a smaller delta at the same eps.
    """
    inner = delta_only_local(params.p * params.q, params.sigma, params.C, eps)
    return PrivacyPoint(eps=inner.eps, delta=inner.delta, scheme=Scheme.LOWER_BOUND)


def delta_for_scheme(
    scheme: Scheme, params: SamplingParams, eps: float
) -> PrivacyPoint:
    if scheme is Scheme.MAIN:
        return delta_main(params, eps)
    if scheme is Scheme.ONLY_LOCAL:
        point = delta_only_local(params.q, params.sigma, params.C, eps)
        return point
    if scheme is Scheme.UPPER_BOUND:
        return delta_upper_bound(params, eps)
    if scheme is Scheme.LOWER_BOUND:
        return delta_lower_bound(params, eps)
    if scheme is Scheme.GAUSSIAN_MECHANISM:
        delta = gaussian_mechanism_delta(eps, params.sigma, params.C)
        return PrivacyPoint(
            eps=float(eps), delta=delta, scheme=Scheme.GAUSSIAN_MECHANISM
        )
    raise DomainError(f"unknown scheme {scheme!r}")


def _bisect_monotone(
    delta_at: Callable[[float], float],
    name: str,
    bracket: tuple[float, float],
    delta_target: float,
    to_coord: Callable[[float], float],
    from_coord: Callable[[float], float],
    too_wide: Callable[[float, float], bool],
) -> float:
    """Smallest x in the bracket with delta_at(x) <= delta_target, for delta
    nonincreasing in x. The endpoints are evaluated at the raw bracket values
    (from_coord(to_coord(x)) need not equal x); the bisection runs on
    to_coord(x) while too_wide holds. Raises CalibrationError if the
    endpoints are not ordered or the target is unreachable at the top."""
    lo, hi = bracket
    delta_lo = delta_at(lo)
    delta_hi = delta_at(hi)
    if delta_lo < delta_hi:
        raise CalibrationError(
            f"delta not monotone over {name} bracket [{lo}, {hi}]: "
            f"{delta_lo:.3e} at lo vs {delta_hi:.3e} at hi"
        )
    if delta_hi > delta_target:
        raise CalibrationError(
            f"delta {delta_hi:.3e} at {name}={hi} still above target "
            f"{delta_target:.3e}; target unreachable in bracket"
        )
    if delta_lo <= delta_target:
        return lo
    coord_lo, coord_hi = to_coord(lo), to_coord(hi)
    while too_wide(coord_lo, coord_hi):
        mid = 0.5 * (coord_lo + coord_hi)
        if delta_at(from_coord(mid)) <= delta_target:
            coord_hi = mid
        else:
            coord_lo = mid
    return from_coord(coord_hi)


def calibrate_sigma(
    scheme: Scheme,
    *,
    p: float,
    q: float,
    d: int,
    C: float,
    eps_target: float,
    delta_target: float,
    sigma_bracket: tuple[float, float] = SIGMA_BRACKET,
) -> float:
    """Smallest sigma in the bracket certifying (eps_target, delta_target).

    Bisects in log space on the empirically verified monotone nonincrease
    of delta in sigma. Raises CalibrationError if the target is unreachable
    at the top of the bracket or the endpoints are not ordered.
    """
    if not (math.isfinite(eps_target) and eps_target > 0.0):
        raise DomainError(f"eps_target must be positive, got {eps_target}")
    if not (math.isfinite(delta_target) and 0.0 < delta_target < 1.0):
        raise DomainError(f"delta_target must lie in (0, 1), got {delta_target}")

    def delta_at(sigma: float) -> float:
        params = SamplingParams(p=p, q=q, d=d, C=C, sigma=sigma)
        return delta_for_scheme(scheme, params, eps_target).delta

    return _bisect_monotone(
        delta_at, "sigma", sigma_bracket, delta_target, math.log, math.exp,
        lambda lo, hi: math.exp(hi - lo) > 1.0 + SIGMA_REL_TOL,
    )


def eps_for_delta(
    scheme: Scheme, params: SamplingParams, delta_target: float
) -> float:
    """Smallest eps in EPS_BRACKET with scheme-delta(eps) <= delta_target."""
    if not (math.isfinite(delta_target) and 0.0 < delta_target < 1.0):
        raise DomainError(f"delta_target must lie in (0, 1), got {delta_target}")

    def delta_at(eps: float) -> float:
        return delta_for_scheme(scheme, params, eps).delta

    return _bisect_monotone(
        delta_at, "eps", EPS_BRACKET, delta_target, float, float,
        lambda lo, hi: hi - lo > EPS_ABS_TOL,
    )


class SweepVariable(Enum):
    SIGMA = "sigma"
    EPS = "eps"
    DELTA = "delta"
    Q_FIXED_PQ = "q-fixed-pq"
    D = "d"


@dataclass(frozen=True)
class SweepRow:
    """One (scheme, grid value) result; error is set when the point failed."""

    scheme: Scheme
    p: float | None
    q: float | None
    d: int | None
    C: float | None
    sigma: float | None
    eps: float | None
    delta: float | None
    z_star: float | None = None
    error: str | None = None


_ROW_ERRORS = (
    DomainError,
    CalibrationError,
    DegenerateIntegrandError,
    ValueError,
    OverflowError,
)


def _sweep_point(
    scheme: Scheme,
    value: float,
    variable: SweepVariable,
    fixed: dict,
) -> SweepRow:
    p = fixed.get("p")
    q = fixed.get("q")
    d = fixed.get("d")
    C = fixed.get("C")
    sigma = fixed.get("sigma")
    eps = fixed.get("eps")
    delta = fixed.get("delta")
    if variable is SweepVariable.SIGMA:
        sigma = value
    elif variable is SweepVariable.EPS:
        eps = value
    elif variable is SweepVariable.DELTA:
        delta = value
    elif variable is SweepVariable.D:
        d = value
    elif variable is SweepVariable.Q_FIXED_PQ:
        q = value
        pq = fixed["pq_product"]
        p = pq / q if q > 0 else math.inf

    def fail(message: str) -> SweepRow:
        return SweepRow(
            scheme=scheme,
            p=p,
            q=q,
            d=None if d is None else int(d) if float(d).is_integer() else d,
            C=C,
            sigma=sigma,
            eps=eps,
            delta=delta,
            error=message,
        )

    try:
        if variable is SweepVariable.D and (d is None or float(d) != int(d)):
            raise DomainError(f"d grid values must be integers, got {d!r}")
        params = SamplingParams(p=p, q=q, d=int(d), C=C, sigma=sigma)
    except _ROW_ERRORS as exc:
        return fail(str(exc))

    try:
        z_star = None
        if delta is not None and eps is None:
            eps = eps_for_delta(scheme, params, delta)
            delta_out = delta
            if scheme is Scheme.MAIN:
                _, z_star = _delta_main_at(derive_constants(eps, params), params)
        elif scheme is Scheme.MAIN:
            delta_out, z_star = _delta_main_at(derive_constants(eps, params), params)
        else:
            delta_out = delta_for_scheme(scheme, params, eps).delta
        return SweepRow(
            scheme=scheme,
            p=params.p,
            q=params.q,
            d=params.d,
            C=params.C,
            sigma=params.sigma,
            eps=eps,
            delta=delta_out,
            z_star=z_star,
        )
    except _ROW_ERRORS as exc:
        return fail(str(exc))


def sweep(
    schemes: Sequence[Scheme],
    variable: SweepVariable,
    values: Sequence[float],
    **fixed,
) -> list[SweepRow]:
    """Evaluate each scheme over a grid of one swept variable.

    The swept variable replaces the corresponding fixed parameter. For eps
    and delta sweeps the grid value is the target and the other quantity is
    computed; for sigma, d and q-fixed-pq sweeps exactly one of eps/delta
    must be fixed (the fixed one is the target, the other is computed).
    Invalid grid points become rows with the error field set; the sweep
    continues. Rows are emitted scheme-major in grid order.
    """
    if len(values) == 0:
        raise DomainError("sweep needs a nonempty grid")
    if variable in (SweepVariable.EPS, SweepVariable.DELTA):
        if fixed.get("eps") is not None or fixed.get("delta") is not None:
            raise DomainError(
                f"{variable.value} sweep takes its target from the grid; "
                "fixed eps/delta must not be set"
            )
    else:
        have_eps = fixed.get("eps") is not None
        have_delta = fixed.get("delta") is not None
        if have_eps == have_delta:
            raise DomainError(
                f"{variable.value} sweep needs exactly one of eps/delta fixed"
            )
    if variable is SweepVariable.Q_FIXED_PQ and fixed.get("pq_product") is None:
        raise DomainError("q-fixed-pq sweep needs pq_product")

    return [
        _sweep_point(scheme, float(value), variable, fixed)
        for scheme in schemes
        for value in values
    ]
