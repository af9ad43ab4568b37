"""Per-round privacy accounting for the sampled Gaussian protocol.

A round releases a Gaussian-noised sum in which a target element appears
only if its client participates (probability p) and then samples it
(probability q). Four schemes give its delta at eps. ub and ols are
certificates (CERTIFIED_SCHEMES), bounds on the worst case over
neighbouring datasets; main and lb each evaluate one pair and fall below it.

* Main: the amplified bound. delta is pq times a hockey-stick divergence,
  at alpha' = e^{eps'}, between binomially weighted Gaussian mixtures,
  evaluated in closed form above the integrand's single crossing z*, the
  root of the pair's log likelihood ratio less log alpha'.
* OnlyLocal (ols): amplification by the local sampling alone (probability
  q); a subsampled Gaussian mechanism bound. At q = 1 it is the unsampled
  Gaussian mechanism.
* UpperBound (ub): p times OnlyLocal, a closed-form relaxation of Main.
* LowerBound (lb): the subsampled Gaussian bound at probability pq; no
  scheme consistent with the protocol can certify less.

Subsampling at rate r turns a mechanism that meets eps' = amplified_eps(eps, r)
into one that meets eps: main and lb run at r = pq, ols and ub at r = q.
At r = 1, eps' is eps itself. Every certified delta is delta_only_local's.

All routines are pure. main_pair is memoized with one entry on its frozen
inputs, so the closed form and both oracles at one (params, eps) share one
read-only pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .divergence import (
    HockeyStickQuery,
    binomial_log_weights,  # noqa: F401  (only perfbench's tracer uses it here)
    hockey_stick,
    round_mixtures,
    weighted_normal_pdf,  # noqa: F401  (only perfbench's tracer uses it here)
)
from .numerics import (
    BracketError,
    DomainError,
    RootResult,
    Rule,
    checked,
    find_root_bracketed,
    gaussian_mechanism_delta,
    integrate_adaptive,  # noqa: F401  (only perfbench's tracer uses it here)
)

SIGMA_BRACKET = (1e-3, 1e4)
EPS_BRACKET = (0.0, 64.0)
# The resolution each inversion answer meets: delta exceeds its target at
# sigma / (1 + SIGMA_REL_TOL) below a calibrated sigma, and at eps - EPS_ABS_TOL
# below an inverted eps (unless the answer is the bracket floor).
SIGMA_REL_TOL = 1e-6
EPS_ABS_TOL = 1e-7


class CalibrationError(RuntimeError):
    """A calibration target cannot be met inside the search bracket."""


class DegenerateIntegrandError(RuntimeError):
    """The bound integrand has no sign change on find_z_star's window, or
    its tail above the crossing is negative beyond rounding."""


class Scheme(Enum):
    MAIN = "main"
    ONLY_LOCAL = "ols"
    UPPER_BOUND = "ub"
    LOWER_BOUND = "lb"


# Schemes whose delta bounds the worst case over neighbouring datasets.
# main and lb each evaluate one pair and fall below that worst case.
CERTIFIED_SCHEMES = frozenset({Scheme.UPPER_BOUND, Scheme.ONLY_LOCAL})


_PARAM_RULES = {"p": Rule.PROBABILITY, "q": Rule.PROBABILITY, "d": Rule.COUNT,
                "C": Rule.POSITIVE, "sigma": Rule.POSITIVE}


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
        for name, rule in _PARAM_RULES.items():
            object.__setattr__(self, name, checked(name, getattr(self, name), rule))


@dataclass(frozen=True)
class PrivacyPoint:
    """A scheme's delta; z_star is Main's crossing, None elsewhere."""

    delta: float
    z_star: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError(f"delta must lie in [0, 1], got {self.delta}")


def amplified_eps(eps: float, rate: float) -> float:
    """The level eps' = log(1 + (e^eps - 1)/rate) at which a mechanism run on a
    rate-`rate` subsample meets eps overall (Balle, Barthe and Gaboardi 2018);
    eps itself at rate 1. Raises DomainError unless eps is NONNEGATIVE, rate
    a PROBABILITY (Rule) and (e^eps - 1)/rate a finite double, which keeps
    e^{eps'} finite too."""
    eps = checked("eps", eps, Rule.NONNEGATIVE)
    rate = checked("rate", rate, Rule.PROBABILITY)
    try:
        ratio = math.expm1(eps) / rate
    except OverflowError:
        ratio = math.inf
    if ratio == math.inf:
        raise DomainError(f"eps={eps} overflows (e^eps - 1)/rate at rate {rate}")
    return eps if rate == 1.0 else math.log1p(ratio)


@functools.lru_cache(maxsize=1)
def main_pair(params: SamplingParams, eps: float) -> HockeyStickQuery:
    """The mixture pair whose hockey-stick divergence, times pq, is Main.

    num = sum_i w_i N((i+1)C, s^2) and
    den = c2_bar sum_i w_i N(iC, s^2) + c1_bar N(0, s^2) at alpha' = e^{eps'},
    eps' = amplified_eps(eps, pq), with w_i the Binom(d, q) weights. With
    beta = e^{eps - eps'}, c1_bar = (1-beta)(1-p)/(1-pq) for the absent branch
    and c2_bar = (1-beta)p(1-q)/(1-pq) + beta for the unsampled one are the
    beta-tilted split of den, which has mass c1_bar + c2_bar = 1.
    """
    pq = params.p * params.q
    eps_prime = amplified_eps(eps, pq)
    if pq == 1.0:
        c1_bar, c2_bar = 0.0, 1.0
    else:
        beta = math.exp(eps - eps_prime)
        c1_bar = (1.0 - beta) * ((1.0 - params.p) / (1.0 - pq))
        c2_bar = (1.0 - beta) * (params.p * (1.0 - params.q) / (1.0 - pq)) + beta
    numerator, denominator = round_mixtures(params, (0.0, 0.0, 1.0), (c1_bar, c2_bar, 0.0))
    return HockeyStickQuery(math.exp(eps_prime), numerator, denominator)


def _scan_window(params: SamplingParams, eps: float):
    try:
        sigma_sq = params.sigma**2
    except OverflowError as exc:
        raise DomainError(f"sigma={params.sigma} is out of range: sigma**2 overflows") from exc
    lo = -12.0 * params.sigma
    hi = (
        (params.d + 1) * params.C
        + 12.0 * params.sigma
        + sigma_sq * amplified_eps(eps, params.p * params.q) / params.C
    )
    return lo, hi


def find_z_star(pair: HockeyStickQuery, lo: float, hi: float) -> RootResult:
    """Crossing point z* above which num - alpha * den of pair is positive.

    z* is the root of pair.log_ratio, the log likelihood ratio less
    log alpha, found by find_root_bracketed (Brent's method) on [lo, hi].
    For Main (main_pair over _scan_window) that window always brackets it.
    Below: at every z <= 0 each numerator component N((i+1)C, s^2) lies
    below the denominator's N(iC, s^2), and N(0, s^2) above all of them.
    Above: at hi = (d+1)C + 12s + s^2 eps'/C every component ratio
    N((i+1)C)/N(iC) is at least exp(C^2/(2s^2) + 12C/s + eps'), and
    N(0) <= N(iC) there, so log_ratio(hi) >= 12C/s > 0. Raises
    DegenerateIntegrandError if log_ratio has no sign change on [lo, hi].
    """
    try:
        return find_root_bracketed(pair.log_ratio, lo, hi)
    except BracketError as exc:
        raise DegenerateIntegrandError(str(exc)) from exc


def delta_main(params: SamplingParams, eps: float) -> PrivacyPoint:
    """Amplified bound: delta at the target eps for the full protocol.

    pq times the tail of main_pair above z* from find_z_star, summed in
    closed form over the components' survival terms. z* always exists, so
    there is no regime that certifies 0 by fiat; a delta below the double
    range reads 0. A tail below -1e-15 is not rounding noise and raises
    DegenerateIntegrandError; a smaller negative tail reads 0.
    """
    pair = main_pair(params, eps)
    z_star = find_z_star(pair, *_scan_window(params, eps)).root
    tail = pair.tail(z_star)
    if tail < -1e-15:
        raise DegenerateIntegrandError(
            f"Main tail {tail:.3e} above z*={z_star} is negative beyond rounding"
        )
    return PrivacyPoint(min(params.p * params.q * max(tail, 0.0), 1.0), z_star)


def delta_main_quadrature(params: SamplingParams, eps: float) -> float:
    """Quadrature oracle for delta_main: pq * hockey_stick(main_pair).

    Shares only the pair with the closed form: hockey_stick finds its own
    sign boundaries and integrates the clamped integrand over the pieces
    between them that its scan finds positive, so neither find_z_star nor
    the tail sums enter. The pair sits on the lattice kC, so the scan is
    spaced sigma/10 or finer unless it would take over 65,536 points; then
    it is capped and the whole 12-sigma support is one piece. Used by
    verification and the acceptance suite.
    """
    return params.p * params.q * hockey_stick(main_pair(params, eps))


def count_integrand_sign_changes(params: SamplingParams, eps: float) -> int:
    """Sign changes of main_pair's coefficients: Main's crossings, exactly.

    For a pair sharing sigma = s, num - alpha' den is
    e^{-z^2/2s^2} sum_k c_k e^{-m_k^2/2s^2} e^{m_k z/s^2} over the union of
    means m_k, with c_k = weights[:, 0] - weights[:, 1]. By Laguerre's rule
    of signs (Laguerre 1883; Jameson, Math. Gazette 2006) such a sum has no
    more real zeros than sign changes in c_k (exact zeros skipped), and
    their parity is the same, so a count of 1 is exactly one crossing, at
    z*. For Main it is always 1: c_0 = -alpha'(c1_bar + c2_bar w_0) < 0
    and c_{d+1} = w_d > 0; for 1 <= k <= d, c_k has the sign of
    w_{k-1}/w_k - alpha' c2_bar, and w_{k-1}/w_k = k(1-q)/((d-k+1)q)
    increases in k, so the signs run - ... - + ... +. Dropped binomial
    weights only shorten both runs. The count reads no density, no z* and
    no log_ratio, so it stays independent of find_z_star and of the
    quadrature oracle. Raises DegenerateIntegrandError if the single
    crossing runs from + to -, where the tail above z* is negative.
    """
    pair = main_pair(params, eps)
    c = pair.weights[:, 0] - pair.weights[:, 1]
    signs = np.sign(c[c != 0.0])
    changes = int(np.count_nonzero(signs[:-1] != signs[1:]))
    if changes == 1 and not signs[0] < 0.0 < signs[-1]:
        raise DegenerateIntegrandError("integrand is positive below its crossing")
    return changes


def delta_only_local(q: float, sigma: float, C: float, eps: float) -> PrivacyPoint:
    """Amplification by local sampling only (participation ignored).

    delta = q * delta_G(amplified_eps(eps, q), sigma, C).
    """
    q = checked("q", q, Rule.PROBABILITY)
    delta = q * gaussian_mechanism_delta(amplified_eps(eps, q), sigma, C)
    return PrivacyPoint(min(delta, 1.0))


def delta_upper_bound(params: SamplingParams, eps: float) -> PrivacyPoint:
    """Closed-form relaxation of the Main bound: p times OnlyLocal.

    The bound is pq * delta_G(eps'', sigma, C) at the tilted level
    eps'' = eps' + log(c2_bar), and that level is OnlyLocal's:
      e^{eps'} c2_bar = (e^{eps'} - e^eps) c2 + e^eps
                      = (e^eps - 1)(1 - q)/q + e^eps = 1 + (e^eps - 1)/q.
    """
    return PrivacyPoint(params.p * delta_only_local(params.q, params.sigma, params.C, eps).delta)


def delta_lower_bound(params: SamplingParams, eps: float) -> PrivacyPoint:
    """Subsampled Gaussian bound at the joint probability pq.

    The protocol includes the differing element with probability pq, so no
    valid accounting can certify a smaller delta at the same eps.
    """
    return delta_only_local(params.p * params.q, params.sigma, params.C, eps)


def delta_for_scheme(
    scheme: Scheme, params: SamplingParams, eps: float
) -> PrivacyPoint:
    if scheme is Scheme.MAIN:
        return delta_main(params, eps)
    if scheme is Scheme.ONLY_LOCAL:
        return delta_only_local(params.q, params.sigma, params.C, eps)
    if scheme is Scheme.UPPER_BOUND:
        return delta_upper_bound(params, eps)
    if scheme is Scheme.LOWER_BOUND:
        return delta_lower_bound(params, eps)
    raise DomainError(f"unknown scheme {scheme!r}")


def _invert_monotone(
    delta_at: Callable[[float], float],
    name: str,
    bracket: tuple[float, float],
    delta_target: float,
    to_coord: Callable[[float], float],
    from_coord: Callable[[float], float],
) -> float:
    """Smallest x in the bracket with delta_at(x) <= delta_target, for delta
    nonincreasing in x. The endpoints are checked at the raw bracket values;
    between them, Brent's method solves delta_at(from_coord(u)) = delta_target
    in u = to_coord(x), reusing an endpoint's delta where from_coord(u) is it.
    The answer is the upper end of Brent's final bracket, the side where
    delta <= target, or the root at an exact hit (residual 0), which stops
    Brent before the other end closes in. Raises DomainError unless
    delta_target lies in (0, 1), and CalibrationError if the endpoints are
    not ordered or the target is unreachable at the top."""
    delta_target = checked("delta_target", delta_target, Rule.DELTA_TARGET)
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
    known = {lo: delta_lo, hi: delta_hi}

    def residual(u: float) -> float:
        x = from_coord(u)
        return (known[x] if x in known else delta_at(x)) - delta_target

    result = find_root_bracketed(residual, to_coord(lo), to_coord(hi))
    if result.residual == 0.0:
        return from_coord(result.root)
    return from_coord(result.bracket[1])


def calibrate_sigma(
    scheme: Scheme,
    *,
    p: float,
    q: float,
    d: int,
    C: float,
    eps_target: float,
    delta_target: float,
    sigma_cap: float = SIGMA_BRACKET[1],
) -> float:
    """Smallest sigma in [SIGMA_BRACKET[0], sigma_cap] certifying
    (eps_target, delta_target).

    Solves delta(sigma) = delta_target in log sigma with Brent's method,
    on the empirically verified monotone nonincrease of delta in sigma; one
    step below the answer, sigma / (1 + SIGMA_REL_TOL), misses the target.
    Raises DomainError on a cap not finite and positive or below the floor,
    and CalibrationError if the target is unreachable at the cap or the
    deltas at the bracket's ends are not ordered.
    """
    eps_target = checked("eps_target", eps_target, Rule.EPS_TARGET)
    sigma_cap = checked("sigma_cap", sigma_cap, Rule.POSITIVE)
    if sigma_cap < SIGMA_BRACKET[0]:
        raise DomainError(f"sigma bracket [{SIGMA_BRACKET[0]}, {sigma_cap}] is empty")

    def delta_at(sigma: float) -> float:
        params = SamplingParams(p=p, q=q, d=d, C=C, sigma=sigma)
        return delta_for_scheme(scheme, params, eps_target).delta

    return _invert_monotone(
        delta_at, "sigma", (SIGMA_BRACKET[0], sigma_cap), delta_target, math.log, math.exp
    )


def eps_for_delta(
    scheme: Scheme, params: SamplingParams, delta_target: float
) -> float:
    """Smallest eps in EPS_BRACKET with scheme-delta(eps) <= delta_target.

    Solves delta(eps) = delta_target with Brent's method; one step below
    the answer, eps - EPS_ABS_TOL, misses the target.
    """

    def delta_at(eps: float) -> float:
        return delta_for_scheme(scheme, params, eps).delta

    return _invert_monotone(delta_at, "eps", EPS_BRACKET, delta_target, float, float)


class SweepVariable(Enum):
    SIGMA = "sigma"
    EPS = "eps"
    DELTA = "delta"
    Q_FIXED_PQ = "q-fixed-pq"
    D = "d"

    @property
    def parameter(self) -> str:
        """The fixed parameter that the grid value replaces."""
        return "q" if self is SweepVariable.Q_FIXED_PQ else self.value

    @property
    def supplies(self) -> frozenset[str]:
        """The values a sweep over this variable supplies; none may be fixed."""
        if self in (SweepVariable.EPS, SweepVariable.DELTA):
            return frozenset({"eps", "delta"})
        if self is SweepVariable.Q_FIXED_PQ:
            return frozenset({"p", "q"})
        return frozenset({self.value})


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


_COORDS = ("p", "q", "d", "C", "sigma")  # SamplingParams' fields

# DomainError is a ValueError
_ROW_ERRORS = (CalibrationError, DegenerateIntegrandError, ValueError, OverflowError)


def _sweep_point(
    scheme: Scheme,
    value: float,
    variable: SweepVariable,
    fixed: dict,
) -> SweepRow:
    point = {**fixed, variable.parameter: value}
    if variable is SweepVariable.Q_FIXED_PQ:
        point["p"] = fixed["pq_product"] / value if value > 0 else math.inf
    coords = {key: point.get(key) for key in _COORDS}
    eps, delta = point.get("eps"), point.get("delta")
    try:
        params = SamplingParams(**coords)
        if eps is None:
            eps = eps_for_delta(scheme, params, delta)
        result = delta_for_scheme(scheme, params, eps)
        # a good row takes the normalized coordinates (int d); an inverted
        # row keeps its target, which the answer meets
        return SweepRow(scheme, **vars(params), eps=eps, z_star=result.z_star,
                        delta=result.delta if delta is None else delta)
    except _ROW_ERRORS as exc:
        return SweepRow(scheme, **coords, eps=eps, delta=delta, error=str(exc))


def sweep(
    schemes: Sequence[Scheme],
    variable: SweepVariable,
    values: Sequence[float],
    **fixed,
) -> list[SweepRow]:
    """Evaluate each scheme over a grid of one swept variable.

    The grid value replaces the fixed parameter variable.parameter; no value
    in variable.supplies may be fixed, and each of p, q, d, C and sigma that
    it does not list must be. An eps or delta grid value is the target; a
    sigma, d or q-fixed-pq sweep needs exactly one of eps/delta fixed as its
    target. The other of eps/delta is computed.
    Invalid grid points become rows with the error field set; the sweep
    continues. Rows are emitted scheme-major in grid order.
    """
    if len(values) == 0:
        raise DomainError("sweep needs a nonempty grid")
    clashes = "/".join(sorted(n for n in variable.supplies if fixed.get(n) is not None))
    if clashes:
        raise DomainError(f"{variable.value} sweep supplies {clashes}; it must not be fixed")
    unset = "/".join(n for n in _COORDS if n not in variable.supplies and fixed.get(n) is None)
    if unset:
        raise DomainError(f"{variable.value} sweep needs {unset} fixed")
    if variable not in (SweepVariable.EPS, SweepVariable.DELTA) and (
        (fixed.get("eps") is None) == (fixed.get("delta") is None)
    ):
        raise DomainError(f"{variable.value} sweep needs exactly one of eps/delta fixed")
    if variable is SweepVariable.Q_FIXED_PQ and fixed.get("pq_product") is None:
        raise DomainError("q-fixed-pq sweep needs pq_product")

    return [
        _sweep_point(scheme, float(value), variable, fixed)
        for scheme in schemes
        for value in values
    ]
