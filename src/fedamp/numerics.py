"""Numerical primitives for the privacy accounting stack.

The rule table `Rule` of scalar input domains, which `checked` applies for
every module; the Gaussian mechanism delta; a bracketed root finder
(Brent's method, as in scipy's brentq); and an adaptive Gauss-Kronrod
integrator whose caller always names the integrand's kinks as break points
(an empty sequence if it has none). Everything is pure and reentrant; no
global mutable state.

Accuracy targets are inherited from the accountant, which checks closed-form
delta values against quadrature at the 1e-10 level. The primitives therefore
aim tighter: hockey_stick integrates to 1e-13 absolute, and roots are
located to 2e-12 absolute plus four machine epsilons relative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

# scipy.optimize.brentq's defaults: xtol, rtol (four machine epsilons), maxiter
ROOT_XTOL = 2e-12
ROOT_RTOL = 4.0 * sys.float_info.epsilon
ROOT_MAX_STEPS = 100
QUADRATURE_MAX_EVALS = 1_000_000  # integrand evaluations per integrate_adaptive call


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class BracketError(RuntimeError):
    """A root bracket does not actually bracket a sign change."""


class AccuracyError(RuntimeError):
    """A quadrature result could not be certified to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    evaluations: int


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    bracket: tuple[float, float]


class Rule:
    """The rule table: one scalar input domain per row, as (words, stored
    type, test). A plain namespace: an Enum's member lookup and .value
    would add a few hundred nanoseconds to every check."""

    PROBABILITY = ("lie in (0, 1]", float, lambda x: 0.0 < x <= 1.0)
    POSITIVE = ("be finite and positive", float, lambda x: 0.0 < x < math.inf)
    NONNEGATIVE = ("be finite and >= 0", float, lambda x: 0.0 <= x < math.inf)
    AT_LEAST_ONE = ("be finite and >= 1", float, lambda x: 1.0 <= x < math.inf)
    POSITIVE_COUNT = ("be a positive integer", int, lambda x: 1 <= x < math.inf)
    COUNT = ("be a nonnegative integer", int, lambda x: 0 <= x < math.inf)


def checked(name: str, value, rule: tuple):
    """value as the stored type of rule, a Rule row, if it passes the row's
    test, else DomainError "{name} must {words}, got {value!r}". The value
    is read with float(), so numeric strings pass; an int count is tested
    and kept exactly, and a count must be whole and not a bool."""
    words, kind, test = rule
    try:
        number = value if kind is int and type(value) is int else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if test(number):
        if kind is float:
            return number
        if type(value) is not bool and number == int(number):
            return int(number)
    raise DomainError(f"{name} must {words}, got {value!r}")


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def gaussian_mechanism_delta(eps: float, sigma: float, sensitivity: float) -> float:
    """Exact delta of the Gaussian mechanism at privacy level eps.

    delta = Phi(C/(2 sigma) - eps sigma / C) - e^eps Phi(-C/(2 sigma) - eps sigma / C)

    for sensitivity C. The subtracted term is computed as
    exp(eps + log Phi(...)), which stays accurate when the CDF factor
    underflows; the result is clamped to [0, 1].
    """
    eps = checked("eps", eps, Rule.NONNEGATIVE)
    sigma = checked("sigma", sigma, Rule.POSITIVE)
    sensitivity = checked("sensitivity", sensitivity, Rule.POSITIVE)
    half = sensitivity / (2.0 * sigma)
    shift = eps * sigma / sensitivity
    lead = float(ndtr(half - shift))
    # The exponent is at most -log 2, so exp cannot overflow: by AM-GM
    # x = half + shift >= sqrt(2 eps), and Phi(-x) <= e^{-x^2/2} / 2.
    scaled_tail = math.exp(eps + float(log_ndtr(-half - shift)))
    delta = lead - scaled_tail
    if delta < 0.0:
        return 0.0
    if delta > 1.0:
        return 1.0
    return delta


def find_root_bracketed(
    f: Callable[[float], float], lo: float, hi: float
) -> RootResult:
    """Locate a root of f in [lo, hi] given a sign change.

    Brent's method, step for step as scipy.optimize.brentq runs it at its
    default tolerances, so both return the same root. scipy.optimize itself
    is not imported: with scipy 1.17 on x86-64 Linux, loading it takes about
    0.3 s and 24 MB of resident memory. The search stops when the bracket
    half-width drops below (ROOT_XTOL + ROOT_RTOL |x|) / 2 or f is exactly
    0, never on a small |f|. The result carries the final bracket.
    """
    lo = _require_finite("lo", lo)
    hi = _require_finite("hi", hi)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    prev, f_prev = lo, _require_finite("f(lo)", f(lo))
    best, f_best = hi, _require_finite("f(hi)", f(hi))
    if f_prev == 0.0:
        return RootResult(lo, 0.0, (lo, lo))
    if f_best == 0.0:
        return RootResult(hi, 0.0, (hi, hi))
    if (f_prev < 0.0) == (f_best < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_prev}, f(hi)={f_best}"
        )
    for _ in range(ROOT_MAX_STEPS):
        if (f_prev < 0.0) != (f_best < 0.0):
            far, f_far = prev, f_prev
            step = last_step = best - prev
        if abs(f_far) < abs(f_best):
            prev, best, far = best, far, best
            f_prev, f_best, f_far = f_best, f_far, f_best
        tol = 0.5 * (ROOT_XTOL + ROOT_RTOL * abs(best))
        half = 0.5 * (far - best)
        if f_best == 0.0 or abs(half) < tol:
            return RootResult(best, f_best, (min(best, far), max(best, far)))
        # interpolate while that shrinks the steps fast enough, else bisect
        interpolate = abs(last_step) > tol and abs(f_best) < abs(f_prev)
        if interpolate:
            try:
                if prev == far:  # secant
                    trial = -f_best * (best - prev) / (f_best - f_prev)
                else:  # inverse quadratic
                    d_prev = (f_prev - f_best) / (prev - best)
                    d_far = (f_far - f_best) / (far - best)
                    trial = -f_best * (f_far * d_far - f_prev * d_prev) / (
                        d_far * d_prev * (f_far - f_prev)
                    )
                bound = min(abs(last_step), 3.0 * abs(half) - tol)
                interpolate = 2.0 * abs(trial) < bound
            except ZeroDivisionError:
                # underflowed slopes; IEEE division gives inf or nan there,
                # which fails the step test just the same
                interpolate = False
        if interpolate:
            last_step, step = step, trial
        else:
            last_step = step = half
        prev, f_prev = best, f_best
        best += step if abs(step) > tol else math.copysign(tol, half)
        f_best = float(f(best))
        if not math.isfinite(f_best):  # the message is built only on failure
            _require_finite(f"f({best})", f_best)
    raise RuntimeError(f"no root within {ROOT_MAX_STEPS} steps on [{lo}, {hi}]")


# Gauss-Kronrod 15-point pair on [-1, 1]. Nodes at odd indices are the
# embedded 7-point Gauss rule.
_GK_NODES = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_GK_WEIGHTS = np.array(
    [
        0.022935322010529224,
        0.06309209262997856,
        0.10479001032225019,
        0.14065325971552592,
        0.16900472663926791,
        0.19035057806478542,
        0.20443294007529889,
        0.20948214108472782,
        0.20443294007529889,
        0.19035057806478542,
        0.16900472663926791,
        0.14065325971552592,
        0.10479001032225019,
        0.06309209262997856,
        0.022935322010529224,
    ]
)
_GAUSS_WEIGHTS = np.array(
    [
        0.1294849661688697,
        0.27970539148927664,
        0.3818300505051189,
        0.41795918367346935,
        0.3818300505051189,
        0.27970539148927664,
        0.1294849661688697,
    ]
)


def _evaluate_batch(f, lows: np.ndarray, highs: np.ndarray):
    """Apply the GK15 pair to a batch of intervals with one call to f."""
    centers = 0.5 * (lows + highs)
    half_widths = 0.5 * (highs - lows)
    points = centers[:, None] + half_widths[:, None] * _GK_NODES[None, :]
    flat = points.reshape(-1)
    values = np.asarray(f(flat), dtype=float)
    if values.shape != flat.shape:
        raise DomainError(
            f"integrand returned shape {values.shape} for input shape {flat.shape}"
        )
    if not np.isfinite(values).all():
        raise DomainError("integrand returned non-finite values")
    values = values.reshape(points.shape)
    kronrod = half_widths * (values @ _GK_WEIGHTS)
    gauss = half_widths * (values[:, 1::2] @ _GAUSS_WEIGHTS)
    errors = np.abs(kronrod - gauss)
    return kronrod, errors


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float,
    break_points: Sequence[float],
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of f over [lo, hi].

    The integrand must accept a numpy array of evaluation points and return
    an array of the same shape. break_points, all finite, seed the initial
    subdivision where they fall inside (lo, hi); intervals are split in
    batches until the summed |K15 - G7| difference drops below abs_tol.

    Raises AccuracyError if the tolerance is not certified within
    QUADRATURE_MAX_EVALS evaluations.
    """
    lo = _require_finite("lo", lo)
    hi = _require_finite("hi", hi)
    abs_tol = checked("abs_tol", abs_tol, Rule.POSITIVE)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")

    points = np.asarray(break_points, dtype=float)
    finite = np.isfinite(points)
    if not finite.all():
        _require_finite("break point", points[~finite][0])
    edges = np.unique(np.concatenate([[lo, hi], points[(lo < points) & (points < hi)]]))

    lows = edges[:-1]
    highs = edges[1:]
    values, errors = _evaluate_batch(f, lows, highs)
    evaluations = 15 * len(lows)
    total_width = hi - lo

    while True:
        total_error = float(errors.sum())
        if total_error <= abs_tol:
            return QuadratureResult(float(values.sum()), evaluations)
        budgets = abs_tol * (highs - lows) / total_width
        split = errors > budgets
        if not split.any():
            split = errors >= errors.max()
        if evaluations + 30 * int(np.count_nonzero(split)) > QUADRATURE_MAX_EVALS:
            raise AccuracyError(
                f"error estimate {total_error:.3e} above abs_tol {abs_tol:.3e} "
                f"after {evaluations} evaluations"
            )
        keep = ~split
        mids = 0.5 * (lows[split] + highs[split])
        new_lows = np.concatenate([lows[split], mids])
        new_highs = np.concatenate([mids, highs[split]])
        new_values, new_errors = _evaluate_batch(f, new_lows, new_highs)
        evaluations += 15 * len(new_lows)
        lows = np.concatenate([lows[keep], new_lows])
        highs = np.concatenate([highs[keep], new_highs])
        values = np.concatenate([values[keep], new_values])
        errors = np.concatenate([errors[keep], new_errors])
