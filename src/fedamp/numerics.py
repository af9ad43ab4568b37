"""Numerical primitives for the privacy accounting stack.

The Gaussian mechanism delta, a bracketed root finder, and an adaptive
Gauss-Kronrod integrator. Everything is pure and reentrant; no global
mutable state.

Accuracy targets are inherited from the accountant, which checks closed-form
delta values against quadrature at the 1e-10 level. The primitives therefore
aim roughly two orders tighter: quadrature abs_tol defaults to 1e-14 and the
root residual tolerance to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class BracketError(RuntimeError):
    """A root bracket does not actually bracket a sign change."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its iteration budget."""


class AccuracyError(RuntimeError):
    """A quadrature result could not be certified to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    bracket: tuple[float, float]


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
    eps = _require_finite("eps", eps)
    sigma = _require_finite("sigma", sigma)
    sensitivity = _require_finite("sensitivity", sensitivity)
    if eps < 0.0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if sensitivity <= 0.0:
        raise DomainError(f"sensitivity must be positive, got {sensitivity}")
    half = sensitivity / (2.0 * sigma)
    shift = eps * sigma / sensitivity
    lead = float(ndtr(half - shift))
    try:
        scaled_tail = math.exp(eps + float(log_ndtr(-half - shift)))
    except OverflowError:
        return 0.0
    delta = lead - scaled_tail
    if delta < 0.0:
        return 0.0
    if delta > 1.0:
        return 1.0
    return delta


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> RootResult:
    """Locate a root of f in [lo, hi] given a sign change.

    Secant steps with a bisection fallback: whenever the secant proposal
    falls outside the current bracket, or the bracket has failed to halve
    for two consecutive steps, the midpoint is used instead. Terminates
    when |f| <= tol or the bracket width drops below tol * max(1, |root|).
    Deterministic for a deterministic f.
    """
    lo = _require_finite("lo", lo)
    hi = _require_finite("hi", hi)
    tol = _require_finite("tol", tol)
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")

    fa = _require_finite("f(lo)", f(lo))
    fb = _require_finite("f(hi)", f(hi))
    if fa == 0.0:
        return RootResult(lo, 0.0, (lo, lo))
    if fb == 0.0:
        return RootResult(hi, 0.0, (hi, hi))
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={fa}, f(hi)={fb}")

    a, b = lo, hi
    x_prev, f_prev = a, fa
    x_curr, f_curr = b, fb
    ref_width = b - a
    stalled = 0
    for _ in range(max_iter):
        cand = None
        if stalled < 2:
            denom = f_curr - f_prev
            if denom != 0.0:
                step = x_curr - f_curr * (x_curr - x_prev) / denom
                if a < step < b:
                    cand = step
        if cand is None:
            cand = 0.5 * (a + b)
        fc = _require_finite("f(candidate)", f(cand))
        x_prev, f_prev = x_curr, f_curr
        x_curr, f_curr = cand, fc
        if fc == 0.0:
            return RootResult(cand, 0.0, (a, b))
        if (fc > 0.0) == (fa > 0.0):
            a, fa = cand, fc
        else:
            b, fb = cand, fc
        if abs(fc) <= tol:
            return RootResult(cand, fc, (a, b))
        if b - a <= 0.5 * ref_width:
            ref_width = b - a
            stalled = 0
        else:
            stalled += 1
        if b - a <= tol * max(1.0, abs(cand)):
            root, res = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
            return RootResult(root, res, (a, b))
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations; bracket [{a}, {b}]"
    )


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
    if values.ndim == 0:
        values = np.full(flat.shape, float(values))
    if values.shape != flat.shape:
        raise DomainError(
            f"integrand returned shape {values.shape} for input shape {flat.shape}"
        )
    if not np.all(np.isfinite(values)):
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
    abs_tol: float = 1e-14,
    max_evals: int = 1_000_000,
    break_points: Sequence[float] | None = None,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of f over [lo, hi].

    The integrand must accept a numpy array of evaluation points and return
    an array of the same shape (a scalar return is broadcast, so constants
    work). The error estimate is the summed |K15 - G7| difference over the
    final subdivision; intervals are split in batches until the estimate
    drops below abs_tol. Optional break_points seed the initial subdivision,
    which pays off for integrands with known kinks.

    Raises AccuracyError if the tolerance is not certified within max_evals
    evaluations.
    """
    lo = _require_finite("lo", lo)
    hi = _require_finite("hi", hi)
    abs_tol = _require_finite("abs_tol", abs_tol)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if abs_tol <= 0.0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")

    edges = [lo, hi]
    if break_points is not None:
        for point in break_points:
            point = _require_finite("break point", point)
            if lo < point < hi:
                edges.append(point)
    edges = sorted(set(edges))

    lows = np.array(edges[:-1])
    highs = np.array(edges[1:])
    values, errors = _evaluate_batch(f, lows, highs)
    evaluations = 15 * len(lows)
    total_width = hi - lo

    while True:
        total_error = float(np.sum(errors))
        if total_error <= abs_tol:
            return QuadratureResult(float(np.sum(values)), total_error, evaluations)
        budgets = abs_tol * (highs - lows) / total_width
        split = errors > budgets
        if not np.any(split):
            split = errors >= errors.max()
        if evaluations + 30 * int(np.count_nonzero(split)) > max_evals:
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
