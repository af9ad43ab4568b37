"""Output checks behind the benchmark's failure count.

Each check returns a list of problems; an empty list means the output is
correct. Checks take the values they judge as arguments, so a test can
hand them a deliberately wrong answer and see them fire.
"""

from __future__ import annotations

import math

VERIFY_ABS_TOL = 1e-10
PAIR_SLACK = 2e-13
LOSS_CEILING = math.log(2.0)


def check_inversion(name, answer, floor, step_below, delta_at, target):
    """The answer of a monotone bisection brackets its delta target.

    delta at the answer is at or below the target, and the answer is either
    the bracket floor or one tolerance step below it delta exceeds the
    target, so no smaller answer would do.
    """
    if not math.isfinite(answer):
        return [f"{name}: answer {answer!r} is not finite"]
    problems = []
    delta = delta_at(answer)
    if not delta <= target:
        problems.append(f"{name}: delta {delta:.6g} at {answer:.9g} exceeds target {target:.6g}")
    if answer != floor:
        below = step_below(answer)
        delta_below = delta_at(below)
        if not delta_below > target:
            problems.append(
                f"{name}: delta {delta_below:.6g} one step below at {below:.9g} "
                f"already meets target {target:.6g}"
            )
    return problems


def check_sweep(rows, schemes, points):
    problems = []
    if len(rows) != len(schemes) * points:
        problems.append(f"sweep: {len(rows)} rows, expected {len(schemes)} x {points}")
    problems += [
        f"sweep: {row.scheme.value} at sigma={row.sigma} failed: {row.error}"
        for row in rows
        if row.error is not None
    ]
    return problems


def check_verify_point(closed, quadrature, crossings, pair, ub, ols):
    problems = []
    if not abs(closed - quadrature) <= VERIFY_ABS_TOL:
        problems.append(f"|closed - quadrature| = {abs(closed - quadrature):.3e} > {VERIFY_ABS_TOL}")
    if crossings != 1:
        problems.append(f"{crossings} integrand sign changes, expected 1")
    if not pair - closed <= PAIR_SLACK:
        problems.append(f"pair oracle exceeds closed form by {pair - closed:.3e} > {PAIR_SLACK}")
    if not ub <= ols:
        problems.append(f"ub {ub:.6g} above ols {ols:.6g}")
    return problems


def check_training(losses, rounds):
    problems = []
    if len(losses) != rounds:
        problems.append(f"{len(losses)} metric rows, expected {rounds}")
    if not all(math.isfinite(loss) for loss in losses):
        problems.append("non-finite loss")
    return problems


def check_mean_final_loss(task, finals):
    """Training learns: over a run's ops of one task, the mean final loss
    is below log 2, the loss of a logistic model that knows nothing."""
    mean = sum(finals) / len(finals)
    if not mean < LOSS_CEILING:
        return [f"{task}: mean final loss {mean:.4f} over {len(finals)} runs not below log 2"]
    return []
