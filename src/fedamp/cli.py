"""Command line surface emitting CSV for curves, calibration, verification
and simulation. No plotting; every figure is two columns away from any
plotting tool."""

from __future__ import annotations

import csv
import itertools
import sys
from contextlib import contextmanager

import click
import numpy as np

from .accountant import (
    CERTIFIED_SCHEMES,
    SIGMA_BRACKET,
    CalibrationError,
    SamplingParams,
    Scheme,
    SweepVariable,
    calibrate_sigma,
    count_integrand_sign_changes,
    delta_lower_bound,
    delta_main,
    delta_main_quadrature,
    delta_only_local,
    delta_upper_bound,
    sweep,
)
from .divergence import ajc_decompose, seeded_ajc_triples
from .simulator import (
    SimConfig,
    Task,
    TrainingDivergedError,
    _fmt,
    run_training,
    write_metrics_csv,
)

CURVE_HEADER = (
    "scheme", "p", "q", "d", "C", "sigma", "eps", "delta", "z_star",
    "certified", "error",
)
CALIBRATE_HEADER = (
    "scheme", "p", "q", "d", "C", "eps", "delta", "sigma", "certified",
)
VERIFY_HEADER = (
    "p", "q", "d", "C", "sigma", "eps",
    "delta_closed_form", "delta_quadrature", "abs_diff",
    "single_crossing_ok", "ordering_ok", "error",
)

VERIFY_ABS_TOL = 1e-10
ORDERING_SLACK = 1e-12
AJC_TRIPLES = 50
AJC_TOL = 2e-13

# Default verification grid; C fixed at 1.
VERIFY_GRID_P = (0.01, 0.1, 0.5)
VERIFY_GRID_Q = (0.01, 0.1, 0.5)
VERIFY_GRID_D = (1, 10, 30, 100)
VERIFY_GRID_SIGMA = (0.5, 1.0, 2.0, 5.0)
VERIFY_GRID_EPS = (0.015, 0.1, 0.5, 1.0)

_SCHEMES = {
    s.value: s
    for s in (Scheme.MAIN, Scheme.ONLY_LOCAL, Scheme.UPPER_BOUND, Scheme.LOWER_BOUND)
}
_SWEEPS = {v.value: v for v in SweepVariable}


def _read_config(path: str) -> dict[str, str]:
    """Plain key-value manifest: `key value`, `key=value`, # comments."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise click.UsageError(
                        f"{path}:{lineno}: expected 'key value' or 'key=value'"
                    )
                key, value = parts
            out[key.strip()] = value.strip()
    return out


class _Options:
    """One view of flags merged over a config file. Flags win."""

    def __init__(self, cli: dict, config_path: str | None):
        self.cli = cli
        self.file = _read_config(config_path) if config_path else {}

    def get(self, key: str, cast, default=None):
        value = self.cli.get(key)
        if value is not None and value != ():
            return value
        if key in self.file:
            raw = self.file[key]
            try:
                return cast(raw)
            except (TypeError, ValueError) as exc:
                raise click.UsageError(f"config value {key}={raw!r}: {exc}")
        return default

    def require(self, key: str, cast):
        value = self.get(key, cast)
        if value is None:
            raise click.UsageError(f"missing --{key}")
        return value

    def forbid_flag(self, key: str, reason: str) -> None:
        # Only command line flags conflict; a manifest may carry keys that
        # some invocations ignore.
        value = self.cli.get(key)
        if value is not None and value != ():
            raise click.UsageError(f"--{key} conflicts with {reason}")


def _parse_schemes(raw: str) -> tuple[str, ...]:
    return tuple(s for s in raw.replace(",", " ").split() if s)


def _to_schemes(names) -> list[Scheme]:
    out = []
    for name in names:
        if name not in _SCHEMES:
            raise click.UsageError(f"unknown scheme {name!r}")
        out.append(_SCHEMES[name])
    return out


@contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _writer(stream):
    return csv.writer(stream, lineterminator="\n")


@click.group()
def main():
    """Privacy accounting for DP-SGD with random client participation."""


_GRID_FLAGS = [
    click.option("--sweep", "sweep_name", type=click.Choice(sorted(_SWEEPS)), default=None),
    click.option("--from", "start", type=float, default=None),
    click.option("--to", "stop", type=float, default=None),
    click.option("--points", type=int, default=None),
    click.option("--p", type=float, default=None),
    click.option("--q", type=float, default=None),
    click.option("--d", type=int, default=None),
    click.option("--C", "cap", type=float, default=None),
    click.option("--sigma", type=float, default=None),
    click.option("--eps", type=float, default=None),
    click.option("--delta", type=float, default=None),
    click.option("--pq", type=float, default=None, help="fixed p*q product for the q-fixed-pq sweep"),
]


def _grid_flags(fn):
    for flag in reversed(_GRID_FLAGS):
        fn = flag(fn)
    return fn


def _collect_sweep_spec(opts: _Options):
    """Validate grid flags for one sweep and return (variable, values, fixed)."""
    sweep_name = opts.require("sweep", str)
    if sweep_name not in _SWEEPS:
        raise click.UsageError(f"unknown sweep {sweep_name!r}")
    variable = _SWEEPS[sweep_name]
    start = opts.require("from", float)
    stop = opts.require("to", float)
    points = opts.require("points", int)
    if points < 1:
        raise click.UsageError("--points must be at least 1")

    fixed: dict = {"C": opts.require("C", float)}
    opts.forbid_flag(variable.parameter, f"--sweep {sweep_name}")

    if variable in (SweepVariable.EPS, SweepVariable.DELTA):
        opts.forbid_flag("eps" if variable is SweepVariable.DELTA else "delta",
                         f"--sweep {sweep_name}")
        fixed["sigma"] = opts.require("sigma", float)
    else:
        eps = opts.get("eps", float)
        delta = opts.get("delta", float)
        if (eps is None) == (delta is None):
            raise click.UsageError(
                f"--sweep {sweep_name} needs exactly one of --eps/--delta"
            )
        fixed["eps"] = eps
        fixed["delta"] = delta
        if variable is not SweepVariable.SIGMA:
            fixed["sigma"] = opts.require("sigma", float)

    if variable is SweepVariable.Q_FIXED_PQ:
        opts.forbid_flag("p", "--sweep q-fixed-pq (p is derived from --pq)")
        fixed["pq_product"] = opts.require("pq", float)
    else:
        fixed["p"] = opts.require("p", float)
        fixed["q"] = opts.require("q", float)
    if variable is not SweepVariable.D:
        fixed["d"] = opts.require("d", int)

    values = np.linspace(start, stop, points)
    if variable is SweepVariable.D:
        values = [float(int(round(v))) for v in values]
    else:
        values = [float(v) for v in values]
    return variable, values, fixed


@main.command()
@click.option("--scheme", "scheme_names", multiple=True, type=click.Choice(sorted(_SCHEMES)))
@_grid_flags
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def curve(scheme_names, sweep_name, start, stop, points, p, q, d, cap, sigma,
          eps, delta, pq, config_path, out_path):
    """Tradeoff curves over one swept variable, one CSV row per point."""
    opts = _Options(
        {"scheme": scheme_names, "sweep": sweep_name, "from": start, "to": stop,
         "points": points, "p": p, "q": q, "d": d, "C": cap, "sigma": sigma,
         "eps": eps, "delta": delta, "pq": pq},
        config_path,
    )
    schemes = _to_schemes(opts.get("scheme", _parse_schemes) or ())
    if not schemes:
        raise click.UsageError("at least one --scheme is required")
    variable, values, fixed = _collect_sweep_spec(opts)

    rows = sweep(schemes, variable, values, **fixed)
    failures = sum(1 for row in rows if row.error is not None)
    with _open_out(out_path) as stream:
        writer = _writer(stream)
        writer.writerow(CURVE_HEADER)
        for row in rows:
            writer.writerow([
                row.scheme.value, _fmt(row.p), _fmt(row.q), _fmt(row.d),
                _fmt(row.C), _fmt(row.sigma), _fmt(row.eps), _fmt(row.delta),
                _fmt(row.z_star),
                "" if row.error else _fmt(row.scheme in CERTIFIED_SCHEMES),
                row.error or "",
            ])
    if failures:
        click.echo(f"warning: {failures} of {len(rows)} grid points failed", err=True)


@main.command()
@click.option("--scheme", "scheme_name", type=click.Choice(sorted(_SCHEMES)), default=None)
@click.option("--p", type=float, default=None)
@click.option("--q", type=float, default=None)
@click.option("--d", type=int, default=None)
@click.option("--C", "cap", type=float, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--sigma-cap", type=float, default=None,
              help="upper end of the sigma search bracket")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def calibrate(scheme_name, p, q, d, cap, eps, delta, sigma_cap, config_path, out_path):
    """Smallest sigma meeting a per-round (eps, delta) target."""
    opts = _Options(
        {"scheme": scheme_name, "p": p, "q": q, "d": d, "C": cap,
         "eps": eps, "delta": delta, "sigma-cap": sigma_cap},
        config_path,
    )
    scheme = _to_schemes([opts.require("scheme", str)])[0]
    p_v = opts.require("p", float)
    q_v = opts.require("q", float)
    d_v = opts.require("d", int)
    c_v = opts.require("C", float)
    eps_v = opts.require("eps", float)
    delta_v = opts.require("delta", float)
    cap_v = opts.get("sigma-cap", float)
    bracket = SIGMA_BRACKET if cap_v is None else (SIGMA_BRACKET[0], cap_v)
    try:
        sigma_v = calibrate_sigma(
            scheme, p=p_v, q=q_v, d=d_v, C=c_v,
            eps_target=eps_v, delta_target=delta_v,
            sigma_bracket=bracket,
        )
    except CalibrationError as exc:
        click.echo(f"calibration failed: {exc}", err=True)
        sys.exit(3)
    with _open_out(out_path) as stream:
        writer = _writer(stream)
        writer.writerow(CALIBRATE_HEADER)
        writer.writerow([
            scheme.value, _fmt(p_v), _fmt(q_v), _fmt(d_v), _fmt(c_v),
            _fmt(eps_v), _fmt(delta_v), _fmt(sigma_v),
            _fmt(scheme in CERTIFIED_SCHEMES),
        ])


def _default_verify_points():
    for p, q, d, sigma, eps in itertools.product(
        VERIFY_GRID_P, VERIFY_GRID_Q, VERIFY_GRID_D,
        VERIFY_GRID_SIGMA, VERIFY_GRID_EPS,
    ):
        yield SamplingParams(p=p, q=q, d=d, C=1.0, sigma=sigma), eps


def _sweep_verify_points(opts: _Options):
    variable, values, fixed = _collect_sweep_spec(opts)
    for row in sweep([Scheme.MAIN], variable, values, **fixed):
        if row.error is not None:
            yield None, None, row.error
            continue
        params = SamplingParams(p=row.p, q=row.q, d=row.d, C=row.C, sigma=row.sigma)
        yield params, row.eps, None


@main.command()
@_grid_flags
@click.option("--ajc", is_flag=True, default=False,
              help="also spot-check the joint-convexity identity on seeded mixtures")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def verify(sweep_name, start, stop, points, p, q, d, cap, sigma, eps, delta,
           pq, ajc, config_path, out_path):
    """Cross-check the closed form against quadrature, crossing count and
    scheme ordering on a grid; nonzero exit when any check fails.

    Without grid flags, runs the built-in 576-point grid. The ordering
    column reports the lb <= main <= ub <= ols chain; the first link is a
    claim of the source analysis that does not hold everywhere, so the
    built-in grid is expected to flag those points.
    """
    opts = _Options(
        {"sweep": sweep_name, "from": start, "to": stop, "points": points,
         "p": p, "q": q, "d": d, "C": cap, "sigma": sigma, "eps": eps,
         "delta": delta, "pq": pq},
        config_path,
    )
    if opts.get("sweep", str) is None:
        points_iter = ((pr, e, None) for pr, e in _default_verify_points())
    else:
        points_iter = _sweep_verify_points(opts)

    n_points = 0
    n_failures = 0
    max_abs_diff = 0.0
    with _open_out(out_path) as stream:
        writer = _writer(stream)
        writer.writerow(VERIFY_HEADER)
        for params, eps_v, error in points_iter:
            n_points += 1
            if error is not None:
                n_failures += 1
                writer.writerow(["", "", "", "", "", "", "", "", "", "", "", error])
                continue
            closed = delta_main(params, eps_v).delta
            quad = delta_main_quadrature(params, eps_v)
            abs_diff = abs(closed - quad)
            max_abs_diff = max(max_abs_diff, abs_diff)
            crossings = count_integrand_sign_changes(params, eps_v)
            lb = delta_lower_bound(params, eps_v).delta
            ub = delta_upper_bound(params, eps_v).delta
            ols = delta_only_local(params.q, params.sigma, params.C, eps_v).delta
            ordering_ok = (
                lb <= closed + ORDERING_SLACK
                and closed <= ub + ORDERING_SLACK
                and ub <= ols + ORDERING_SLACK
            )
            single_ok = crossings == 1
            if abs_diff > VERIFY_ABS_TOL or not single_ok or not ordering_ok:
                n_failures += 1
            writer.writerow([
                _fmt(params.p), _fmt(params.q), _fmt(params.d), _fmt(params.C),
                _fmt(params.sigma), _fmt(eps_v), _fmt(closed), _fmt(quad),
                _fmt(abs_diff), _fmt(single_ok), _fmt(ordering_ok), "",
            ])

    ajc_ok = True
    if ajc:
        worst = 0.0
        for mu0, mu1, mu1p, gamma, alpha in seeded_ajc_triples(AJC_TRIPLES):
            lhs, rhs = ajc_decompose(mu0, mu1, mu1p, gamma, alpha)
            worst = max(worst, abs(lhs - rhs))
        ajc_ok = worst <= AJC_TOL
        click.echo(
            f"ajc: {AJC_TRIPLES} triples, max |lhs-rhs| = {worst:.3e}"
            f" ({'ok' if ajc_ok else 'FAIL'})",
            err=True,
        )

    click.echo(
        f"verify: {n_points} points, max abs_diff = {max_abs_diff:.3e}, "
        f"{n_failures} failing",
        err=True,
    )
    if n_failures or not ajc_ok:
        sys.exit(4)


@main.command()
@click.option("--task", "task_name", type=click.Choice([t.value for t in Task]), default=None)
@click.option("--N", "n_clients", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--p", type=float, default=None)
@click.option("--q", type=float, default=None)
@click.option("--C", "cap", type=float, default=None)
@click.option("--T", "iterations", type=int, default=None)
@click.option("--eta", type=float, default=None)
@click.option("--m", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--scheme", "scheme_name", type=click.Choice(sorted(_SCHEMES)), default=None,
              help="scheme that calibrates sigma from --eps/--delta (default: ub)")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def simulate(task_name, n_clients, d, p, q, cap, iterations, eta, m, seed,
             sigma, eps, delta, scheme_name, config_path, out_path):
    """Run synthetic federated training and emit the per-round metrics CSV."""
    opts = _Options(
        {"task": task_name, "N": n_clients, "d": d, "p": p, "q": q, "C": cap,
         "T": iterations, "eta": eta, "m": m, "seed": seed, "sigma": sigma,
         "eps": eps, "delta": delta, "scheme": scheme_name},
        config_path,
    )
    task = Task(opts.require("task", str))
    sigma_v = opts.get("sigma", float)
    eps_v = opts.get("eps", float)
    delta_v = opts.get("delta", float)
    if sigma_v is None and (eps_v is None or delta_v is None):
        raise click.UsageError("either --sigma or both --eps and --delta are required")
    if sigma_v is not None and (eps_v is not None or delta_v is not None):
        raise click.UsageError("--sigma conflicts with --eps/--delta calibration")
    scheme = _to_schemes([opts.get("scheme", str, "ub")])[0]
    config = SimConfig(
        N=opts.require("N", int),
        d=opts.require("d", int),
        p=opts.require("p", float),
        q=opts.require("q", float),
        C=opts.require("C", float),
        sigma=sigma_v,
        T=opts.require("T", int),
        eta=opts.require("eta", float),
        m=opts.require("m", int),
        seed=opts.require("seed", int),
    )
    try:
        rows = run_training(
            config, task,
            eps_per_round=eps_v, delta_per_round=delta_v,
            calibration_scheme=scheme,
        )
    except TrainingDivergedError as exc:
        click.echo(f"simulation diverged: {exc}", err=True)
        sys.exit(5)
    except CalibrationError as exc:
        click.echo(f"calibration failed: {exc}", err=True)
        sys.exit(3)
    with _open_out(out_path) as stream:
        write_metrics_csv(rows, stream)


if __name__ == "__main__":
    main()
