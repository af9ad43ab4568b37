"""Command line surface emitting CSV for curves, calibration, verification
and simulation. No plotting; every figure is two columns away from any
plotting tool. One command class maps library failures to exits: a value
outside its domain exits 2, an unreachable calibration target 3 and a
diverged simulation 5. One writer emits every CSV.

Each option is declared once, in its click decorator. `--config` reads a
manifest whose keys become click's defaults for the value options whose
flags they name, so manifest values are cast and validated like flags and
a flag on the command line still wins. The rules between grid flags are
`accountant.sweep`'s own; the CLI adds only that a command-line flag for a
value the sweep supplies is a conflict."""

from __future__ import annotations

import csv
import itertools
import sys
from contextlib import nullcontext

import click
import numpy as np
from click.core import ParameterSource

from .accountant import (
    CERTIFIED_SCHEMES,
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
from .numerics import DomainError
from .simulator import SimConfig, Task, TrainingDivergedError, run_training

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
METRICS_HEADER = (
    "iteration", "loss", "grad_norm", "participants", "sampled_elements",
    "sigma", "eps_round", "delta_round", "certified",
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

_SCHEME_CHOICE = click.Choice(
    sorted(s.value for s in Scheme if s is not Scheme.GAUSSIAN_MECHANISM)
)


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


def _apply_config(ctx: click.Context, param, path: str | None) -> None:
    """Make each manifest key the default of the value option whose flag it
    names. `--out`, flags such as `--ajc` and unknown keys are ignored; a
    multiple option splits its value on commas and spaces."""
    if path is None:
        return
    options = {
        opt.opts[0][2:]: opt
        for opt in ctx.command.params
        if opt.expose_value and not opt.is_flag and opt.name != "out_path"
    }
    ctx.default_map = {
        options[key].name: raw.replace(",", " ").split() if options[key].multiple else raw
        for key, raw in _read_config(path).items()
        if key in options
    }


def _io_flags(fn):
    fn = click.option("--out", "out_path", type=click.Path(dir_okay=False))(fn)
    return click.option(
        "--config", type=click.Path(exists=True, dir_okay=False),
        is_eager=True, expose_value=False, callback=_apply_config,
    )(fn)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # 17 significant digits: lossless for 64-bit floats.
    return "%.17g" % float(value)


def _write_csv(path: str | None, header, rows) -> None:
    """Write header and rows to path, or to stdout when path is None."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


class _Command(click.Command):
    """Runs a command with library failures as exits."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            # with this command's ctx, so the usage line names the command
            raise click.UsageError(str(exc), ctx) from exc
        except CalibrationError as exc:
            click.echo(f"calibration failed: {exc}", err=True)
            sys.exit(3)
        except TrainingDivergedError as exc:
            click.echo(f"simulation diverged: {exc}", err=True)
            sys.exit(5)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main():
    """Privacy accounting for DP-SGD with random client participation."""


_GRID_FLAGS = [
    click.option("--sweep", "sweep_name", type=click.Choice(sorted(v.value for v in SweepVariable))),
    click.option("--from", "start", type=float),
    click.option("--to", "stop", type=float),
    click.option("--points", type=click.IntRange(min=1)),
    click.option("--p", type=float),
    click.option("--q", type=float),
    click.option("--d", type=int),
    click.option("--C", "C", type=float),
    click.option("--sigma", type=float),
    click.option("--eps", type=float),
    click.option("--delta", type=float),
    click.option("--pq", "pq_product", type=float, help="fixed p*q product for the q-fixed-pq sweep"),
]
# The grid's own flags; `sweep` itself requires each coordinate it does not supply.
_GRID_NEEDED = {"start", "stop", "points"}


def _grid_flags(fn):
    for flag in reversed(_GRID_FLAGS):
        fn = flag(fn)
    return fn


def _grid_sweep(schemes, sweep_name, start, stop, points, **fixed):
    """Run `sweep` over the grid flags. A command-line flag for a value the
    sweep supplies is a usage error; a manifest key for one is ignored."""
    if sweep_name is None:
        raise click.UsageError("missing --sweep")
    ctx = click.get_current_context()
    variable = SweepVariable(sweep_name)
    for param in ctx.command.params:
        if param.name in variable.supplies:
            if ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE:
                raise click.UsageError(f"{param.opts[0]} conflicts with --sweep {sweep_name}")
            fixed[param.name] = None
        elif param.name in _GRID_NEEDED and ctx.params[param.name] is None:
            raise click.UsageError(f"missing {param.opts[0]}")

    # an infinite end gives nan and inf grid values, which become error rows
    with np.errstate(invalid="ignore"):
        values = np.linspace(start, stop, points)
    if variable is SweepVariable.D:
        values = np.rint(values)
    return sweep(schemes, variable, values, **fixed)


@main.command()
@click.option("--scheme", "scheme_names", multiple=True, required=True, type=_SCHEME_CHOICE)
@_grid_flags
@_io_flags
def curve(scheme_names, out_path, **grid):
    """Tradeoff curves over one swept variable, one CSV row per point."""
    rows = _grid_sweep([Scheme(name) for name in scheme_names], **grid)
    failures = sum(1 for row in rows if row.error is not None)
    _write_csv(out_path, CURVE_HEADER, (
        (row.scheme.value, row.p, row.q, row.d, row.C, row.sigma, row.eps,
         row.delta, row.z_star,
         None if row.error else row.scheme in CERTIFIED_SCHEMES, row.error)
        for row in rows
    ))
    if failures:
        click.echo(f"warning: {failures} of {len(rows)} grid points failed", err=True)


@main.command()
@click.option("--scheme", "scheme_name", required=True, type=_SCHEME_CHOICE)
@click.option("--p", type=float, required=True)
@click.option("--q", type=float, required=True)
@click.option("--d", type=int, required=True)
@click.option("--C", "C", type=float, required=True)
@click.option("--eps", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--sigma-cap", type=float, help="upper end of the sigma search bracket")
@_io_flags
def calibrate(scheme_name, p, q, d, C, eps, delta, sigma_cap, out_path):
    """Smallest sigma meeting a per-round (eps, delta) target."""
    scheme = Scheme(scheme_name)
    sigma = calibrate_sigma(
        scheme, p=p, q=q, d=d, C=C, eps_target=eps, delta_target=delta, sigma_cap=sigma_cap,
    )
    _write_csv(out_path, CALIBRATE_HEADER, [
        (scheme.value, p, q, d, C, eps, delta, sigma, scheme in CERTIFIED_SCHEMES)
    ])


def _default_verify_points():
    for p, q, d, sigma, eps in itertools.product(
        VERIFY_GRID_P, VERIFY_GRID_Q, VERIFY_GRID_D,
        VERIFY_GRID_SIGMA, VERIFY_GRID_EPS,
    ):
        yield SamplingParams(p=p, q=q, d=d, C=1.0, sigma=sigma), eps


@main.command()
@_grid_flags
@click.option("--ajc", is_flag=True, default=False,
              help="also spot-check the joint-convexity identity on seeded mixtures")
@_io_flags
def verify(sweep_name, ajc, out_path, **grid):
    """Cross-check the closed form against quadrature, crossing count and
    scheme ordering on a grid; nonzero exit when any check fails.

    Without grid flags, runs the built-in 576-point grid. The ordering
    column reports the lb <= main <= ub <= ols chain; the first link is a
    claim of the source analysis that does not hold everywhere, so the
    built-in grid is expected to flag those points.
    """
    if sweep_name is None:
        points_iter = ((pr, e, None) for pr, e in _default_verify_points())
    else:
        points_iter = (
            (None, None, row.error) if row.error is not None else (
                SamplingParams(p=row.p, q=row.q, d=row.d, C=row.C, sigma=row.sigma),
                row.eps, None,
            )
            for row in _grid_sweep([Scheme.MAIN], sweep_name, **grid)
        )

    rows = []
    n_failures = 0
    max_abs_diff = 0.0
    for params, eps_v, error in points_iter:
        if error is not None:
            n_failures += 1
            rows.append([None] * 11 + [error])
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
        rows.append([
            params.p, params.q, params.d, params.C, params.sigma, eps_v,
            closed, quad, abs_diff, single_ok, ordering_ok, None,
        ])
    _write_csv(out_path, VERIFY_HEADER, rows)

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
        f"verify: {len(rows)} points, max abs_diff = {max_abs_diff:.3e}, "
        f"{n_failures} failing",
        err=True,
    )
    if n_failures or not ajc_ok:
        sys.exit(4)


@main.command()
@click.option("--task", "task_name", required=True, type=click.Choice([t.value for t in Task]))
@click.option("--N", "N", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--q", type=float, required=True)
@click.option("--C", "C", type=float, required=True)
@click.option("--T", "T", type=int, required=True)
@click.option("--eta", type=float, required=True)
@click.option("--m", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--sigma", type=float)
@click.option("--eps", type=float)
@click.option("--delta", type=float)
@click.option("--scheme", "scheme_name", type=_SCHEME_CHOICE, default="ub",
              help="scheme that calibrates sigma from --eps/--delta (default: ub)")
@_io_flags
def simulate(task_name, sigma, eps, delta, scheme_name, out_path, **protocol):
    """Run synthetic federated training and emit the per-round metrics CSV.

    A sigma calibrated here carries its (eps, delta) targets and whether the
    scheme certifies them into every row; a set --sigma claims neither."""
    source = click.get_current_context().get_parameter_source
    typed = {n for n in ("sigma", "eps", "delta") if source(n) is ParameterSource.COMMANDLINE}
    if "sigma" in typed:  # a typed flag outranks a manifest key it conflicts with
        eps, delta = (eps if "eps" in typed else None), (delta if "delta" in typed else None)
    elif typed:
        sigma = None
    if sigma is None and (eps is None or delta is None):
        raise click.UsageError("either --sigma or both --eps and --delta are required")
    if sigma is not None and (eps is not None or delta is not None):
        raise click.UsageError("--sigma conflicts with --eps/--delta calibration")
    if sigma is not None and source("scheme_name") is ParameterSource.COMMANDLINE:
        raise click.UsageError("--sigma conflicts with --scheme, which only calibrates")
    certified = None
    if sigma is None:
        scheme = Scheme(scheme_name)
        sigma = calibrate_sigma(
            scheme, p=protocol["p"], q=protocol["q"], d=protocol["d"],
            C=protocol["C"], eps_target=eps, delta_target=delta,
        )
        certified = scheme in CERTIFIED_SCHEMES
    rows = run_training(SimConfig(sigma=sigma, **protocol), Task(task_name))
    _write_csv(out_path, METRICS_HEADER, (
        (row.iteration, row.loss, row.grad_norm, row.participants,
         row.sampled_elements, sigma, eps, delta, certified)
        for row in rows
    ))


if __name__ == "__main__":
    main()
