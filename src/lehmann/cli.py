"""Command-line front-end.

Subcommands: sample, fit, moments, kl, powerloss, simulate. Machine
output (CSV/JSON/SVG) goes to --out or standard output; human-readable
errors go to standard error. Exit codes: 0 success, 2 for usage errors
(bad flags, descriptors, config files, ranges), 1 for numerical
failures (nonconvergent quadrature, degenerate samples).

Set the LEHMANN_LOG environment variable (DEBUG, INFO, WARNING, ...) to
control log verbosity.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sys
from pathlib import Path

import click
import numpy as np

from .base_dist import BaseDistribution
from .descriptors import parse_distribution
from .errors import DegenerateSampleError, DomainError, NumericalError, ParseError
from .estimate import _default_box, fit_full
from .extend import extend
from .extend import sample as draw_sample
from .extend import sample_from_csv, sample_to_csv
from .infotheory import _as_extended, kl_numeric, power_loss_closed
from .lrt_sim import parse_sim_config, run_power_study
from .svgplot import render_curve


def _setup_logging() -> None:
    name = os.environ.get("LEHMANN_LOG", "").strip()
    if not name:
        return
    level = getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        raise click.UsageError(f"LEHMANN_LOG={name!r} is not a log level")
    logging.basicConfig(
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("lehmann").setLevel(level)


def _guarded(fn):
    """Map library errors onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParseError, DomainError) as exc:
            raise click.UsageError(str(exc)) from exc
        except (NumericalError, DegenerateSampleError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1) from exc

    return wrapper


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@click.group()
def main() -> None:
    """Exponentiated-distribution toolkit: sampling, fitting, divergences,
    the power-loss curve, and the mis-specified LRT power study."""
    _setup_logging()


@main.command(name="sample")
@click.option("--dist", required=True, help="Distribution descriptor, e.g. "
              "'lehmann1(base=exponential(rate=1.0),lambda=2.0)' or a base "
              "descriptor such as 'weibull(shape=2,scale=1)'.")
@click.option("--lambda", "lam", type=float, default=None,
              help="Shorthand: wrap a base descriptor as a first-kind "
              "powered law with this exponent (use a lehmann2(...) "
              "descriptor for the second kind).")
@click.option("--n", type=int, required=True, help="Number of draws.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@_guarded
def cmd_sample(dist, lam, n, seed, out, fmt) -> None:
    """Draw a reproducible sample by inverse transform."""
    d = parse_distribution(dist)
    if lam is not None:
        if not isinstance(d, BaseDistribution):
            raise DomainError("--lambda applies to a base descriptor only; "
                              "the given descriptor already carries an exponent")
        d = extend(d, lam)
    s = draw_sample(d, n, seed)
    if fmt == "csv":
        _emit(sample_to_csv(s), out)
    else:
        _emit(json.dumps({
            "seed": s.seed,
            "source": s.source,
            "generator": s.generator,
            "values": [float(v) for v in s.values],
        }) + "\n", out)


@main.command(name="fit")
@click.argument("input", type=click.File("r"))
@click.option("--dist", default=None,
              help="Descriptor naming the kind and base family to fit; "
              "defaults to the source descriptor recorded in the file.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def cmd_fit(input, dist, out) -> None:
    """Fit (lambda, theta) to a sample CSV (file path or '-')."""
    s = sample_from_csv(input.read())
    descriptor = dist or s.source
    if not descriptor:
        raise DomainError("the file records no source descriptor; pass --dist")
    d = _as_extended(parse_distribution(descriptor))
    result = fit_full(d.kind, type(d.base), s, theta_bounds=_default_box(d.base.theta))
    _emit(result.to_json() + "\n", out)


@main.command(name="moments")
@click.option("--dist", required=True, help="Distribution descriptor.")
@click.option("--k", type=int, default=1, show_default=True,
              help="Highest moment order; orders 1..k are reported.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@_guarded
def cmd_moments(dist, k, out, fmt) -> None:
    """Raw moments E[X**j] for j = 1..k, by quadrature."""
    d = parse_distribution(dist)
    shown = d.describe()
    d = _as_extended(d)
    if k < 1:
        raise DomainError(f"--k must be >= 1, got {k}")
    rows = [(j, d.moment(j)) for j in range(1, k + 1)]
    if fmt == "csv":
        lines = [f"# dist: {shown}", "k,value"]
        lines.extend(f"{j},{v!r}" for j, v in rows)
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(json.dumps({
            "dist": shown,
            "moments": [{"k": j, "value": v} for j, v in rows],
        }) + "\n", out)


@main.command(name="kl")
@click.option("--p", "p_desc", required=True, help="Descriptor of the left "
              "(true) distribution.")
@click.option("--q", "q_desc", required=True, help="Descriptor of the right "
              "(approximating) distribution.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def cmd_kl(p_desc, q_desc, out) -> None:
    """KL(p || q) in nats, by quadrature; JSON output."""
    result = kl_numeric(parse_distribution(p_desc), parse_distribution(q_desc))
    _emit(result.to_json() + "\n", out)


@main.command(name="powerloss")
@click.option("--lambda-min", type=float, default=1.0, show_default=True)
@click.option("--lambda-max", type=float, default=10.0, show_default=True)
@click.option("--steps", type=int, default=10, show_default=True,
              help="Number of grid points (>= 2).")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "svg"]),
              default="csv", show_default=True)
@_guarded
def cmd_powerloss(lambda_min, lambda_max, steps, out, fmt) -> None:
    """The power-loss curve ln(lambda) + (1-lambda)/lambda on a grid."""
    if not 0.0 < lambda_min < lambda_max:
        raise DomainError(
            f"need 0 < lambda-min < lambda-max, got {lambda_min} and {lambda_max}"
        )
    if steps < 2:
        raise DomainError(f"--steps must be >= 2, got {steps}")
    grid = np.linspace(lambda_min, lambda_max, steps)
    values = [power_loss_closed(v) for v in grid]
    if fmt == "csv":
        lines = ["lambda,power_loss"]
        lines.extend(f"{float(g)!r},{v!r}" for g, v in zip(grid, values))
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(render_curve(grid, values, "lambda", "power loss (nats)"), out)


@main.command(name="simulate")
@click.option("--config", "config_file", type=click.File("r"), required=True,
              help="Flat key/value config file; see parse_sim_config docs.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@_guarded
def cmd_simulate(config_file, out, fmt) -> None:
    """Run the calibrated LRT power study described by a config file."""
    cfg = parse_sim_config(config_file.read())
    report = run_power_study(cfg)
    if fmt == "csv":
        _emit(report.to_csv(), out)
    else:
        _emit(report.to_json() + "\n", out)


if __name__ == "__main__":
    main()
