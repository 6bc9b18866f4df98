"""Command-line front end for the verification experiments.

One subcommand per verified identity; outputs are static result tables in
CSV or JSON.  Exit code 0 means every check in the run stayed within
tolerance, 1 means a check or quadrature certification failed, 2 means the
invocation itself was invalid.  A key=value config file can stand in for
flags; explicit flags win.  The HEATLINE_BUDGET environment variable
overrides the quadrature node budget.
"""

from __future__ import annotations

from pathlib import Path

import click

from .experiments import ExperimentSpec, export, run
from .quadrature import QuadratureError


def _floats(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _load_config(path: str | None) -> dict:
    """Parse a key = value config file (one pair per line, '#' comments)."""
    if path is None:
        return {}
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise click.UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        raw[key.strip().lower().replace("-", "_")] = value.strip()
    return raw


def _gather(config_path: str | None, flags: dict) -> dict:
    """Merge flag values over config-file values; flags win on conflict.

    Config values are parsed by the matching flag's own type; a config key
    that names none of the subcommand's flags is a usage error.
    """
    cfg = _load_config(config_path)
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise click.UsageError(f"{config_path}: this subcommand takes no {', '.join(unknown)}")
    ctx = click.get_current_context()
    params = {param.name: param for param in ctx.command.params}
    merged = {key: value for key, value in flags.items() if value is not None}
    for key in sorted(set(cfg) - set(merged)):
        merged[key] = params[key].type_cast_value(ctx, cfg[key])
    return merged


def _print_table(table) -> None:
    status = "PASS" if table.passed else "FAIL"
    click.echo(f"{status} {table.name}: {table.summary} [{len(table.rows)} rows, {table.wall_time_s:.2f}s]")
    click.echo("  " + ",".join(table.columns))
    head = table.rows[:12]
    for row in head:
        click.echo("  " + ",".join(str(c) for c in row))
    if len(table.rows) > len(head):
        click.echo(f"  ... {len(table.rows) - len(head)} more rows")


def _execute(name: str, config_path: str | None, flags: dict) -> None:
    """Run one experiment from a subcommand's flags (and config file) and exit."""
    params = _gather(config_path, flags)
    dim = params.pop("dim", None)
    out = params.pop("out", None)
    fmt = params.pop("format", "csv")
    if "alphas" in flags and "alpha" in params:
        # --alpha is a one-rung --alphas; an explicit ladder wins
        params.setdefault("alphas", [params.pop("alpha")])
    if params.get("measure", "").startswith("@"):
        params["measure"] = Path(params["measure"][1:]).read_text()
    spec = ExperimentSpec(name=name, dim=dim, params=params)
    try:
        table = run(spec)
    except QuadratureError as exc:
        click.echo(f"error running {name}: {exc}", err=True)
        raise SystemExit(1)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _print_table(table)
    if out:
        data = export(table, fmt)
        Path(out).write_bytes(data)
        click.echo(f"wrote {out} ({len(data)} bytes)")
    raise SystemExit(0 if table.passed else 1)


def _options(*decorators):
    def apply(fn):
        for dec in reversed(decorators):
            fn = dec(fn)
        return fn

    return apply


_common = _options(
    click.option("--dim", type=int, default=None, help="Ambient dimension n (default 1, or a measure literal's own)."),
    click.option("--tol", type=float, default=None, help="Check tolerance."),
    click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the table to this path."),
    click.option("--format", "format", type=click.Choice(["csv", "json"]), default=None, help="Export format (default csv)."),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="key = value config file; flags win."),
)
_grid = _options(
    click.option("--radius", type=float, default=None, help="Quadrature cube radius."),
    click.option("--points", type=int, default=None, help="Simpson intervals per axis."),
)
_measure = click.option("--measure", default=None, help="Measure JSON literal, or @file.")


@click.group()
def main() -> None:
    """Numerical verification of the Gauss-Weierstrass transform calculus."""


@main.command("verify-kernels")
@_common
@click.option("--alpha", type=float, default=None, help="Single kernel scale.")
@click.option("--alphas", type=_floats, default=None, help="Comma-separated kernel scales.")
def verify_kernels(config_path, **flags):
    """Check the kernel transform pair on a frequency grid."""
    _execute("verify-kernels", config_path, flags)


@main.command("integrate")
@_common
@_grid
@click.option("--f", "preset", default=None, help="Integrand preset, e.g. weierstrass:0.1.")
def integrate_cmd(config_path, **flags):
    """Integrate a preset over R^n with certified error terms."""
    _execute("integrate", config_path, flags)


@main.command("fourier")
@_common
@click.option("--f", "preset", default=None, help="Function preset to transform.")
@click.option("--xi-max", type=float, default=None, help="Frequency grid half-width.")
@click.option("--xi-count", type=int, default=None, help="Number of frequency samples.")
def fourier_cmd(config_path, **flags):
    """Tabulate the transform of a preset along the first frequency axis."""
    _execute("fourier", config_path, flags)


@main.command("invert")
@_common
@click.option("--f", "preset", default=None, help="Function preset to invert.")
@click.option("--alpha", type=float, default=None, help="Single summability scale.")
@click.option("--alphas", type=_floats, default=None, help="Summability ladder.")
@click.option("--xs", type=_floats, default=None, help="Sample points.")
def invert_cmd(config_path, **flags):
    """Gauss-summable inversion against direct smoothing, along a ladder."""
    _execute("invert", config_path, flags)


@main.command("mollify")
@_common
@click.option("--f", "preset", default=None, help="Function preset to smooth.")
@click.option("--alpha", type=float, default=None, help="Smoothing scale.")
@click.option("--xs", type=_floats, default=None, help="Sample points.")
def mollify_cmd(config_path, **flags):
    """Smooth a preset and check both contraction inequalities."""
    _execute("mollify", config_path, flags)


@main.command("multiplication")
@_common
@click.option("--a", type=float, default=None, help="First kernel scale.")
@click.option("--b", type=float, default=None, help="Second kernel scale.")
def multiplication_cmd(config_path, **flags):
    """Both sides of the transform duality for a pair of kernels."""
    _execute("multiplication", config_path, flags)


@main.command("modulate")
@_common
@click.option("--f", "preset", default=None, help="Function preset to modulate.")
@click.option("--shifts", type=_floats, default=None, help="Modulation frequencies a.")
@click.option("--etas", type=_floats, default=None, help="Evaluation frequencies eta.")
def modulate_cmd(config_path, **flags):
    """Check the shift rule for modulated transforms on an (a, eta) grid."""
    _execute("modulate", config_path, flags)


@main.command("measure-ft")
@_common
@_measure
@click.option("--xi-max", type=float, default=None, help="Frequency grid half-width.")
@click.option("--xi-count", type=int, default=None, help="Number of frequency samples.")
def measure_ft_cmd(config_path, **flags):
    """Tabulate the transform of a bounded measure."""
    _execute("measure-ft", config_path, flags)


@main.command("measure-invert")
@_common
@_measure
@click.option("--alphas", type=_floats, default=None, help="Summability ladder.")
@click.option("--xs", type=_floats, default=None, help="Sample points along the first axis.")
def measure_invert_cmd(config_path, **flags):
    """Measure inversion against direct measure smoothing."""
    _execute("measure-invert", config_path, flags)


@main.command("weak-convergence")
@_common
@_grid
@_measure
@click.option("--h", "h", default=None, help="Bounded pairing preset.")
@click.option("--alphas", type=_floats, default=None, help="Smoothing ladder.")
def weak_convergence_cmd(config_path, **flags):
    """Pair the smoothed measure against h along a ladder of scales."""
    _execute("weak-convergence", config_path, flags)


if __name__ == "__main__":
    main()
