"""Command-line front end for the verification experiments.

One subcommand per registered experiment, with the flags generated from the
parameters it declares in ``experiments.PARAMS``; outputs are static result
tables in CSV or JSON.  Exit code 0 means every check in the run stayed
within tolerance, 1 means a check or quadrature certification failed, 2 means
the invocation itself was invalid.  A key=value config file, keyed by flag
name, can stand in for flags; explicit flags win.  HEATLINE_BUDGET overrides
the quadrature node budget, the one environment variable the engine reads;
its radius ladder (4 to 64) and point ladder are fixed.  A grid given by
--radius and --points needs a finite radius and a multiple of 4 points (so
it embeds its N/2 grid), --tol a positive, finite number, and --format an
--out to write; anything else exits 2.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import click

from .experiments import EXPERIMENTS, PARAMS, ExperimentSpec, export, run
from .measures import BoundedMeasure
from .quadrature import QuadratureError


def floats(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(f"expected a comma-separated list of numbers, got {text!r}") from exc


def measure(text: str) -> str:
    """A measure JSON literal, read from the named file when it starts with '@'."""
    if not text.startswith("@"):
        return text
    try:
        return Path(text[1:]).read_text()
    except OSError as exc:
        raise click.BadParameter(f"cannot read the measure literal {text[1:]!r}: {exc.strerror}") from exc


# how a flag's text becomes each declared parameter type (the function names are the metavars)
_CLICK_TYPES = {float: click.FLOAT, int: click.INT, str: click.STRING, list[float]: floats, BoundedMeasure: measure}


def _load_config(path: str | None) -> dict:
    """Parse a key = value config file (one pair per line, '#' comments).

    A key is one of the subcommand's flags without its dashes ('-' and '_'
    alike); its value is parsed by that flag's own type.
    """
    if path is None:
        return {}
    ctx = click.get_current_context()
    by_key = {opt.opts[0][2:]: opt for opt in ctx.command.params if opt.name != "config_path"}
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise click.UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        opt = by_key.get(key.lower().replace("_", "-"))
        if opt is None:
            raise click.UsageError(
                f"{path}:{lineno}: this subcommand takes no {key}; its keys are {', '.join(sorted(by_key))}"
            )
        values[opt.name] = opt.type_cast_value(ctx, value)
    return values


def _print_table(table) -> None:
    status = "PASS" if table.passed else "FAIL"
    click.echo(f"{status} {table.name}: {table.summary} [{len(table.rows)} rows, {table.wall_time_s:.2f}s]")
    click.echo("  " + ",".join(table.columns))
    head = table.rows[:12]
    for row in head:
        click.echo("  " + ",".join(str(c) for c in row))
    if len(table.rows) > len(head):
        click.echo(f"  ... {len(table.rows) - len(head)} more rows")


def _execute(name: str, config_path: str | None, **flags) -> None:
    """Run one experiment from a subcommand's flags (and config file) and exit."""
    params = _load_config(config_path)
    params.update((key, value) for key, value in flags.items() if value is not None)
    dim = params.pop("dim", None)
    out = params.pop("out", None)
    fmt = params.pop("format", None)
    if fmt is not None and out is None:
        raise click.UsageError("--format chooses the export format of --out; give --out too, or drop --format")
    try:
        table = run(ExperimentSpec(name=name, dim=dim, params=params))
    except QuadratureError as exc:
        click.echo(f"error running {name}: {exc}", err=True)
        raise SystemExit(1)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _print_table(table)
    if out:
        data = export(table, fmt or "csv")
        Path(out).write_bytes(data)
        click.echo(f"wrote {out} ({len(data)} bytes)")
    raise SystemExit(0 if table.passed else 1)


def _command(name: str) -> click.Command:
    options = [
        click.Option(["--dim"], type=int, help="Ambient dimension n (default 1, or a measure literal's own)."),
        *(click.Option([p.option, p.name], type=_CLICK_TYPES[p.type], help=p.help) for p in PARAMS[name]),
        click.Option(["--out"], type=click.Path(dir_okay=False), help="Write the table to this path."),
        click.Option(["--format"], type=click.Choice(["csv", "json"]), help="Export format of --out (default csv)."),
        click.Option(
            ["--config", "config_path"], type=click.Path(exists=True, dir_okay=False), help="key = value config file; flags win."
        ),
    ]
    return click.Command(name, params=options, callback=partial(_execute, name), help=EXPERIMENTS[name].__doc__)


@click.group()
def main() -> None:
    """Numerical verification of the Gauss-Weierstrass transform calculus."""


for _name in EXPERIMENTS:
    main.add_command(_command(_name))


if __name__ == "__main__":
    main()
