"""Command-line interface.

Subcommands: ``convert`` (strict-orders or CSV to canonical rankings CSV),
``fit``, ``summary``, ``qv`` (quasi-variances and comparison intervals),
``connectivity`` and ``tree``.  Human-readable tables go to
standard output (4 decimal places); machine outputs go to files at full
precision; warnings go to standard error.  Exit codes: 0 success, 2 input
error, 3 model error.
"""

from __future__ import annotations

import functools
import sys
import warnings

import click
import numpy as np

from . import __version__, inference, io, tree as tree_mod
from .errors import DataError, ModelError
from .fit import _METHODS, FitConfig, fit as fit_model
from .network import adjacency, connectivity as connectivity_of
from .rankings import RankingsTable, from_orderings, group_rankings

INPUT_ERROR = 2
MODEL_ERROR = 3


def _forward_warnings(wlist) -> None:
    for item in wlist:
        click.echo(f"warning: {item.message}", err=True)


def _handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            with warnings.catch_warnings(record=True) as wlist:
                warnings.simplefilter("always")
                result = func(*args, **kwargs)
            _forward_warnings(wlist)
            return result
        except (DataError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(INPUT_ERROR)
        except ModelError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(MODEL_ERROR)

    return wrapper


def _soc_table(source) -> RankingsTable:
    """A strict-orders file (path or stream), items sorted by name."""
    orderings, freqs = io.read_preflib_soc(source)
    used = (orderings.codes > 0).any(axis=0)
    items = sorted(name for name, u in zip(orderings.names, used) if u)
    return from_orderings(orderings, items, weights=freqs)


def _load_table(source, weights_col: str | None = None, name: str | None = None) -> RankingsTable:
    """Strict orders if ``name`` (by default the path) ends in .soc, else a rankings CSV."""
    if (name or source).endswith(".soc"):
        return _soc_table(source)
    return io.read_rank_csv(source, weights_col)


def _fit_options(func):
    for dec in [
        click.option("--npseudo", default=FitConfig.npseudo, show_default=True,
                     help="Weight of each pseudo-comparison with the ghost item; 0 = plain MLE."),
        click.option("--method", default=FitConfig.method, show_default=True,
                     type=click.Choice(_METHODS),
                     help="Iterative scaling, or Newton's method on the exact "
                          "information (both quasi-Newton names select it)."),
        click.option("--maxit", default=FitConfig.maxit, show_default=True),
        click.option("--tol", default=FitConfig.tol, show_default=True),
    ][::-1]:
        func = dec(func)
    return func


def _config(npseudo, method, maxit, tol) -> FitConfig:
    return FitConfig(npseudo=npseudo, method=method, maxit=maxit, tol=tol)


def _parse_ref(ref: str | None, items):
    if ref is None or ref == "":
        return 0
    if ref.lower() == "mean":
        return None
    if ref in items:
        return ref
    try:
        return int(ref)
    except ValueError:
        raise DataError(f"unknown ref {ref!r}") from None


@click.group()
@click.version_option(version=__version__, prog_name="rankworth")
def main():
    """Worth models for rankings with ties: fitting, inference, trees."""


@main.command()
@click.argument("source")
@click.option("-o", "--output", required=True, help="Canonical rankings CSV path.")
@click.option("--url", is_flag=True, help="Treat SOURCE as a URL to fetch.")
@_handle_errors
def convert(source, output, url):
    """Convert a strict-orders file or rankings CSV to canonical CSV."""
    if url:
        import urllib.parse
        import urllib.request

        with urllib.request.urlopen(source) as resp:
            table = _load_table(resp, name=urllib.parse.urlparse(source).path)
    else:
        table = _load_table(source)
    io.write_rank_csv(table, output)
    click.echo(f"wrote {table.n_rows} rankings of {table.n_items} items to {output}")


@main.command(name="fit")
@click.argument("data")
@_fit_options
@click.option("--ref", default=None, help="Reference: item name, index, or 'mean'.")
@click.option("--json-out", default=None, help="Write the fitted model as JSON.")
@click.option("--weights-col", default=None, help="Name of the weight column.")
@_handle_errors
def fit_cmd(data, npseudo, method, maxit, tol, ref, json_out, weights_col):
    """Fit the ranking model and print coefficients."""
    table = _load_table(data, weights_col)
    result = fit_model(table, _config(npseudo, method, maxit, tol))
    names, est = result.coef(ref=_parse_ref(ref, result.items))
    click.echo("coefficients (log scale):")
    for name, value in zip(names, est):
        click.echo(f"  {name:>12s}  {value: .4f}")
    wnames, worth = result.coef(ref=0, log=False)
    click.echo("worth (sums to 1 over items):")
    for name, value in zip(wnames, worth):
        click.echo(f"  {name:>12s}  {value: .4f}")
    click.echo(f"iterations: {result.iterations}"
               + ("" if result.converged else " (not converged)"))
    if json_out:
        io.write_model_json(result, json_out)


@main.command()
@click.argument("data")
@_fit_options
@click.option("--ref", default=None, help="Reference: item name, index, or 'mean'.")
@click.option("--csv-out", default=None, help="Write the summary table as CSV.")
@click.option("--json-out", default=None, help="Write the summary table as JSON.")
@click.option("--weights-col", default=None)
@_handle_errors
def summary(data, npseudo, method, maxit, tol, ref, csv_out, json_out, weights_col):
    """Fit and print estimates, standard errors, Z tests, and metrics."""
    table = _load_table(data, weights_col)
    result = fit_model(table, _config(npseudo, method, maxit, tol))
    summ = inference.summarize(result, ref=_parse_ref(ref, result.items))
    click.echo(f"{'parameter':>12s} {'estimate':>10s} {'se':>8s} {'z':>8s} {'p':>9s}")
    for name, est, se, z, p in summ.rows():
        if np.isnan(se):
            click.echo(f"{name:>12s} {est:10.4f} {'NA':>8s} {'NA':>8s} {'NA':>9s}")
        else:
            click.echo(f"{name:>12s} {est:10.4f} {se:8.4f} {z:8.3f} {p:9.6f}")
    click.echo(f"residual deviance: {summ.deviance:.1f} "
               f"on {summ.residual_df:.0f} degrees of freedom")
    click.echo(f"aic: {summ.aic:.1f}")
    click.echo(f"iterations: {summ.iterations}")
    if csv_out:
        summ.write_csv(csv_out)
    if json_out:
        summ.write_json(json_out)


@main.command()
@click.argument("data")
@_fit_options
@click.option("--ref", default=None)
@click.option("--level", default=0.95, show_default=True)
@click.option("--csv-out", default=None,
              help="Write item, estimate, se, quasi_se, lower, upper as CSV.")
@click.option("--json-out", default=None, help="Write the same table as JSON.")
@click.option("--weights-col", default=None)
@_handle_errors
def qv(data, npseudo, method, maxit, tol, ref, level, csv_out, json_out,
       weights_col):
    """Quasi-variances and comparison intervals for the item worths."""
    table = _load_table(data, weights_col)
    result = fit_model(table, _config(npseudo, method, maxit, tol))
    quasi = inference.quasi_variances(result, ref=_parse_ref(ref, result.items))
    lower, upper = inference.comparison_intervals(quasi, level)
    click.echo(f"{'item':>12s} {'estimate':>10s} {'se':>8s} {'quasi_se':>9s} "
               f"{'lower':>9s} {'upper':>9s}")
    for name, est, se, qse, lo, hi in zip(quasi.items, quasi.estimates, quasi.std_errors,
                                          quasi.quasi_se, lower, upper):
        se_txt = f"{'NA':>8s}" if np.isnan(se) else f"{se:8.4f}"
        click.echo(f"{name:>12s} {est:10.4f} {se_txt} {qse:9.4f} {lo:9.4f} {hi:9.4f}")
    lo, hi = quasi.simple_error_range
    click.echo(f"worst relative SE errors, simple contrasts: "
               f"{100 * lo:.2f}% to {100 * hi:.2f}%")
    lo, hi = quasi.all_error_range
    click.echo(f"worst relative SE errors, all contrasts: "
               f"{100 * lo:.2f}% to {100 * hi:.2f}%")
    if csv_out:
        quasi.write_csv(csv_out, level)
    if json_out:
        quasi.write_json(json_out, level)


@main.command()
@click.argument("data")
@click.option("--adjacency-csv", default=None, help="Write the adjacency matrix as CSV.")
@click.option("--weights-col", default=None)
@_handle_errors
def connectivity(data, adjacency_csv, weights_col):
    """Adjacency matrix and strongly-connected-component report."""
    table = _load_table(data, weights_col)
    adj = adjacency(table)
    report = connectivity_of(adj)
    click.echo("adjacency (wins of row item over column item):")
    width = max(len(n) for n in adj.items)
    header = " ".join(f"{n:>{max(width, 6)}s}" for n in adj.items)
    click.echo(f"{'':>{width}s} {header}")
    for name, row in zip(adj.items, adj.counts):
        cells = " ".join(f"{v:>{max(width, 6)}.6g}" for v in row)
        click.echo(f"{name:>{width}s} {cells}")
    if not report.strongly_connected:
        click.echo("network of items is not strongly connected")
    click.echo("membership: " + " ".join(
        f"{n}={m}" for n, m in zip(report.items, report.membership)))
    click.echo("csize: " + " ".join(str(c) for c in report.csize))
    click.echo(f"no: {report.no}")
    if adjacency_csv:
        adj.write_csv(adjacency_csv)


@main.command(name="tree")
@click.argument("data")
@click.option("--covariates", "covariates_path", required=True,
              help="CSV with one row per group; a 'group' column is optional.")
@click.option("--minsize", default=tree_mod.TreeConfig.minsize, show_default=True)
@click.option("--maxdepth", default=tree_mod.TreeConfig.maxdepth, show_default=True)
@click.option("--alpha", default=tree_mod.TreeConfig.alpha, show_default=True)
@_fit_options
@click.option("--json-out", default=None, help="Write the tree as JSON.")
@click.option("--plot-csv", default=None, help="Write per-leaf worths as CSV.")
@_handle_errors
def tree_cmd(data, covariates_path, minsize, maxdepth, alpha,
             npseudo, method, maxit, tol, json_out, plot_csv):
    """Grow a partition tree; DATA needs a 'group' column mapping each
    ranking to a covariate row."""
    table, groups = io._parse_rank_csv(data)
    if groups is None:
        groups = np.arange(1, table.n_rows + 1)
    grouped = group_rankings(table, groups)
    covs = io.read_covariates_csv(covariates_path)
    config = tree_mod.TreeConfig(minsize=minsize, maxdepth=maxdepth, alpha=alpha,
                                 fit_config=_config(npseudo, method, maxit, tol))
    result = tree_mod.grow_tree(grouped, covs, config)
    click.echo(result.format())
    click.echo(f"terminal nodes: {result.n_leaves()}")
    click.echo(f"objective (negative log-likelihood): {result.objective():.3f}")
    if json_out:
        io.write_model_json(result, json_out)
    if plot_csv:
        tree_mod.write_tree_plot_csv(result, plot_csv)


if __name__ == "__main__":
    main()
