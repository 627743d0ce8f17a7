"""Command-line interface.

One verb per capability: ``estimate`` produces per-window metric reports
from a prediction file, ``true-metrics`` and ``ace`` evaluate labelled
files, ``simulate`` runs the convergence and coverage experiments, and
``generate`` writes synthetic datasets.  The CLI converts argument text
and decides nothing: the rules of a request, and the defaults the
library gives, come from the modules that own them.  Diagnostics go to
stderr; text that cannot be converted exits 2, a request the library
rejects exits 1, a reader of stdout that stops early ends the run
quietly with 141, and data goes to ``--output`` or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from .calibration import DEFAULT_NUM_BINS, ace
from .experiments import (
    DEFAULT_ALPHAS,
    DEFAULT_CONVERGENCE_WINDOWS,
    DEFAULT_COVERAGE_WINDOWS,
    rows_to_csv,
    run_convergence_experiment,
    run_coverage_experiment,
)
from .ingest import FORMATS, parse_input
from .reports import (
    METHODS,
    EstimateConfig,
    render_report,
    true_metrics,
    windowed_estimates,
)
from .synthesis import HypersphereConfig, hypersphere_dataset, shift_dataset

__all__ = ["main", "build_parser"]


def _comma(kind, what: str):
    """An argument type: comma-separated ``what``, each part read by
    ``kind``; text that ``kind`` rejects is an argument error."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")

    return parse


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="prediction file to read")
    parser.add_argument(
        "--format", choices=FORMATS, default="csv", help="input format (default csv)"
    )
    parser.add_argument("--output", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confmetrics",
        description="Estimate classification metrics from calibrated confidence scores.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed for simulation and generation"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    estimate = commands.add_parser(
        "estimate", help="per-window metric estimates for a prediction file"
    )
    _add_input_args(estimate)
    estimate.add_argument(
        "--window-size",
        type=int,
        default=None,
        help="monitoring window size (default: the whole file as one window)",
    )
    estimate.add_argument(
        "--metrics",
        type=_comma(str.strip, "metric names"),
        default=EstimateConfig.metrics,
        help="comma-separated metric names (default all four)",
    )
    estimate.add_argument("--method", choices=METHODS, default=EstimateConfig.method)
    estimate.add_argument(
        "--alpha",
        type=float,
        default=EstimateConfig.alpha,
        help="attach (1-alpha) highest-density intervals (exact method only)",
    )
    estimate.add_argument(
        "--emit-distributions",
        action="store_true",
        help="include full metric distributions in the report",
    )

    truth = commands.add_parser("true-metrics", help="realized metrics of a labelled file")
    _add_input_args(truth)

    ace_cmd = commands.add_parser("ace", help="adaptive calibration error of a labelled file")
    _add_input_args(ace_cmd)
    ace_cmd.add_argument("--bins", type=int, default=DEFAULT_NUM_BINS)

    simulate = commands.add_parser("simulate", help="run a synthetic experiment")
    simulations = simulate.add_subparsers(dest="experiment", required=True)

    convergence = simulations.add_parser(
        "convergence", help="shortcut-vs-exact approximation error by window size"
    )
    windows = _comma(int, "integers")
    convergence.add_argument("--windows", type=windows, default=DEFAULT_CONVERGENCE_WINDOWS)
    convergence.add_argument("--trials", type=int, default=1000)
    convergence.add_argument("--output", default=None, help="CSV output (default stdout)")

    coverage = simulations.add_parser(
        "coverage", help="highest-density interval coverage under reverse sampling"
    )
    coverage.add_argument("--windows", type=windows, default=DEFAULT_COVERAGE_WINDOWS)
    coverage.add_argument("--trials", type=int, default=2000)
    coverage.add_argument("--alphas", type=_comma(float, "numbers"), default=DEFAULT_ALPHAS)
    coverage.add_argument("--output", default=None, help="CSV output (default stdout)")

    generate = commands.add_parser("generate", help="write a synthetic dataset")
    generators = generate.add_subparsers(dest="dataset", required=True)

    sphere = generators.add_parser(
        "hypersphere", help="hypersphere covariate-shift dataset with calibrated scores"
    )
    sphere.add_argument("--dims", type=int, required=True)
    sphere.add_argument("--points", type=int, required=True)
    sphere.add_argument("--radius", type=float, default=HypersphereConfig.radius)
    sphere.add_argument("--decay", type=float, default=HypersphereConfig.decay,
                        help="label-probability decay rate (default ln sqrt 2)")
    sphere.add_argument("--easy-fraction", type=float, default=HypersphereConfig.easy_fraction)
    sphere.add_argument("--threshold", type=float, default=0.5)
    sphere.add_argument(
        "--shifted", action="store_true", help="swap easy and hard pool proportions"
    )
    sphere.add_argument("--output", default=None, help="CSV output (default stdout)")

    return parser


def _output(path: str | None):
    """Where data goes: stdout, or the file at ``path``, created or
    truncated when this is called."""
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")


def _emit(text: str, output: str | None) -> None:
    with _output(output) as out:
        out.write(text if text.endswith("\n") else text + "\n")


def _cmd_estimate(args) -> None:
    batch = parse_input(args.input, args.format)
    config = EstimateConfig(metrics=args.metrics, method=args.method, alpha=args.alpha)
    window = args.window_size if args.window_size is not None else batch.n

    def writelines(chunks) -> None:
        # A run that fails by window 0, the first piece, leaves the output
        # unopened; an exhausted list iterator then lets go of that piece.
        first = iter([next(chunks)])
        with _output(args.output) as out:
            out.writelines(itertools.chain(first, chunks, ["\n"]))

    run = windowed_estimates(batch, window, config)
    render_report(run, args.emit_distributions, out=SimpleNamespace(writelines=writelines))


def _emit_json(record, output: str | None) -> None:
    _emit(json.dumps(dataclasses.asdict(record), indent=2, sort_keys=True), output)


def _cmd_true_metrics(args) -> None:
    _emit_json(true_metrics(parse_input(args.input, args.format)), args.output)


def _cmd_ace(args) -> None:
    _emit_json(ace(parse_input(args.input, args.format), args.bins), args.output)


def _cmd_simulate(args) -> None:
    if args.experiment == "convergence":
        rows = run_convergence_experiment(args.windows, args.trials, args.seed)
    else:
        rows = run_coverage_experiment(args.windows, args.trials, args.alphas, args.seed)
    _emit(rows_to_csv(rows), args.output)


def _cmd_generate(args) -> None:
    config = HypersphereConfig(
        n_dims=args.dims,
        n_points=args.points,
        seed=args.seed,
        radius=args.radius,
        decay=args.decay,
        easy_fraction=args.easy_fraction,
    )
    generator = shift_dataset if args.shifted else hypersphere_dataset
    batch = generator(config, args.threshold).batch
    columns = (batch.predictions.tolist(), batch.scores.tolist(), batch.labels.tolist())
    lines = ["prediction,score,label"]
    lines.extend(f"{p},{s!r},{y}" for p, s, y in zip(*columns))
    _emit("\n".join(lines), args.output)


_DISPATCH = {
    "estimate": _cmd_estimate,
    "true-metrics": _cmd_true_metrics,
    "ace": _cmd_ace,
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _DISPATCH[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # A shell's status for a writer whose pipe closed, 128 + SIGPIPE;
        # with no stdout, Python's flush at exit has nothing left to send.
        sys.stdout = None
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
