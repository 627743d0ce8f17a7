"""Traces the real CLI with span-recording wrappers.

``Tracer.installed()`` rebinds, while it lasts, the names the program's
modules call each other through (``cli.parse_input``,
``reports.estimate_all``, ``metrics.hdi``, ``PredictionBatch.__getitem__``
...) to wrappers that put each call in a span named after the module it
enters, and restores them afterwards.  ``confmetrics.cli.main`` itself runs
unchanged, so the spans follow whatever call structure the program has.  A
name the program no longer has is left out and listed in ``missing``.

Some wrappers also take facts from a call's arguments and result (support
sizes, intervals, realized metrics).  They do so in a ``bench.counters``
span after the call's own span has closed; the per-layer arithmetic leaves
that time out.

An op is one window (an ``estimate_all`` call) or one coverage trial (an
``experiments._trial_batch`` call); every span carries the op of the latest
such call of its job, counted from 0 per job.

This module imports ``confmetrics``, so only child processes import it.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

import numpy as np

from confmetrics import cli, confusion, experiments, metrics, reports
from spans import Recorder

# Support points below this mass carry nothing a float sum can see.
USEFUL_MASS = 1e-16


class Tracer:
    def __init__(self):
        self.rec = Recorder()
        self.missing: list[str] = []
        # (window size, ConfusionEstimate) of the jobs run with keep_estimates.
        self.estimates: list[tuple[int, object]] = []
        self._facts: dict = {}
        self._op: int | None = None
        self._realized = None
        self._keep = False

    def run(self, argv: list[str], keep_estimates: bool = False) -> tuple[int, str | None, dict]:
        """``cli.main(argv)`` with every wrapper in place, in one
        ``bench.job`` span; returns ``call_main``'s result and the job's
        facts."""
        self._facts = {"supports": [], "intervals": [], "errors": [], "rows_parsed": 0, "ops": 0}
        self._op, self._realized, self._keep = None, None, keep_estimates
        with self.installed(), self.rec.span("bench.job"):
            with self.rec.span("cli.main"):
                code, error = call_main(argv)
        return code, error, self._facts

    @contextmanager
    def installed(self):
        saved = []
        for owner, name, span, facts, starts_op in self._targets():
            slots = owner if isinstance(owner, dict) else vars(owner)
            if name not in slots:
                label = f"{getattr(owner, '__name__', 'metrics._SHORTCUTS')}.{name}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            original = slots[name]
            # Through getattr, a classmethod comes bound to its class.
            fn = original if isinstance(owner, dict) else getattr(owner, name)
            wrapper = self._wrap(fn, span, facts, starts_op)
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = staticmethod(wrapper)
            saved.append((owner, name, original))
            _assign(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, original in reversed(saved):
                _assign(owner, name, original)

    def _targets(self):
        """(owner, name, span name, facts callback, starts an op)."""
        batch = confusion.PredictionBatch
        targets = [
            (cli, "parse_input", "ingest.parse_input", self._parsed, False),
            (cli, "windowed_estimates", "reports.windowed_estimates", None, False),
            (cli, "render_report", "reports.render_report", None, False),
            (cli, "run_coverage_experiment", "experiments.run_coverage_experiment", None, False),
            (cli, "rows_to_csv", "experiments.rows_to_csv", None, False),
            (reports, "estimate_all", "metrics.estimate_all", None, True),
            (batch, "__getitem__", "confusion.slice", None, False),
            (batch, "from_arrays", "confusion.from_arrays", None, False),
            (confusion, "poisson_binomial_dp", "distribution.poisson_binomial_dp", None, False),
            (metrics, "poisson_binomial_dp", "distribution.poisson_binomial_dp", None, False),
            (experiments, "_trial_batch", "experiments.trial_batch", None, True),
            (experiments, "random_beta_params", "synthesis.sample", None, False),
            (experiments, "sample_beta_scores", "synthesis.sample", None, False),
            (experiments, "threshold_predictions", "calibration.sample", None, False),
            (experiments, "reverse_sample_labels", "calibration.sample", None, False),
            (experiments, "true_metrics", "reports.true_metrics", self._realized_metrics, False),
        ]
        for module in (metrics, experiments):
            targets.append(
                (module, "estimate_confusion", "confusion.estimate_confusion", self._estimate, False)
            )
            targets.append((module, "hdi", "intervals.hdi", self._interval, False))
            for metric in metrics.METRICS:
                facts = functools.partial(self._distribution, metric)
                targets.append((module, f"{metric}_distribution", f"metrics.{metric}", facts, False))
        for metric in metrics.METRICS:
            targets.append((metrics._SHORTCUTS, metric, "metrics.shortcut", None, False))
        return targets

    def _wrap(self, fn, span, facts, starts_op):
        rec = self.rec

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_op:
                self._op = self._facts["ops"]
                self._facts["ops"] += 1
            with rec.span(span, self._op):
                result = fn(*args, **kwargs)
            if facts is not None:
                with rec.span("bench.counters", self._op):
                    facts(args, result)
            return result

        return traced

    # ---- facts, taken outside the call's span ----

    def _parsed(self, args, batch) -> None:
        self._facts["rows_parsed"] += batch.n

    def _realized_metrics(self, args, realized) -> None:
        self._realized = (self._op, realized)

    def _estimate(self, args, est) -> None:
        if self._keep:
            self.estimates.append((est.n_pos + est.n_neg, est))

    def _distribution(self, metric, args, dist) -> None:
        if dist is None:
            return
        self._facts["supports"].append(
            {
                "metric": metric,
                "support": len(dist),
                "useful": int(np.count_nonzero(dist.probabilities >= USEFUL_MASS)),
            }
        )
        # A coverage trial computes its realized metrics before its
        # distributions; the exact point is the distribution's mean.
        if self._realized is not None and self._realized[0] == self._op:
            actual = getattr(self._realized[1], metric)
            if actual is not None:
                self._facts["errors"].append(abs(dist.expectation() - actual))

    def _interval(self, args, interval) -> None:
        values = args[0].float_values
        self._facts["intervals"].append(
            {
                "op": self._op,
                "alpha": interval.alpha,
                "lower": interval.lower,
                "upper": interval.upper,
                "covered_mass": interval.covered_mass,
                "dropped": int(
                    np.count_nonzero((values < interval.lower) | (values > interval.upper))
                ),
            }
        )


def _assign(owner, name, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def call_main(argv: list[str]) -> tuple[int, str | None]:
    """``cli.main(argv)``'s exit code and what went wrong.  A crash or an
    argument error is an exit code too, so that it fails the job's ops
    instead of ending the run."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code, "argument error"
    except Exception as exc:
        return -1, f"{type(exc).__name__}: {exc}"
