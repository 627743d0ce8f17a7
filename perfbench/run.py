"""The confmetrics benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``confmetrics`` from the
checkout's ``src``.  One parent process starts one child process at a time
(closed loop), each with BLAS/OpenMP pinned to one thread.

``--trace 0`` times the CLI as users run it: fresh child processes call
``confmetrics.cli.main``, cycling through the workload's inputs until
``--seconds`` have passed at the end of a cycle.  ``--trace 1`` runs the same
CLI calls with span-recording wrappers around each module's calls
(``tracing.py``) and turns the spans into per-layer numbers.  Both check
every output.  The last line of standard output is the result object; lines
before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PIN_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PIN_THREADS)  # before numpy loads, here and in children

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from spans import OpTally, layer_self_times, read_spans, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
METRICS = ("accuracy", "precision", "recall", "f1")
CHILD_TIMEOUT_S = 170.0
# Start no further cycle after this long, so that a run ends in time.
RUN_DEADLINE_S = 150.0
POINT_TOL = 1e-9
ALLOC_OPS = 10
# Import-only children after each CLI child, for more setup_s samples.
IMPORTS_PER_CHILD = 2

WORKLOADS = {
    "exact-w1000": {
        "kind": "estimate",
        "method": "exact",
        "alpha": 0.05,
        "window": 1000,
        "files": 4,
        "rows_per_file": 10_000,
    },
    "shortcut-w100": {
        "kind": "estimate",
        "method": "shortcut",
        "alpha": None,
        "window": 100,
        "files": 1,
        "rows_per_file": 200_000,
    },
    "coverage-mixed": {
        "kind": "coverage",
        "windows": (100, 300, 500),
        "alphas": (0.05, 0.1),
        "trials": 25,
        # CLI seeds per workload seed: a trial's cost varies with its beta
        # parameters (p50 11 ms, p98 110 ms), so from seed to seed the total
        # of a few hundred trials varies more than host noise; a run needs
        # many distinct trials for a steady total.
        "cli_seeds": 16,
    },
}

# Timed per call.
TIMED_CALLS = {
    "confusion.slice_ms": "confusion.slice",
    "confusion.from_arrays_ms": "confusion.from_arrays",
    "confusion.estimate_ms": "confusion.estimate_confusion",
    "distribution.pb_ms": "distribution.poisson_binomial_dp",
    "metrics.accuracy_ms": "metrics.accuracy",
    "metrics.precision_ms": "metrics.precision",
    "metrics.recall_ms": "metrics.recall",
    "metrics.f1_ms": "metrics.f1",
    "intervals.hdi_ms": "intervals.hdi",
    "reports.true_metrics_ms": "reports.true_metrics",
}
# The calls whose sum is one window's latency, as estimate_all sees it.
WINDOW_CALLS = {
    "confusion.estimate_confusion",
    "metrics.accuracy",
    "metrics.precision",
    "metrics.recall",
    "metrics.f1",
    "metrics.shortcut",
    "intervals.hdi",
}
# Timed per op: the sum of the op's calls.
TIMED_OPS = {
    "metrics.shortcut_ms": {"metrics.shortcut"},
    "metrics.window_ms": WINDOW_CALLS,
    "synthesis.sample_ms": {"synthesis.sample"},
    "calibration.sample_ms": {"calibration.sample"},
}
LAYERS = (
    "cli",
    "ingest",
    "confusion",
    "distribution",
    "metrics",
    "intervals",
    "reports",
    "calibration",
    "synthesis",
    "experiments",
)


class Checkout:
    """Paths of one run inside the checkout it runs from."""

    def __init__(self, root: Path, workload: str):
        self.root = root
        self.src = root / "src"
        self.work = BENCH_DIR / ".work" / workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )

    def has_program(self) -> bool:
        return (self.src / "confmetrics" / "__init__.py").is_file()

    def child(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        """Run one child to completion; return its start time and result."""
        command = [sys.executable, str(BENCH_DIR / "child.py"), *args]
        started = time.monotonic()
        done = subprocess.run(
            command,
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return started, done

    def imported_here(self, module_file: str) -> bool:
        return Path(module_file).resolve().is_relative_to(self.src.resolve())


# ---- CLI jobs ----


def cli_jobs(spec: dict, seed: int, files: list[dict], work: Path) -> list[dict]:
    """One job per distinct CLI invocation of the workload."""
    jobs = []
    if spec["kind"] == "coverage":
        for k in range(spec["cli_seeds"]):
            cli_seed = seed * spec["cli_seeds"] + k
            output = work / f"coverage-{k}.csv"
            argv = [
                "--seed", str(cli_seed), "simulate", "coverage",
                "--windows", ",".join(map(str, spec["windows"])),
                "--alphas", ",".join(map(str, spec["alphas"])),
                "--trials", str(spec["trials"]),
                "--output", str(output),
            ]
            jobs.append({"key": f"seed-{cli_seed}", "argv": argv,
                         "ops": len(spec["windows"]) * spec["trials"],
                         "rows": sum(spec["windows"]) * spec["trials"], "output": output})
        return jobs
    for k, info in enumerate(files):
        output = work / f"report-{k}.json"
        argv = [
            "estimate", "--input", str(info["path"]), "--output", str(output),
            "--method", spec["method"], "--window-size", str(spec["window"]),
        ]
        if spec["alpha"] is not None:
            argv += ["--alpha", str(spec["alpha"])]
        n = info["scores"].size
        jobs.append({"key": f"file-{k}", "argv": argv, "ops": math.ceil(n / spec["window"]),
                     "rows": n, "output": output, "file": info})
    return jobs


# ---- output checks ----


def check_report(doc: dict, info: dict, spec: dict) -> list[str | None]:
    """One entry per expected window: None, or why that window fails."""
    window = spec["window"]
    n = info["scores"].size
    expected = math.ceil(n / window)
    windows = doc.get("windows", []) if isinstance(doc, dict) else []
    if len(windows) != expected:
        return [f"report has {len(windows)} windows, expected {expected}"] * expected
    problems = []
    for index, w in enumerate(windows):
        part = slice(index * window, min((index + 1) * window, n))
        problems.append(_check_window(w, index, info, part, spec))
    return problems


def _check_window(w: dict, index: int, info: dict, part: slice, spec: dict) -> str | None:
    pred = info["predictions"][part]
    scores = info["scores"][part]
    if w.get("window_index") != index or w.get("window_size") != scores.size:
        return f"window {index}: wrong index or size"
    estimates = {e.get("metric"): e for e in w.get("estimates", [])}
    if tuple(estimates) != METRICS:
        return f"window {index}: metrics {list(estimates)}"
    correct = np.where(pred == 1, scores, 1.0 - scores)
    expected = {"accuracy": float(correct.mean())}
    positives = scores[pred == 1]
    expected["precision"] = float(positives.mean()) if positives.size else None
    for metric, value in expected.items():
        point = estimates[metric]["point"]
        if (point is None) != (value is None):
            return f"window {index}: {metric} point {point!r}, expected {value!r}"
        if value is not None and abs(point - value) > POINT_TOL:
            return f"window {index}: {metric} point {point!r} != numpy mean {value!r}"
    exact_intervals = spec["method"] == "exact" and spec["alpha"] is not None
    for metric, e in estimates.items():
        point, interval = e["point"], e["hdi"]
        if point is not None and not -POINT_TOL <= point <= 1.0 + POINT_TOL:
            return f"window {index}: {metric} point {point!r} outside [0, 1]"
        if exact_intervals and point is not None:
            if interval is None or interval["alpha"] != spec["alpha"]:
                return f"window {index}: {metric} lacks its interval"
            if not 0.0 <= interval["lower"] <= interval["upper"] <= 1.0:
                return f"window {index}: {metric} interval {interval}"
        elif interval is not None:
            return f"window {index}: {metric} has an unexpected interval"
    return None


def check_coverage_csv(text: str, spec: dict) -> str | None:
    lines = text.strip().split("\n")
    if lines[0] != "window,metric,alpha,trials,coverage":
        return f"coverage header {lines[0]!r}"
    expected = [(w, m, a) for w in spec["windows"] for m in METRICS for a in spec["alphas"]]
    if len(lines) - 1 != len(expected):
        return f"coverage has {len(lines) - 1} rows, expected {len(expected)}"
    for line, (window, metric, alpha) in zip(lines[1:], expected):
        w, m, a, trials, coverage = line.split(",")
        if (int(w), m, float(a)) != (window, metric, alpha):
            return f"coverage row {line!r} out of order"
        if not int(trials) > 0 or not 0.0 <= float(coverage) <= 1.0:
            return f"coverage row {line!r}: needs trials > 0 and coverage in [0, 1]"
    return None


def coverage_gap(text: str) -> float:
    """Mean over (window, metric, alpha) cells of |coverage - (1 - alpha)|."""
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    return statistics.fmean(abs(float(r[4]) - (1.0 - float(r[2]))) for r in rows)


def estimate_errors(doc: dict, info: dict, window: int) -> list[float]:
    """|point - realized| per window and metric, realized from the labels
    through ``reports.true_metrics``."""
    from confmetrics.confusion import PredictionBatch
    from confmetrics.reports import true_metrics

    errors = []
    for index, w in enumerate(doc["windows"]):
        part = slice(index * window, (index + 1) * window)
        realized = true_metrics(
            PredictionBatch.from_arrays(
                info["predictions"][part], info["scores"][part], info["labels"][part]
            )
        )
        for e in w["estimates"]:
            actual = getattr(realized, e["metric"])
            if e["point"] is not None and actual is not None:
                errors.append(abs(e["point"] - actual))
    return errors


def op_problems(spec: dict, job: dict, data: bytes | None) -> list[str | None]:
    """One entry per op of a job's output: None, or why that op fails."""
    if data is None:
        return [f"{job['key']}: no output file"] * job["ops"]
    try:
        if spec["kind"] == "coverage":
            return [check_coverage_csv(data.decode("utf-8"), spec)] * job["ops"]
        doc = json.loads(data)
    except ValueError as exc:  # also a failed decode or a malformed number
        return [f"{job['key']}: unreadable output ({exc})"] * job["ops"]
    return check_report(doc, job["file"], spec)


class Outputs:
    """Checks the output of every CLI child of a run; every run of one job
    must write the bytes of its first run, which ``data`` keeps."""

    def __init__(self, spec: dict, tally: OpTally):
        self.spec = spec
        self.tally = tally
        self.data: dict[str, bytes] = {}

    def check(self, job: dict, result: dict) -> None:
        if result["exit_code"] != 0:
            problem = f"{job['key']}: exit code {result['exit_code']} ({result['error']})"
            problems = [problem] * job["ops"]
        elif not job["output"].is_file():
            problems = op_problems(self.spec, job, None)
        else:
            data = job["output"].read_bytes()
            if data != self.data.setdefault(job["key"], data):
                problems = [f"{job['key']}: output bytes differ between runs"] * job["ops"]
            else:
                problems = op_problems(self.spec, job, data)
        for problem in problems:
            self.tally.record(problem)


# ---- the untraced run ----


def _imported_here(checkout: Checkout, module_file: str) -> None:
    if not checkout.imported_here(module_file):
        raise SystemExit(f"confmetrics came from {module_file}, not {checkout.src}")


def run_import_child(checkout: Checkout) -> float:
    """Run one import-only child; return its set-up time."""
    try:
        started, done = checkout.child("import")
    except subprocess.TimeoutExpired:
        raise SystemExit("import child timed out") from None
    if done.returncode != 0:
        raise SystemExit(f"import child failed: {done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().split("\n")[-1])
    _imported_here(checkout, result["module_file"])
    return result["imported_at"] - started


def run_cli_child(checkout: Checkout, job: dict) -> dict:
    """Run one CLI child; return its result.

    A child that dies or hangs (as opposed to a CLI call that fails) leaves
    nothing to measure, so it ends the run.
    """
    job["output"].unlink(missing_ok=True)
    result_path = checkout.work / "child.json"
    result_path.unlink(missing_ok=True)
    try:
        started, done = checkout.child("cli", str(result_path), "--", *job["argv"])
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{job['key']}: child timed out") from None
    if done.returncode != 0 or not result_path.is_file():
        raise SystemExit(f"{job['key']}: child failed: {done.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    _imported_here(checkout, result["module_file"])
    result["setup_s"] = result["imported_at"] - started
    return result


def untraced(checkout: Checkout, spec: dict, seed: int, seconds: float, files, info) -> dict:
    """Cycles through the jobs, one child each, until ``seconds`` have passed
    at the end of a cycle; so every job runs equally often, which keeps the
    run's work fixed for a seed.  Each CLI child is followed by
    ``IMPORTS_PER_CHILD`` import-only children; ``setup_s`` is the median
    set-up time of all of them, which every child pays alike."""
    jobs = cli_jobs(spec, seed, files, checkout.work)
    tally = OpTally()
    outputs = Outputs(spec, tally)
    setup, rss, rows, main_s = [], [], 0, 0.0
    start = time.monotonic()
    cycles = 0
    while not cycles or time.monotonic() - start < seconds:
        for job in jobs:
            result = run_cli_child(checkout, job)
            outputs.check(job, result)
            rss.append(result["maxrss_kb"] / 1024.0)
            rows += job["rows"]
            main_s += result["main_s"]
            setup.append(result["setup_s"])
            setup += [run_import_child(checkout) for _ in range(IMPORTS_PER_CHILD)]
        cycles += 1
        if time.monotonic() - start > RUN_DEADLINE_S:
            break
    info["cycles"] = cycles
    info["children"] = {"cli": len(rss), "import": len(setup) - len(rss)}
    info["rows"] = rows
    info["measured_s"] = time.monotonic() - start
    metrics = {
        "setup_s": statistics.median(setup),
        "rows_per_s": rows / main_s,
        "peak_rss_mb": statistics.median(rss),
    }
    return {"tally": tally, "metrics": metrics}


# ---- the traced run ----


def traced(checkout: Checkout, spec: dict, seed: int, seconds: float, files, info) -> dict:
    """Half the run's seconds go to the traced child (``child.py traced``),
    which runs every job at least once."""
    jobs = cli_jobs(spec, seed, files, checkout.work)
    tally = OpTally()
    spec_path = checkout.work / "traced-spec.json"
    traced_spec = {
        "seconds": seconds / 2,
        "spans": str(checkout.work / "spans.jsonl"),
        "jobs": [{"argv": job["argv"], "output": str(job["output"])} for job in jobs],
        "alloc_ops": ALLOC_OPS,
    }
    spec_path.write_text(json.dumps(traced_spec), encoding="utf-8")
    out_path = checkout.work / "traced.json"
    try:
        _, done = checkout.child("traced", str(spec_path), str(out_path))
    except subprocess.TimeoutExpired:
        raise SystemExit("traced child timed out") from None
    if done.returncode != 0:
        raise SystemExit(f"traced child failed: {done.stderr.strip()[-2000:]}")
    out = json.loads(out_path.read_text(encoding="utf-8"))
    _imported_here(checkout, out["module_file"])
    written = {job["key"]: job["output"].read_bytes() for job in jobs if job["output"].is_file()}
    content = {job["key"]: op_problems(spec, job, written.get(job["key"])) for job in jobs}
    check_traced(out["runs"], jobs, written, content, tally)
    spans = read_spans(checkout.work / "spans.jsonl")
    info["missing_calls"] = out["missing"]
    passed = [job for job in jobs if not any(content[job["key"]])]
    metrics = per_layer(spans, out, jobs, passed, written, spec, info)
    return {"tally": tally, "metrics": metrics}


def check_traced(runs: list[dict], jobs: list[dict], written: dict[str, bytes],
                 content: dict[str, list[str | None]], tally) -> None:
    """One op per window or trial of each traced job run.  All its ops fail
    if a call of the run (traced or not) exits non-zero or writes other
    bytes than the job's last output; an op fails if the output fails its
    check there, or if one of the op's intervals leaves [0, 1] or covers
    less than 1 - alpha.  ``content`` holds ``op_problems`` of each job's
    output."""
    for number, facts in enumerate(runs):
        job = jobs[facts["job"]]
        data = written.get(job["key"])
        expected = None if data is None else hashlib.sha256(data).hexdigest()
        problem = None
        for exit_ in facts["exits"]:
            if exit_["code"] != 0:
                problem = f"run {number} {job['key']}: exit code {exit_['code']} ({exit_['error']})"
        if problem is None and any(d != expected for d in facts["digests"]):
            problem = f"run {number} {job['key']}: output bytes differ between calls"
        bad_ops = {}
        for iv in facts["intervals"]:
            if not 0.0 <= iv["lower"] <= iv["upper"] <= 1.0:
                bad_ops[iv["op"]] = f"run {number} op {iv['op']}: interval {iv}"
            elif iv["covered_mass"] < 1.0 - iv["alpha"]:
                bad_ops[iv["op"]] = f"run {number} op {iv['op']}: covers {iv['covered_mass']!r}"
        for op in range(job["ops"]):
            tally.record(problem or bad_ops.get(op) or content[job["key"]][op])


def quality(first_pass, jobs, passed, written, spec) -> dict:
    """Estimate error and interval coverage of the outputs of the jobs that
    passed their checks; both are deterministic for a seed (0 when no job
    passed).

    The coverage CLI reports no points, so there the traced calls give the
    errors: each trial's exact points (its distributions' means) against
    its realized metrics.
    """
    errors, gaps = [], []
    keys = {job["key"] for job in passed}
    if spec["kind"] == "coverage":
        for facts in first_pass:
            if jobs[facts["job"]]["key"] in keys:
                errors += facts["errors"]
        gaps = [coverage_gap(written[key].decode("utf-8")) for key in keys]
    else:
        for job in passed:
            errors += estimate_errors(json.loads(written[job["key"]]), job["file"], spec["window"])
    return {
        "quality.est_abs_err": statistics.fmean(errors) if errors else 0.0,
        "quality.coverage_gap": statistics.fmean(gaps) if gaps else 0.0,
    }


def per_layer(spans, out, jobs, passed, written, spec, info) -> dict:
    runs = out["runs"]
    first_pass = runs[: len(jobs)]
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.duration)
    root_of = {}
    for span in spans:  # parents precede their children
        root_of[span.id] = span.id if span.parent is None else root_of[span.parent]
    # The benchmark's own counting per (job run, op): not traced time.
    counting: dict[tuple[int, int | None], float] = {}
    for span in spans:
        if span.name == "bench.counters":
            key = (root_of[span.id], span.op)
            counting[key] = counting.get(key, 0.0) + span.duration

    metrics, tail_pct = {}, {}
    for metric, samples in _timed_samples(spans, by_name, root_of, counting).items():
        summary = summarize([d * 1e3 for d in samples])
        metrics[f"{metric}.p50"] = summary["p50"]
        metrics[f"{metric}.tail"] = summary["tail"]
        metrics[f"{metric}.n"] = summary["n"]
        tail_pct[metric] = summary["tail_pct"]
    info["tail_pct"] = tail_pct

    parse = by_name.get("ingest.parse_input", [])
    rows_parsed = sum(facts["rows_parsed"] for facts in runs)
    metrics["ingest.parse_s"] = statistics.median(parse) if parse else 0.0
    metrics["ingest.us_per_row"] = 1e6 * sum(parse) / rows_parsed if parse else 0.0
    window_s = sum(d for name in WINDOW_CALLS for d in by_name.get(name, []))
    hdi_s = sum(by_name.get("intervals.hdi", []))
    metrics["intervals.hdi_share"] = hdi_s / window_s if window_s else 0.0
    metrics.update(_distribution_facts(first_pass, out["f1_alloc_peaks_mb"]))
    render = by_name.get("reports.render_report", [])
    metrics["reports.render_ms"] = 1e3 * statistics.median(render) if render else 0.0
    reports = [len(written[j["key"]]) for j in passed if spec["kind"] == "estimate"]
    metrics["reports.report_bytes"] = statistics.median(reports) if reports else 0
    metrics.update(quality(first_pass, jobs, passed, written, spec))
    metrics.update(_trace_shares(spans, counting, runs, info))

    if spec["kind"] == "estimate" and spec["method"] == "exact":
        heavy = sum(sum(by_name.get(name, [])) for name in ("intervals.hdi", "metrics.recall", "metrics.f1"))
        info["baseline_shape"] = {
            "hdi_recall_f1_share_of_window": heavy / window_s,
            "reproduced": heavy / window_s > 0.5,
        }
    return metrics


def _timed_samples(spans, by_name, root_of, counting) -> dict[str, list[float]]:
    """Durations behind each timed metric: per call, per op (keyed by job
    run and op), and per coverage trial."""
    samples = {metric: by_name.get(name, []) for metric, name in TIMED_CALLS.items()}
    for metric, names in TIMED_OPS.items():
        sums: dict[tuple[int, int | None], float] = {}
        for span in spans:
            if span.name in names:
                key = (root_of[span.id], span.op)
                sums[key] = sums.get(key, 0.0) + span.duration
        samples[metric] = list(sums.values())
    samples["experiments.trial_ms"] = _trial_durations(spans, root_of, counting)
    return samples


def _trial_durations(spans, root_of, counting) -> list[float]:
    """A coverage trial runs from its ``_trial_batch`` call to the next
    trial's, or to the end of the enclosing call for the last one, less the
    benchmark's counting in between.  Span ids are list positions."""
    trials: dict[int, list] = {}
    for span in spans:
        if span.name == "experiments.trial_batch":
            trials.setdefault(span.parent, []).append(span)
    durations = []
    for parent, starts in trials.items():
        ends = [trial.start for trial in starts[1:]] + [spans[parent].end]
        for trial, end in zip(starts, ends):
            own = counting.get((root_of[trial.id], trial.op), 0.0)
            durations.append(end - trial.start - own)
    return durations


def _distribution_facts(first_pass, alloc_peaks) -> dict:
    """Support sizes, useful mass, allocation and interval facts of the
    first traced run of each job."""
    supports = [s for facts in first_pass for s in facts["supports"]]
    recall = [s["support"] for s in supports if s["metric"] == "recall"]
    f1 = [s for s in supports if s["metric"] == "f1"]
    f1_points = sum(s["support"] for s in f1)
    return {
        "metrics.recall_support": statistics.median(recall) if recall else 0,
        "metrics.f1_support": statistics.median([s["support"] for s in f1]) if f1 else 0,
        "metrics.f1_useful_frac": sum(s["useful"] for s in f1) / f1_points if f1_points else 0.0,
        "metrics.f1_alloc_peak_mb": statistics.median(alloc_peaks) if alloc_peaks else 0.0,
        "intervals.points_dropped": sum(
            iv["dropped"] for facts in first_pass for iv in facts["intervals"]
        ),
    }


def _trace_shares(spans, counting, runs, info) -> dict:
    """Layer self time as a share of traced time, the time no layer span
    covers, and the tracing overhead.

    Each traced job run is one ``bench.job`` root span; the benchmark's
    counting (``bench.counters``) is not traced time.  The overhead is the
    median, over job runs, of traced time against the wall time of the
    same job's untraced call in the same child.
    """
    roots = [span for span in spans if span.parent is None]
    own_counting: dict[int, float] = {}
    for (root, _), duration in counting.items():
        own_counting[root] = own_counting.get(root, 0.0) + duration
    job_s = [root.duration - own_counting.get(root.id, 0.0) for root in roots]
    traced_s = sum(job_s)
    own = layer_self_times(spans, leave_out="bench.counters")
    shares = {f"{layer}.self_share": own.get(layer, 0.0) / traced_s for layer in LAYERS}
    shares["trace.unaccounted_frac"] = own.get("bench", 0.0) / traced_s
    ratios = [t / facts["untraced_s"] for t, facts in zip(job_s, runs)]
    shares["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    info["job_runs"] = len(runs)
    info["overhead_ratio_range"] = [min(ratios), max(ratios)]
    return shares


# ---- entry point ----


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seeds are non-negative, got {value}")
    return value


def metric_units(root: Path, trace: int) -> dict[str, str]:
    """Names and units of the metrics a run reports, as BENCHMARK.json
    lists them."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_natural, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd(), args.workload)
    if not checkout.has_program():
        print(f"error: no confmetrics sources under {checkout.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout.src))
    spec = WORKLOADS[args.workload]
    shutil.rmtree(checkout.work, ignore_errors=True)
    checkout.work.mkdir(parents=True)
    try:
        files = []
        if spec["kind"] == "estimate":
            files = inputs.write_hypersphere_files(
                checkout.work, args.seed, spec["files"], spec["rows_per_file"]
            )
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "inputs": [{"file": f["path"].name, "rows": int(f["scores"].size),
                        "sha256": f["sha256"]} for f in files],
        }
        run_import_child(checkout)  # fills __pycache__ and the file cache; not timed
        run = traced if args.trace else untraced
        outcome = run(checkout, spec, args.seed, args.seconds, files, info)
    finally:
        for path in checkout.work.glob("*"):
            if path.name != "spans.jsonl":
                path.unlink()
    tally = outcome["tally"]
    info["failed_frac"] = tally.failed_frac
    info["problems"] = tally.problems[:5]
    units = metric_units(checkout.root, args.trace)
    print("info " + json.dumps(info, default=str))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
