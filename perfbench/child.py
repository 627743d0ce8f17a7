"""One benchmark child process; ``run.py`` starts one at a time.

    python3 child.py import                     only the import; prints when it returned
    python3 child.py cli OUT.json -- ARGS...    time confmetrics.cli.main(ARGS)
    python3 child.py traced SPEC.json OUT.json  run SPEC's jobs traced and untraced

Every mode first imports ``confmetrics`` and records the monotonic clock right
after the import returns; ``run.py`` took the same clock just before it
started the process, so the difference is the set-up time a CLI user pays.
Nothing but ``sys`` and ``time`` is imported before that.  ``run.py`` puts
the checkout's ``src`` on ``PYTHONPATH``.
"""

import sys
import time

import confmetrics  # noqa: E402  (the import being timed)

IMPORTED_AT = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, call_main  # noqa: E402


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write(path: str, fields: dict) -> None:
    fields = {"imported_at": IMPORTED_AT, "module_file": confmetrics.__file__, **fields}
    Path(path).write_text(json.dumps(fields), encoding="utf-8")


def run_cli(out_path: str, argv: list[str]) -> None:
    start = time.perf_counter()
    code, error = call_main(argv)
    main_s = time.perf_counter() - start
    _write(out_path, {"main_s": main_s, "exit_code": code, "error": error,
                      "maxrss_kb": _peak_rss_kb()})


def _f1_alloc_peaks_mb(estimates, count: int) -> list[float]:
    """tracemalloc peak of ``f1_distribution`` on the ``count`` largest ops."""
    from confmetrics.metrics import f1_distribution

    largest = sorted(estimates, key=lambda item: -item[0])[:count]
    peaks = []
    for _, est in largest:
        if est.n_pos == 0:
            continue
        tracemalloc.start()
        f1_distribution(est)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
    return peaks


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_traced(spec_path: str, out_path: str) -> None:
    """Runs each job traced and untraced, in turn first, until every job
    has run once and the spec's seconds have passed.  Each job run's facts
    hold the untraced wall time, so that its traced time gives the tracing
    overhead, and the exit codes and output digests of both runs."""
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    jobs = spec["jobs"]
    tracer = Tracer()
    runs = []
    deadline = time.monotonic() + spec["seconds"]
    while len(runs) < len(jobs) or time.monotonic() < deadline:
        index = len(runs) % len(jobs)
        output = Path(jobs[index]["output"])
        argv = jobs[index]["argv"]
        exits, digests = [], []
        traced_first = len(runs) % 2 == 0
        for traced in (traced_first, not traced_first):
            output.unlink(missing_ok=True)
            if traced:
                code, error, facts = tracer.run(argv, keep_estimates=len(runs) < len(jobs))
            else:
                start = time.perf_counter()
                code, error = call_main(argv)
                untraced_s = time.perf_counter() - start
            exits.append({"code": code, "error": error})
            digests.append(_digest(output))
        facts.update(job=index, untraced_s=untraced_s, exits=exits, digests=digests)
        runs.append(facts)
    tracer.rec.write(Path(spec["spans"]))
    _write(out_path, {"runs": runs, "missing": tracer.missing,
                      "f1_alloc_peaks_mb": _f1_alloc_peaks_mb(tracer.estimates, spec["alloc_ops"])})


if __name__ == "__main__":
    if sys.argv[1] == "import":
        print(json.dumps({"imported_at": IMPORTED_AT, "module_file": confmetrics.__file__}))
    elif sys.argv[1] == "cli":
        run_cli(sys.argv[2], sys.argv[4:])
    elif sys.argv[1] == "traced":
        run_traced(sys.argv[2], sys.argv[3])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
