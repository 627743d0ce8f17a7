"""Run every workload once and print each metric with its unit and direction.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace]
                                 [--record FILE --label TEXT]

Run it from the root of a checkout.  It runs ``perfbench/run.py`` once per
workload of BENCHMARK.json, one after another, prints the machine facts,
then per workload every end-to-end metric (and with ``--trace`` every
per-layer metric) by name with its unit, which direction is better and the
regression bound, followed by the op counts with ``failed_frac`` and the
input digests.  ``--record`` also writes all of it to FILE as one
trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) failed:\n{done.stderr}")
    lines = done.stdout.strip().split("\n")
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return {"info": info, "result": json.loads(lines[-1])}


def _print_run(run: dict, declared: list[dict]) -> None:
    result, info = run["result"], run["info"]
    for metric in declared:
        name = metric["name"]
        value = result["metrics"][name]["value"]
        note = f"  bound {metric['bound']:.0%}" if "bound" in metric else ""
        if name.endswith(".tail"):
            note = f"  (p{info['tail_pct'][name[:-len('.tail')]]:.4g})"
        print(f"  {name:<34} {value:>16.6g} {metric['unit']:<7}"
              f" {metric['better']} is better{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  ops attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4g}"
          f" ({'correct' if result['correct'] else 'INCORRECT'})")
    for problem in info.get("problems", []):
        print(f"    {problem}")
    if "baseline_shape" in info:
        shape = info["baseline_shape"]
        verdict = "reproduced" if shape["reproduced"] else "NOT reproduced"
        print(f"  baseline shape {verdict}: HDI + recall + F1 are"
              f" {shape['hdi_recall_f1_share_of_window']:.1%} of metrics.window_ms")
    for item in info.get("inputs", []):
        print(f"  input {item['file']} rows {item['rows']} sha256 {item['sha256']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", action="store_true", help="also run the traced run")
    parser.add_argument("--record", default=None, help="write a trajectory point here")
    parser.add_argument("--label", default="", help="what the trajectory point measures")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    facts = machine_facts()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    point = {"label": args.label, "machine": facts, "seed": args.seed,
             "run_seconds": seconds, "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = {"untraced": run_workload(name, args.seed, seconds, 0)}
        print(f"\n{name} (seed {args.seed}, {seconds} s): {workload['why']}")
        _print_run(runs["untraced"], bench["end_to_end"])
        if args.trace:
            runs["traced"] = run_workload(name, args.seed, seconds, 1)
            print("  -- traced run")
            _print_run(runs["traced"], bench["per_layer"])
        point["workloads"][name] = runs
    if args.record:
        Path(args.record).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
