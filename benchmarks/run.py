"""Run one slotforge benchmark workload, or all of them, and check the outputs.

    python3 benchmarks/run.py --workload stage1-goal --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics, with `--trace 1` the per-layer ones. The full
result, with sample counts and the environment record, is written under
`.benchresults/`. The exit code is 0 only when every output check passed.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".benchresults"
WORK = ROOT / ".benchwork"


def result_path(workload: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{workload}-seed{seed}-trace{trace}.json"


def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    from slotbench.environment import environment_record
    from slotbench.workloads import WORKLOADS, run_workload

    spec = WORKLOADS[workload]
    work = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    spans = RESULTS / f"{workload}-seed{seed}.spans.jsonl" if trace else None
    try:
        report = run_workload(spec, seed, seconds, bool(trace), work, spans)
    except Exception:  # set-up itself failed: report it, print no metrics
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": report.correct, "attempted": report.attempted,
        "failed": report.failed, "failures": report.failures,
        "rounds": report.rounds, "quality": report.quality,
        "samples": report.samples, "setups": report.setups,
        "metrics": {name: vars(m) for name, m in report.metrics.items()},
        "environment": environment_record(ROOT),
    }
    RESULTS.mkdir(exist_ok=True)
    result_path(workload, seed, trace).write_text(json.dumps(record, indent=1) + "\n")
    for failure in report.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in report.metrics.items():
        print(f"{name:36} {_format(m.value):>14} {m.unit:6} n={m.samples}")
    print(json.dumps({
        "correct": report.correct, "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in report.metrics.items()}}))
    return 0 if report.correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another; a failing one
    does not stop the rest."""
    from slotbench.workloads import WORKLOADS

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        path = result_path(name, seed, trace)
        path.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not path.exists():
            totals["correct"] = False
        if not path.exists():
            totals["attempted"] += 1
            totals["failed"] += 1
            continue
        record = json.loads(path.read_text())
        totals["attempted"] += record["attempted"]
        totals["failed"] += record["failed"]
        for metric, m in record["metrics"].items():
            rows.append((name, metric, m))
            totals["metrics"][f"{name}/{metric}"] = {"value": m["value"],
                                                     "unit": m["unit"]}
    for name, metric, m in rows:
        print(f"{name:20} {metric:36} {_format(m['value']):>14} {m['unit']:6} "
              f"n={m['samples']}")
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slotforge" / "__init__.py").is_file():
        print(f"no slotforge package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from slotbench.workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from all, {', '.join(WORKLOADS)}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
