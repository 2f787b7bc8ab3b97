"""Compare two sets of benchmark runs and report regressions.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of ``run.py --trace 0`` runs,
one file per run.  For every workload, and every end-to-end figure it
defines (``metrics.END_TO_END_SPEC`` and ``metrics.PRINTED_SPEC``):

* a host-clock figure may be worse in NEW's median over runs than in
  BASE's by at most its bound (``BENCHMARK.json``'s, or the catalogue's);
* a simulated figure repeats exactly for a seed, so it is compared seed
  by seed, and may be worse by at most its bound (0 for most: any
  worsening is a regression);
* a figure at 0 in the base may not move at all in the worse direction
  (a relative bound alone can never trip at a zero baseline).

Any run whose ``correct`` is false fails too.  Exit code 0 means no
regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as catalogue  # noqa: E402

Run = Dict[str, Any]
Limits = Dict[str, Tuple[str, float, str]]


def parse_run(text: str) -> Run:
    """The ``all-metrics`` record of one run's output."""
    return next(json.loads(line[len(catalogue.ALL_METRICS_TAG):])
                for line in text.splitlines()
                if line.startswith(catalogue.ALL_METRICS_TAG))


def load_runs(directory: str) -> List[Run]:
    runs = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as handle:
            runs.append(parse_run(handle.read()))
    return runs


def limits_of(benchmark: Dict[str, Any]) -> Limits:
    """(better, bound, clock) of every end-to-end figure."""
    out = {spec[0]: (spec[2], spec[3], spec[4])
           for spec in catalogue.PRINTED_SPEC}
    for entry in benchmark["end_to_end"]:
        out[entry["name"]] = (entry["better"], entry["bound"], "host")
    return out


def _regressed(before: float, after: float, better: str,
               bound: float) -> bool:
    worse = after - before if better == "lower" else before - after
    if before == 0:
        return worse > 0
    return worse / abs(before) > bound


def compare(base: List[Run], new: List[Run], limits: Limits) -> List[str]:
    """Every regression of ``new`` against ``base``; empty when none."""
    problems = [f"{run['workload']}: seed {run['seed']} reported incorrect "
                "output" for run in new if not run["correct"]]
    for workload in sorted({run["workload"] for run in base}):
        before = [r for r in base if r["workload"] == workload]
        after = {r["seed"]: r for r in new if r["workload"] == workload}
        if not after:
            problems.append(f"{workload}: no runs to compare")
            continue
        for name in before[0]["metrics"]:
            better, bound, clock = limits[name]
            rule = f"({better} is better, bound {bound:.0%})"
            if clock == "host":
                old = statistics.median(r["metrics"][name] for r in before)
                now = statistics.median(r["metrics"][name]
                                        for r in after.values())
                if _regressed(old, now, better, bound):
                    problems.append(f"{workload}: {name} median "
                                    f"{old:.6g} -> {now:.6g} {rule}")
                continue
            for run in before:
                if run["seed"] not in after:
                    problems.append(f"{workload}: seed {run['seed']} "
                                    "has no run to compare")
                    continue
                old = run["metrics"][name]
                now = after[run["seed"]]["metrics"].get(name)
                if now is None:
                    problems.append(f"{workload}: {name} at seed "
                                    f"{run['seed']} is no longer reported")
                elif _regressed(old, now, better, bound):
                    problems.append(f"{workload}: {name} at seed "
                                    f"{run['seed']} {old:.6g} -> {now:.6g} "
                                    f"{rule}")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        limits = limits_of(json.load(f))
    problems = compare(load_runs(argv[0]), load_runs(argv[1]), limits)
    for problem in problems:
        print(f"REGRESSION {problem}")
    print("no regression" if not problems else
          f"{len(problems)} regression(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
