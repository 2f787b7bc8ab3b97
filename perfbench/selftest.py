"""Self-tests of the benchmark: its manifest, and that its comparison
trips on injected regressions while a same-code comparison passes.

    python3 perfbench/selftest.py [--seconds S]

It runs ``run.py`` on ``ycsb-a-checkin`` and ``open-storm-observed`` for
three seeds, twice, and compares the two sets with ``compare.py``: they
must agree, so run-to-run noise stays inside the bounds.  It then
injects, into a copy of the first set,

* a 1.5x host slowdown on ``ycsb-a-checkin``;
* ``erases_per_kop`` leaving 0 on ``ycsb-a-checkin`` (a zero baseline,
  where a relative tolerance alone can never trip);
* a 5% ``sim_p99_us`` rise on ``open-storm-observed``,

and comparing the first set with its injected copy must report a
regression of exactly that metric.
Exit code 0 means every check held.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
from typing import Any, Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics as catalogue  # noqa: E402

SEEDS = (1, 2, 3)
WORKLOADS = ("ycsb-a-checkin", "open-storm-observed")


def manifest_problems(benchmark: Dict[str, Any]) -> List[str]:
    """``BENCHMARK.json`` must list exactly the catalogue's metrics."""
    problems = []
    if [w["name"] for w in benchmark["workloads"]] != \
            list(catalogue.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the catalogue")
    listed = [(m["name"], m["unit"], m["better"])
              for m in benchmark["end_to_end"]]
    if listed != [spec[:3] for spec in catalogue.END_TO_END_SPEC]:
        problems.append("BENCHMARK.json end_to_end differs from the catalogue")
    listed = [(m["name"], m["unit"], m["better"])
              for m in benchmark["per_layer"]]
    if listed != [spec[:3] for spec in catalogue.PER_LAYER_SPEC]:
        problems.append("BENCHMARK.json per_layer differs from the catalogue")
    return problems


def collect(seconds: float) -> List[compare.Run]:
    """One set of runs: every self-test workload at every seed."""
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(compare.parse_run(done.stdout))
    return runs


def injected(runs: List[compare.Run], workload: str,
             change: Callable[[Dict[str, float]], None]) -> List[compare.Run]:
    out = copy.deepcopy(runs)
    for run in out:
        if run["workload"] == workload:
            change(run["metrics"])
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    problems = manifest_problems(benchmark)
    limits = compare.limits_of(benchmark)

    base, new = collect(args.seconds), collect(args.seconds)
    same = compare.compare(base, new, limits)
    if same:
        problems.append(f"same-code comparison failed: {same}")

    def slower(figures: Dict[str, float]) -> None:
        figures["host_ops_per_ref_s"] /= 1.5

    def erases(figures: Dict[str, float]) -> None:
        figures["erases_per_kop"] = 0.05

    def p99_rise(figures: Dict[str, float]) -> None:
        figures["sim_p99_us"] *= 1.05

    for label, workload, change, metric in (
            ("1.5x host slowdown", "ycsb-a-checkin", slower,
             "host_ops_per_ref_s"),
            ("erases_per_kop from 0", "ycsb-a-checkin", erases,
             "erases_per_kop"),
            ("sim_p99_us rise", "open-storm-observed", p99_rise,
             "sim_p99_us")):
        found = compare.compare(base, injected(base, workload, change),
                                limits)
        expected = [p for p in found
                    if p.startswith(f"{workload}: {metric} ")]
        if not expected or len(expected) != len(found):
            problems.append(f"{label}: expected one regression of {metric} "
                            f"on {workload}, got {found}")
        else:
            print(f"caught {label}: {expected[0]}")

    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest ok" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
