"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run makes repetitions for ``--seconds``
(at least ``SIM_SUBSEEDS``), each in a fresh interpreter (``rep.py``).
Repetition ``i`` simulates sub-seed ``N * 1000 + i`` under
``PYTHONHASHSEED=i``, so the inputs come from ``--seed`` alone, pooled
over several sub-seeds (one seed's hot keys can move a run's cost by
20%), and every run sees the same sequence of interpreter hash layouts.

Host figures are medians over the repetitions; the JSON line states them
in reference seconds (``to_reference``).  Simulated figures are medians
over the first ``SIM_SUBSEEDS`` sub-seeds, and must repeat exactly: the
run ends with sub-seed 0 again, under another hash layout.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
sub-seed untraced and then traced, prints the per-layer metrics of
``layers.py`` and checks that tracing left every simulated figure
unchanged.  Earlier lines show a table of every metric with its unit and
clock; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check makes ``correct``
false.  The exit code is non-zero only when the benchmark itself cannot
run, for example when the program's sources are missing.

Seeds 1-100 are for tuning and checking changes; seed 1000003 is held
out for confirming a claimed gain on inputs the change was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as catalogue  # noqa: E402  (needs HERE on sys.path)

REFERENCE_RATE = 600_000.0
"""Events per second of ``workloads.ReferenceSim`` at the machine speed
host figures are stated at: one reference second is the time the machine
needs for this many reference events."""

SIM_SUBSEEDS = 3
"""Sub-seeds whose simulated figures a run reports (their median), and
so the fewest untraced repetitions a run makes."""

SUBSEED_STRIDE = 1000

REP_TIMEOUT_S = 60
"""A repetition that takes longer than this has hung."""

SPANS_DIR = os.path.join(ROOT, ".perfbench", "spans")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def run_rep(workload: str, seed: int, hash_seed: int, trace: bool = False,
            spans_path: str = "") -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter; returns its record."""
    argv = [sys.executable, os.path.join(HERE, "rep.py"), workload,
            str(seed), "1" if trace else "0"]
    if spans_path:
        argv.append(spans_path)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded "
                         f"{REP_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} repetition failed "
                         f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} repetition printed nothing")
    return json.loads(lines[-1])


def host_ops_per_s(record: Dict[str, Any]) -> float:
    return record["host"]["units"] / record["host"]["run_s"]


def to_reference(record: Dict[str, Any]) -> float:
    """Seconds per reference second: ``REFERENCE_RATE`` over the rate the
    reference simulation ran at during the measured phase.  Set-up runs
    just before that phase, so it is stated with the same factor."""
    return REFERENCE_RATE / record["host"]["ref_rate"]


def host_ops_per_ref_s(record: Dict[str, Any]) -> float:
    return host_ops_per_s(record) * to_reference(record)


def check_reps(reps: List[Dict[str, Any]]) -> List[str]:
    """Correctness checks the repetitions reported."""
    return [f"rep {index}: {check}" for index, record in enumerate(reps)
            for check in record["checks"]]


def same_sim(first: Dict[str, Any], again: Dict[str, Any],
             what: str) -> List[str]:
    """Two repetitions of one sub-seed must simulate the same figures."""
    if first["sim"] == again["sim"]:
        return []
    changed = sorted(name for name in set(first["sim"]) | set(again["sim"])
                     if first["sim"].get(name) != again["sim"].get(name))
    return [f"{what}: simulated figures differ in {changed}"]


def median_sim(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median over ``reps`` of every numeric simulated figure that all of
    them report."""
    names = set.intersection(*(set(r["sim"]) for r in reps))
    return {name: statistics.median(r["sim"][name] for r in reps)
            for name in sorted(names)
            if isinstance(reps[0]["sim"][name], (int, float))}


def untraced(workload: str, seed: int, seconds: float
             ) -> Dict[str, Any]:
    """The end-to-end figures of one run, with its checks."""
    deadline = time.monotonic() + seconds
    reps: List[Dict[str, Any]] = []
    while len(reps) < SIM_SUBSEEDS or time.monotonic() < deadline:
        reps.append(run_rep(workload, seed * SUBSEED_STRIDE + len(reps),
                            hash_seed=len(reps)))
    # Sub-seed 0 again, under another hash layout: it must simulate the
    # same figures.
    reps.append(run_rep(workload, seed * SUBSEED_STRIDE,
                        hash_seed=len(reps)))
    problems = check_reps(reps)
    problems += same_sim(reps[0], reps[-1], "repeated sub-seed")
    values: Dict[str, float] = median_sim(reps[:SIM_SUBSEEDS])
    values["host_ops_per_ref_s"] = statistics.median(
        map(host_ops_per_ref_s, reps))
    values["host_ops_per_s"] = statistics.median(map(host_ops_per_s, reps))
    values["setup_s"] = statistics.median(
        r["host"]["setup_s"] / to_reference(r) for r in reps)
    values["setup_cpu_s"] = statistics.median(
        r["host"]["setup_s"] for r in reps)
    values["host_peak_mib"] = statistics.median(r["peak_mib"] for r in reps)
    values["failed_frac"] = sum(r["failed"] for r in reps) / \
        sum(r["attempted"] for r in reps)
    if workload == "crash-failover":
        values["host_ms_per_crash"] = 1e3 / values["host_ops_per_s"]
    if workload == "open-storm-observed":
        knee = run_rep("knee", seed, hash_seed=0)
        values["knee_ops"] = knee["knee_ops"]
    return {"values": values, "problems": problems, "reps": reps}


def traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The per-layer figures of one run, with its checks."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    deadline = time.monotonic() + seconds
    plain: List[Dict[str, Any]] = []
    spanned: List[Dict[str, Any]] = []
    problems: List[str] = []
    while not spanned or time.monotonic() < deadline:
        sub_seed = seed * SUBSEED_STRIDE + len(spanned)
        plain.append(run_rep(workload, sub_seed, hash_seed=len(spanned)))
        spans = os.path.join(SPANS_DIR,
                             f"{workload}-seed{sub_seed}.tsv.gz")
        spanned.append(run_rep(workload, sub_seed, hash_seed=len(spanned),
                               trace=True, spans_path=spans))
        problems += same_sim(plain[-1], spanned[-1],
                             f"traced sub-seed {sub_seed}")
    problems += check_reps(plain + spanned)
    values = catalogue.layer_values(spanned)
    values["bench.trace_overhead_ratio"] = \
        statistics.median(map(host_ops_per_ref_s, plain)) / \
        statistics.median(map(host_ops_per_ref_s, spanned))
    problems += catalogue.zero_overhead_problems(workload, values)
    return {"values": values, "problems": problems,
            "reps": plain + spanned}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=catalogue.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from the repository root", file=sys.stderr)
        return 2

    try:
        run = (traced if args.trace else untraced)(
            args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    values = run["values"]

    for line in catalogue.table(args.workload, values,
                                per_layer=bool(args.trace)):
        print(line)
    print("  host_ops_per_ref_s by repetition: " + " ".join(
        f"{host_ops_per_ref_s(r):.1f}" for r in run["reps"]))
    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}")
    if not args.trace:
        # Every end-to-end figure of this workload, for compare.py.
        print(catalogue.ALL_METRICS_TAG + json.dumps({
            "workload": args.workload, "seed": args.seed,
            "correct": not run["problems"],
            "metrics": catalogue.all_end_to_end(args.workload, values)}))
    listed = catalogue.PER_LAYER if args.trace else catalogue.END_TO_END
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": sum(r["attempted"] for r in run["reps"]),
        "failed": sum(r["failed"] for r in run["reps"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
