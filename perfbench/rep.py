"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED TRACE [SPANS_PATH]

``run.py`` starts this script once per repetition, so each repetition
pays the program's once-per-process costs (imports aside, the
``lru_cache``s behind ``SystemConfig``) and has its own peak RSS.  With
TRACE=1 the layer wrappers of ``layers.py`` are installed on the
program's classes before anything is built, and the spans are written
to SPANS_PATH when the run ends.  The result is printed as one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    import workloads
    recorder = None
    if trace:
        import layers
        recorder = layers.Recorder()
        recorder.install()
    if workload == "knee":
        record = workloads.run_knee()
    else:
        record = workloads.run_workload(workload, seed)
    if recorder is not None:
        recorder.uninstall()
        record["layers"] = recorder.report(record)
        if len(argv) > 3:
            recorder.write_spans(argv[3])
    record["peak_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
