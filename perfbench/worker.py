"""One cold pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TINY(0|1) TRACE(0|1) [SPANS_PATH]

Imports the library from ``src/`` of the checkout this file sits in (never
an installed copy), builds the inputs, runs every item once with its own
timer, and prints one JSON object: set-up time, per-item latencies, item keys
and canonical outputs, peak resident memory, and the per-layer metrics when
traced.  Every ``lru_cache`` starts empty because the interpreter is new,
as it is for each command-line invocation.

Calibration.  On a shared host the speed of one core drifts by up to 40%
over tens of seconds, as other tenants load it, which no amount of
repetition inside a 10-second run averages away.  So the pass also times a
fixed pure-Python loop before set-up and after every 60 ms of item time, and
reports each time both raw and scaled by ``REFERENCE_NS / loop time``: the
time the pass would have taken on a host that runs the loop in
``REFERENCE_NS`` (about the baseline host at its fastest).  The loop touches no
library code, so a change to the library moves the scaled times as it moves
the raw ones.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CALIBRATE_EVERY_NS = 60_000_000
REFERENCE_NS = 4_000_000


def calibrate() -> int:
    """Time of a fixed pure-Python loop of arithmetic and small-object churn, in ns.

    Both kinds of work together track the library's slowdowns on a loaded
    host better than either alone.
    """
    start = perf_counter_ns()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    table: dict[int, tuple[int, int]] = {}
    for i in range(8_000):
        pair = (i, i + 1)
        table[i & 1023] = pair
        [pair, i].sort(key=id)
    return perf_counter_ns() - start


def main(argv: list[str]) -> int:
    name, seed, tiny, traced = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    spans_path = argv[4] if len(argv) > 4 else None

    before_setup = calibrate()
    started = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    program = workloads.load_program()
    items = workloads.make_items(name, seed, tiny, program)
    setup_s = perf_counter() - started
    marks = [(0, calibrate())]  # (first item after the calibration, loop ns)
    setup_scale = 2 * REFERENCE_NS / (before_setup + marks[0][1])

    source = Path(program.oracle.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"blockwitness was imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    latencies: list[int] = []
    keys: list[str] = []
    outputs: list[str] = []
    since_calibration = 0
    for index, item in enumerate(items):
        if since_calibration >= CALIBRATE_EVERY_NS:
            marks.append((index, calibrate()))
            since_calibration = 0
        if tracer is not None:
            tracer.begin_item(index)
        start = perf_counter_ns()
        try:
            result = workloads.run_item(name, program, item)
        except Exception as exc:  # an item failure is data, not a crash of the run
            result, error = None, f"error {type(exc).__name__}: {exc}"
        else:
            error = None
        latencies.append(perf_counter_ns() - start)
        since_calibration += latencies[-1]
        if tracer is not None:
            tracer.end_item()
        keys.append(workloads.item_key(name, index, item))
        outputs.append(error if error is not None else workloads.canonical(name, result))

    marks.append((len(items), calibrate()))
    scaled = []
    for (first, loop_ns), (end, next_loop_ns) in zip(marks, marks[1:]):
        scale = 2 * REFERENCE_NS / (loop_ns + next_loop_ns)
        scaled.extend(round(ns * scale) for ns in latencies[first:end])

    report = {
        "setup_s_raw": setup_s,
        "setup_s": setup_s * setup_scale,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "latencies_ns_raw": latencies,
        "latencies_ns": scaled,
        "keys": keys,
        "outputs": outputs,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
