"""blockwitness benchmark: cold-start workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      (every workload)

Each pass runs the workload's whole item list once in a fresh interpreter
(``worker.py``), so every ``lru_cache`` starts empty, as it does for each
command-line invocation.  A run makes about S / (nominal pass time) passes,
one after another, and checks every item of every pass against its golden
record (or, for ``table_audit``, its planted verdict).

``--trace 0`` reports the end-to-end metrics:
    setup_s       median over passes of import plus input generation
    items_per_s   median over passes of items / summed item time
    item_p50_ms   median item latency, over all passes' items
    item_p99_ms   99th percentile item latency over all passes' items; with
                  fewer than 1,000 samples, the highest percentile that
                  leaves at least ten samples beyond it (printed with the
                  sample count on the summary line)
    peak_rss_mb   median over passes of the worker's peak resident memory
Failed items (exceptions, a falsified case tree, oracle disagreement, output
differing from the expectation) are counted in ``failed``; failed_frac is
printed on the summary line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.PER_LAYER`` (medians over the traced passes)
plus the tracing overhead, untraced over traced items_per_s.  The spans of
the last traced pass go to perfbench/out/spans-<workload>.tsv.gz.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tablegen  # noqa: E402
import tracing  # noqa: E402
from workloads import AUDIT_FILES, PASS_SECONDS, TINY, WORKLOADS, item_key  # noqa: E402

PASS_TIMEOUT_S = 150
TRACE_PASS_SHARE = 4  # a traced pair costs about four untraced passes


def expected_records(name: str, seed: int, tiny: bool) -> list[tuple[str, str]]:
    """(key, output) of every item, in the order the worker runs them."""
    if name == "table_audit":
        corpus = tablegen.planted_corpus(seed, TINY[name] if tiny else AUDIT_FILES)
        return [(item_key(name, i, t.data), "\n".join(t.expected)) for i, t in enumerate(corpus)]
    with open(HERE / "golden" / f"{name}.json", encoding="utf-8") as handle:
        golden = json.load(handle)
    records = list(golden.items())
    if tiny:
        lo, hi = TINY[name]
        records = [(k, v) for k, v in records if lo <= int(k.split()[0]) <= hi]
    if name == "construct_grid":
        random.Random(seed).shuffle(records)
    return records


def run_pass(name: str, seed: int, tiny: bool, traced: bool) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(int(tiny)), str(int(traced))]
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        command.append(str(out_dir / f"spans-{name}.tsv.gz"))
    proc = subprocess.run(command, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def count_failures(report: dict, expected: list[tuple[str, str]]) -> int:
    got = list(zip(report["keys"], report["outputs"]))
    failed = abs(len(got) - len(expected))
    return failed + sum(1 for have, want in zip(got, expected) if have != want)


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """(percentile, value): p99, or the highest leaving ten samples beyond it."""
    ordered = sorted(samples)
    size = len(ordered)
    percentile = 99
    while percentile > 50 and size - math.ceil(percentile * size / 100) < 10:
        percentile -= 1
    return percentile, ordered[max(0, math.ceil(percentile * size / 100) - 1)]


def end_to_end(reports: list[dict], suffix: str = "") -> tuple[dict, str]:
    """The end-to-end metrics from calibrated times, or raw ones with suffix '_raw'."""
    latencies_ms = [ns / 1e6 for r in reports for ns in r["latencies_ns" + suffix]]
    rates = [len(r["latencies_ns"]) / (sum(r["latencies_ns" + suffix]) / 1e9) for r in reports]
    percentile, tail = tail_percentile(latencies_ms)
    metrics = {
        "setup_s": statistics.median(r["setup_s" + suffix] for r in reports),
        "items_per_s": statistics.median(rates),
        "item_p50_ms": statistics.median(latencies_ms),
        "item_p99_ms": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reports) / 1024,
    }
    note = f"item_p99_ms=p{percentile} over {len(latencies_ms)} samples"
    return metrics, note


UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_p99_ms": "ms", "peak_rss_mb": "MB"}


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool, corrupt: bool) -> dict:
    expected = expected_records(name, seed, tiny)
    if corrupt:
        key, output = expected[0]
        expected[0] = (key, output + " corrupted")
    passes = 2 if tiny else max(1, round(seconds / PASS_SECONDS[name]))
    plan = [False, True] * max(1, round(passes / TRACE_PASS_SHARE)) if trace else [False] * passes
    reports = [run_pass(name, seed, tiny, traced) for traced in plan]
    attempted = sum(len(expected) for _ in reports)
    failed = sum(count_failures(report, expected) for report in reports)

    untraced = [r for r in reports if "layers" not in r]
    metrics, note = end_to_end(untraced)
    raw, _ = end_to_end(untraced, "_raw")
    line = " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
    raw_line = " ".join(f"{k}={v:.6g}" for k, v in raw.items() if k != "peak_rss_mb")
    print(f"workload={name} seed={seed} passes={len(reports)} {line}"
          f" failed_frac={failed / attempted:.6g} ({failed}/{attempted}) {note}")
    print(f"  uncalibrated: {raw_line}")
    if trace:
        traced = [r for r in reports if "layers" in r]
        layers = tracing.median_metrics([r["layers"] for r in traced])
        traced_rate, _ = end_to_end(traced)
        layers["trace.overhead_ratio"] = metrics["items_per_s"] / traced_rate["items_per_s"]
        out = {metric: {"value": layers[metric], "unit": unit} for metric, unit in tracing.PER_LAYER}
        for layer in tracing.LAYERS:
            print(f"  self time {layer:<10} {layers[f'{layer}.self_s']:.4f} s")
        print(f"  tracing overhead {layers['trace.overhead_ratio']:.3g}x"
              f" (untraced {metrics['items_per_s']:.6g}/s, traced {traced_rate['items_per_s']:.6g}/s)")
    else:
        out = {metric: {"value": value, "unit": UNITS[metric]} for metric, value in metrics.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: spoil the first expected record")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blockwitness" / "__init__.py").is_file():
        print(f"no blockwitness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, args.corrupt_expected)
        for name in names
    }
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
