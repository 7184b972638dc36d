"""Self-test of the benchmark at tiny sizes.

Usage: python3 perfbench/selftest.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its per-layer
metrics, each with its unit, that both find no failures, and that a run
whose first expected record is deliberately corrupted reports a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, *flags: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--tiny", *flags]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in wanted.items():
            result = run(workload, "--trace", trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != metrics:
                problems.append(f"{workload} trace={trace}: metrics or units differ: "
                                f"missing {sorted(set(metrics) - set(got))}, extra {sorted(set(got) - set(metrics))}, "
                                f"units {sorted(k for k in metrics if k in got and got[k] != metrics[k])}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: failed {result['failed']} of {result['attempted']}")
        corrupted = run(workload, "--trace", "0", "--corrupt-expected")
        if corrupted["correct"] or not corrupted["failed"] > 0:
            problems.append(f"{workload}: a corrupted expectation did not raise failed_frac above 0")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
