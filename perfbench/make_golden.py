"""Regenerate the golden records from the library in ``src/``.

Usage: python3 perfbench/make_golden.py

The committed records were produced from the initial code base; they pin
its outputs, so regenerate them only on purpose and say so.  ``table_audit``
has no golden file: its expectations are the planted verdicts of
``tablegen``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    program = workloads.load_program()
    for name in ("cross_validate", "construct_grid", "table_roundtrip"):
        items = sorted(workloads.make_items(name, 0, False, program))
        records = {}
        for index, item in enumerate(items):
            output = workloads.canonical(name, workloads.run_item(name, program, item))
            if "agree=false" in output or "roundtrip=False" in output:
                raise SystemExit(f"{name} {item}: the library itself fails this item: {output}")
            records[workloads.item_key(name, index, item)] = output
        path = HERE / "golden" / f"{name}.json"
        lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in records.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{path.name}: {len(records)} records")


if __name__ == "__main__":
    main()
