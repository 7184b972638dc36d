"""The runs whose stdout ``golden/*.sha256`` freezes, one function per digest.

Each function prints the bytes its digest covers and returns the run's exit
status.  One digest is checked with

    PYTHONPATH=src:tests python3 tests/golden_runs.py NAME | sha256sum --check tests/golden/NAME.sha256

``golden/README.md`` says where each digest was taken and which later
changes it survived.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from _oracles import is_canonical_partition, is_canonical_runs
from blockwitness import cli, factored, oracle


def capture(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``cli.run(argv)``."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def export_table(argv: list[str], path: str | os.PathLike) -> None:
    """Write the stdout of the ``export-table`` invocation ``argv`` to ``path``."""
    code, table = capture(argv)
    assert code == 0, f"table export {argv} exited {code}"
    Path(path).write_text(table, encoding="utf-8")


def check_exported(n: int, label: str = "") -> None:
    """Export S_n to a temporary file and run check-table a, b and c on it.

    Each check's own stdout is followed by ``<label>conjecture=X exit=K``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"S{n}.table")
        export_table(["export-table", "--n", str(n)], path)
        for conjecture in "abc":
            code = cli.run(["check-table", path, "--conjecture", conjecture])
            print(f"{label}conjecture={conjecture} exit={code}")


def scan_9_1000() -> int:
    return cli.run(["scan", "--n-min", "9", "--n-max", "1000"])


def scan_cv_1_60() -> int:
    return cli.run(["scan", "--n-min", "1", "--n-max", "60", "--cross-validate"])


def verify_cb_1_60() -> int:
    """verify-c (sn, an) and verify-b on every prime pair, n <= 60, in one process.

    A failed count certificate raises inside the commands.  Every member of
    each principal p′-degree set they built must then have canonical runs
    and parts; the count of certified sets and members goes to stderr.
    """
    sizes = []
    for n in range(1, 61):
        for p, q in oracle.prime_pairs(n):
            for argv in (["verify-c", "--group", "sn"], ["verify-c", "--group", "an"], ["verify-b"]):
                cli.run(argv + ["--n", str(n), "--p", str(p), "--q", str(q)])
        for p in factored.primes_up_to(n):
            members = oracle._prime_view(n, p)
            for lam in members:
                assert is_canonical_runs(lam.runs, n), (n, p, lam.runs)
                assert is_canonical_partition(lam.parts, n), (n, p, lam.parts)
            sizes.append(len(members))
    print(len(sizes), "sets,", sum(sizes), "members certified canonical", file=sys.stderr)
    return 0


def tables_23_32() -> int:
    for n in range(23, 33):
        check_exported(n, f"n={n} ")
    return 0


def degrees_40() -> int:
    return cli.run(["degrees", "--n", "40"])


def export_table_40() -> int:
    return cli.run(["export-table", "--n", "40"])


def check_table_40() -> int:
    check_exported(40)
    return 0


RUNS = {
    run.__name__: run
    for run in (
        scan_9_1000, scan_cv_1_60, verify_cb_1_60, tables_23_32,
        degrees_40, export_table_40, check_table_40,
    )
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in RUNS:
        sys.exit(f"usage: golden_runs.py {{{'|'.join(RUNS)}}}")
    sys.exit(RUNS[sys.argv[1]]())
