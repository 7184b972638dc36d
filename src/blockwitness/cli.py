"""Command-line surface over the library; deterministic output.

Exit codes: 0 success / condition verified, 1 condition failed or violation
found, 2 usage or parse error, 3 internal fault (an InternalInvariantError:
a falsified case tree, a malformed candidate spec, a non-integral degree
quotient), printed on stdout as ``internal-error: <Type>: <message>``.  A
scan prints that line for each faulting tuple and goes on; its summary's
``falsified`` counts every tuple that ended in an internal fault.  Exit code
141, the status a shell reports for a SIGPIPE death, means the reader closed
stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Sequence

from . import oracle, tables, witness
from .factored import InternalInvariantError, parse_decimal, primes_up_to
from .parameters import CaseParameters, check_primes, derive_case_parameters
from .partitions import Partition, parse_partition_text, partition_runs, runs_literal
from .degrees import degree

EXIT_OK = 0
EXIT_CONDITION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 141

# largest n whose partitions `degrees` and `export-table` list one by one,
# p(60) = 966,467, and whose principal p'-degree sets `verify-c`, `verify-b`
# and `scan --cross-validate` generate: the largest at n <= 60 has 16,384
# members (n = 60, p = 2; `verify-c --n 60 --p 2 --q 3` takes about 0.7 s and
# 33 MB on one Xeon core), against 185,172,670 at n = 200, p = 17.  At the cap
# `export-table --n 60` takes about 13-14 s and 361 MB peak RSS on a shared
# 2-core Xeon host (n = 50: 2.5-2.6 s, 89 MB), the built summary being the peak
# because lines are written as they are rendered; at n = 50, deciding
# principal-block flags is about 35% of the build
ENUMERATION_MAX_N = 60

# largest n whose primes `witness --n`, `degrees --n --partition` and
# `scan --n-max` sieve (2n bytes); at the cap `witness --n 10000000 --p 3
# --q 2` takes 1.7 s and 134 MB peak RSS, `--p 5 --q 3` (the hook
# (1^9999998,2)) 2.1-2.3 s and 207 MB, `degrees` on (1^(n-2),2) 1.4 s and
# 208 MB, on a shared 2-core Xeon host.  It does not bound the work of
# `degrees --partition`: a staircase of 320 runs (n = 51,360) takes 1.06 s
# and one of 640 runs (n = 205,120) 22.0 s, about x20 per doubling of the
# runs; the hook (1^1500000,1500000) at n = 3*10^6 takes 15.2 s and 71 MB,
# most of it rendering 903,087 digits, quadratic in n (1.9 s at n = 10^6)
SIEVE_MAX_N = 10**7

# most bytes `check-table` reads from its file; the largest table the program
# writes, `export-table --n 60`, is 151,609,328 bytes, and `check-table` on it
# takes about 4.6 s and 605 MB peak RSS on a shared 2-core Xeon host
TABLE_MAX_BYTES = 256 * 2**20

_DEFERRAL_MESSAGES = {
    "small-n": "small-n: deferred to table methods",
    "abelian-sylow": "abelian-sylow: deferred (Sylow subgroup is abelian)",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def _decimal(text: str) -> int:
    # argparse replaces a ValueError's reason with "invalid <type> value"
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="blockwitness", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    triple = argparse.ArgumentParser(add_help=False)
    for flag in ("--n", "--p", "--q"):
        triple.add_argument(flag, type=_decimal, required=True)

    w = sub.add_parser("witness", parents=[triple], help="construct and verify one witness")
    w.add_argument("--json", action="store_true")
    w.set_defaults(handler=_cmd_witness)

    c = sub.add_parser("verify-c", parents=[triple], help="exhaustive cross-divisibility check")
    c.add_argument("--group", choices=oracle.GROUP_KINDS, default="sn")
    c.set_defaults(handler=_cmd_verify_c)

    b = sub.add_parser("verify-b", parents=[triple], help="compare prime-to-p principal sets")
    b.set_defaults(handler=_cmd_verify_b)

    s = sub.add_parser("scan", help="grid of witnesses over all prime pairs")
    s.add_argument("--n-min", type=_decimal, required=True)
    s.add_argument("--n-max", type=_decimal, required=True)
    s.add_argument("--cross-validate", action="store_true")
    s.set_defaults(handler=_cmd_scan)

    d = sub.add_parser("degrees", help="hook-length degrees")
    d.add_argument("--n", type=_decimal, required=True)
    d.add_argument("--partition", type=str, default=None)
    d.set_defaults(handler=_cmd_degrees)

    t = sub.add_parser("check-table", help="audit a character-table file")
    t.add_argument("file", type=str)
    t.add_argument("--conjecture", choices=("a", "b", "c"), required=True)
    t.set_defaults(handler=_cmd_check_table)

    e = sub.add_parser("export-table", help="emit a symmetric-group table")
    e.add_argument("--n", type=_decimal, required=True)
    e.add_argument("--primes", type=str, default=None,
                   help="comma-separated; defaults to all primes <= n")
    e.set_defaults(handler=_cmd_export_table)
    return parser


def _quote(detail: str) -> str:
    return '"' + detail.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _first_or_dash(partitions: frozenset[Partition]) -> str:
    if not partitions:
        return "-"
    return max(partitions, key=lambda lam: lam.runs).to_literal()


def _cmd_witness(args) -> int:
    _bounded("witness --n", args.n, SIEVE_MAX_N, _SIEVE)
    params = derive_case_parameters(args.n, args.p, args.q)
    found = witness._construct(params)
    if found is None:
        message = _DEFERRAL_MESSAGES[params.deferral]
        print(json.dumps({"deferral": params.deferral}, sort_keys=True) if args.json else message)
        return EXIT_CONDITION_FAILED
    host, divisor = found.candidate.host_prime, found.candidate.divisor_prime
    facts = {
        "case": found.candidate.case_id,
        "partition": found.partition.parts if args.json else found.partition.to_literal(),
        "host": host,
        "divisor": divisor,
        "degree": found.degree.to_decimal(),
        "factored": found.degree.factored_str(),
        "host_valuation": found.degree.valuation(host),
        "divisor_valuation": found.degree.valuation(divisor),
    }
    if args.json:
        print(json.dumps(facts, sort_keys=True))
    else:
        print(" ".join(f"{key}={value}" for key, value in facts.items()))
    return EXIT_OK


def _cmd_verify_c(args) -> int:
    _bounded("verify-c --n", args.n, ENUMERATION_MAX_N, _P_PRIME_CHARACTERS)
    report = oracle.check_conjC(args.n, args.p, args.q, args.group)
    print(
        f"conjecture-c n={args.n} p={args.p} q={args.q} group={args.group}"
        f" holds={'true' if report.condition_holds else 'false'}"
        f" p_witnesses={len(report.witnesses_p_block)}"
        f" q_witnesses={len(report.witnesses_q_block)}"
        f" example_p={_first_or_dash(report.witnesses_p_block)}"
        f" example_q={_first_or_dash(report.witnesses_q_block)}"
    )
    return EXIT_OK if report.condition_holds else EXIT_CONDITION_FAILED


def _cmd_verify_b(args) -> int:
    _bounded("verify-b --n", args.n, ENUMERATION_MAX_N, _P_PRIME_CHARACTERS)
    check_primes(args.n, (args.p, args.q))
    # conjecture B is stated here alone: B_p and B_q compared as generated
    set_p, set_q = oracle._prime_view(args.n, args.p), oracle._prime_view(args.n, args.q)
    equal = set_p == set_q
    shown = "true" if equal else "false"
    print(
        f"conjecture-b n={args.n} p={args.p} q={args.q}"
        f" sets_equal={shown} violation={shown}"
        f" size_p={len(set_p)} size_q={len(set_q)}"
    )
    return EXIT_CONDITION_FAILED if equal else EXIT_OK


def _cmd_scan(args) -> int:
    n_min, n_max = args.n_min, args.n_max
    if n_min < 1:
        raise ValueError(f"scan --n-min must be >= 1, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"empty scan range [{n_min}, {n_max}]")
    audit = args.cross_validate
    if audit:
        _bounded("scan --cross-validate --n-max", n_max, ENUMERATION_MAX_N, _P_PRIME_CHARACTERS)
    _bounded("scan --n-max", n_max, SIEVE_MAX_N, _SIEVE)
    witnesses = deferred = disagreements = falsified = 0
    for n in range(n_min, n_max + 1):
        for p, q in oracle.prime_pairs(n):
            # prime_pairs yields primes q < p <= n, so nothing is left to check
            params = CaseParameters(n, p, q)
            try:
                found = witness._construct(params)
                agrees, holds = oracle.audit_witness(params, found) if audit else (None, None)
            except InternalInvariantError as exc:
                falsified += 1
                print(f"internal-error: {type(exc).__name__}: {exc}")
                continue
            if found is None:
                deferred += 1
                case, literal = f"deferred-{params.deferral}", "-"
            else:
                witnesses += 1
                case, literal = found.candidate.case_id, found.partition.to_literal()
            if agrees is False:
                disagreements += 1
            agree = "na" if agrees is None else ("true" if agrees else "false")
            oracle_field = "" if holds is None else f" oracle={'true' if holds else 'false'}"
            print(
                f"result n={n} p={p} q={q} case={case} partition={literal}"
                f" agree={agree}{oracle_field}"
            )
    print(
        f"scan-summary tuples={witnesses + deferred + falsified} witnesses={witnesses}"
        f" deferred={deferred} disagreements={disagreements} falsified={falsified}"
    )
    if falsified:
        return EXIT_INTERNAL
    if disagreements:
        return EXIT_CONDITION_FAILED
    return EXIT_OK


_PARTITIONS = "lists every partition of n"
_P_PRIME_CHARACTERS = "lists the p'-degree characters of S_n"
_SIEVE = "sieves the primes up to n"


def _bounded(option: str, n: int, limit: int, work: str) -> int:
    # `option` is the command and flag that set n, e.g. "degrees --n"
    if n > limit:
        raise ValueError(f"{option} {n} {work}; the limit is n <= {limit}")
    return n


def _cmd_degrees(args) -> int:
    if args.partition is None:
        shapes = partition_runs(_bounded("degrees --n", args.n, ENUMERATION_MAX_N, _PARTITIONS))
    else:
        _bounded("degrees --n", args.n, SIEVE_MAX_N, _SIEVE)
        shapes = [parse_partition_text(args.partition, args.n).runs]
    for runs in shapes:
        deg = degree(runs)
        print(
            f"degree partition={runs_literal(runs)}"
            f" decimal={deg.to_decimal()} factored={deg.factored_str()}"
        )
    return EXIT_OK


def _cmd_check_table(args) -> int:
    try:
        with open(args.file, "rb") as handle:
            data = handle.read(TABLE_MAX_BYTES + 1)
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc}") from None
    if len(data) > TABLE_MAX_BYTES:
        raise ValueError(f"check-table reads at most {TABLE_MAX_BYTES} bytes; {args.file} is longer")
    summary = tables.parse_table(data)
    findings = tables.audit(summary, args.conjecture)
    worst = EXIT_OK
    for finding in findings:
        print(
            f"finding {finding.conjecture} {finding.p} {finding.q}"
            f" {finding.verdict} {_quote(finding.detail)}"
        )
        if finding.verdict == "violation":
            worst = EXIT_CONDITION_FAILED
    return worst


def _cmd_export_table(args) -> int:
    n = _bounded("export-table --n", args.n, ENUMERATION_MAX_N, _PARTITIONS)
    if args.primes is None:
        primes = tuple(primes_up_to(n))
    elif args.primes == "":
        primes = ()
    else:
        primes = tuple(parse_decimal(tok) for tok in args.primes.split(","))
    summary = tables.build_sn_summary(n, primes)
    sys.stdout.writelines(tables.table_lines(summary))
    return EXIT_OK


def run(argv: Sequence[str] | None = None) -> int:
    # integers read from outside are bounded by factored.DECIMAL_MAX_DIGITS, so the
    # interpreter's own int/str limit is lifted and cannot decide any output
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except tables.ParseError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage-error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal-error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; pointing fd 1 at devnull keeps the
        # interpreter's exit flush from raising a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)
