"""Command-line surface over the library; deterministic output.

Exit codes: 0 success / condition verified, 1 condition failed or violation
found, 2 usage or parse error, 3 internal fault (an InternalInvariantError:
a falsified case tree, a malformed candidate spec, a non-integral degree
quotient), printed on stdout as ``internal-error: <Type>: <message>``.  A
scan prints that line for each faulting tuple and goes on; its summary's
``falsified`` counts every tuple that ended in an internal fault.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import oracle, tables, witness
from .factored import InternalInvariantError, parse_decimal, primes_up_to
from .parameters import derive_case_parameters
from .partitions import Partition, parse_partition_text, partitions_of
from .degrees import degree

EXIT_OK = 0
EXIT_CONDITION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCAN_MAX_ENV = "BLOCKWITNESS_SCAN_MAX"

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


def _build_parser() -> _Parser:
    parser = _Parser(prog="blockwitness", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    w = sub.add_parser("witness", help="construct and verify one witness")
    w.add_argument("--n", type=_decimal, required=True)
    w.add_argument("--p", type=_decimal, required=True)
    w.add_argument("--q", type=_decimal, required=True)
    w.add_argument("--json", action="store_true")
    w.set_defaults(handler=_cmd_witness)

    c = sub.add_parser("verify-c", help="exhaustive cross-divisibility check")
    c.add_argument("--n", type=_decimal, required=True)
    c.add_argument("--p", type=_decimal, required=True)
    c.add_argument("--q", type=_decimal, required=True)
    c.add_argument("--group", choices=("sn", "an"), default="sn")
    c.set_defaults(handler=_cmd_verify_c)

    b = sub.add_parser("verify-b", help="compare prime-to-p principal sets")
    b.add_argument("--n", type=_decimal, required=True)
    b.add_argument("--p", type=_decimal, required=True)
    b.add_argument("--q", type=_decimal, required=True)
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
    best = max(partitions, key=lambda lam: lam.parts)
    return best.to_literal()


def _cmd_witness(args) -> int:
    params = derive_case_parameters(args.n, args.p, args.q)
    found = witness._construct(params)
    if found is None:
        print(_DEFERRAL_MESSAGES[params.deferral])
        return EXIT_CONDITION_FAILED
    host, divisor = found.candidate.host_prime, found.candidate.divisor_prime
    facts = {
        "case": found.candidate.case_id,
        "partition": list(found.partition.parts),
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
        facts["partition"] = found.partition.to_literal()
        print(" ".join(f"{key}={value}" for key, value in facts.items()))
    return EXIT_OK


def _cmd_verify_c(args) -> int:
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
    report = oracle.check_conjC(args.n, args.p, args.q, "sn")
    equal = "true" if report.sets_equal else "false"
    print(
        f"conjecture-b n={args.n} p={args.p} q={args.q}"
        f" sets_equal={equal} violation={equal}"
        f" size_p={len(report.set_B_p)}"
        f" size_q={len(report.set_B_q)}"
    )
    return EXIT_CONDITION_FAILED if report.sets_equal else EXIT_OK


def _cmd_scan(args) -> int:
    n_min, n_max = args.n_min, args.n_max
    cap = os.environ.get(SCAN_MAX_ENV)
    if cap is not None:
        try:
            n_max = min(n_max, parse_decimal(cap))
        except ValueError as exc:
            raise ValueError(f"{SCAN_MAX_ENV}: {exc}") from None
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"empty scan range [{n_min}, {n_max}]")
    tuples = witnesses = deferred = disagreements = falsified = 0
    for n in range(n_min, n_max + 1):
        for p, q in oracle.prime_pairs(n):
            tuples += 1
            # the per-tuple record; only --cross-validate fills agrees and holds
            agrees = holds = None
            try:
                if args.cross_validate:
                    cv = oracle.cross_validate(n, p, q)
                    deferral, found = cv.deferral, cv.witness
                    agrees, holds = cv.oracle_agrees, cv.oracle_condition_holds
                else:
                    params = derive_case_parameters(n, p, q)
                    deferral = params.deferral
                    found = witness._construct(params)
            except InternalInvariantError as exc:
                falsified += 1
                print(f"internal-error: {type(exc).__name__}: {exc}")
                continue
            if deferral is not None:
                deferred += 1
                case, literal = f"deferred-{deferral}", "-"
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
        f"scan-summary tuples={tuples} witnesses={witnesses} deferred={deferred}"
        f" disagreements={disagreements} falsified={falsified}"
    )
    if falsified:
        return EXIT_INTERNAL
    if disagreements:
        return EXIT_CONDITION_FAILED
    return EXIT_OK


def _cmd_degrees(args) -> int:
    if args.partition is None:
        shapes = partitions_of(args.n)
    else:
        shapes = [parse_partition_text(args.partition, args.n)]
    for lam in shapes:
        deg = degree(lam)
        print(
            f"degree partition={lam.to_literal()}"
            f" decimal={deg.to_decimal()} factored={deg.factored_str()}"
        )
    return EXIT_OK


def _cmd_check_table(args) -> int:
    try:
        with open(args.file, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc}") from None
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
    if args.primes is None:
        primes = tuple(primes_up_to(args.n))
    elif args.primes.strip() == "":
        primes = ()
    else:
        primes = tuple(parse_decimal(tok.strip()) for tok in args.primes.split(","))
    summary = tables.build_sn_summary(args.n, primes)
    sys.stdout.write(tables.serialize_table(summary).decode("utf-8"))
    return EXIT_OK


def run(argv: Sequence[str] | None = None) -> int:
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
