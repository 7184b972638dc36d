import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockwitness
from blockwitness.cli import main, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_line(capsys):
    code, out, _ = invoke(capsys, "witness", "--n", "9", "--p", "3", "--q", "2")
    assert code == 0
    assert out.startswith(
        "case=I.a partition=[2,1,1,1,1,1,1,1] host=3 divisor=2 degree=8"
    )
    assert "factored=2^3" in out
    assert "host_valuation=0" in out
    assert "divisor_valuation=3" in out


def test_witness_json_matches_plain(capsys):
    code, plain, _ = invoke(capsys, "witness", "--n", "10", "--p", "5", "--q", "2")
    assert code == 0
    code, out, _ = invoke(capsys, "witness", "--n", "10", "--p", "5", "--q", "2", "--json")
    assert code == 0
    facts = json.loads(out)
    assert facts["case"] == "II.a"
    assert facts["partition"] == [3, 1, 1, 1, 1, 1, 1, 1]
    assert facts["degree"] == "36"
    for key in ("case", "host", "divisor", "degree", "factored",
                "host_valuation", "divisor_valuation"):
        assert f"{key}={facts[key]}" in plain


def test_witness_text_never_expands_parts(capsys, monkeypatch):
    # the hook (1^38,2): text mode renders its literal from runs, --json lists parts
    from blockwitness.partitions import Partition

    argv = ("witness", "--n", "40", "--p", "5", "--q", "3")
    code, plain, _ = invoke(capsys, *argv)
    assert code == 0
    assert plain.startswith("case=I.a partition=[2" + ",1" * 38 + "] host=")
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["partition"] == [2] + [1] * 38

    def expanded(self):
        raise AssertionError("parts expanded")

    monkeypatch.setattr(Partition, "parts", property(expanded))
    assert invoke(capsys, *argv) == (0, plain, "")


def test_witness_small_n(capsys):
    code, out, _ = invoke(capsys, "witness", "--n", "8", "--p", "3", "--q", "2")
    assert code == 1
    assert out.strip() == "small-n: deferred to table methods"


def test_witness_deferred(capsys):
    code, out, _ = invoke(capsys, "witness", "--n", "11", "--p", "7", "--q", "5")
    assert code == 1
    assert out.startswith("abelian-sylow: deferred")


def test_usage_errors(capsys):
    code, _, err = invoke(capsys, "witness", "--n", "9", "--p", "3")
    assert code == 2 and "usage-error" in err
    code, _, err = invoke(capsys, "no-such-command")
    assert code == 2
    code, _, err = invoke(capsys, "witness", "--n", "9", "--p", "3", "--q", "3")
    assert code == 2 and "distinct" in err
    code, _, err = invoke(capsys, "witness", "--n", "9", "--p", "4", "--q", "3")
    assert code == 2 and "not prime" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--n", "1_0", "--p", "5", "--q", "2"],
        ["witness", "--n", "10", "--p", "+5", "--q", "2"],
        ["verify-c", "--n", "１０", "--p", "5", "--q", "2"],
        ["verify-b", "--n", " 10", "--p", "5", "--q", "2"],
        ["scan", "--n-min", "9", "--n-max", "1_0"],
        ["degrees", "--n", "4", "--partition", "[３,+1]"],
        ["degrees", "--n", "4", "--partition", "(1^+1,3)"],
        ["degrees", "--n", "4", "--partition", " [3,1]"],
        ["degrees", "--n", "4", "--partition", "[ 3,1]"],
        ["degrees", "--n", "4", "--partition", "(1^1, 3)"],
        ["export-table", "--n", "9", "--primes", "２, 3"],
        ["export-table", "--n", "9", "--primes", "2,+3"],
        ["export-table", "--n", "9", "--primes", " 2,3 "],
        ["export-table", "--n", "9", "--primes", "2, 3"],
        ["export-table", "--n", "9", "--primes", "  "],
        ["export-table", "--n", "1_0"],
    ],
    ids=[
        "underscore-n", "plus-sign-p", "fullwidth-n", "leading-space-n",
        "scan-underscore-n-max",
        "partition-literal", "ascending-spec", "partition-padded",
        "partition-space-in-bracket", "spec-space-after-comma", "primes-fullwidth",
        "primes-plus-sign", "primes-padded", "primes-space-after-comma",
        "primes-blank", "export-underscore-n",
    ],
)
def test_lax_integers_are_usage_errors(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage-error" in err


def _digits_value(digits):
    # the integer a decimal string names, in chunks below the int/str limit
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_degrees_past_the_digit_limit(capsys):
    # a verified I.b witness whose degree has 4,315 decimal digits
    code, out, _ = invoke(capsys, "witness", "--n", "19976", "--p", "8017", "--q", "3")
    assert code == 0
    fields = dict(field.split("=", 1) for field in out.split())
    assert fields["case"] == "I.b"
    assert len(fields["degree"]) == 4315
    expected = 1
    for factor in fields["factored"].split("*"):
        base, _, exponent = factor.partition("^")
        expected *= int(base) ** int(exponent or 1)
    assert _digits_value(fields["degree"]) == expected
    code, out, _ = invoke(capsys, "degrees", "--n", "20000", "--partition", "(1^9999,10001)")
    assert code == 0
    decimal = out.split("decimal=")[1].split()[0]
    assert _digits_value(decimal) == math.comb(19999, 9999)


def test_over_long_integers_name_the_limit(capsys, tmp_path):
    code, out, err = invoke(capsys, "witness", "--n", "1" * 5000, "--p", "3", "--q", "2")
    assert (code, out) == (2, "")
    assert err == "usage-error: argument --n: integer of 5000 digits exceeds the 4300-digit limit\n"
    table = tmp_path / "long-order.table"
    table.write_text(
        "group toy\norder " + "6" * 5000 + "\nprimes 2 3\ntrivial e\ncomplete false\n"
        "char e 1 2:1 3:1\n",
        encoding="utf-8",
    )
    code, out, err = invoke(capsys, "check-table", str(table), "--conjecture", "a")
    assert (code, out) == (2, "")
    assert err == "parse-error: line 2: order: integer of 5000 digits exceeds the 4300-digit limit\n"


def test_verify_c(capsys):
    code, out, _ = invoke(capsys, "verify-c", "--n", "9", "--p", "3", "--q", "2")
    assert code == 0
    assert "holds=true" in out
    assert "group=sn" in out
    code, out, _ = invoke(
        capsys, "verify-c", "--n", "9", "--p", "3", "--q", "2", "--group", "an"
    )
    assert code == 0 and "group=an" in out
    # in B_0(2) of S_5 the odd degrees are 1 and 5, none divisible by 3, so the
    # q side is empty and prints "-"
    code, out, _ = invoke(capsys, "verify-c", "--n", "5", "--p", "3", "--q", "2")
    assert code == 0
    assert out == (
        "conjecture-c n=5 p=3 q=2 group=sn holds=true p_witnesses=1 q_witnesses=0"
        " example_p=[2,1,1,1] example_q=-\n"
    )


def test_verify_b(capsys):
    code, out, _ = invoke(capsys, "verify-b", "--n", "9", "--p", "3", "--q", "2")
    assert code == 0
    assert "sets_equal=false violation=false" in out


def test_scan_plain(capsys):
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "result n=9 p=3 q=2 case=I.a partition=[2,1,1,1,1,1,1,1] agree=na"
    assert any("case=deferred-abelian-sylow" in line for line in lines)
    assert lines[-1].startswith("scan-summary tuples=")


def test_scan_cross_validate(capsys):
    # over the command's whole range, n <= 60: the audit adds fields to each
    # plain scan line and changes no witness
    span = ("--n-min", "1", "--n-max", "60")
    code, plain, _ = invoke(capsys, "scan", *span)
    assert code == 0
    code, audited, _ = invoke(capsys, "scan", *span, "--cross-validate")
    assert code == 0
    plain_lines, audited_lines = plain.splitlines(), audited.splitlines()
    assert len(plain_lines) == len(audited_lines) == 3309
    for bare, full in zip(plain_lines[:-1], audited_lines[:-1]):
        assert bare.endswith(" agree=na"), bare
        head = bare[: -len(" agree=na")]
        assert full.startswith(head + " agree="), (bare, full)
    witness_lines = [l for l in audited_lines[:-1] if " case=deferred" not in l]
    assert len(witness_lines) == 1096
    assert all(l.endswith(" agree=true oracle=true") for l in witness_lines)
    deferred = [l for l in audited_lines[:-1] if " case=deferred" in l]
    assert deferred and all(l.endswith(" agree=na oracle=true") for l in deferred)
    assert audited_lines[-1] == plain_lines[-1] == (
        "scan-summary tuples=3308 witnesses=1096 deferred=2212 disagreements=0 falsified=0"
    )


def test_scan_deterministic(capsys):
    _, first, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "12")
    _, second, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "12")
    assert first == second


def test_degrees_table(capsys):
    code, out, _ = invoke(capsys, "degrees", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "degree partition=[4] decimal=1 factored=1",
        "degree partition=[3,1] decimal=3 factored=3",
        "degree partition=[2,2] decimal=2 factored=2",
        "degree partition=[2,1,1] decimal=3 factored=3",
        "degree partition=[1,1,1,1] decimal=1 factored=1",
    ]


def test_degrees_rejects_a_non_canonical_literal(capsys):
    code, out, err = invoke(capsys, "degrees", "--n", "3", "--partition", "[1,2]")
    assert (code, out) == (2, "")
    assert err.startswith("usage-error: ") and "'[1,2]'" in err


def test_degrees_spec_is_sized_before_it_is_expanded(capsys):
    # expanding this spec would build a tuple of 10^11 parts
    code, out, err = invoke(capsys, "degrees", "--n", "5", "--partition", "(1^100000000000)")
    assert (code, out) == (2, "")
    assert err == "usage-error: partition (1^100000000000) has size 100000000000, expected 5\n"


def test_enumeration_is_bounded(capsys, monkeypatch):
    # degrees without --partition and export-table list all p(n) partitions;
    # verify-c, verify-b and scan --cross-validate generate Irr_p'(B_0(S_n))
    import blockwitness.cli as cli_module

    limit = cli_module.ENUMERATION_MAX_N
    partitions = "lists every partition of n"
    characters = "lists the p'-degree characters of S_n"
    for argv, refusal in (
        (("degrees", "--n", str(limit + 1)), f"degrees --n {limit + 1} {partitions}"),
        (("export-table", "--n", str(limit + 1)), f"export-table --n {limit + 1} {partitions}"),
        (
            ("export-table", "--n", "10" * 50, "--primes", "2,3"),
            f"export-table --n {'10' * 50} {partitions}",
        ),
        (("verify-c", "--n", "200", "--p", "101", "--q", "3"), f"verify-c --n 200 {characters}"),
        (("verify-b", "--n", "120", "--p", "61", "--q", "2"), f"verify-b --n 120 {characters}"),
        (
            ("scan", "--n-min", "9", "--n-max", str(limit + 1), "--cross-validate"),
            f"scan --cross-validate --n-max {limit + 1} {characters}",
        ),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"usage-error: {refusal}; the limit is n <= {limit}\n", argv
    # one shape of any size is not an enumeration
    code, out, _ = invoke(capsys, "degrees", "--n", "100", "--partition", "(1^99,1)")
    assert (code, out) == (0, "degree partition=[" + ",".join(["1"] * 100) + "] decimal=1 factored=1\n")
    # the limit itself is accepted, and a scan without the oracle has none
    monkeypatch.setattr(cli_module, "ENUMERATION_MAX_N", 9)
    for command in ("degrees", "export-table"):
        assert invoke(capsys, command, "--n", "9")[0] == 0
        assert invoke(capsys, command, "--n", "10")[:2] == (2, "")
    for command in ("verify-c", "verify-b"):
        assert invoke(capsys, command, "--n", "9", "--p", "3", "--q", "2")[0] == 0
        assert invoke(capsys, command, "--n", "10", "--p", "5", "--q", "2")[:2] == (2, "")
    assert invoke(capsys, "scan", "--n-min", "9", "--n-max", "9", "--cross-validate")[0] == 0
    assert invoke(capsys, "scan", "--n-min", "9", "--n-max", "10", "--cross-validate")[:2] == (2, "")
    assert invoke(capsys, "scan", "--n-min", "9", "--n-max", "10")[0] == 0


def test_sieve_is_bounded(capsys, monkeypatch):
    # witness --n, degrees --n with --partition and scan --n-max each sieve
    # the primes up to n; past the limit they refuse before any sieve
    import blockwitness.cli as cli_module
    from blockwitness import degrees, factored, oracle

    def sieve_called(k):
        raise AssertionError(f"sieved the primes up to {k}")

    limit = cli_module.SIEVE_MAX_N
    over = str(limit + 1)
    sieve = "sieves the primes up to n"
    with monkeypatch.context() as patch:
        for module in (factored, degrees, oracle, cli_module):
            patch.setattr(module, "primes_up_to", sieve_called)
        for argv, refusal in (
            (("witness", "--n", over, "--p", "3", "--q", "2"), f"witness --n {over}"),
            (("witness", "--n", over, "--p", "3", "--q", "2", "--json"), f"witness --n {over}"),
            (("degrees", "--n", over, "--partition", f"(1^{limit - 1},2)"), f"degrees --n {over}"),
            (("scan", "--n-min", over, "--n-max", over), f"scan --n-max {over}"),
            (("scan", "--n-min", "9", "--n-max", "10" * 30), f"scan --n-max {'10' * 30}"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"usage-error: {refusal} {sieve}; the limit is n <= {limit}\n", argv
    # the limit itself is accepted
    monkeypatch.setattr(cli_module, "SIEVE_MAX_N", 12)
    assert invoke(capsys, "scan", "--n-min", "9", "--n-max", "12")[0] == 0
    assert invoke(capsys, "scan", "--n-min", "9", "--n-max", "13")[:2] == (2, "")
    assert invoke(capsys, "witness", "--n", "12", "--p", "3", "--q", "2")[0] == 0
    assert invoke(capsys, "witness", "--n", "13", "--p", "3", "--q", "2")[:2] == (2, "")
    assert invoke(capsys, "degrees", "--n", "12", "--partition", "(1^10,2)")[0] == 0
    assert invoke(capsys, "degrees", "--n", "13", "--partition", "(1^11,2)")[:2] == (2, "")


def test_degrees_single(capsys):
    code, out, _ = invoke(
        capsys, "degrees", "--n", "9", "--partition", "[2,1,1,1,1,1,1,1]"
    )
    assert code == 0
    assert out.strip() == "degree partition=[2,1,1,1,1,1,1,1] decimal=8 factored=2^3"
    code, out, _ = invoke(capsys, "degrees", "--n", "9", "--partition", "(1^7,2)")
    assert code == 0 and "decimal=8" in out
    code, _, err = invoke(capsys, "degrees", "--n", "8", "--partition", "[2,1]")
    assert code == 2


def test_export_and_check_table(capsys, tmp_path):
    code, out, _ = invoke(capsys, "export-table", "--n", "9", "--primes", "2,3")
    assert code == 0
    assert out.startswith("group S9\norder 362880\nprimes 2 3\ntrivial [9]\n")
    path = tmp_path / "s9.table"
    path.write_text(out)
    for conjecture in ("a", "b", "c"):
        code, audit_out, _ = invoke(
            capsys, "check-table", str(path), "--conjecture", conjecture
        )
        assert code == 0
        assert audit_out.startswith(f"finding {conjecture.upper()} 2 3 ")


def test_export_default_primes(capsys):
    code, out, _ = invoke(capsys, "export-table", "--n", "6")
    assert code == 0
    assert "primes 2 3 5" in out


def test_check_table_violation_exit(capsys, tmp_path):
    path = tmp_path / "fake.table"
    path.write_text(
        "group fake\norder 30\nprimes 2 3\ntrivial e\ncomplete true\n"
        "char e 1 2:1 3:1\nchar y 5 2:1 3:1\nchar z 2 2:0 3:0\n"
    )
    code, out, _ = invoke(capsys, "check-table", str(path), "--conjecture", "b")
    assert code == 1
    assert "violation" in out


def test_check_table_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.table"
    path.write_text("group g\nprimes 2\ntrivial e\ncomplete false\nchar e 1 2:1\n")
    code, _, err = invoke(capsys, "check-table", str(path), "--conjecture", "c")
    assert code == 2
    assert "parse-error" in err and "order" in err


def test_check_table_bad_flag_on_last_row(capsys, tmp_path):
    # 5,000 good rows on two flag tails, then a bad bit on the last row
    rows = [f"char c{i} 1 {'2:0 3:1' if i % 2 else '3:0 2:1'}" for i in range(5000)]
    lines = ["group g", "order 6", "primes 2 3", "trivial e", "complete false", "char e 1 2:1 3:1"]
    lines += rows + ["char last 1 2:1 3:2"]
    path = tmp_path / "long.table"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = invoke(capsys, "check-table", str(path), "--conjecture", "b")
    assert code == 2 and out == ""
    assert err == "parse-error: line 5007: flag value must be 0 or 1 (token '3:2')\n"


def test_check_table_missing_file(capsys):
    code, _, err = invoke(capsys, "check-table", "/no/such/file", "--conjecture", "a")
    assert code == 2


def test_check_table_reads_a_bounded_file(capsys, monkeypatch, tmp_path):
    import blockwitness.cli as cli_module

    table = (
        "group fake\norder 30\nprimes 2 3\ntrivial e\ncomplete true\n"
        "char e 1 2:1 3:1\nchar y 5 2:1 3:1\nchar z 2 2:0 3:0\n"
    ).encode("ascii")
    monkeypatch.setattr(cli_module, "TABLE_MAX_BYTES", len(table))
    # a file exactly at the limit is parsed and audited
    path = tmp_path / "at-limit.table"
    path.write_bytes(table)
    code, out, _ = invoke(capsys, "check-table", str(path), "--conjecture", "b")
    assert code == 1 and "violation" in out
    # one byte over is refused before parsing, naming the limit
    path = tmp_path / "over-limit.table"
    path.write_bytes(table + b"#")
    code, out, err = invoke(capsys, "check-table", str(path), "--conjecture", "b")
    assert (code, out) == (2, "")
    assert err == f"usage-error: check-table reads at most {len(table)} bytes; {path} is longer\n"


def test_outputs_are_reproducible(capsys):
    _, first, _ = invoke(capsys, "verify-c", "--n", "12", "--p", "3", "--q", "2")
    _, second, _ = invoke(capsys, "verify-c", "--n", "12", "--p", "3", "--q", "2")
    assert first == second


def test_internal_failure_exits_3(capsys, monkeypatch):
    import blockwitness.cli as cli_module
    from blockwitness.partitions import AscendingSpec
    from blockwitness.witness import CaseTreeFalsified, WitnessCandidate

    def falsify(params):
        raise CaseTreeFalsified(params, [])

    monkeypatch.setattr(cli_module.witness, "_construct", falsify)
    code, out, _ = invoke(capsys, "witness", "--n", "9", "--p", "3", "--q", "2")
    assert code == 3
    assert out.startswith("internal-error: CaseTreeFalsified")
    assert "n=9 p=3 q=2" in out
    monkeypatch.undo()

    # a candidate summing to n + 1 stands for a mistranscribed case branch
    def mistranscribed(params):
        return (WitnessCandidate("I.a", AscendingSpec(((1, params.n - 1), (2, 1))), 3, 2),)

    monkeypatch.setattr(cli_module.witness, "candidates", mistranscribed)
    for argv in (
        ("witness", "--n", "9", "--p", "3", "--q", "2"),
        ("scan", "--n-min", "9", "--n-max", "9"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 3, argv
        assert "internal-error: SpecSumMismatch" in out, argv
        assert "sums to 10, expected 9" in out, argv
        assert err == "", argv
    # a scan reports each faulting tuple and goes on to the deferred ones
    for extra in ((), ("--cross-validate",)):
        code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "10", *extra)
        lines = out.splitlines()
        assert code == 3, extra
        faults = [line for line in lines if line.startswith("internal-error: ")]
        assert len(faults) == 4, extra
        assert all(line.startswith("internal-error: SpecSumMismatch: ") for line in faults)
        assert sum(line.startswith("result ") for line in lines) == 8, extra
        assert lines[-1] == (
            "scan-summary tuples=12 witnesses=0 deferred=8 disagreements=0 falsified=4"
        ), extra
    monkeypatch.undo()

    # a wrong mp stands for a mistranscribed branch that builds a malformed spec;
    # the spec is the case tree's, not the user's, so it is an internal fault
    from blockwitness.parameters import CaseParameters

    monkeypatch.setattr(CaseParameters, "mp", property(lambda self: 1))
    code, out, err = invoke(capsys, "witness", "--n", "9", "--p", "3", "--q", "2")
    assert code == 3
    assert out.startswith(
        "internal-error: InternalInvariantError: malformed candidate spec: multiplicity -1 "
    )
    assert err == ""
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "10")
    assert code == 3
    assert out.splitlines()[-1] == (
        "scan-summary tuples=12 witnesses=1 deferred=8 disagreements=0 falsified=3"
    )
    monkeypatch.undo()

    # superfactorial valuations read one place off stand for an off-by-one in
    # the degree kernel, which makes each degree quotient non-integral
    import blockwitness.degrees as degrees_module
    from blockwitness.factored import InternalInvariantError, NotDivisible

    assert issubclass(NotDivisible, InternalInvariantError)
    shifted = degrees_module._superfactorial_valuations
    monkeypatch.setattr(degrees_module, "_superfactorial_valuations", lambda m: shifted(m + 1))
    code, out, err = invoke(capsys, "witness", "--n", "9", "--p", "3", "--q", "2")
    assert code == 3
    assert out == (
        "internal-error: NotDivisible: prime 2 divides the hook product of"
        " [2,1,1,1,1,1,1,1] more often than 9!\n"
    )
    assert err == ""
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "10")
    assert code == 3
    assert out.splitlines()[-1] == (
        "scan-summary tuples=12 witnesses=0 deferred=8 disagreements=0 falsified=4"
    )


def test_scan_reports_falsification_and_exits_3(capsys, monkeypatch):
    import blockwitness.cli as cli_module
    from blockwitness.partitions import AscendingSpec
    from blockwitness.witness import WitnessCandidate

    # the trivial character has degree 1, so every in-regime record falsifies
    # the case tree; the five deferred tuples of n = 9 never reach it
    def trivial_only(params):
        return (WitnessCandidate("I.a", AscendingSpec(((1, 0), (params.n, 1))), 3, 2),)

    monkeypatch.setattr(cli_module.witness, "candidates", trivial_only)
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "9")
    assert code == 3
    assert "internal-error: CaseTreeFalsified: no candidate verified for n=9 p=3 q=2" in out
    assert out.splitlines()[-1] == (
        "scan-summary tuples=6 witnesses=0 deferred=5 disagreements=0 falsified=1"
    )


def test_scan_disagreement_exits_1_and_empty_range_exits_2(capsys, monkeypatch):
    import blockwitness.oracle as oracle_module

    # an audit that rejects every tuple, witness or deferral alike
    monkeypatch.setattr(oracle_module, "audit_witness", lambda params, found: (False, True))
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "9", "--cross-validate")
    assert code == 1
    *rows, summary = out.splitlines()
    assert len(rows) == 6
    assert all(row.endswith(" agree=false oracle=true") for row in rows)
    assert summary == (
        "scan-summary tuples=6 witnesses=1 deferred=5 disagreements=6 falsified=0"
    )
    code, out, err = invoke(capsys, "scan", "--n-min", "10", "--n-max", "9")
    assert code == 2 and out == ""
    assert "usage-error: empty scan range [10, 9]" in err


def test_scan_range_errors_name_the_bound_at_fault(capsys):
    code, out, err = invoke(capsys, "scan", "--n-min", "0", "--n-max", "10")
    assert (code, out) == (2, "")
    assert err == "usage-error: scan --n-min must be >= 1, got 0\n"
    code, out, err = invoke(capsys, "scan", "--n-min", "10", "--n-max", "9")
    assert (code, out, err) == (2, "", "usage-error: empty scan range [10, 9]\n")


def test_witness_and_scan_validate_once(capsys, monkeypatch):
    import blockwitness.parameters as parameters_module
    from blockwitness.oracle import prime_pairs

    calls = []
    check = parameters_module.check_primes

    def counting(n, primes):
        calls.append((n, primes))
        check(n, primes)

    monkeypatch.setattr(parameters_module, "check_primes", counting)
    code, _, _ = invoke(capsys, "witness", "--n", "12", "--p", "3", "--q", "2")
    assert code == 0
    assert calls == [(12, (3, 2))]
    calls.clear()
    # scan takes its primes from prime_pairs and tests none of them again
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "14")
    assert code == 0
    assert calls == []
    tuples = sum(len(prime_pairs(n)) for n in range(9, 15))
    assert len([line for line in out.splitlines() if line.startswith("result ")]) == tuples
    # the cross-validated scan builds each record the same way, then audits it
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "14", "--cross-validate")
    assert code == 0
    assert calls == []
    assert len([line for line in out.splitlines() if line.startswith("result ")]) == tuples


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "blockwitness", "witness", "--n", "9", "--p", "3", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("case=I.a partition=[2,1,1,1,1,1,1,1]")


# the tree the imported package comes from, so a subprocess runs the same code
PACKAGE_ROOT = str(Path(blockwitness.__file__).resolve().parent.parent)


def module_env(int_max_str_digits: str | None = None) -> dict[str, str]:
    """The environment for ``python -m blockwitness``, with the interpreter's
    digit limit set from ``int_max_str_digits`` or left at its default."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = PACKAGE_ROOT
    if int_max_str_digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = int_max_str_digits
    return env


def _long_integer_tables(tmp_path):
    order = tmp_path / "long-order.table"
    order.write_text(
        "group toy\norder " + "6" * 1000 + "\nprimes 2 3\ntrivial e\ncomplete false\n"
        "char e 1 2:1 3:1\n",
        encoding="utf-8",
    )
    degree = tmp_path / "long-degree.table"
    degree.write_text(
        "group toy\norder 6\nprimes 2 3\ntrivial e\ncomplete true\nchar e 1 2:1 3:1\n"
        "char x 1" + "0" * 2200 + " 2:0 3:0\n",
        encoding="utf-8",
    )
    return order, degree


def test_output_ignores_the_interpreters_digit_limit(tmp_path):
    order, degree = _long_integer_tables(tmp_path)
    invocations = {
        "digit-limit": ["witness", "--n", "1" * 5000, "--p", "3", "--q", "2"],
        "sieve-cap": ["witness", "--n", "1" * 1000, "--p", "3", "--q", "2"],
        "long-order": ["check-table", str(order), "--conjecture", "a"],
        "long-degree": ["check-table", str(degree), "--conjecture", "a"],
    }
    seen = {}
    for name, argv in invocations.items():
        shown = set()
        for setting in (None, "0", "640"):
            proc = subprocess.run(
                [sys.executable, "-m", "blockwitness", *argv],
                env=module_env(setting), capture_output=True, text=True, timeout=60,
            )
            shown.add((proc.returncode, proc.stdout, proc.stderr))
        assert len(shown) == 1, name
        (seen[name],) = shown
    assert seen["digit-limit"] == (
        2, "", "usage-error: argument --n: integer of 5000 digits exceeds the 4300-digit limit\n"
    )
    assert seen["sieve-cap"] == (
        2, "",
        f"usage-error: witness --n {'1' * 1000} sieves the primes up to n;"
        " the limit is n <= 10000000\n",
    )
    assert seen["long-order"] == (
        0, 'finding A 2 3 indeterminate "trivial intersection on an incomplete table"\n', ""
    )
    # the squares sum to 1 + (10^2200)^2, 4,401 digits
    assert seen["long-degree"] == (
        2, "", "parse-error: line 5: degree squares sum to 1" + "0" * 4399 + "1, order is 6\n"
    )


def test_degrees_within_the_limit_render_without_decimal():
    # a fresh interpreter, as another test may have imported decimal already
    script = (
        "import sys\n"
        "from blockwitness.cli import run\n"
        "run(['witness', '--n', '9', '--p', '3', '--q', '2'])\n"
        "run(['degrees', '--n', '12'])\n"
        "print('decimal' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=module_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert " degree=8 " in proc.stdout and " decimal=11 " in proc.stdout
    assert (proc.returncode, proc.stdout.splitlines()[-1], proc.stderr) == (0, "False", "")


def test_run_restores_the_interpreters_digit_limit(capsys, tmp_path):
    order, _ = _long_integer_tables(tmp_path)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # a 1,000-digit order parses even though the caller's limit is 640
        assert invoke(capsys, "check-table", str(order), "--conjecture", "a")[0] == 0
        assert sys.get_int_max_str_digits() == 640
        code, out, err = invoke(capsys, "witness", "--n", "1" * 5000, "--p", "3", "--q", "2")
        assert (code, out) == (2, "")
        assert "exceeds the 4300-digit limit" in err
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [["degrees", "--n", "30"], ["scan", "--n-min", "9", "--n-max", "60"]],
    ids=["degrees", "scan"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # each prints well over a 64 KiB pipe buffer, so it writes after the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "blockwitness", *argv],
        env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith((b"degree ", b"result "))
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_closed_stdout_leaves_the_exit_flush_harmless(monkeypatch):
    # stdout is a pipe whose reader is gone; after main's handler the stream's
    # descriptor writes to the null device, so a later flush cannot raise again
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "argv", ["blockwitness", "degrees", "--n", "12"])
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == 141
        stdout.write("after the handler\n")
        stdout.flush()
