import json
import math

import pytest

from blockwitness.cli import run


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
    "argv, env",
    [
        (["witness", "--n", "1_0", "--p", "5", "--q", "2"], None),
        (["witness", "--n", "10", "--p", "+5", "--q", "2"], None),
        (["verify-c", "--n", "１０", "--p", "5", "--q", "2"], None),
        (["verify-b", "--n", " 10", "--p", "5", "--q", "2"], None),
        (["scan", "--n-min", "9", "--n-max", "1_0"], None),
        (["scan", "--n-min", "9", "--n-max", "40"], "1_0"),
        (["scan", "--n-min", "9", "--n-max", "40"], "-1"),
        (["degrees", "--n", "4", "--partition", "[３,+1]"], None),
        (["degrees", "--n", "4", "--partition", "(1^+1,3)"], None),
        (["export-table", "--n", "9", "--primes", "２, 3"], None),
        (["export-table", "--n", "9", "--primes", "2,+3"], None),
        (["export-table", "--n", "1_0"], None),
    ],
    ids=[
        "underscore-n", "plus-sign-p", "fullwidth-n", "leading-space-n",
        "scan-underscore-n-max", "env-cap-underscore", "env-cap-negative",
        "partition-literal", "ascending-spec", "primes-fullwidth",
        "primes-plus-sign", "export-underscore-n",
    ],
)
def test_lax_integers_are_usage_errors(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("BLOCKWITNESS_SCAN_MAX", raising=False)
    else:
        monkeypatch.setenv("BLOCKWITNESS_SCAN_MAX", env)
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
    code, out, _ = invoke(
        capsys, "scan", "--n-min", "9", "--n-max", "11", "--cross-validate"
    )
    assert code == 0
    lines = out.strip().splitlines()
    witness_lines = [l for l in lines if " case=deferred" not in l and l.startswith("result")]
    assert witness_lines and all("agree=true" in l for l in witness_lines)
    deferred = [l for l in lines if "case=deferred" in l]
    assert deferred and all("oracle=true" in l for l in deferred)


def test_scan_deterministic(capsys):
    _, first, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "12")
    _, second, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "12")
    assert first == second


def test_scan_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("BLOCKWITNESS_SCAN_MAX", "9")
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "40")
    assert code == 0
    assert "n=10" not in out


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


def test_degrees_spec_is_sized_before_it_is_expanded(capsys):
    # expanding this spec would build a tuple of 10^11 parts
    code, out, err = invoke(capsys, "degrees", "--n", "5", "--partition", "(1^100000000000)")
    assert (code, out) == (2, "")
    assert err == "usage-error: partition (1^100000000000) has size 100000000000, expected 5\n"


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


def test_check_table_missing_file(capsys):
    code, _, err = invoke(capsys, "check-table", "/no/such/file", "--conjecture", "a")
    assert code == 2


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

    monkeypatch.setattr(cli_module.witness, "candidate_list", mistranscribed)
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

    # a factorial with every exponent 0 makes each degree quotient non-integral
    import blockwitness.degrees as degrees_module
    from blockwitness.factored import (
        InternalInvariantError,
        NotDivisible,
        _trusted,
        primes_up_to,
    )

    assert issubclass(NotDivisible, InternalInvariantError)
    monkeypatch.setattr(
        degrees_module,
        "factorial_factored",
        lambda k: _trusted(tuple((p, 0) for p in primes_up_to(k))),
    )
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
    # the case tree; the five deferred tuples of n = 9 never reach the list
    def trivial_only(params):
        return (WitnessCandidate("I.a", AscendingSpec(((1, 0), (params.n, 1))), 3, 2),)

    monkeypatch.setattr(cli_module.witness, "candidate_list", trivial_only)
    code, out, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "9")
    assert code == 3
    assert "internal-error: CaseTreeFalsified: no candidate verified for n=9 p=3 q=2" in out
    assert out.splitlines()[-1] == (
        "scan-summary tuples=6 witnesses=0 deferred=5 disagreements=0 falsified=1"
    )


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
    code, _, _ = invoke(capsys, "scan", "--n-min", "9", "--n-max", "14")
    assert code == 0
    assert calls == [(n, pair) for n in range(9, 15) for pair in prime_pairs(n)]


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
