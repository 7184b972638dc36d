"""Exporting, parsing, and auditing character-table summaries.

The table file format carries ids, degrees, and per-prime principal-block
flags, plus optional commuting-Sylow facts.  This script exports the S_9
table, audits it for the three block-theoretic properties, then shows how
validation catches a corrupted degree and how a synthetic table triggers a
violation verdict.
"""

from blockwitness.tables import (
    ParseError,
    audit,
    build_sn_summary,
    parse_table,
    serialize_table,
)


def main():
    data = serialize_table(build_sn_summary(9, (2, 3)))
    text = data.decode("utf-8")
    print("== exported table for S_9 (first lines) ==")
    for line in text.splitlines()[:10]:
        print(f"  {line}")
    print(f"  ... {len(text.splitlines())} lines total")

    summary = parse_table(data)
    print(f"\nparsed back: group {summary.group_name}, order {summary.order},"
          f" {len(summary.rows)} characters, complete={summary.complete}")

    print("\n== audits ==")
    for which in ("A", "B", "C"):
        for finding in audit(summary, which):
            print(f"  finding {finding.conjecture} {finding.p} {finding.q}"
                  f" {finding.verdict}: {finding.detail}")

    print("\n== a corrupted degree fails the completeness identity ==")
    corrupted = text.replace("char [8,1] 8", "char [8,1] 9")
    try:
        parse_table(corrupted)
    except ParseError as exc:
        print(f"  rejected: {exc}")

    print("\n== a synthetic table with coinciding sets ==")
    fake = (
        "group fake\norder 30\nprimes 2 3\ntrivial e\ncomplete true\n"
        "char e 1 2:1 3:1\nchar y 5 2:1 3:1\nchar z 2 2:0 3:0\n"
    )
    for finding in audit(parse_table(fake), "B"):
        print(f"  finding B {finding.p} {finding.q} {finding.verdict}: {finding.detail}")


if __name__ == "__main__":
    main()
