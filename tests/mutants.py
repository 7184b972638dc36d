"""Mutants of ``src/blockwitness`` and what the tests must do with each, as data.

Run them with ``python3 tests/run_mutants.py``.  Each entry names a module of
``src/blockwitness``, a snippet of its text that occurs there exactly once,
the replacement for it, the test files run against the mutated copy, and an
outcome: ``killed`` (some named test must fail), or ``equivalent``, with the
reason no test can tell the mutant from the original.  A change that moves
or rewrites a snippet has to update or retire its entry: the tier-1 test
``tests/test_mutants.py`` checks that every snippet still matches once.

A change that quotes mutants killed by its tests adds them here.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/blockwitness
    snippet: str  # occurs in the module exactly once
    replacement: str
    tests: tuple[str, ...]  # paths relative to the repository root
    outcome: str  # "killed" or "equivalent"
    reason: str = ""  # why an equivalent mutant cannot be told apart


MUTANTS = (
    Mutant(
        "digit-bound-inclusive",
        "factored.py",
        "if len(text) > DECIMAL_MAX_DIGITS:",
        "if len(text) >= DECIMAL_MAX_DIGITS:",
        ("tests/test_factored.py",),
        "killed",
    ),
    Mutant(
        "run-keeps-interpreter-limit",
        "cli.py",
        "    sys.set_int_max_str_digits(0)\n",
        "    pass\n",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "run-leaves-limit-lifted",
        "cli.py",
        "        sys.set_int_max_str_digits(limit)\n",
        "        pass\n",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "closed-stdout-exits-1",
        "cli.py",
        "EXIT_CLOSED_STDOUT = 141",
        "EXIT_CLOSED_STDOUT = 1",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "closed-stdout-no-devnull",
        "cli.py",
        "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n",
        "        pass\n",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "ii-c-alt-check-deleted",
        "witness.py",
        "                if alt and b1p != p:\n"
        "                    raise InternalInvariantError(\n"
        '                        f"p = b+1 and p | m-1 must force the lowest base-p"\n'
        '                        f" summand to be p at n={n}, p={p}, q={q}"\n'
        "                    )\n",
        "",
        ("tests/test_witness.py",),
        "killed",
    ),
    Mutant(
        "digit-lift-count-dropped",
        "oracle.py",
        "            expected *= _multipartition_count(e, a)\n",
        "",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "digit-lift-power-under-elif",
        "oracle.py",
        "            expected *= _multipartition_count(e, a)\n        e *= p\n",
        "            expected *= _multipartition_count(e, a)\n            e *= p\n",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "hook-lift-target-unchecked",
        "oracle.py",
        "min(end, e + 1)",
        "min(end + 1, e + 1)",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "hook-lift-padding-cut",
        "oracle.py",
        "top = -(-(lam.length + e) // e) * e - 1",
        "top = -(-lam.length // e) * e - 1",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "hook-lift-level-starts-at-last-runner",
        "oracle.py",
        "lifts = dict.fromkeys(members, 0)",
        "lifts = dict.fromkeys(members, e - 1)",
        ("tests/test_partitions.py",),
        "killed",
    ),
    # the oracle's sets stay the same, since every lift is still reached and
    # the round's dict merges the repeats; the kernel's own law tells it apart
    Mutant(
        "hook-lift-runner-filter-dropped",
        "oracle.py",
        "if x % e >= first:",
        "if True:",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "hook-lift-passed-parts-unshifted",
        "oracle.py",
        "shifted = ((value + 1, mult),) + shifted",
        "shifted = ((value, mult),) + shifted",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "one-hook-lift-run-unmerged",
        "oracle.py",
        "lifts.append(Partition(((1, p),)))",
        "lifts.append(Partition(((1, 1), (1, p - 1))))",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "content-fold-third-slice-dropped",
        "oracle.py",
        "tally[2 * p :]",
        "[0] * p",
        ("tests/test_oracle.py",),
        "killed",
    ),
    Mutant(
        "column-core-length-strict",
        "blocks.py",
        "if length >= b else None",
        "if length > b else None",
        ("tests/test_blocks.py",),
        "killed",
    ),
    Mutant(
        "partner-content-sign-flipped",
        "blocks.py",
        "partner_sum = (content + half) % p == 0",
        "partner_sum = (content - half) % p == 0",
        ("tests/test_blocks.py",),
        "killed",
    ),
    Mutant(
        "content-sum-row-term-dropped",
        "blocks.py",
        "content += mult * value * (value - mult - 2 * top) // 2",
        "content += mult * value * (value - mult) // 2",
        ("tests/test_blocks.py",),
        "killed",
    ),
    Mutant(
        "content-filter-bypassed",
        "blocks.py",
        "steps = runner_steps(runs, p) if own_sum or partner_sum else None",
        "steps = runner_steps(runs, p)",
        ("tests/test_blocks.py",),
        "killed",
    ),
    Mutant(
        "exact-degree-remainder-unchecked",
        "degrees.py",
        "    if remainder:\n"
        '        raise NotDivisible(f"the hook product of {runs_literal(runs)} does not divide {n}!")\n',
        "",
        ("tests/test_degrees.py",),
        "killed",
    ),
    # the corner hook that both evaluations read, so the hook-product tests
    # of exact_degree and of packed_degree both fail
    Mutant(
        "exact-degree-corner-off-by-one",
        "degrees.py",
        "yield top - key + 1, rows, cols",
        "yield top - key, rows, cols",
        ("tests/test_degrees.py",),
        "killed",
    ),
    Mutant(
        "rectangle-width-from-zero",
        "degrees.py",
        "columns.append((top, value - last))",
        "columns.append((top, value))",
        ("tests/test_degrees.py",),
        "killed",
    ),
    Mutant(
        "packed-range-check-dropped",
        "degrees.py",
        "if packed >> width or packed & signs:",
        "if False:",
        ("tests/test_degrees.py",),
        "killed",
    ),
    Mutant(
        "packed-sign-mask-dropped",
        "degrees.py",
        "if packed >> width or packed & signs:",
        "if packed >> width:",
        ("tests/test_degrees.py",),
        "killed",
    ),
    Mutant(
        "packed-width-check-as-sign",
        "degrees.py",
        "if packed >> width or packed & signs:",
        "if packed < 0 or packed & signs:",
        ("tests/test_degrees.py",),
        "killed",
    ),
    Mutant(
        "table-degree-zero-accepted",
        "tables.py",
        "if degree_value < 1:",
        "if degree_value < 0:",
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "table-order-zero-accepted",
        "tables.py",
        "if order < 1:",
        "if order < 0:",
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "audit-c-last-verdict-consistent",
        "tables.py",
        'return "violation", "no cross-divisible degrees although Sylow subgroups never commute"',
        'return "consistent", "no cross-divisible degrees although Sylow subgroups never commute"',
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "audit-c-last-fact-negated",
        "tables.py",
        "    if fact:\n"
        '        return "consistent", "no cross-divisible degrees and a commuting Sylow pair"\n',
        "    if not fact:\n"
        '        return "consistent", "no cross-divisible degrees and a commuting Sylow pair"\n',
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "scan-disagreement-exit-dropped",
        "cli.py",
        "if disagreements:",
        "if False:",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "scan-disagreement-not-counted",
        "cli.py",
        "disagreements += 1",
        "disagreements += 0",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "witness-sieve-unbounded",
        "cli.py",
        '    _bounded("witness --n", args.n, SIEVE_MAX_N, _SIEVE)\n',
        "",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "degrees-sieve-unbounded",
        "cli.py",
        '        _bounded("degrees --n", args.n, SIEVE_MAX_N, _SIEVE)\n',
        "",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "scan-sieve-unbounded",
        "cli.py",
        '    _bounded("scan --n-max", n_max, SIEVE_MAX_N, _SIEVE)\n',
        "",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "existence-search-q-side-dropped",
        "oracle.py",
        " or q in _scan(n, p) or p in _scan(n, q)",
        " or q in _scan(n, p)",
        ("tests/test_oracle.py",),
        "killed",
    ),
    Mutant(
        "decimal-str-no-fallback",
        "factored.py",
        "        return str(Decimal(value))\n",
        "        raise\n",
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "decimal-str-always-decimal",
        "factored.py",
        "        return str(value)\n",
        "        raise ValueError\n",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "sylow-pair-message-bare",
        "tables.py",
        'pair = f"({decimal_str(p)}, {decimal_str(q)})"',
        'pair = f"({p}, {q})"',
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "row-split-three-ways",
        "tables.py",
        "tokens = raw.split(None, 3)",
        "tokens = raw.split(None, 2)",
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "row-comment-kept",
        "tables.py",
        '        if "#" in raw:\n'
        '            raw = raw.partition("#")[0]\n',
        "",
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "row-directive-unchecked",
        "tables.py",
        "if sylow is not None:",
        "if False:",
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "header-closed-only-at-end",
        "tables.py",
        "if sylow is None:  # the header ends at the first row",
        "if False:",
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "row-degree-optional",
        "tables.py",
        "if len(tokens) < 3:",
        "if len(tokens) < 2:",
        ("tests/test_tables.py",),
        "killed",
    ),
    Mutant(
        "divides-squares-power",
        "oracle.py",
        "        e *= s\n",
        "        e *= s * s\n",
        ("tests/test_oracle.py",),
        "killed",
    ),
    Mutant(
        "flag-core-hook-shifted",
        "blocks.py",
        "((1, b), (0, length - b))",
        "((1, b - 1), (0, length - b + 1))",
        ("tests/test_blocks.py",),
        "killed",
    ),
    Mutant(
        "spec-runs-unmerged",
        "partitions.py",
        "                runs[-1] = (value, runs[-1][1] + mult)\n",
        "                runs.append((value, mult))\n",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "spec-decrease-unchecked",
        "partitions.py",
        "if index and value < blocks[index - 1][0]:",
        "if False:",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "partition-length-counts-runs",
        "partitions.py",
        "            length += mult\n",
        "            length += 1\n",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "parameter-bound-unchecked",
        "parameters.py",
        "if not 2 <= q < p <= n:",
        "if False:",
        ("tests/test_parameters.py",),
        "killed",
    ),
    Mutant(
        "witness-text-from-parts",
        "cli.py",
        "found.partition.parts if args.json else found.partition.to_literal()",
        'found.partition.parts if args.json else "[" + ",".join(map(str, found.partition.parts))'
        ' + "]"',
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        "literal-trailing-comma-kept",
        "partitions.py",
        'return f"[{text[:-1]}]"',
        'return f"[{text}]"',
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "conjugate-last-width-floor-one",
        "partitions.py",
        "return ((depth, above),) + conjugate if depth else ()",
        "return ((depth, above - 1),) + conjugate if depth else ()",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "flag-decider-length-off-by-one",
        "blocks.py",
        "    return content, top\n",
        "    return content, top + 1\n",
        ("tests/test_blocks.py",),
        "killed",
    ),
    Mutant(
        "enumeration-drops-last-partition",
        "partitions.py",
        "        yield tuple(runs)\n",
        "        if runs != [(1, n)]:\n            yield tuple(runs)\n",
        ("tests/test_partitions.py",),
        "killed",
    ),
    Mutant(
        "to-int-drops-odd-last",
        "factored.py",
        "for i in range(0, len(values), 2)",
        "for i in range(0, len(values) - 1, 2)",
        ("tests/test_degrees.py",),
        "killed",
    ),
    Mutant(
        "sieve-only-past-last-prime",
        "factored.py",
        "    if k >= _PRIMES[-1]:\n",
        "    if k > _PRIMES[-1]:\n",
        ("tests/test_factored.py",),
        "equivalent",
        "at k == _PRIMES[-1] the table already holds every prime <= k, so the slice"
        " is the same; only the growth of the table is put off to a later call",
    ),
    Mutant(
        "content-row-mod-p",
        "oracle.py",
        "        row += mult\n",
        "        row += mult % p\n",
        ("tests/test_oracle.py",),
        "equivalent",
        "row is read only through (1 - row - rows) % p, so adding mult mod p"
        " leaves every row start, and so the tally, the same",
    ),
    Mutant(
        "exact-degree-side-swapped",
        "degrees.py",
        "if rows <= cols else",
        "if rows > cols else",
        ("tests/test_degrees.py",),
        "equivalent",
        "a rectangle's hook product is the same taken row by row or column by"
        " column, so walking the longer side multiplies more terms to the same product",
    ),
)
