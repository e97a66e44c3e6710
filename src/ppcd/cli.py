"""Command-line front end.

Subcommands: hooks, degrees, count, verify-an, verify-lie, lie-pair,
ctbl.  Single queries print JSON, verification grids print CSV (or
JSON rows with --format json).  Exit codes: 0 success, 1 bad usage or
precondition failure (a structured error record goes to stderr), 2 a
verification run found a contract violation -- the violating tuple is
emitted so the failure can be reproduced in one command.

Output for a given invocation is byte-identical across runs: fixed
orderings, no timestamps.

A closed stdout (``ppcd verify-lie | head -1``) ends the run quietly
with exit 1 and nothing on stderr: ``main`` flushes stdout itself, and
on ``BrokenPipeError`` points the stdout file descriptor at
``os.devnull``, so that the interpreter's final flush cannot raise
again (the SIGPIPE note of the Python ``signal`` docs).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import ctbl as ctbl_mod
from . import hooks as hooks_mod
from . import lie as lie_mod
from .degrees import degree, degree_valuation
from .partitions import Partition, enumerate_partitions

__all__ = ["main"]


class CliError(Exception):
    """Usage or precondition failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting on its own
        raise CliError(message)


def _json_default(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not a row value")


_ROW_ENCODER = json.JSONEncoder(default=_json_default)


def _emit_rows(rows, fmt: str, out) -> None:
    """Write each row dict as a JSON object or as one CSV line.

    CSV takes the values in key order: booleans as true/false, a list
    (a partition) quoted as "4,1", everything else, Fractions included,
    as ``str``; JSON writes Fractions the same way.
    """
    write = out.write
    if fmt == "json":
        encode = _ROW_ENCODER.encode
        for row in rows:
            write(encode(row) + "\n")
        return
    for row in rows:
        write(",".join([
            ("true" if v else "false") if v.__class__ is bool
            else '"' + ",".join(map(str, v)) + '"' if v.__class__ is list
            else str(v)
            for v in row.values()
        ]) + "\n")


def _fail(record: dict) -> None:
    print(json.dumps(record), file=sys.stderr)


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"bad prime list {text!r}") from None


# -- subcommands --------------------------------------------------------------


def cmd_hooks(args, out) -> int:
    n, p = args.n, args.p
    xs = hooks_mod.pprime_hook_xs(n, p)
    formula = hooks_mod.count_pprime_hooks_formula(n, p)
    # each hook (n - x, 1^x) is written straight as its JSON row, one
    # write per hook, with no Partition built and no n integers per hook
    # for json.dumps to encode; memory is bounded by one row, not the list
    head = json.dumps({"n": n, "p": p, "count": len(xs), "formula": formula})
    write = out.write
    write(head[:-1] + ', "hooks": [')
    sep = ""
    for x in xs:
        write(sep + "[" + str(n - x) + ", 1" * x + "]")
        sep = ", "
    write("]}\n")
    if formula != len(xs):
        _fail({"violation": "hook-count", "n": n, "p": p,
               "formula": formula, "enumerated": len(xs)})
        return 2
    return 0


def _degree_row(lam: Partition, p: int) -> dict:
    v = degree_valuation(lam, p)
    return {
        "partition": lam.to_list(),
        "degree": str(degree(lam)),
        "valuation": v,
        "pprime": v == 0,
    }


def cmd_degrees(args, out) -> int:
    if (args.partition is None) == (not args.all):
        raise CliError("choose exactly one of --all or --partition")
    if args.partition is not None:
        lam = Partition.from_string(args.partition)
        if args.n is not None and args.n != lam.n:
            raise CliError(f"--n {args.n} does not match |{lam}| = {lam.n}")
        lams = [lam]
    elif args.n is None:
        raise CliError("--all needs --n")
    else:
        lams = enumerate_partitions(args.n)
    _emit_rows((_degree_row(lam, args.p) for lam in lams), args.format, out)
    return 0


def cmd_count(args, out) -> int:
    row = hooks_mod.hook_count_row(args.n, args.p)
    _emit_rows([{"formula": row["formula"], "enumerated": row["filtered"],
                 "agree": row["ok"]}], "json", out)
    if not row["ok"]:
        _fail({"violation": "hook-count", "n": args.n, "p": args.p,
               "formula": row["formula"], "enumerated": row["filtered"],
               "layered": row["layered"]})
        return 2
    return 0


def cmd_verify_an(args, out) -> int:
    primes = _parse_primes(args.primes)
    violations = []
    rows = []
    for n in range(7, args.n_max + 1):
        for p in primes:
            formula = hooks_mod.count_pprime_hooks_formula(n, p)
            enum = len(hooks_mod.pprime_hook_xs(n, p))
            result = hooks_mod.verify_An_bound(n, p)
            ext_found = len(hooks_mod.ext_pprime_degree_set(n, p, bound=args.exact_bound))
            bound_ok = result.ok and ext_found >= 3 and ext_found >= formula // 2
            if formula != enum or not bound_ok:
                violations.append({"n": n, "p": p, "formula": formula,
                                   "enumerated": enum, "bound_ok": bound_ok,
                                   "method": result.method,
                                   "witnesses": list(result.witnesses)})
            rows.append({"n": n, "p": p, "count_formula": formula, "count_enum": enum,
                         "ext_degrees_found": ext_found, "bound_ok": bound_ok})
    _emit_rows(rows, args.format, out)
    if violations:
        _fail({"violation": "an-bound", "first": violations[0],
               "total": len(violations)})
        return 2
    return 0


# the q, p, d1 and d2 cells of a column's template row: no other cell of a
# grid row holds a minus sign followed by a digit, and each mark is one
# digit, so each text occurs there exactly once, in key order
# (tests/test_cli.py checks this on every column of a rank-40 grid, both
# formats, passing and failing rows).  ``_ClassicalBlock.row`` makes d1
# and d2 Fractions, so JSON quotes their marks as it quotes the degrees.
_Q_MARK = -2
_P_MARK = -1
_D1_MARK = -3
_D2_MARK = -4
_MARKS = (_Q_MARK, _P_MARK, _D1_MARK, _D2_MARK)


def _template(block, ok: bool, fmt: str) -> list[str]:
    """The five pieces of one row of ``block``'s (family, rank) column
    around the q, p, d1 and d2 marks."""
    buf = io.StringIO()
    marked = block._replace(q=_Q_MARK, d1=_D1_MARK, d2=_D2_MARK)
    _emit_rows([marked.row(_P_MARK, ok)], fmt, buf)
    pieces = []
    rest = buf.getvalue()
    for mark in _MARKS:
        piece, rest = rest.split(str(mark))
        pieces.append(piece)
    return pieces + [rest]


def _emit_blocks(blocks, fmt: str, out):
    """Write the rows of each classical-grid block as ``_emit_rows`` would.

    Besides p and ok, a row depends on its block only through the
    (family, rank) column, q, d1 and d2, so each column's passing
    template row, with the marks as q, p, d1 and d2, goes through
    ``_emit_rows`` once and is split into five pieces.  A block's ``head`` is the pieces around str(q)
    and its ``ok_tail`` the pieces around str(d1) and str(d2); a block
    with no failing prime is then the one string ``head + (ok_tail +
    head).join(texts) + ok_tail``, where ``texts`` are the str(p) of its
    primes, shared by the blocks of one q.  A block with no prime writes
    nothing.  A column renders its failing template only when one of its
    blocks first has a failing prime; such a block is written row by
    row.  ``blocks`` may be any iterable, read once; nothing of a block
    is kept after it is written but its primes' texts, its column's
    pieces and, for the first failing block, the block itself.  Returns
    the first failing (block, p) in emission order, or None.
    """
    write = out.write
    texts_of = {}
    column = ok_pieces = bad_pieces = None
    first_bad = None
    for block in blocks:
        primes = block.primes
        if not primes:
            continue
        if (block.family, block.n) != column:
            column = block.family, block.n
            ok_pieces = _template(block, True, fmt)
            bad_pieces = None
        texts = texts_of.get(primes)
        if texts is None:
            texts = texts_of[primes] = [str(p) for p in primes]
        q, d1, d2 = str(block.q), str(block.d1), str(block.d2)
        a, b, c, d, e = ok_pieces
        head = a + q + b
        ok_tail = c + d1 + d + d2 + e
        failing = block.failing
        if not failing:
            write(head + (ok_tail + head).join(texts) + ok_tail)
            continue
        if bad_pieces is None:
            bad_pieces = _template(block, False, fmt)
        a, b, c, d, e = bad_pieces
        bad_head, bad_tail = a + q + b, c + d1 + d + d2 + e
        write("".join([bad_head + text + bad_tail if p in failing else head + text + ok_tail
                       for p, text in zip(primes, texts)]))
        if first_bad is None:
            first_bad = block, min(failing)
    return first_bad


def cmd_verify_lie(args, out) -> int:
    families = args.families.split(",") if args.families is not None else None
    blocks = lie_mod._classical_blocks(args.q_max, args.p_max, families, args.rank_max)
    bad = _emit_blocks(blocks, args.format, out)
    if bad is not None:
        block, p = bad
        _fail({"violation": "lie-not-both-divisible", "family": block.family,
               "n": block.n, "q": block.q, "p": p,
               "d1": str(block.d1), "d2": str(block.d2)})
        return 2
    return 0


def cmd_lie_pair(args, out) -> int:
    record = lie_mod.exceptional_pair_record(args.family, args.q, args.p)
    d1, d2 = record.degrees
    payload = {
        "family": record.family,
        "q": record.q,
        "p": record.p,
        "case": record.case,
        "degrees": [d1, d2],
        "chi1": vars(record.chi1),
        "chi2": vars(record.chi2),
        "nondivisibility_ok": lie_mod.nondivisibility_check(d1, d2, record.p),
        "contract_regime": lie_mod.in_contract_regime(record.family, record.q, record.p),
    }
    _emit_rows([payload], "json", out)
    if payload["contract_regime"] and not payload["nondivisibility_ok"]:
        _fail({"violation": "nondivisibility", "family": record.family,
               "q": record.q, "p": record.p, "d1": d1, "d2": d2})
        return 2
    return 0


def cmd_ctbl(args, out) -> int:
    if (args.file is None) == (args.bundled is None):
        raise CliError("choose exactly one of --file or --bundled")
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                document = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from None
        table = ctbl_mod.load_degree_table(document)
    else:
        table = ctbl_mod.bundled_table(args.bundled)
    full = sorted(table.degree_set)
    coprime = sorted(ctbl_mod.cd_pprime(table, args.p))
    _emit_rows([{
        "name": table.name,
        "p": args.p,
        "cd": full,
        "cd_pprime": coprime,
        "sizes": {"cd": len(full), "cd_pprime": len(coprime)},
    }], "json", out)
    return 0


# -- parser -------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The CLI parser, built on first use and reused by later calls."""
    parser = _Parser(prog="ppcd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_hooks = sub.add_parser("hooks", help="list the p'-degree hook partitions of n")
    p_hooks.add_argument("--n", type=int, required=True)
    p_hooks.add_argument("--p", type=int, required=True)
    p_hooks.set_defaults(func=cmd_hooks)

    p_deg = sub.add_parser("degrees", help="character degrees and p-valuations")
    p_deg.add_argument("--n", type=int)
    p_deg.add_argument("--p", type=int, required=True)
    p_deg.add_argument("--all", action="store_true")
    p_deg.add_argument("--partition", type=str)
    p_deg.add_argument("--format", choices=("json", "csv"), default="json")
    p_deg.set_defaults(func=cmd_degrees)

    p_count = sub.add_parser("count", help="p'-hook count: formula vs enumeration")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--p", type=int, required=True)
    p_count.set_defaults(func=cmd_count)

    p_van = sub.add_parser("verify-an", help="alternating-group degree bound grid")
    p_van.add_argument("--n-max", type=int, required=True)
    p_van.add_argument("--primes", type=str, default="5,7,11,13")
    p_van.add_argument("--exact-bound", type=int, default=hooks_mod.DEFAULT_SCAN_BOUND)
    p_van.add_argument("--format", choices=("csv", "json"), default="csv")
    p_van.set_defaults(func=cmd_verify_an)

    p_vlie = sub.add_parser("verify-lie", help="classical-family divisibility grid")
    p_vlie.add_argument("--q-max", type=int, default=27)
    p_vlie.add_argument("--p-max", type=int, default=97)
    p_vlie.add_argument("--families", type=str, default=None)
    p_vlie.add_argument("--rank-max", type=int, default=10)
    p_vlie.add_argument("--format", choices=("csv", "json"), default="csv")
    p_vlie.set_defaults(func=cmd_verify_lie)

    p_pair = sub.add_parser("lie-pair", help="degree pair for a small Lie-type family")
    p_pair.add_argument("--family", type=str, required=True)
    p_pair.add_argument("--q", type=int, required=True)
    p_pair.add_argument("--p", type=int, required=True)
    p_pair.set_defaults(func=cmd_lie_pair)

    p_ctbl = sub.add_parser("ctbl", help="degrees of an ingested character table")
    p_ctbl.add_argument("--file", type=str)
    p_ctbl.add_argument("--bundled", type=str)
    p_ctbl.add_argument("--p", type=int, required=True)
    p_ctbl.set_defaults(func=cmd_ctbl)

    return parser


def _discard_stdout() -> None:
    """Point the stdout fd, if it has one, at os.devnull."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # an in-memory stream
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return 1
    except (CliError, ValueError, ArithmeticError) as exc:
        _fail({"error": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
