"""Golden CLI corpus: exit code and stdout/stderr digests per command.

Every entry of ``CORPUS`` runs in process through ``cli.main`` into
hashing sinks, and its exit code and the sha256 of its stdout and of its
stderr must equal the record in ``golden_cli.json``.  A change that
moves any output byte of these commands fails here.  Re-record (only
when an output change is intended, and say so in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden_cli.py --record

An argv token ``{data}`` stands for the package's bundled-table
directory, so the ``ctbl --file`` example runs from any checkout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

import pytest

from ppcd import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")


CORPUS: list[list[str]] = [
    # README examples
    ["count", "--n", "7", "--p", "5"],
    ["degrees", "--partition", "3,1,1", "--p", "5"],
    ["degrees", "--n", "6", "--p", "5", "--all"],
    ["hooks", "--n", "7", "--p", "5"],
    ["verify-an", "--n-max", "20", "--primes", "5"],
    ["verify-lie", "--q-max", "27", "--p-max", "97"],
    ["lie-pair", "--family", "PSp4", "--q", "5", "--p", "13"],
    ["lie-pair", "--family", "Suzuki", "--q", "32", "--p", "31"],
    ["ctbl", "--bundled", "A5", "--p", "5"],
    ["ctbl", "--file", "{data}/a6.json", "--p", "7"],
    # p'-hook lists around the first base-p carries and at large n
    *(["hooks", "--n", str(n), "--p", str(p)]
      for p in (5, 13) for n in (1, p - 1, p, p + 1, 5000)),
    # counts at large n
    ["count", "--n", "1999", "--p", "7"],
    ["count", "--n", "20000", "--p", "5"],
    ["count", "--n", "20000", "--p", "13"],
    # the A_n grid: exact sets, both formats, and the constructive path
    ["verify-an", "--n-max", "20"],
    ["verify-an", "--n-max", "20", "--format", "json"],
    ["verify-an", "--n-max", "60", "--exact-bound", "0"],
    # the constructive path over the whole an-certified range, and at
    # primes large enough that most n have a single base-p digit
    ["verify-an", "--n-max", "100", "--exact-bound", "0"],
    ["verify-an", "--n-max", "100", "--exact-bound", "0", "--format", "json"],
    ["verify-an", "--n-max", "100", "--primes", "17,19,23", "--exact-bound", "0"],
    # the exact sets of the an-exact workload (an empty p^k-core at
    # n = 25, the self-conjugate 7-core (3,1,1)), and primes above most
    # n, where every partition of n < p has p'-degree
    ["verify-an", "--n-max", "40"],
    ["verify-an", "--n-max", "30", "--primes", "17,19,23,29,31", "--exact-bound", "30",
     "--format", "json"],
    # a many-level p'-test
    ["degrees", "--partition", "5,3,3,1", "--p", "2", "--format", "csv"],
    # bad usage and precondition failures: exit 1, JSON record on stderr
    ["hooks", "--n", "7"],
    ["hooks", "--n", "7", "--p", "4"],
    # every row emitter path: the Lie grid in JSON, its exit-2 witness and
    # an aliased family, the full degree listing in CSV, a size mismatch
    ["verify-lie", "--format", "json"],
    ["verify-lie", "--q-max", "4", "--p-max", "5", "--rank-max", "13", "--families", "A"],
    ["verify-lie", "--families", "C,B2-even"],
    ["degrees", "--n", "12", "--p", "5", "--all", "--format", "csv"],
    ["degrees", "--partition", "3,1", "--n", "5", "--p", "5"],
    # n = 0 with a bad and a good prime: fixes which check reports first
    ["count", "--n", "0", "--p", "4"],
    ["count", "--n", "0", "--p", "5"],
    # one lie-pair record per family (PSL2 in and out of defining
    # characteristic)
    *(["lie-pair", "--family", family, "--q", q, "--p", p]
      for family, q, p in (("PSL2", "7", "7"), ("PSL2", "8", "7"), ("PSL3", "4", "7"),
                           ("PSU3", "4", "5"), ("PSp4", "7", "7"), ("Suzuki", "8", "7"),
                           ("Ree2G2", "27", "13"), ("G2", "7", "7"), ("F4", "5", "5"),
                           ("TriD4", "11", "11"))),
    # the Lie grid past rank 13, where rows fail, in JSON; the halved
    # rows in JSON; a repeated family; an unknown family after a good one
    # (exit 1, nothing on stdout); no prime p >= 5; no rank in range
    ["verify-lie", "--q-max", "32", "--p-max", "61", "--rank-max", "20", "--format", "json"],
    ["verify-lie", "--families", "C,B2-even", "--q-max", "16", "--format", "json"],
    ["verify-lie", "--families", "A,A", "--q-max", "9"],
    ["verify-lie", "--families", "A,X"],
    ["verify-lie", "--p-max", "3"],
    ["verify-lie", "--families", "A", "--rank-max", "3"],
    # the lie-grid workload's grid (exit 2); failing rows in JSON at a
    # wider rank; blocks at q = 5, 25 and 125 with no grid prime, next to
    # blocks that have one
    ["verify-lie", "--q-max", "512", "--p-max", "199", "--rank-max", "16",
     "--families", "A,2A,B,B2-even,D,D4,2D"],
    ["verify-lie", "--q-max", "128", "--p-max", "97", "--rank-max", "16", "--format", "json"],
    ["verify-lie", "--q-max", "125", "--p-max", "5"],
    # layered p'-hook sets: 14 layers, every digit p - 1, a single digit
    ["count", "--n", "16383", "--p", "2"],
    ["count", "--n", "19682", "--p", "3"],
    ["count", "--n", "15624", "--p", "5"],
    ["count", "--n", "3125", "--p", "5"],
    # rows on both sides of the default exact bound, with no flag
    ["verify-an", "--n-max", "42", "--primes", "5"],
    # the symmetric filter: the largest hooks list of the queries corpus,
    # r = n - 1 odd (no middle leg) and even (middle leg x = r/2), p > n;
    # every x qualifying at r = 13^3 - 1, and the v_p(m!) table crossing
    # a power of p at r = 13^3
    ["hooks", "--n", "1352", "--p", "13"],
    ["hooks", "--n", "2", "--p", "2"],
    ["hooks", "--n", "3", "--p", "3"],
    ["hooks", "--n", "50", "--p", "53"],
    ["count", "--n", "2197", "--p", "13"],
    ["count", "--n", "2198", "--p", "13"],
    # lie-pair refusals (exit 1): an unknown family, a bad or small p,
    # a group that is not simple, q not a prime power, fields outside a
    # family's domain, non-defining G2-type constants (through an alias)
    *(["lie-pair", "--family", family, "--q", q, "--p", p]
      for family, q, p in (("X", "7", "5"), ("PSL2", "7", "3"), ("PSL2", "7", "9"),
                           ("PSL2", "3", "5"), ("PSL2", "12", "5"), ("PSU3", "2", "5"),
                           ("PSp4", "9", "5"), ("Suzuki", "16", "5"), ("2B2", "8", "5"),
                           ("2G2", "27", "7"), ("3D4", "7", "5"))),
    # PSL2 at p = 5 in defining characteristic with exponent 5
    ["lie-pair", "--family", "PSL2", "--q", "243", "--p", "5"],
    # an empty prime list (exit 1)
    ["verify-an", "--n-max", "7", "--primes", ""],
    # exact sets past the default bound: the n <= 52 grid at p = 5, and at
    # p = 7 the top power e = 49 with the self-conjugate core (1) at n = 50
    ["verify-an", "--n-max", "52", "--primes", "5", "--exact-bound", "52"],
    ["verify-an", "--n-max", "50", "--primes", "7", "--exact-bound", "50"],
    # the constructive path past n = 100: n = 131 and 151 are 1 + p^k + p^h
    # at p = 5, and larger primes where most n have one or two digits
    ["verify-an", "--n-max", "160", "--primes", "5", "--exact-bound", "0"],
    ["verify-an", "--n-max", "200", "--primes", "7,11,13", "--exact-bound", "0",
     "--format", "json"],
    # n = 307 = 1 + 17 + 17^2 and n = 381 = 1 + 19 + 19^2 on the
    # constructive path
    ["verify-an", "--n-max", "400", "--primes", "17,19", "--exact-bound", "0"],
    # error records of a prime list with a non-prime after a prime, on the
    # exact and the constructive path; a negative bound; a repeated prime
    *(["verify-an", "--n-max", "8", "--primes", primes, *bound]
      for primes in ("5,4", "7,3") for bound in ((), ("--exact-bound", "0"))),
    ["verify-an", "--n-max", "12", "--primes", "5", "--exact-bound", "-1"],
    ["verify-an", "--n-max", "8", "--primes", "5,5"],
    # the 2A rows past rank 20 (exit 2, the first violation at n = 13,
    # q = 11, p = 5), in both formats
    *(["verify-lie", "--families", "2A", "--q-max", "64", "--p-max", "97", "--rank-max", "40",
       *fmt] for fmt in ((), ("--format", "json"))),
    # PSL2 cases that no other entry reaches: p = 5 in defining
    # characteristic (a tower and a mixed exponent), a small q, the
    # generic case at q = 125, the order-3 and subfield branches of a
    # small field, and p | q + 1
    *(["lie-pair", "--family", "PSL2", "--q", q, "--p", p]
      for q, p in (("5", "5"), ("25", "5"), ("5", "7"), ("125", "11"), ("32", "5"),
                   ("16", "7"), ("9", "5"))),
    # refusals above the trial-division limit 2**40 (exit 1): a p in
    # require_prime, a q in prime_power_decomposition, a p of lie-pair
    ["count", "--n", "7", "--p", "1000000000000000000000007"],
    ["lie-pair", "--family", "PSL2", "--q", "1000000000000000000000007", "--p", "5"],
    ["lie-pair", "--family", "PSL2", "--q", "7", "--p", "1000000000000000000000007"],
    # an empty family list names the unknown family '' (exit 1, nothing on
    # stdout), as an empty item of a list does; it is not every family
    ["verify-lie", "--families", ""],
    # the classical grid's column templates: the 1/2 degrees of D4 and B
    # in JSON with the alias column C (exit 0); a repeated family that
    # restarts its columns, with the failing (A, 13, 4, 5) column after
    # other columns (exit 2)
    ["verify-lie", "--families", "D4,B,C", "--q-max", "64", "--p-max", "31", "--rank-max", "12",
     "--format", "json"],
    ["verify-lie", "--families", "2D,A,A", "--q-max", "8", "--p-max", "13", "--rank-max", "13"],
    # the other bundled tables, read through the package data, and a name
    # with no bundled table (exit 1)
    *(["ctbl", "--bundled", name, "--p", p]
      for name, p in (("S5", "5"), ("A6", "7"), ("X", "5"))),
]


class _HashSink:
    """Text stream that keeps only the sha256 of what was written."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self._hash.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _resolve(argv: list[str]) -> list[str]:
    data = str(resources.files("ppcd").joinpath("data"))
    return [tok.replace("{data}", data) for tok in argv]


def run_entry(argv: list[str]) -> dict:
    out, err = _HashSink(), _HashSink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(_resolve(argv))
    finally:
        sys.stdout, sys.stderr = saved
    return {"argv": argv, "exit": code, "stdout_sha256": out.hexdigest(),
            "stderr_sha256": err.hexdigest()}


@lru_cache(maxsize=1)
def _records() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_record():
    assert [entry["argv"] for entry in _records()] == CORPUS


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[" ".join(a) for a in CORPUS])
def test_golden(index):
    assert run_entry(CORPUS[index]) == _records()[index]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden_cli.py --record")
    records = [run_entry(argv) for argv in CORPUS]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
