"""Build the benchmark corpus and record its reference outputs.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: for every workload, the argv lists
the seed may pick from and, for each, the exit code and the digests of
stdout and stderr that the program gave when this file was recorded.
The benchmark counts an operation as failed when any of the three
differs.  Re-record only on purpose, when an output change is intended.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

from worker import REFERENCE, SRC, Calibrator, call

PRIMES = (5, 7, 11, 13)
# Fixed so that the corpus is reproducible; the workload seed only
# chooses among and orders what is recorded here.
CORPUS_SEED = 1904


def prime_orders() -> list[str]:
    """All 24 orders of the primes: the rows come out in another order,
    the work stays the same."""
    return [",".join(map(str, order)) for order in itertools.permutations(PRIMES)]


def an_exact() -> list[list[str]]:
    return [["verify-an", "--n-max", "40", "--primes", primes] for primes in prime_orders()]


def an_certified() -> list[list[str]]:
    return [
        ["verify-an", "--n-max", "100", "--primes", primes, "--exact-bound", "0"]
        for primes in prime_orders()
    ]


def lie_grid() -> list[list[str]]:
    """Family orders with A first (its rank-13 row is the reported
    witness) and the other six rotated."""
    rest = ["2A", "B", "B2-even", "D", "D4", "2D"]
    argvs = []
    for k in range(len(rest)):
        families = ",".join(["A"] + rest[k:] + rest[:k])
        argvs.append(
            ["verify-lie", "--q-max", "512", "--p-max", "199", "--rank-max", "16",
             "--families", families]
        )
    return argvs


def _random_partition(rng: random.Random, n: int) -> str:
    cap = rng.randint(1, n)
    parts = []
    left = n
    while left:
        part = rng.randint(1, min(cap, left))
        parts.append(part)
        left -= part
    return ",".join(map(str, sorted(parts, reverse=True)))


def queries() -> list[list[str]]:
    import ppcd.lie

    rng = random.Random(CORPUS_SEED)
    argvs = []
    for _ in range(200):
        argvs.append(["count", "--n", str(rng.randint(1, 20000)), "--p", str(rng.choice(PRIMES))])
    for _ in range(120):
        argvs.append(["hooks", "--n", str(rng.randint(1, 1500)), "--p", str(rng.choice(PRIMES))])
    for _ in range(200):
        lam = _random_partition(rng, rng.randint(20, 300))
        argvs.append(["degrees", "--partition", lam, "--p", str(rng.choice(PRIMES))])
    by_family: dict[str, list] = {}
    for combo in ppcd.lie.exceptional_grid(128, 97):
        by_family.setdefault(combo[0], []).append(combo)
    for family in sorted(by_family):
        combos = by_family[family]
        for fam, q, p in rng.sample(combos, min(len(combos), 60)):
            argvs.append(["lie-pair", "--family", fam, "--q", str(q), "--p", str(p)])
    for name, p in itertools.product(("A5", "S5", "A6"), (2, 3, 5, 7, 11, 13)):
        argvs.extend([["ctbl", "--bundled", name, "--p", str(p)]] * 4)
    return argvs


WORKLOADS = {
    "an-exact": ("grid", an_exact),
    "an-certified": ("grid", an_certified),
    "lie-grid": ("grid", lie_grid),
    "queries": ("stream", queries),
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ppcd.cli as cli

    corpus = {"digest": "blake2b-128 of the UTF-8 bytes", "workloads": {}}
    calibrator = Calibrator()  # no samples are taken: its timer never runs
    for name, (kind, build) in WORKLOADS.items():
        entries = []
        for argv in build():
            code, out, err, *_ = call(cli, argv, calibrator)
            entries.append({"argv": argv, "code": code, "out": out, "err": err})
        codes = sorted({e["code"] for e in entries})
        print(f"{name}: {len(entries)} entries, exit codes {codes}", file=sys.stderr)
        corpus["workloads"][name] = {"kind": kind, "entries": entries}
    REFERENCE.write_text(json.dumps(corpus, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
