"""Acceptance suite: every criterion at its stated range, zero tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the lines on success).
"""

from math import factorial

from ppcd.ctbl import bundled_table, cd_pprime, pgl2_degree_set
from ppcd.degrees import degree, degree_valuation, is_pprime_macdonald
from ppcd.hooks import (
    count_pprime_hooks_formula,
    count_pprime_partitions_formula,
    hook_count_row,
    quasihook_monotone,
    scan_ext_degree_sets,
    verify_An_bound,
)
from ppcd.lie import (
    classical_grid,
    exceptional_grid,
    exceptional_pair_record,
    nondivisibility_check,
    prime_powers_upto,
    semisimple_degree,
)
from ppcd.partitions import Partition, _pprime_tuples, enumerate_partitions, is_prime

PRIMES = (5, 7, 11, 13)
# Above n = 40 the generator is only enumerated where the McKay number is
# at most this; the sum over every n <= 100 is about 1.3e8 partitions.
MCKAY_ENUMERATION_CAP = 5000


def _report(num: int, violations: list, text: str) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {text}")
    assert not violations, f"criterion {num}: first violations {violations[:5]}"


def test_criterion_1_macdonald_equals_valuation_oracle():
    violations = []
    for n in range(0, 31):
        for lam in enumerate_partitions(n):
            for p in PRIMES:
                if is_pprime_macdonald(lam, p) != (degree_valuation(lam, p) == 0):
                    violations.append((lam.parts, p))
    _report(1, violations, "recursive p'-test == valuation oracle, n <= 30, p in {5,7,11,13}")


def test_criterion_2_hook_counting_formula():
    rows = (hook_count_row(n, p) for p in PRIMES for n in range(1, 2001))
    violations = [row for row in rows if not row["ok"]]
    _report(2, violations, "formula == filter == layered p'-hook sets, n <= 2000")


def test_criterion_3_alternating_group_bound():
    violations = []
    for n in range(7, 101):
        for p in PRIMES:
            result = verify_An_bound(n, p)
            if not result.ok or 1 not in result.witnesses or len(set(result.witnesses)) < 3:
                violations.append((n, p, result))
    for n in range(5, 41):
        sets = scan_ext_degree_sets(n, PRIMES)
        for p in PRIMES:
            if len(sets[p]) < count_pprime_hooks_formula(n, p) // 2:
                violations.append((n, p, "halved-bound"))
    _report(3, violations, ">= 3 extendable p'-degrees for 7 <= n <= 100 and exact-mode halved bound for n <= 40")


def test_criterion_4_quasihook_monotonicity():
    violations = []
    for n in range(6, 201):
        for c in (2, 3):
            if n < 4 + c:
                continue
            for t in range(0, (n - 4 - c) // 2 + 1):
                if not quasihook_monotone(n, c, t):
                    violations.append((n, c, t))
    # the wider-row construction must NOT be monotone: this pair drops
    if not degree(Partition([6, 5, 1, 1])) > degree(Partition([5, 5, 1, 1, 1])):
        violations.append(("counterexample pair", (6, 5, 1, 1), (5, 5, 1, 1, 1)))
    _report(4, violations, "strict quasihook degree growth on full range, n <= 200, c in {2,3}; row-5 pair violates")


def test_criterion_5_sum_of_squares():
    violations = []
    for n in range(0, 13):
        if sum(degree(lam) ** 2 for lam in enumerate_partitions(n)) != factorial(n):
            violations.append(n)
    for name, order in (("A5", 60), ("S5", 120), ("A6", 360)):
        table = bundled_table(name)
        if table.order != order:
            violations.append(name)
        if sum(m * d * d for d, m in table.degrees) != order:
            violations.append((name, "order"))
    _report(5, violations, "sum of squared degrees == n! for n <= 12; bundled tables pass order checks")


def test_criterion_6_classical_grid_not_both_divisible():
    violations = [
        (row["family"], row["n"], row["q"], row["p"])
        for row in classical_grid(27, 97, rank_max=10)
        if not row["ok"]
    ]
    _report(6, violations, "no prime 3 < p <= 97 divides both carried degrees, ranks <= 10, q <= 27")


def test_criterion_7_semisimple_closed_forms():
    violations = []
    GL1 = (1, 1, 1)
    GL1_2 = (1, 1, 2)
    GU1 = (1, -1, 1)
    for q in prime_powers_upto(49):
        cases = (
            (2, 1, (GL1, GL1), q + 1),
            (2, 1, (GL1_2,), q - 1),
            (3, 1, (GL1, GL1, GL1), (q + 1) * (q * q + q + 1)),
            (3, 1, (GL1_2, GL1), (q - 1) * (q * q + q + 1)),
            (3, -1, (GU1, GU1, GU1), (q - 1) * (q * q - q + 1)),
            (3, -1, (GL1_2, GU1), (q + 1) * (q * q - q + 1)),
        )
        for n, eps, factors, expected in cases:
            got = semisimple_degree(n, eps, q, factors)
            if got != expected:
                violations.append((n, eps, q, factors, got, expected))
    _report(7, violations, "centralizer-index degrees reproduce the closed forms for all prime powers q <= 49")


def test_criterion_8_exceptional_pair_contract():
    violations = []
    for family, q, p in exceptional_grid(128, 97):
        d1, d2 = exceptional_pair_record(family, q, p).degrees
        if not nondivisibility_check(d1, d2, p):
            violations.append((family, q, p, d1, d2))
    _report(8, violations, "p divides neither degree and d2 never divides d1, valid (family, q <= 128, p <= 97)")


def test_criterion_9_intro_examples():
    violations = []
    a5 = bundled_table("A5")
    for p in (2, 3, 5):
        if len(cd_pprime(a5, p)) != 3:
            violations.append(("A5", p))
    if cd_pprime(bundled_table("S5"), 2) != {1, 5}:
        violations.append(("S5", 2))
    for p in range(7, 98):
        if is_prime(p):
            coprime = {d for d in pgl2_degree_set(p) if d % p}
            if len(coprime) != 3:
                violations.append(("PGL2", p))
    _report(9, violations, "|cd_p'(A5)| = 3 for p in {2,3,5}; |cd_2'(S5)| = 2; |cd_p'(PGL2(p))| = 3 for 7 <= p <= 97")


def test_criterion_10_mckay_count_formula():
    violations = []
    for p in PRIMES:
        for n in range(0, 101):
            formula = count_pprime_partitions_formula(n, p)
            if n <= 40 or formula <= MCKAY_ENUMERATION_CAP:
                generated = sum(1 for _ in _pprime_tuples(n, p))
                if generated != formula:
                    violations.append((n, p, "generator", generated, formula))
            if n <= 25:
                filtered = sum(1 for lam in enumerate_partitions(n)
                               if degree_valuation(lam, p) == 0)
                if filtered != formula:
                    violations.append((n, p, "oracle", filtered, formula))
    _report(
        10,
        violations,
        "McKay product prod k(p^j, a_j) == p'-generator length (n <= 40, and n <= 100 up to "
        f"{MCKAY_ENUMERATION_CAP}) == valuation-oracle count (n <= 25)",
    )
