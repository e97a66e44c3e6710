"""Lie-type degree formulas: product-form evaluation, generic-order
semisimple degrees, the classical divisibility grid, and the selected
pairs for the small families."""

import hashlib
import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from ppcd import lie
from ppcd.lie import (
    DegreeFormula,
    classical_grid,
    classical_unipotent_pair,
    exceptional_grid,
    exceptional_pair_record,
    gl_order,
    in_contract_regime,
    nondivisibility_check,
    prime_power_decomposition,
    prime_powers_upto,
    qprime_part,
    semisimple_degree,
)
from ppcd.partitions import TRIAL_DIVISION_LIMIT

PRIME_POWERS_49 = prime_powers_upto(49)


def GL(rank, twist=1):
    return (rank, 1, twist)


def GU(rank, twist=1):
    return (rank, -1, twist)


class TestPrimePowers:
    def test_decomposition(self):
        assert prime_power_decomposition(27) == (3, 3)
        assert prime_power_decomposition(32) == (2, 5)
        assert prime_power_decomposition(7) == (7, 1)
        assert prime_power_decomposition(12) is None
        assert prime_power_decomposition(1) is None

    def test_trial_division_limit(self):
        limit = TRIAL_DIVISION_LIMIT
        assert prime_power_decomposition(limit) == (2, 40)
        assert prime_power_decomposition(limit - 87) == (limit - 87, 1)
        for q in (limit + 1, 10**24 + 7):
            message = f"expected a prime power <= {limit}, got {q}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                prime_power_decomposition(q)

    def test_upto(self):
        assert prime_powers_upto(10) == [2, 3, 4, 5, 7, 8, 9]

    def test_require(self):
        assert lie.require_prime_power(9) == (3, 2)
        for q in (0, 1, 12, True, 4.0, "8"):
            assert prime_power_decomposition(q) is None
            with pytest.raises(ValueError, match=f"^expected a prime power >= 2, got {q!r}$"):
                lie.require_prime_power(q)


class TestQPrimePart:
    def test_examples(self):
        assert qprime_part(48, 2) == 3
        assert qprime_part(60, 5) == 12
        assert qprime_part(125, 5) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            qprime_part(0, 5)


class TestGLOrder:
    def test_examples(self):
        assert gl_order(1, 1, 7) == 6
        assert gl_order(2, 1, 3) == 48
        assert gl_order(1, -1, 7) == 8

    def test_gu3_order(self):
        q = 3
        assert gl_order(3, -1, q) == q**3 * (q + 1) * (q**2 - 1) * (q**3 + 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gl_order(2, 0, 3)
        with pytest.raises(ValueError):
            gl_order(2, 1, 6)


class TestSemisimpleDegree:
    @pytest.mark.parametrize("q", PRIME_POWERS_49)
    def test_closed_forms(self, q):
        assert semisimple_degree(2, 1, q, (GL(1), GL(1))) == q + 1
        assert semisimple_degree(2, 1, q, (GL(1, 2),)) == q - 1
        cyc_plus = q * q + q + 1
        cyc_minus = q * q - q + 1
        assert (
            semisimple_degree(3, 1, q, (GL(1), GL(1), GL(1)))
            == (q + 1) * cyc_plus
        )
        assert (
            semisimple_degree(3, 1, q, (GL(1, 2), GL(1)))
            == (q - 1) * cyc_plus
        )
        assert (
            semisimple_degree(3, -1, q, (GU(1), GU(1), GU(1)))
            == (q - 1) * cyc_minus
        )
        assert (
            semisimple_degree(3, -1, q, (GL(1, 2), GU(1)))
            == (q + 1) * cyc_minus
        )

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            semisimple_degree(3, 1, 5, (GL(1), GL(1)))

    def test_invalid_centralizer_order(self):
        with pytest.raises(ArithmeticError):
            semisimple_degree(2, 1, 5, (GU(1), GU(1)))

    def test_centralizer_validation(self):
        # each bad factor leaves the rank filled, so gl_order rejects it
        for bad, message in (((0, 1, 1), "rank must be"), ((1, 2, 1), "sign must be"),
                             ((1, 1, 0), "expected a prime power")):
            with pytest.raises(ValueError, match=message):
                semisimple_degree(1 + bad[0] * bad[2], 1, 5, (bad, GL(1)))


class TestDegreeFormula:
    def test_validation(self):
        with pytest.raises(ValueError):
            DegreeFormula(factors=((1, 2),))

    @pytest.mark.parametrize("build", [
        lambda f: DegreeFormula(False, (), ((0, 1),)),
        lambda f: f._replace(factors=((1, 2),)),
        lambda f: f._replace(denominator_factors=((0, -1),)),
        lambda f: DegreeFormula._make((True, ((1, 0),), ())),
    ], ids=["positional", "_replace", "_replace-denominator", "_make"])
    def test_every_way_of_making_one_checks_its_factors(self, build):
        # a NamedTuple's _make, and _replace through it, build the tuple
        # without calling __new__ unless the class routes them there
        good = DegreeFormula(factors=((3, 1),), denominator_factors=((1, 1),))
        with pytest.raises(ValueError, match=r"^bad factor \(m, s\) = \(\d, -?\d\)$"):
            build(good)
        halved = good._replace(half=True)
        assert type(halved) is DegreeFormula and halved.evaluate_rational(4) == Fraction(21, 2)

    def test_eval(self):
        f = DegreeFormula(factors=((3, 1),), denominator_factors=((1, 1),))
        assert f.evaluate_rational(2) == Fraction(7)
        assert f.evaluate_rational(4) == Fraction(21)
        g = DegreeFormula(half=True, factors=((3, 1),), denominator_factors=((1, 1),))
        assert g.evaluate_rational(4) == Fraction(21, 2)
        assert g.evaluate_rational(5) == Fraction(31, 2)
        assert g.evaluate_rational(3) == Fraction(13, 2)

    @pytest.mark.parametrize("family", lie.classical_families())
    def test_carried_formulas_divide_exactly(self, family):
        # every carried quotient is an integer polynomial: no remainder at
        # any prime power q <= 512, ranks up to 60, and denominator 1
        # unless the formula is halved
        lo, hi = lie.classical_family_rank_range(family)
        qs = prime_powers_upto(512)
        for n in range(lo, (hi or 60) + 1):
            for f in classical_unipotent_pair(family, n):
                for q in qs:
                    assert f.evaluate_rational(q).denominator in ((1, 2) if f.half else (1,))

    def test_value_is_an_int_exactly_when_integral(self):
        # every carried formula at rank <= 20 and every prime power q <= 128
        # its row takes; the value is rebuilt here from the factor lists
        seen = Counter()
        for family in lie.classical_families():
            lo, hi = lie.classical_family_rank_range(family)
            for n in range(lo, min(hi or 20, 20) + 1):
                for f in classical_unipotent_pair(family, n):
                    for q in prime_powers_upto(128):
                        if not lie._takes_q(family, n, q):
                            continue
                        num = math.prod(q**m - s for m, s in f.factors)
                        den = math.prod(q**m - s for m, s in f.denominator_factors)
                        expected = Fraction(num, den) / (2 if f.half else 1)
                        value = f.evaluate_rational(q)
                        assert value == expected, (family, n, q)
                        if expected.denominator == 1:
                            assert type(value) is int, (family, n, q)
                        else:
                            assert type(value) is Fraction and value.denominator == 2
                        seen[type(value)] += 1
        assert seen[int] and seen[Fraction]


class TestClassicalRows:
    def test_linear_row_example(self):
        f1, f2 = classical_unipotent_pair("A", 4)
        assert f1.evaluate_rational(2) == Fraction(7)
        assert f2.evaluate_rational(2) == Fraction(5)

    def test_bc_row_example(self):
        f1, f2 = classical_unipotent_pair("B", 3)
        q = 3
        assert f1.evaluate_rational(q) == Fraction((q**2 - 1) * (q**3 + 1), 2 * (q - 1))
        assert f2.evaluate_rational(q) == Fraction((q**2 + 1) * (q**3 - 1), 2 * (q - 1))
        assert classical_unipotent_pair("C", 3) == (f1, f2)

    def test_b2_even_row(self):
        f1, f2 = classical_unipotent_pair("B2-even", 2)
        assert f1.evaluate_rational(4) == Fraction(9, 2)
        assert f2.evaluate_rational(4) == Fraction(25, 2)

    def test_twisted_row_signs(self):
        f1, f2 = classical_unipotent_pair("2A", 4)
        q = 2
        assert f1.evaluate_rational(q) == Fraction(q**3 + 1, q + 1)
        assert f2.evaluate_rational(q) == Fraction((q**4 - 1) * (q + 1), (q + 1) * (q**2 - 1))

    def test_twisted_rows_closed_forms(self):
        # the A pair under Ennola duality: q^m - 1 read as q^m - (-1)^m
        for n in range(4, 13):
            f1, f2 = classical_unipotent_pair("2A", n)
            for q in (2, 3, 4, 5, 7, 8, 9):
                assert f1.evaluate_rational(q) == Fraction(q ** (n - 1) - (-1) ** (n - 1), q + 1)
                assert f2.evaluate_rational(q) == Fraction(
                    (q**n - (-1) ** n) * (q ** (n - 3) - (-1) ** (n - 3)),
                    (q + 1) * (q**2 - 1),
                ), (n, q)

    def test_d_rows(self):
        f1, f2 = classical_unipotent_pair("D", 5)
        q = 2
        assert f1.evaluate_rational(q) == Fraction((q**5 - 1) * (q**3 + 1), q**2 - 1)
        assert f2.evaluate_rational(q) == Fraction((q**4 + 1) * (q**4 - 1), q**2 - 1)
        g1, g2 = classical_unipotent_pair("2D", 4)
        assert g1.evaluate_rational(q) == Fraction((q**4 + 1) * (q**2 - 1), q**2 - 1)
        assert g2.evaluate_rational(q) == Fraction((q**3 + 1) * (q**3 - 1), q**2 - 1)

    def test_d4_row_odd_q(self):
        f1, f2 = classical_unipotent_pair("D4", 4)
        q = 3
        assert f1.evaluate_rational(q) == Fraction((q + 1) ** 3 * (q**3 + 1), 2)
        assert f2.evaluate_rational(q) == Fraction((q**2 + 1) ** 2 * (q**2 + q + 1), 2)

    def test_integrality_where_classically_stated(self):
        qs = prime_powers_upto(27)
        for family, n_lo, n_hi, odd_only in (
            ("A", 4, 10, False),
            ("2A", 4, 10, False),
            ("B", 2, 10, True),  # the 1/2 scalar clears only for odd q
            ("D", 5, 10, False),
            ("2D", 4, 10, False),
            ("D4", 4, 4, True),
        ):
            for n in range(n_lo, n_hi + 1):
                for q in qs:
                    if odd_only and q % 2 == 0:
                        continue
                    for f in classical_unipotent_pair(family, n):
                        assert f.evaluate_rational(q).denominator == 1, (family, n, q)

    def test_rank_ranges(self):
        with pytest.raises(ValueError):
            classical_unipotent_pair("A", 3)
        with pytest.raises(ValueError):
            classical_unipotent_pair("D", 4)
        with pytest.raises(ValueError):
            classical_unipotent_pair("D4", 5)
        with pytest.raises(ValueError):
            classical_unipotent_pair("E8", 8)


def _grid_block(family, n, q, p):
    """The (family, n, q) block of the smallest grid holding it, primes up to p."""
    blocks = lie._classical_blocks(q, p, [family], rank_max=n)
    return next(b for b in blocks if (b.n, b.q) == (n, q))


class TestNotBothDivisible:
    """The grid's ``ok`` column, row by row and block by block."""

    def test_examples(self):
        for family, n, q, p in [("A", 4, 2, 5), ("A", 4, 2, 7), ("B", 3, 3, 5)]:
            rows = classical_grid(q, p, [family], rank_max=n)
            assert [r["ok"] for r in rows if (r["n"], r["q"], r["p"]) == (n, q, p)] == [True]

    def test_type_a_rows_where_both_are_divisible(self):
        # A at q = -1 (mod p) and 2A at q = 1 (mod p), n odd, p | n - 3
        assert _grid_block("A", 13, 4, 5).failing == {5}
        assert _grid_block("2A", 13, 11, 5).failing == {5}

    def test_parity_enforced(self):
        # B at rank 2 takes odd q only, B2-even even q only
        blocks = lie._classical_blocks(32, 13, ["B", "B2-even"], rank_max=2)
        assert {(b.family, b.q % 2) for b in blocks} == {("B", 1), ("B2-even", 0)}

    def test_p_must_not_divide_q(self):
        assert _grid_block("A", 4, 5, 5).primes == ()
        blocks = lie._classical_blocks(49, 13, rank_max=6)
        assert all(b.primes == tuple(p for p in lie._primes_in(5, 13) if b.q % p) for b in blocks)
        assert all(row["q"] % row["p"] for row in classical_grid(49, 13, rank_max=6))

    def test_small_grid(self):
        rows = classical_grid(9, 13)
        assert rows and all(r["ok"] for r in rows)
        labels = {r["family"] for r in rows}
        assert labels == {"A", "2A", "B", "B2-even", "D", "D4", "2D"}


def _classical_grid_oracle(q_max, p_max, families=None, rank_max=10):
    """The classical grid row by row: one not-both-divisible test per
    (family, rank, q, p), in the order ``classical_grid`` emits them."""
    fams = families if families is not None else lie.classical_families()
    qs = lie.prime_powers_upto(q_max)
    ps = lie._primes_in(5, p_max)
    rows = []
    for family in fams:
        fam = lie.CLASSICAL_FAMILY_ALIASES.get(family, family)
        lo, hi = lie.classical_family_rank_range(fam)
        top = min(rank_max, hi) if hi is not None else rank_max
        for n in range(lo, top + 1):
            formulas = lie.classical_unipotent_pair(fam, n)
            for q in qs:
                if not lie._takes_q(fam, n, q):
                    continue
                d1 = formulas[0].evaluate_rational(q)
                d2 = formulas[1].evaluate_rational(q)
                for p in ps:
                    if q % p == 0:
                        continue
                    ok = d1.numerator % p != 0 or d2.numerator % p != 0
                    rows.append({"family": family, "n": n, "q": q, "p": p,
                                 "d1": d1, "d2": d2, "ok": ok})
    return rows


class TestClassicalBlocks:
    def test_wide_grid_matches_oracle(self):
        rows = classical_grid(128, 97, rank_max=40)
        assert len(rows) == 184_195
        assert sum(not row["ok"] for row in rows) == 99
        assert rows == _classical_grid_oracle(128, 97, rank_max=40)

    def test_default_grid_matches_oracle(self):
        assert classical_grid(27, 97) == _classical_grid_oracle(27, 97)

    @pytest.mark.parametrize("families", [["C", "B2-even"], ["A", "A"], ["2D", "A"]])
    def test_family_lists_match_oracle(self, families):
        assert (classical_grid(32, 61, families, rank_max=20)
                == _classical_grid_oracle(32, 61, families, rank_max=20))

    def test_key_order(self):
        assert list(classical_grid(4, 5, ["A"])[0]) == ["family", "n", "q", "p", "d1", "d2", "ok"]

    def test_blocks(self):
        blocks = list(lie._classical_blocks(4, 5, ["A"], rank_max=13))
        assert [(b.family, b.n, b.q) for b in blocks][:3] == [("A", 4, 2), ("A", 4, 3), ("A", 4, 4)]
        assert all(b.primes == (5,) for b in blocks)
        assert [(b.n, b.q) for b in blocks if b.failing] == [(13, 4)]
        witness = blocks[-1]
        assert (witness.d1, witness.d2) == (5_592_405, 1_563_748_356_005)
        assert math.gcd(witness.d1.numerator, witness.d2.numerator) % 5 == 0

    def test_failing_primes_divide_the_numerator_gcd(self):
        for block in lie._classical_blocks(64, 199, rank_max=30):
            g = math.gcd(block.d1.numerator, block.d2.numerator)
            assert block.failing == {p for p in block.primes if g % p == 0}

    def test_every_family_checked_before_any_block(self):
        with pytest.raises(ValueError, match="unknown classical family 'X'"):
            lie._classical_blocks(9, 13, ["A", "X"])

    def test_empty_grids(self):
        assert classical_grid(27, 3) == []
        assert classical_grid(27, 97, ["A"], rank_max=3) == []
        assert classical_grid(1, 97) == []

    @pytest.mark.parametrize("pair, q", [
        # (q + 1)/(q - 1) at q = 11 is 12/10: 5 reaches the denominator of d1
        (((((1, -1),), ((1, 1),)), (((1, 1),), ())), 11),
        # d1 = q - 1 = 10 is divisible by 5 and d2 = 12/10 has 5 below
        (((((1, 1),), ()), (((1, -1),), ((1, 1),))), 11),
        # d1 = q + 1 = 12 is prime to 5, yet d2 = 12/10 is still divided
        # exactly, so the inexact d2 raises rather than going untested
        (((((1, -1),), ()), (((1, -1),), ((1, 1),))), 11),
    ], ids=["d1-denominator", "d2-denominator", "d2-denominator-untested"])
    def test_prime_in_a_denominator(self, monkeypatch, pair, q):
        # an inexact quotient raises in the grid and its row oracle alike;
        # (q + 1)/(q - 1) is exact at q = 2, 3 and first inexact at q = 4,
        # where the grid stops
        formulas = tuple(DegreeFormula(factors=f, denominator_factors=d) for f, d in pair)
        monkeypatch.setattr(lie, "classical_unipotent_pair", lambda family, n: formulas)
        with pytest.raises(ArithmeticError) as want:
            _classical_grid_oracle(q, 5, ["A"], rank_max=4)
        with pytest.raises(ArithmeticError) as got:
            classical_grid(q, 5, ["A"], rank_max=4)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("does not divide exactly at q = 4")


def _cyclotomic_indices(formula):
    """The set of k with Phi_k(q) a factor of the formula's quotient.

    q^m - 1 = prod_{k | m} Phi_k and q^m + 1 = prod_{k | 2m, k not | m}
    Phi_k; the denominator's indices are subtracted, and the quotient
    being a polynomial, no count may go negative.  The 1/2 of a halved
    formula matters for no p > 3.
    """
    def indices(factors):
        out = Counter()
        for m, s in factors:
            out.update(k for k in range(1, 2 * m + 1)
                       if (m % k == 0 if s == 1 else (2 * m) % k == 0 and m % k))
        return out

    counts = indices(formula.factors)
    counts.subtract(indices(formula.denominator_factors))
    assert min(counts.values(), default=0) >= 0, formula
    return {k for k, c in counts.items() if c}


def _multiplicative_order(q, p):
    d, x = 1, q % p
    while x != 1:
        x = x * q % p
        d += 1
    return d


def _divides_phi(k, d, p):
    """Whether k = d p^j for some j >= 0: for p prime to q and d the
    order of q mod p, exactly when p | Phi_k(q)."""
    if k % d:
        return False
    k //= d
    while k % p == 0:
        k //= p
    return k == 1


class TestCyclotomicIndices:
    """A second method for the grid's ``ok`` column: the failing primes of
    a block predicted from the formulas' cyclotomic indices and q mod p,
    with no degree evaluated."""

    def test_indices(self):
        # A at n = 4: (q^3 - 1)/(q - 1) = Phi_3 and (q^4 - 1)/(q^2 - 1) = Phi_4;
        # 2A by Ennola: (q^3 + 1)/(q + 1) = Phi_6 and Phi_4 again; D4:
        # (q + 1)^3 (q^3 + 1)/2 and (q^2 + 1)^2 (q^3 - 1)/(2 (q - 1))
        for family, want in [("A", [{3}, {4}]), ("2A", [{6}, {4}]), ("D4", [{2, 6}, {3, 4}])]:
            assert [_cyclotomic_indices(f) for f in classical_unipotent_pair(family, 4)] == want

    def test_prediction_matches_the_wide_grid(self):
        blocks = list(lie._classical_blocks(128, 97, rank_max=40))
        indices = {}
        failing_rows = set()
        for block in blocks:
            key = (block.family, block.n)
            if key not in indices:
                indices[key] = [_cyclotomic_indices(f)
                                for f in classical_unipotent_pair(*key)]
            i1, i2 = indices[key]
            predicted = set()
            for p in block.primes:
                d = _multiplicative_order(block.q, p)
                if (any(_divides_phi(k, d, p) for k in i1)
                        and any(_divides_phi(k, d, p) for k in i2)):
                    predicted.add(p)
            assert predicted == block.failing, block
            failing_rows.update((block.family, block.n, block.q, p) for p in predicted)
        # the rows ``classical_grid``'s docstring lists, and no others
        listed = {
            (b.family, b.n, b.q, p)
            for b in blocks for p in b.primes
            if b.n % 2 and (b.n - 3) % p == 0
            and (b.family, b.q % p) in {("A", p - 1), ("2A", 1)}
        }
        assert len(failing_rows) == 99
        assert failing_rows == listed


class TestExceptionalPairs:
    def test_named_examples(self):
        assert exceptional_pair_record("PSL2", 7, 5).degrees == (8, 6)
        assert exceptional_pair_record("PSp4", 5, 13).degrees == (156, 104)
        assert exceptional_pair_record("Suzuki", 32, 31).degrees == (1024, 1025)

    def test_degrees_exist_in_known_tables(self):
        known = {
            ("PSL2", 4): {1, 3, 4, 5},
            ("PSL2", 5): {1, 3, 4, 5},
            ("PSL2", 7): {1, 3, 6, 7, 8},
            ("PSL2", 9): {1, 5, 8, 9, 10},
            ("PSL3", 2): {1, 3, 6, 7, 8},
        }
        for (family, q), degs in known.items():
            for p in (5, 7, 11, 13):
                r, _ = prime_power_decomposition(q)
                if p == r and r <= 3:
                    continue
                d1, d2 = exceptional_pair_record(family, q, p).degrees
                assert d1 in degs and d2 in degs, (family, q, p, d1, d2)

    def test_defining_characteristic_cases(self):
        assert exceptional_pair_record("PSL2", 7, 7).degrees == (8, 6)
        assert exceptional_pair_record("PSL2", 25, 5).degrees == (26, 24)
        assert exceptional_pair_record("PSL2", 125, 5).degrees == (124, 126)
        assert exceptional_pair_record("PSL2", 5, 5).degrees == (4, 3)
        assert exceptional_pair_record("PSL3", 5, 5).degrees == (6 * 31, 4 * 31)
        assert exceptional_pair_record("PSU3", 5, 5).degrees == (6 * 21, 4 * 21)
        assert exceptional_pair_record("PSp4", 7, 7).degrees == (8 * 50, 6 * 50)

    def test_nondefining_small_families(self):
        assert exceptional_pair_record("PSL3", 2, 7).degrees == (8, 6)
        assert exceptional_pair_record("PSL3", 4, 5).degrees == (64, 63)
        assert exceptional_pair_record("PSU3", 3, 7).degrees == (27, 6)
        assert exceptional_pair_record("PSU3", 8, 7).degrees == (512, 513)
        assert exceptional_pair_record("PSL2", 8, 7).degrees == (8, 9)
        assert exceptional_pair_record("PSL2", 16, 17).degrees == (16, 15)
        assert exceptional_pair_record("PSL2", 27, 13).degrees == (27, 28)

    def test_exceptional_type_constants(self):
        assert exceptional_pair_record("Ree2G2", 27, 13).degrees == (27**3, 27**2 - 27 + 1)
        q = 5
        assert exceptional_pair_record("G2", q, 5).degrees == (q**4 + q**2 + 1, q**3 - 1)
        assert exceptional_pair_record("F4", q, 5).degrees == (
            q**8 + q**4 + 1,
            (q**2 + 1) * (q**4 + 1) * (q**8 + q**4 + 1),
        )
        assert exceptional_pair_record("3D4", q, 5).degrees == (
            q**8 + q**4 + 1,
            (q + 1) * (q**8 + q**4 + 1),
        )
        assert exceptional_pair_record("G2", 7, 7).degrees[1] == 7**3 + 1

    def test_family_alias(self):
        assert (exceptional_pair_record("PSL3e", 2, 7).degrees
                == exceptional_pair_record("PSL3", 2, 7).degrees)

    def test_regime_rejections(self):
        with pytest.raises(ValueError):
            exceptional_pair_record("Suzuki", 32, 5).degrees  # p must divide q^2 - 1
        with pytest.raises(ValueError):
            exceptional_pair_record("Suzuki", 16, 5).degrees  # even power of 2
        with pytest.raises(ValueError):
            exceptional_pair_record("Ree2G2", 27, 7).degrees
        with pytest.raises(ValueError):
            exceptional_pair_record("PSU3", 2, 5).degrees  # not simple
        with pytest.raises(ValueError):
            exceptional_pair_record("PSL2", 3, 5).degrees  # not simple
        with pytest.raises(ValueError):
            exceptional_pair_record("PSp4", 9, 5).degrees  # char 3 not carried
        with pytest.raises(ValueError):
            exceptional_pair_record("G2", 7, 5).degrees  # non-defining not carried
        with pytest.raises(ValueError):
            exceptional_pair_record("PSL2", 7, 3).degrees
        with pytest.raises(ValueError):
            exceptional_pair_record("M11", 11, 5).degrees

    def test_record_metadata(self):
        rec = exceptional_pair_record("Suzuki", 32, 31)
        assert rec.chi1.origin == "steinberg" and rec.chi1.extends_to_aut
        assert rec.chi2.p_group_invariant and not rec.chi2.extends_to_aut
        rec = exceptional_pair_record("Ree2G2", 27, 13)
        assert rec.chi2.extends_to_aut

    def test_contract_regime(self):
        assert in_contract_regime("PSL2", 7, 5)
        assert in_contract_regime("PSp4", 5, 5)
        assert not in_contract_regime("PSp4", 5, 13)
        assert not in_contract_regime("G2", 5, 7)
        assert not in_contract_regime("3D4", 5, 7)
        with pytest.raises(ValueError, match="unknown family 'M11'"):
            in_contract_regime("M11", 11, 5)


class TestNondivisibility:
    def test_examples(self):
        assert nondivisibility_check(8, 6, 5)
        assert nondivisibility_check(1024, 1025, 31)
        assert not nondivisibility_check(12, 4, 5)
        assert not nondivisibility_check(10, 7, 5)
        assert not nondivisibility_check(9, 14, 7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nondivisibility_check(0, 3, 5)


# the standard order polynomials of the simple groups with a carried
# degree pair; q is the field size (2^(2m+1) for Suzuki, 3^(2m+1) for Ree)
_ORDER = {
    "PSL2": lambda q: q * (q**2 - 1) // math.gcd(2, q - 1),
    "PSL3": lambda q: q**3 * (q**2 - 1) * (q**3 - 1) // math.gcd(3, q - 1),
    "PSU3": lambda q: q**3 * (q**2 - 1) * (q**3 + 1) // math.gcd(3, q + 1),
    "PSp4": lambda q: q**4 * (q**2 - 1) * (q**4 - 1) // math.gcd(2, q - 1),
    "Suzuki": lambda q: q**2 * (q**2 + 1) * (q - 1),
    "Ree2G2": lambda q: q**3 * (q**3 + 1) * (q - 1),
    "G2": lambda q: q**6 * (q**6 - 1) * (q**2 - 1),
    "F4": lambda q: q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1) * (q**2 - 1),
    "TriD4": lambda q: q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1),
}


def _exceptional_grid_oracle(q_max, p_max):
    """The grid as written family by family, before it was derived from
    the family table; its order is the one the benchmark recorded."""
    ps = lie._primes_in(5, p_max)
    combos = []
    for q in prime_powers_upto(q_max):
        if q < 4:
            continue
        r, _ = prime_power_decomposition(q)
        for p in ps:
            if p != r and q % p == 0:
                continue
            if p == r and r <= 3:
                continue
            combos.append(("PSL2", q, p))
    for fam, q_min in (("PSL3", 2), ("PSU3", 3)):
        for q in prime_powers_upto(q_max):
            if q < q_min:
                continue
            r, _ = prime_power_decomposition(q)
            for p in ps:
                if p == r and r <= 3:
                    continue
                if p != r and q % p == 0:
                    continue
                combos.append((fam, q, p))
    for q in prime_powers_upto(q_max):
        if q < 5:
            continue
        r, _ = prime_power_decomposition(q)
        if r > 3 and r <= p_max:
            for fam in ("PSp4", "G2", "F4", "TriD4"):
                combos.append((fam, q, r))
    for fam, r in (("Suzuki", 2), ("Ree2G2", 3)):
        q2 = r**3  # the fields r^(2m+1), m >= 1
        while q2 <= q_max:
            for p in ps:
                if (q2 - 1) % p == 0:
                    combos.append((fam, q2, p))
            q2 *= r * r
    return combos


class TestExceptionalGrid:
    @pytest.mark.parametrize("q_max, p_max", [(128, 97), (512, 199), (2200, 97), (32, 31)])
    def test_matches_oracle(self, q_max, p_max):
        assert exceptional_grid(q_max, p_max) == _exceptional_grid_oracle(q_max, p_max)

    def test_contains_expected_rows(self):
        combos = set(exceptional_grid(128, 97))
        assert ("Suzuki", 8, 7) in combos
        assert ("Suzuki", 32, 31) in combos
        assert ("Ree2G2", 27, 13) in combos
        assert ("PSp4", 25, 5) in combos
        assert ("PSL2", 7, 5) in combos
        assert ("PSp4", 5, 13) not in combos  # outside defining characteristic
        assert all(q2 != 128 for fam, q2, _ in combos if fam == "Suzuki")

    def test_default_grid_unchanged(self):
        # the benchmark's lie-pair corpus was recorded from this grid
        grid = exceptional_grid(128, 97)
        assert len(grid) == 3078
        digest = hashlib.sha256(repr(grid).encode()).hexdigest()
        assert digest == "fcf9d8fe043cb1b96b64f98223cca988f8935e1d86cdc8fb00245af579068ae8"

    def test_suzuki_and_ree_fields_follow_q_max(self):
        combos = exceptional_grid(2200, 97)
        for row in (("Suzuki", 512, 7), ("Suzuki", 512, 73), ("Ree2G2", 243, 11)):
            assert row in combos
        twisted = [row for row in combos if row[0] in ("Suzuki", "Ree2G2")]
        assert {q for _, q, _ in twisted} == {8, 32, 512, 2048, 27, 243}
        for family, q, p in twisted:
            d1, d2 = exceptional_pair_record(family, q, p).degrees
            assert nondivisibility_check(d1, d2, p), (family, q, p, d1, d2)
            assert in_contract_regime(family, q, p)

    def test_carried_degrees_meet_the_order_condition(self):
        # a character degree d of G divides |G| and d^2 < |G|; the first
        # oracle for the G2, F4 and 3D4 constants
        checks = 0
        for family, q, p in exceptional_grid(128, 97):
            order = _ORDER[family](q)
            for d in exceptional_pair_record(family, q, p).degrees:
                assert order % d == 0 and d * d < order, (family, q, p, d)
                checks += 1
        assert checks == 6156

    def test_small_grid_contract(self):
        for family, q, p in exceptional_grid(32, 31):
            d1, d2 = exceptional_pair_record(family, q, p).degrees
            assert nondivisibility_check(d1, d2, p), (family, q, p, d1, d2)
            assert in_contract_regime(family, q, p)

    def test_every_record_kind_up_to_243(self):
        # q = 243 = 3^5 at p = 5 is the first PSL2 row whose second
        # character is the half discrete series outside defining
        # characteristic; the q <= 128 grid reaches the other 21 kinds
        kinds = set()
        for family, q, p in exceptional_grid(243, 97):
            rec = exceptional_pair_record(family, q, p)
            kinds.add((family, rec.case, rec.chi1.origin, rec.chi2.origin))
            assert nondivisibility_check(*rec.degrees, p), (family, q, p)
            order = _ORDER[family](q)
            for d in rec.degrees:
                assert order % d == 0 and d * d < order, (family, q, p, d)
        assert kinds == {
            ("PSL2", "defining", "semisimple:split-torus", "semisimple:nonsplit-torus"),
            ("PSL2", "defining-p5-mixed-exponent", "semisimple:order-6-eigenvalues",
             "semisimple:subfield-torus"),
            ("PSL2", "defining-p5-tower", "semisimple:order-6-eigenvalues",
             "half-discrete-series"),
            ("PSL2", "nondefining-generic", "semisimple:split-torus",
             "semisimple:nonsplit-torus"),
            ("PSL2", "nondefining-p-divides-q-minus-1", "steinberg", "semisimple:split-torus"),
            ("PSL2", "nondefining-p-divides-q-plus-1", "steinberg", "semisimple:nonsplit-torus"),
            ("PSL2", "nondefining-small-field", "steinberg", "half-discrete-series"),
            ("PSL2", "nondefining-small-field", "steinberg", "semisimple:order-3-eigenvalues"),
            ("PSL2", "nondefining-small-field", "steinberg", "semisimple:subfield-torus"),
            ("PSL2", "nondefining-small-q", "steinberg", "semisimple:nonsplit-torus"),
            ("PSL3", "defining", "semisimple:split-torus", "semisimple:nonsplit-torus"),
            ("PSL3", "nondefining-semisimple", "steinberg", "semisimple:nonsplit-torus"),
            ("PSL3", "nondefining-unipotent", "steinberg", "unipotent-subregular"),
            ("PSU3", "defining", "semisimple:split-torus", "semisimple:nonsplit-torus"),
            ("PSU3", "nondefining-semisimple", "steinberg", "semisimple:nonsplit-torus"),
            ("PSU3", "nondefining-unipotent", "steinberg", "unipotent-subregular"),
            ("PSp4", "defining", "principal-series", "discrete-series"),
            ("G2", "defining", "unique-degree", "unique-degree"),
            ("F4", "defining", "unique-degree", "unique-degree"),
            ("TriD4", "defining", "unique-degree", "unique-degree"),
            ("Suzuki", "p-divides-q2-minus-1", "steinberg", "torus-series"),
            ("Ree2G2", "p-divides-q2-minus-1", "steinberg", "cuspidal-unique-degree"),
        }
