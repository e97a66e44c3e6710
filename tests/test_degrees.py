"""Character degrees: hook-length formula values, valuations, and the
agreement of the abacus p'-test with the valuation oracle."""

from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcd.degrees import (
    binomial_coprime_lucas,
    degree,
    degree_valuation,
    factorial_valuation,
    hook_degree,
    int_valuation,
    is_pprime_macdonald,
)
from ppcd.hooks import pprime_hook_xs, quasihook
from ppcd.partitions import Partition, conjugate, enumerate_partitions, is_self_conjugate

from test_partitions import partitions

PRIMES = (5, 7, 11, 13)


class TestDegree:
    def test_examples(self):
        assert degree(Partition([9])) == 1
        assert degree(Partition([2, 1])) == 2
        assert degree(Partition([3, 1, 1])) == 6

    def test_conjugation_symmetry(self):
        for n in range(1, 17):
            for lam in enumerate_partitions(n):
                assert degree(lam) == degree(conjugate(lam))

    def test_sum_of_squares_is_factorial(self):
        for n in range(11):
            total = sum(degree(lam) ** 2 for lam in enumerate_partitions(n))
            assert total == factorial(n)

    def test_hook_degree_examples(self):
        assert hook_degree(9, 0) == 1
        assert hook_degree(7, 2) == 15
        assert hook_degree(5, 1) == 4

    def test_hook_degree_matches_diagram(self):
        for n in range(1, 61):
            for x in range(n):
                lam = Partition([n - x] + [1] * x)
                assert hook_degree(n, x) == degree(lam)

    def test_hook_degree_range(self):
        with pytest.raises(ValueError):
            hook_degree(5, 5)
        with pytest.raises(ValueError):
            hook_degree(5, -1)


class TestValuations:
    def test_int_valuation(self):
        assert int_valuation(48, 2) == 4
        assert int_valuation(7, 2) == 0
        with pytest.raises(ValueError):
            int_valuation(0, 2)
        with pytest.raises(ValueError, match=r"^valuation needs a positive integer, got True$"):
            int_valuation(True, 2)

    def test_factorial_valuation_against_factorial(self):
        for n in (0, 1, 5, 24, 25, 100):
            for p in PRIMES:
                assert factorial_valuation(n, p) == int_valuation(factorial(n), p)
        assert factorial_valuation(25, 5) == 6
        assert factorial_valuation(13, 13) == 1

    def test_degree_valuation_examples(self):
        assert degree_valuation(Partition([9]), 5) == 0
        assert degree_valuation(Partition([3, 1, 1]), 5) == 0
        assert degree_valuation(Partition([5, 2]), 5) == 0
        assert degree_valuation(Partition([2, 2, 1]), 5) == 1

    def test_degree_valuation_is_exact(self):
        for n in range(1, 15):
            for lam in enumerate_partitions(n):
                for p in PRIMES:
                    assert degree_valuation(lam, p) == int_valuation(degree(lam), p)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            degree_valuation(Partition([2, 1]), 4)


class TestPPrimeTests:
    def test_examples(self):
        for op in (is_pprime_macdonald, lambda lam, p: degree_valuation(lam, p) == 0):
            assert op(Partition([4, 1]), 5) is True
            assert op(Partition([3, 1, 1]), 5) is True
            assert op(Partition([2, 2, 1]), 5) is False

    def test_oracle_equivalence_exhaustive(self):
        for n in range(0, 17):
            for lam in enumerate_partitions(n):
                for p in PRIMES:
                    assert is_pprime_macdonald(lam, p) == (degree_valuation(lam, p) == 0)

    @given(partitions(max_n=30), st.sampled_from(PRIMES))
    @settings(max_examples=250, deadline=None)
    def test_oracle_equivalence_sampled(self, lam, p):
        assert is_pprime_macdonald(lam, p) == (degree_valuation(lam, p) == 0)

    def test_small_n_always_pprime(self):
        for lam in enumerate_partitions(4):
            assert is_pprime_macdonald(lam, 5)


class TestAbacusPPrimeTest:
    """The abacus form of Macdonald's test against the valuation oracle."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 29, 31])
    def test_every_partition_up_to_30(self, p):
        # p <= 3 runs many levels; for p > 30 and n < p there is no p^j <= n to check
        for n in range(0, 31):
            for lam in enumerate_partitions(n):
                assert is_pprime_macdonald(lam, p) == (degree_valuation(lam, p) == 0), (lam, p)

    @given(partitions(max_n=80), st.sampled_from((2, 3, 5, 7, 11, 13, 29, 31, 79)))
    @settings(max_examples=300, deadline=None)
    def test_sampled_up_to_80(self, lam, p):
        assert is_pprime_macdonald(lam, p) == (degree_valuation(lam, p) == 0)

    @pytest.mark.parametrize("p", PRIMES)
    def test_quasihooks_of_the_constructive_grid(self, p):
        # every (n-c-t, c, 1^t) that verify-an visits above its scan bound
        for n in range(7, 101):
            for c in (2, 3):
                for t in range(n - 2 * c + 1):
                    lam = quasihook(n, c, t)
                    assert is_pprime_macdonald(lam, p) == (degree_valuation(lam, p) == 0), (lam, p)


class TestLucas:
    def test_agrees_with_binomial(self):
        for n in range(0, 80):
            for k in range(n + 1):
                for p in (5, 7):
                    assert binomial_coprime_lucas(n, k, p) == (comb(n, k) % p != 0)

    def test_k_above_n(self):
        assert binomial_coprime_lucas(3, 5, 5) is False

    def test_agrees_with_valuation_oracle_full_range(self):
        # digit comparison against the diagram-based valuation oracle
        for p in PRIMES:
            for n in range(1, 61):
                for x in range(n):
                    lam = Partition([n - x] + [1] * x)
                    assert binomial_coprime_lucas(n - 1, x, p) == (degree_valuation(lam, p) == 0)

    def test_agrees_with_kummer_filter_large(self):
        for p in PRIMES:
            for n in range(1, 2001, 13):
                xs = set(pprime_hook_xs(n, p))
                for x in range(n):
                    assert binomial_coprime_lucas(n - 1, x, p) == (x in xs)


class TestHalfRangeInjectivity:
    def test_binomials_strictly_increase(self):
        for n in range(2, 201):
            values = [comb(n - 1, x) for x in range(0, (n - 1) // 2 + 1)]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert len(set(values)) == len(values)


class TestAnDegrees:
    def test_examples(self):
        # A_5: (4,1) stays irreducible; (3,1,1) splits as 3 + 3.
        # A_6: (3,2,1) splits as 8 + 8.
        assert not is_self_conjugate(Partition([4, 1]))
        assert degree(Partition([4, 1])) == 4
        assert is_self_conjugate(Partition([3, 1, 1]))
        assert degree(Partition([3, 1, 1])) == 2 * 3
        assert is_self_conjugate(Partition([3, 2, 1]))
        assert degree(Partition([3, 2, 1])) == 2 * 8

    def test_self_conjugate_degrees_are_even(self):
        # a self-conjugate lam (n >= 2) restricts to A_n as two
        # constituents of equal degree, so degree(lam) is even; with
        # criterion 5 this gives sum of squares n!/2 over A_n
        for n in range(2, 13):
            for lam in enumerate_partitions(n):
                if is_self_conjugate(lam):
                    assert degree(lam) % 2 == 0, lam
