"""p'-hook sets, quasihook families, and the A_n degree-set bound."""

import copy
import gc
import json
import re
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate
from math import comb, factorial, gcd, prod

import pytest

from ppcd import cli, lie
from ppcd import hooks as hooks_mod
from ppcd import partitions as partitions_mod
from ppcd.degrees import degree, degree_valuation, factorial_valuation, is_pprime_macdonald
from ppcd.hooks import (
    DEFAULT_SCAN_BOUND,
    _an_bound_case,
    _core_degrees,
    _layered_first_parts,
    _quasihook_degrees,
    _quasihook_witnesses,
    _short_legs,
    count_pprime_hooks_formula,
    count_pprime_partitions_formula,
    ext_pprime_degree_set,
    filter_ext_degree_sets,
    list_pprime_hooks,
    pprime_hook_xs,
    quasihook,
    quasihook_monotone,
    scan_ext_degree_sets,
    verify_An_bound,
    hook_count_row,
)
from ppcd.partitions import (
    Partition,
    _abacus,
    _abacus_slides,
    _hook_lengths,
    _multipartitions,
    _partition_tuples,
    _pprime_pair_cores,
    _pprime_tuples,
    _QuotientTree,
    _slide,
    _top_term,
    conjugate,
    enumerate_partitions,
    hook_partition,
    is_prime,
    is_self_conjugate,
    p_adic_expansion,
)

PRIMES = (5, 7, 11, 13)


def _closed_form_pair(n, r):
    """deg (n-2, 2) and deg (n-3, 2, 1) for r = 1; deg (n-3, 3) and
    deg (n-4, 3, 1) for r = 2."""
    if r == 1:
        return n * (n - 3) // 2, n * (n - 2) * (n - 4) // 3
    return n * (n - 1) * (n - 5) // 6, n * (n - 1) * (n - 3) * (n - 6) // 8


class _NullOut:
    """A stdout that drops what is written."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _digit_sums_oracle(limit, p):
    """The digit-sum recurrence s[i] = s[i // p] + i % p, one entry at a time."""
    s = [0] * (limit + 1)
    for i in range(1, limit + 1):
        s[i] = s[i // p] + i % p
    return s


def _pprime_hook_xs_oracle(n, p, sums):
    """The Kummer test on every x in range(n), with no use of its symmetry."""
    r = n - 1
    return [x for x in range(n) if sums[x] + sums[r - x] == sums[r]]


def _witnesses(n, p, c):
    """``_quasihook_witnesses`` on the row tables V[m] = v_p(m) and
    L[m] = v_p(m!), m <= n, that ``ext_pprime_degree_set`` builds."""
    V = hooks_mod._valuation_table(n, p)
    return _quasihook_witnesses(n, V, list(accumulate(V)), c)


def _layered_hooks(n, p):
    """The layered p'-hook set as partitions, by increasing leg length."""
    return [hook_partition(n, n - m) for m in reversed(_layered_first_parts(n, p))]


class TestHookFilter:
    def test_examples(self):
        assert pprime_hook_xs(6, 5) == [0, 5]
        assert pprime_hook_xs(7, 5) == [0, 1, 5, 6]
        assert pprime_hook_xs(25, 5) == list(range(25))

    def test_filter_is_the_binomial_condition(self):
        from math import comb

        for n in range(1, 70):
            for p in (5, 7):
                expected = [x for x in range(n) if comb(n - 1, x) % p]
                assert pprime_hook_xs(n, p) == expected

    def test_list_matches_xs(self):
        hooks = list_pprime_hooks(7, 5)
        assert [lam.parts for lam in hooks] == [
            (7,),
            (6, 1),
            (2, 1, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 1, 1),
        ]

    def test_oracle_agreement(self):
        for n in range(1, 40):
            for p in PRIMES:
                chosen = {lam.parts for lam in list_pprime_hooks(n, p)}
                for x in range(n):
                    lam = Partition([n - x] + [1] * x)
                    assert (lam.parts in chosen) == (degree_valuation(lam, p) == 0)

    def test_conjugation_closed_and_selfconjugate_parity(self):
        for n in range(1, 201):
            for p in PRIMES:
                xs = pprime_hook_xs(n, p)
                assert sorted(n - 1 - x for x in xs) == xs
                count = len(xs)
                has_selfconj = n % 2 == 1 and (n - 1) // 2 in xs
                assert has_selfconj == (count % 2 == 1)


ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 2003)


class TestFilterOracle:
    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_digit_sums_at_powers(self, p):
        # L, the running sum of the v_p table that the filter reads, is
        # v_p(m!) for every m, so by Legendre m - (p - 1) L[m] is the
        # base-p digit sum of m
        limit_max = 30_000
        oracle = [factorial_valuation(m, p) for m in range(limit_max + 1)]
        sums = _digit_sums_oracle(limit_max, p)
        limits = {0, 1, 2, limit_max}
        power = 1
        while power <= limit_max:
            limits.update((power - 1, power, power + 1))
            power *= p
        for limit in sorted(limits):
            L = list(accumulate(hooks_mod._valuation_table(limit, p)))
            assert L == oracle[:limit + 1], limit
            assert [m - (p - 1) * v for m, v in enumerate(L)] == sums[:limit + 1], limit

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_filter_matches_full_range(self, p):
        sums = _digit_sums_oracle(1999, p)
        for n in range(1, 2001):
            assert pprime_hook_xs(n, p) == _pprime_hook_xs_oracle(n, p, sums), n


class TestCountFormula:
    def test_examples(self):
        assert count_pprime_hooks_formula(7, 5) == 4
        assert count_pprime_hooks_formula(6, 5) == 2
        for k in (1, 2, 3):
            assert count_pprime_hooks_formula(5**k, 5) == 5**k

    def test_three_way_agreement_small(self):
        for p in PRIMES:
            for n in range(1, 301):
                row = hook_count_row(n, p)
                assert row["ok"], row

    def test_single_row_matches_grid(self):
        assert hook_count_row(7, 5) == {"n": 7, "p": 5, "formula": 4, "filtered": 4,
                                        "layered": 4, "ok": True}

    def test_single_row_checks_n_before_p(self):
        with pytest.raises(ValueError, match="expected n >= 1, got 0"):
            hook_count_row(0, 4)
        with pytest.raises(ValueError, match="expected a prime, got 4"):
            hook_count_row(7, 4)

    def test_layered_examples(self):
        assert [lam.parts for lam in _layered_hooks(6, 5)] == [(6,), (1,) * 6]
        assert len(_layered_hooks(5, 5)) == 5
        for n in (7, 26, 31, 50, 99):
            for p in (2, 3, 5, 7):
                assert _layered_hooks(n, p) == list_pprime_hooks(n, p), (n, p)

    def test_layered_members_are_pprime(self):
        for n in (7, 26, 31, 50, 99):
            for p in (5, 7):
                for lam in _layered_hooks(n, p):
                    assert is_pprime_macdonald(lam, p)

    def test_count_keeps_nothing_across_calls(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _NullOut())
        assert cli.main(["count", "--n", "19000", "--p", "5"]) == 0
        gc.collect()
        tracemalloc.start()
        try:
            for n in range(19000, 20000, 25):
                assert cli.main(["count", "--n", str(n), "--p", "5"]) == 0
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 100_000

    def test_hooks_memory_is_one_row(self, monkeypatch):
        # 3 750 hooks and ~28 MB of output, written row by row
        monkeypatch.setattr(sys, "stdout", _NullOut())
        assert cli.main(["hooks", "--n", "7", "--p", "5"]) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.main(["hooks", "--n", "5000", "--p", "5"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestQuasihooks:
    def test_construction(self):
        assert quasihook(13, 2, 0) == Partition([11, 2])
        assert quasihook(8, 3, 1) == Partition([4, 3, 1])
        assert quasihook(10, 2, 6) == Partition([2, 2, 1, 1, 1, 1, 1, 1])

    def test_rejects_other_second_rows(self):
        with pytest.raises(ValueError):
            quasihook(13, 5, 2)
        with pytest.raises(ValueError):
            quasihook(13, 1, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quasihook(5, 2, 0)
        with pytest.raises(ValueError):
            quasihook(10, 2, 7)

    def test_monotone_examples(self):
        assert quasihook_monotone(13, 2, 0) is True
        assert quasihook_monotone(12, 3, 1) is True

    def test_monotone_range_enforced(self):
        with pytest.raises(ValueError):
            quasihook_monotone(13, 2, 4)

    def test_monotone_over_full_range(self):
        for n in range(6, 81):
            for c in (2, 3):
                if n < 4 + c:
                    continue
                for t in range(0, (n - 4 - c) // 2 + 1):
                    assert quasihook_monotone(n, c, t)

    def test_wider_second_row_breaks_monotonicity(self):
        # the same construction with second row 5 fails: leg growth from
        # t = 2 to t = 3 at n = 13 strictly lowers the degree
        earlier = degree(Partition([6, 5, 1, 1]))
        later = degree(Partition([5, 5, 1, 1, 1]))
        assert earlier == 5720 and later == 5005
        assert not earlier < later


def _quasihook_witnesses_oracle(n, p, c, need=None):
    """The Partition loop that ``_quasihook_witnesses`` replaces: build
    each quasihook, run Macdonald's test and conjugate it, take its
    degree from the hook lengths."""
    out = set()
    for t in range(0, n - 2 * c + 1):
        lam = quasihook(n, c, t)
        if is_pprime_macdonald(lam, p) and not is_self_conjugate(lam):
            out.add(degree(lam))
            if len(out) == need:
                break
    return out


class TestQuasihookWitnesses:
    """The closed form (Legendre sums, no partition) against the loop."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_an_certified_grid(self, p):
        for n in range(7, 101):
            for c in (2, 3):
                assert _witnesses(n, p, c) == _quasihook_witnesses_oracle(n, p, c)

    @pytest.mark.parametrize("p", [2, 3, 17])
    def test_constructive_sets(self, p, monkeypatch):
        # the set's own call, on its row tables, swapped for the loop:
        # c = 2 from n = 6 and c = 3 from n = 7, so 55 + 54 calls
        closed = [ext_pprime_degree_set(n, p, bound=0) for n in range(1, 61)]
        calls = Counter()

        def oracle(n, V, L, c):
            calls[c] += 1
            # L = v_p(m!), m <= n, and V its differences v_p(m)
            assert L == list(accumulate(V)) == [factorial_valuation(m, p) for m in range(n + 1)]
            return _quasihook_witnesses_oracle(n, p, c)

        monkeypatch.setattr(hooks_mod, "_quasihook_witnesses", oracle)
        assert closed == [ext_pprime_degree_set(n, p, bound=0) for n in range(1, 61)]
        assert calls == {2: 55, 3: 54}

    def test_self_conjugacy_rule(self):
        for n in range(6, 41):
            for c in (2, 3) if n >= 7 else (2,):
                for t in range(0, n - 2 * c + 1):
                    assert is_self_conjugate(quasihook(n, c, t)) == (c == 2 and n == 2 * t + 4)

    def test_closed_form_degree_per_leg(self):
        # every leg, not only those that pass a p'-test
        for n in range(6, 121):
            for c in (2, 3) if n >= 7 else (2,):
                legs = range(n - 2 * c + 1)
                assert (list(_quasihook_degrees(n, c, legs))
                        == [degree(quasihook(n, c, t)) for t in legs])

    def test_row2_mirror(self):
        # the half range of c = 2 rests on this
        for n in range(6, 61):
            for t in range(n - 3):
                assert conjugate(quasihook(n, 2, t)) == quasihook(n, 2, n - 4 - t)

    def test_inexact_closed_form_raises(self, monkeypatch):
        # upper binomial index off by one: at n = 12, c = 2 the divisor
        # (n - c + 1)(c + t) holds the prime 11, and the leg t = 0, which
        # passes at p = 5, gives 12 * C(10, 0) * C(10, 1) * 9 with no 11
        monkeypatch.setattr(hooks_mod, "comb", lambda m, k: comb(m - 1, k))
        with pytest.raises(ArithmeticError,
                           match=r"^the quasihook \(n, c, t\) = \(12, 2, 0\) gives no "
                                 r"integral degree$"):
            _witnesses(12, 5, 2)


def _one_plus_power_closed_form(m: int) -> set[tuple[int, ...]]:
    """The p'-partitions of m = 1 + p^k: the row (m), the column (1^m)
    and the quasihooks (p^k - t, 2, 1^(t-1)) for t = 1 .. p^k - 2."""
    q = m - 1
    return {(m,), (1,) * m} | {(q - t, 2) + (1,) * (t - 1) for t in range(1, q - 1)}


class TestSmallPartitionList:
    """The p-core-tower generator at m = 1 + p^k, whose p'-partitions
    are the two trivial hooks and the c = 2 quasihooks."""

    def test_example_m6(self):
        got = set(_pprime_tuples(6, 5))
        assert got == {(6,), (4, 2), (3, 2, 1), (2, 2, 1, 1), (1,) * 6}

    @pytest.mark.parametrize("m,p", [(6, 5), (8, 7), (26, 5), (50, 7)])
    def test_matches_full_scan(self, m, p):
        listed = sorted(_pprime_tuples(m, p), reverse=True)
        scanned = [lam.parts for lam in enumerate_partitions(m) if is_pprime_macdonald(lam, p)]
        assert listed == scanned
        assert set(listed) == _one_plus_power_closed_form(m)

    @pytest.mark.parametrize("m,p", [(3, 2), (5, 2), (9, 2), (17, 2), (4, 3), (10, 3),
                                     (28, 3), (6, 5), (26, 5), (126, 5), (8, 7), (50, 7),
                                     (12, 11)])
    def test_closed_form(self, m, p):
        listed = list(_pprime_tuples(m, p))
        assert len(listed) == len(set(listed))
        assert set(listed) == _one_plus_power_closed_form(m)

    def test_m26_shape(self):
        listed = list(_pprime_tuples(26, 5))
        assert len(listed) == 25  # t = 1..23 plus row and column

    def test_other_shapes_differ(self):
        # the closed form is special to m = 1 + p^k: 7 = 2 + 5, and every
        # partition of 6 < 7 has 7'-degree
        assert set(_pprime_tuples(7, 5)) != _one_plus_power_closed_form(7)
        assert len(set(_pprime_tuples(6, 7))) == 11 != len(_one_plus_power_closed_form(6))


class TestExtDegreeSet:
    def test_examples(self):
        assert ext_pprime_degree_set(5, 5) == {1, 4}
        seven = ext_pprime_degree_set(7, 5)
        assert 1 in seven and len(seven) >= 3
        eight = ext_pprime_degree_set(8, 7)
        assert 1 in eight and len(eight) >= 3

    def test_exact_mode_is_full_scan(self):
        for n in (6, 9, 12):
            for p in (5, 7):
                expected = set()
                for lam in enumerate_partitions(n):
                    if not is_self_conjugate(lam) and degree_valuation(lam, p) == 0:
                        expected.add(degree(lam))
                assert ext_pprime_degree_set(n, p) == expected

    def test_constructive_mode_is_certified_subset(self):
        for n in (18, 25, 31):
            for p in (5, 7):
                exact = ext_pprime_degree_set(n, p, bound=40)
                constructive = ext_pprime_degree_set(n, p, bound=10)
                assert constructive <= exact
                assert len(constructive) >= 3

    @pytest.mark.parametrize("n", range(5, 41))
    def test_generated_sets_match_full_scan(self, n):
        primes = PRIMES + ((2, 3) if n <= 30 else ())
        assert scan_ext_degree_sets(n, primes) == filter_ext_degree_sets(n, primes)

    def test_inexact_bead_move_ratio_raises(self, monkeypatch):
        # every degree of S_10 divides 10!, so none is divisible by the
        # prime 11, and no degree can come out of a ratio with 11 below
        real = hooks_mod._bead_moves

        def mutated(mu, e, a, moves):
            xs, ys, nums, dens = real(mu, e, a, moves)
            return xs, ys, nums, [11 * den for den in dens]

        monkeypatch.setattr(hooks_mod, "_bead_moves", mutated)
        with pytest.raises(ArithmeticError,
                           match=r"^bead moves .* on the 5-core .* give no integral degree "
                                 r"for n = 10$"):
            scan_ext_degree_sets(10, (5,))

    def test_batched_scan_matches_single(self):
        sets = scan_ext_degree_sets(12, PRIMES)
        for p in PRIMES:
            assert sets[p] == ext_pprime_degree_set(12, p)

    def test_default_bound_is_exact_up_to_40(self):
        assert DEFAULT_SCAN_BOUND == 40
        assert ext_pprime_degree_set(40, 5) == scan_ext_degree_sets(40, (5,))[5]

    def test_default_bound_is_constructive_above_40(self):
        assert ext_pprime_degree_set(41, 5) == ext_pprime_degree_set(41, 5, bound=0)


def _bead_moves_by_products(mu, e, a, moves):
    """The per-position oracle for ``hooks._bead_moves``: Q(z)/z! as a
    product over mu's beads, with the padding factorials, for every x and
    every y of ``moves``, in lowest terms."""
    beta, runners = _abacus(mu, e, a)
    core = beta[: len(mu)]
    m = len(beta) - len(mu)

    def q_over_factorial(z: int) -> tuple[int, int]:
        c = prod(abs(z - b) for b in core if b != z)
        return (c, factorial(z - m)) if z >= m else (c * factorial(m - 1 - z), 1)

    xs: list[int] = []
    ys: list[int] = []
    nums: list[int] = []
    dens: list[int] = []
    bead = None
    for i, j, v in moves:
        if bead != (i, j):
            bead = i, j
            x = beta[runners[i][j]]
            x_num, x_den = q_over_factorial(x)
        y = x + e * v
        y_num, y_den = q_over_factorial(y)
        num, den = y_num * x_den, x_num * y_den * e * v
        g = gcd(num, den)
        xs.append(x)
        ys.append(y)
        nums.append(num // g)
        dens.append(den // g)
    return xs, ys, nums, dens


class TestCoreDegrees:
    """``_core_degrees`` against n! over the hook product of each
    partition ``_abacus_slides`` builds on the same core, quotient by
    quotient, for every p'-core of every n; below p the core is empty and
    each quotient is the partition itself."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_hook_product(self, p):
        for n in range(1, 46):
            fact = factorial(n)
            if n < p:
                every = list(_partition_tuples(n))
                assert list(_core_degrees(fact, (), 1, n, every)) == [
                    fact // prod(_hook_lengths(lam)) for lam in every], (n, p)
                continue
            e, a, r = _top_term(n, p)
            quotients = _multipartitions(e, a)[0]
            for mu in _pprime_tuples(r, p):
                expected = [fact // prod(_hook_lengths(lam)) for lam in _abacus_slides(mu, e, a)]
                assert list(_core_degrees(fact, mu, e, a, quotients)) == expected, (n, p, mu)

    def test_bead_moves_match_per_position_products(self):
        # the table of Q(z)/z! gives every ratio the per-position product
        # gives, on every core above p of n <= 60; the table's ratios are
        # not reduced, so each is compared as a rational
        cores = 0
        for n in range(1, 61):
            for p in PRIMES:
                for mu, e, a, quotients in _pprime_pair_cores(n, p):
                    if e == 1:
                        continue
                    cores += 1
                    xs, ys, nums, dens = hooks_mod._bead_moves(mu, e, a, quotients.moves)
                    xs2, ys2, nums2, dens2 = _bead_moves_by_products(mu, e, a, quotients.moves)
                    assert (xs, ys) == (xs2, ys2), (n, p, mu)
                    assert len(nums) == len(dens) == len(nums2) == len(dens2), (n, p, mu)
                    assert all(den and den2 and num * den2 == num2 * den for num, den, num2, den2
                               in zip(nums, dens, nums2, dens2)), (n, p, mu)
        assert cores == 2754

    def test_every_prefix_is_a_degree(self):
        # each node of a tree, not only each leaf, is n!/|lam_t|! times
        # deg lam_t, lam_t the partition its prefix of moves slides to:
        # the per-node division in _core_degrees is exact
        nodes = 0
        for p in (2, 3, 5, 7):
            for n in range(p, 31):
                fact = factorial(n)
                for mu, e, a, tree in _pprime_pair_cores(n, p):
                    prefixes = [()] + [above + (m,) for m, above in zip(tree.move, tree.above)]
                    beta, runners = _abacus(mu, e, a)
                    expected = []
                    for prefix in prefixes:
                        lam = _slide(beta, runners, e, map(tree.moves.__getitem__, prefix))
                        size = sum(lam)
                        deg_lam = factorial(size) // prod(_hook_lengths(lam))
                        expected.append(fact // factorial(size) * deg_lam)
                    every = _QuotientTree(tree.moves, prefixes)
                    assert list(_core_degrees(fact, mu, e, a, every)) == expected, (n, p, mu)
                    nodes += len(prefixes)
        assert nodes == 11417

    def test_an_exact_work_counts(self, monkeypatch):
        """The work of the scan on the rows of ``verify-an --n-max 40
        --primes 5,7,11,13``, read off what ``_pprime_pair_cores`` hands
        out: 62 985 tree leaves on 782 cores above p and 166 quotients
        below p, one for each of the 63 151 degrees, and at most 78 364
        nodes, each one move ratio, with 118 646 pair factors.  The flat
        walk before the tree took 161 982 move factors and 167 793 pair
        factors: every move and every pair of each quotient.  The move
        ratios read one ``_q_table`` per core, at most 47 755 entries in
        all, built by at most 2 186 passes over mu's beads; before the
        tables, ``_bead_moves`` took 37 165 per-position products over
        mu's beads, for 32 238 distinct positions."""
        real = hooks_mod._q_table
        tables = entries = passes = 0

        def counted(core, m, size):
            nonlocal tables, entries, passes
            nums, dens = real(core, m, size)
            tables += 1
            entries += len(nums)
            passes += len(core)
            return nums, dens

        monkeypatch.setattr(hooks_mod, "_q_table", counted)
        cores = leaves = below = nodes = pairs = 0
        for n in range(7, 41):
            for p in PRIMES:
                for mu, e, a, quotients in _pprime_pair_cores(n, p):
                    if e == 1:
                        below += sum(1 for _ in quotients)
                        continue
                    cores += 1
                    leaves += len(quotients.leaves)
                    nodes += len(quotients.move)
                    pairs += sum(map(len, quotients.above))
                    hooks_mod._bead_moves(mu, e, a, quotients.moves)
        assert (cores, leaves, below) == (782, 62985, 166)
        assert nodes <= 78364 and pairs <= 118646
        assert tables == cores
        assert entries <= 47755 and passes <= 2186

    def test_one_runner_inexact_raises(self):
        # below p the degree is n! Delta(X) / prod x! on lam's own beta
        # set; 5! over the (6,) row's 6! leaves a remainder
        with pytest.raises(ArithmeticError,
                           match=r"^the beta set \(6,\) gives no integral degree for n = 5$"):
            list(_core_degrees(factorial(5), (), 1, 5, [(6,)]))


class TestAnBound:
    @pytest.mark.parametrize(
        "n,p,family",
        [
            (7, 5, "quasihook-row3"),  # 2 + 5: row-3 quasihooks (4,3), (3,3,1)
            (26, 5, "quasihook-row2"),  # 1 + 5^2
            (11, 5, "quasihook-row2"),  # 1 + 2*5
            (21, 5, "quasihook-row2"),  # 1 + 4*5
            (27, 5, "quasihook-row3"),  # 2 + 5^2
            (9, 7, "quasihook-row3"),  # 2 + 7
            (31, 5, "quasihook-row2"),  # 1 + 5 + 5^2
            (57, 7, "quasihook-row2"),  # 1 + 7 + 7^2
            (10, 5, "hook-degrees"),
        ],
    )
    def test_special_shapes(self, n, p, family):
        # the non-hook witnesses are the quasihooks of legs 0 and 1 with
        # second row c, at n = c - 1 (mod p)
        result = verify_An_bound(n, p)
        assert result.ok and 1 in result.witnesses
        if family == "hook-degrees":
            assert result.method == family
        else:
            c = int(family[-1])
            assert result.method == f"{c - 1}-mod-p"
            assert result.witnesses == (1, *_quasihook_degrees(n, c, (0, 1)))

    def test_witnesses_are_extendable_degrees(self):
        for n, p in ((7, 5), (10, 5), (26, 5), (27, 5), (31, 5), (14, 13)):
            result = verify_An_bound(n, p)
            exact = ext_pprime_degree_set(n, p, bound=60)
            assert set(result.witnesses) <= exact

    def test_grid(self):
        for n in range(7, 61):
            for p in PRIMES:
                assert verify_An_bound(n, p).ok

    def test_every_case_is_handled(self):
        # the lemma of _an_bound_case, checked without computing a
        # degree: no (n, p) falls outside the three cases
        seen = {_an_bound_case(n, p)
                for p in range(5, 98) if is_prime(p)
                for n in range(7, 2000)}
        assert seen == {"hook-degrees", "1-mod-p", "2-mod-p"}

    def test_non_hook_cases_are_1_or_2_mod_p(self):
        # the lemma of the case split: with fewer than 6 p'-hooks,
        # n = 1 or 2 (mod p)
        for p in range(5, 98):
            if is_prime(p):
                for n in range(7, 10001):
                    if _an_bound_case(n, p) != "hook-degrees":
                        assert n % p in (1, 2), (n, p)

    def test_lemma_by_digits(self):
        # fewer than 6 p'-hooks force n = 1 or 2 (mod p), for n <= 10^5:
        # the hook count a_1 p^{n_1} prod_{j >= 2} (a_j + 1) of every n at
        # once, a power of p at a time, with no degree and no per-n call.
        # Below p^(k+1), d p^k + j (0 < j < p^k) has count (d + 1) C[j],
        # and d p^k has count d p^k.
        limit = 10**5
        for p in range(5, 98):
            if not is_prime(p):
                continue
            counts, step = list(range(min(p, limit + 1))), p
            while len(counts) <= limit:
                counts = [(d + 1) * c for d in range(min(p, limit // step + 1))
                          for c in counts]
                counts[::step] = range(0, len(counts), step)
                step *= p
            del counts[limit + 1:]
            assert counts[::997] == [count_pprime_hooks_formula(n, p) if n else 0
                                     for n in range(0, limit + 1, 997)]
            assert [n for n, c in enumerate(counts)
                    if c < 6 and n >= 7 and n % p not in (1, 2)] == [], p

    def test_hook_case_is_six_or_more_hooks(self):
        # the case test on the legs read off n - 1 against the count
        for p in range(5, 98):
            if is_prime(p):
                for n in range(7, 10001):
                    assert ((_an_bound_case(n, p) == "hook-degrees")
                            == (count_pprime_hooks_formula(n, p) >= 6)), (n, p)

    def test_short_legs_are_the_filters_next_two(self):
        for p in (5, 7, 11, 13):
            for n in range(2, 1001):
                assert _short_legs(n, p) == tuple(pprime_hook_xs(n, p)[1:3]), (n, p)

    def test_guard_names_n_and_p(self, monkeypatch):
        # force the non-hook branch at n = 3 (mod 5): with x1 = n - 1 as
        # the only short leg the lemma's guard raises
        monkeypatch.setattr(hooks_mod, "_short_legs", lambda n, p: (n - 1,))
        with pytest.raises(AssertionError,
                           match=r"^n = 8 has p'-hook count below 6 for p = 5 "
                                 r"but is 3 mod 5, not 1 or 2$"):
            verify_An_bound(8, 5)

    def test_closed_forms_are_partition_degrees(self):
        # the witness source of the non-hook cases, legs 0 and 1 of the
        # quasihooks with second row r + 1, against the closed forms
        for n in range(7, 5000):
            for r in (1, 2):
                assert tuple(_quasihook_degrees(n, r + 1, (0, 1))) == _closed_form_pair(n, r)
        for n in range(7, 201):
            assert _closed_form_pair(n, 1) == (degree(Partition([n - 2, 2])),
                                               degree(Partition([n - 3, 2, 1])))
            assert _closed_form_pair(n, 2) == (degree(Partition([n - 3, 3])),
                                               degree(Partition([n - 4, 3, 1])))

    def test_closed_forms_are_quasihook_witnesses(self):
        # at every non-hook pair the closed forms are p'-degree quasihook
        # degrees, the ones the constructive set also holds
        seen = 0
        for p in range(5, 32):
            if not is_prime(p):
                continue
            for n in range(7, 3001):
                if _an_bound_case(n, p) == "hook-degrees":
                    continue
                r = n % p
                pair = _closed_form_pair(n, r)
                assert all(d % p for d in pair), (n, p)
                assert set(pair) <= _witnesses(n, p, r + 1), (n, p)
                assert verify_An_bound(n, p).witnesses == (1, *pair)
                seen += 1
        assert seen == 132

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_An_bound(6, 5)
        with pytest.raises(ValueError):
            verify_An_bound(10, 3)
        with pytest.raises(ValueError):
            verify_An_bound(10, 6)

    @pytest.mark.parametrize("argv, pairs", [
        (["verify-an", "--n-max", "100", "--exact-bound", "0"], 94 * 4),
        (["verify-an", "--n-max", "30", "--primes", "5,7"], 24 * 2),
    ])
    def test_verify_an_filters_hooks_once_per_pair(self, monkeypatch, argv, pairs):
        # the hook filter runs once per pair, for the row's count:
        # verify_An_bound reads its legs off the digits of n - 1 and the
        # extendable set filters its own table, and each pair takes its
        # set from one call, below the exact bound and above it
        calls = Counter()
        set_calls = Counter()
        real = hooks_mod.pprime_hook_xs
        real_set = hooks_mod.ext_pprime_degree_set

        def counted(n, p):
            calls[n, p] += 1
            return real(n, p)

        def counted_set(n, p, **kwargs):
            set_calls[n, p] += 1
            return real_set(n, p, **kwargs)

        monkeypatch.setattr(hooks_mod, "pprime_hook_xs", counted)
        monkeypatch.setattr(hooks_mod, "ext_pprime_degree_set", counted_set)
        monkeypatch.setattr(sys, "stdout", _NullOut())
        assert cli.main(argv) == 0
        assert len(calls) == pairs and set(calls.values()) == {1}
        assert set_calls == calls

    def test_verify_an_counts_hooks_once_per_pair(self, monkeypatch):
        # the row's count is the only call: the case test reads the legs
        calls = Counter()
        real = hooks_mod.count_pprime_hooks_formula

        def counted(n, p):
            calls[n, p] += 1
            return real(n, p)

        monkeypatch.setattr(hooks_mod, "count_pprime_hooks_formula", counted)
        monkeypatch.setattr(sys, "stdout", _NullOut())
        assert cli.main(["verify-an", "--n-max", "60", "--exact-bound", "0"]) == 0
        assert len(calls) == 54 * 4 and set(calls.values()) == {1}

    def test_an_certified_work_counts(self, monkeypatch):
        """The quasihook and leg work of the ``an-certified`` argv
        ``verify-an --n-max 100 --primes 5,7,11,13 --exact-bound 0``, 94 * 4
        pairs on the constructive path: at most 11 068 degrees from
        ``_quasihook_degrees`` over at most 780 calls, and at most 752 runs
        of ``_lower_legs``, two a pair (the row's hook count and the
        extendable set's hook degrees).  Both names are looked up in
        ``hooks`` by its own functions, so the wrappers sit there."""
        calls = degrees = legs = 0
        real_degrees = hooks_mod._quasihook_degrees
        real_legs = hooks_mod._lower_legs

        def counted_degrees(n, c, leg_list):
            nonlocal calls, degrees
            calls += 1
            for d in real_degrees(n, c, leg_list):
                degrees += 1
                yield d

        def counted_legs(r, L):
            nonlocal legs
            legs += 1
            return real_legs(r, L)

        monkeypatch.setattr(hooks_mod, "_quasihook_degrees", counted_degrees)
        monkeypatch.setattr(hooks_mod, "_lower_legs", counted_legs)
        monkeypatch.setattr(sys, "stdout", _NullOut())
        assert cli.main(["verify-an", "--n-max", "100", "--primes", "5,7,11,13",
                         "--exact-bound", "0"]) == 0
        assert 0 < calls <= 780 and 0 < degrees <= 11068
        assert 0 < legs <= 752

    def test_hook_witnesses_are_the_three_smallest_legs(self):
        # the legs read off the digits of n - 1 are the first three of
        # the filter, at every hook-case pair with n <= 2000 and 5 <= p <= 31
        seen = 0
        for p in range(5, 32):
            if not is_prime(p):
                continue
            for n in range(7, 2001):
                if _an_bound_case(n, p) == "hook-degrees":
                    result = verify_An_bound(n, p)
                    xs = pprime_hook_xs(n, p)[:3]
                    assert result.witnesses == tuple(comb(n - 1, x) for x in xs), (n, p)
                    assert result.ok and result.method == "hook-degrees"
                    seen += 1
        assert seen == 17828

    @pytest.mark.parametrize("p", (5, 7, 11, 13, 31))
    def test_constructive_set_degrees_are_prime_to_p(self, p):
        for n in range(1, 501):
            assert all(d % p for d in ext_pprime_degree_set(n, p, bound=0)), n

    def test_exact_sets_beat_halved_bound(self):
        for n in range(5, 26):
            sets = scan_ext_degree_sets(n, PRIMES)
            for p in PRIMES:
                assert len(sets[p]) >= count_pprime_hooks_formula(n, p) // 2


class TestNegativeControls:
    """Known inputs on which a contract fails, and mutated formulas that
    the enumeration oracles must reject: each check is shown able to fail."""

    def test_a5_at_p2_has_fewer_than_three_degrees(self):
        assert scan_ext_degree_sets(5, (2,))[2] == filter_ext_degree_sets(5, (2,))[2] == {1, 5}

    def test_hook_legs_with_degrees_divisible_by_p_fail(self, monkeypatch):
        # n = 33 is in the hook case, with legs 0, 1 and 2; hook degrees
        # C(32, 3) = 4960 and C(32, 4) = 35960 in place of legs 1 and 2 are
        # multiples of 5, and a repeated degree is no third one
        for wrong, wits in (({1: 4960, 2: 35960}, (1, 4960, 35960)),
                            ({2: 32}, (1, 32, 32))):
            monkeypatch.setattr(hooks_mod, "hook_degree",
                                lambda n, x: wrong.get(x, comb(n - 1, x)))
            result = verify_An_bound(33, 5)
            assert result.method == "hook-degrees" and result.witnesses == wits
            assert not result.ok

    @pytest.mark.parametrize("n, witnesses", [(26, (5, 7)), (27, (1, 7))])
    def test_quasihook_witnesses_meet_the_same_rule(self, monkeypatch, n, witnesses):
        # the 1-mod-p and 2-mod-p cases: a witness divisible by p, or one
        # equal to the trivial degree, fails
        monkeypatch.setattr(hooks_mod, "_quasihook_degrees", lambda n, c, legs: witnesses)
        result = verify_An_bound(n, 5)
        assert result.method == f"{n % 5}-mod-p" and not result.ok

    @pytest.mark.parametrize("n", range(5, 21))
    def test_generated_sets_missing_a_degree_are_caught(self, monkeypatch, n):
        # the oracle comparison fails once the last degree of every core
        # is dropped
        real = hooks_mod._core_degrees
        monkeypatch.setattr(hooks_mod, "_core_degrees", lambda *args: list(real(*args))[:-1])
        assert scan_ext_degree_sets(n, PRIMES) != filter_ext_degree_sets(n, PRIMES)

    @pytest.mark.parametrize("n", range(15, 31))
    def test_walk_without_first_ancestor_is_caught(self, monkeypatch, n):
        # every node of the cached trees leaves out the pair factors with
        # its first ancestor's move: a degree goes wrong or inexact
        real = partitions_mod._multipartitions

        def drop_first_ancestor(tree):
            tree = copy.copy(tree)
            tree.above = tuple(above[1:] for above in tree.above)
            return tree

        def mutated(e, a):
            tree, conj, halves = real(e, a)
            return drop_first_ancestor(tree), conj, drop_first_ancestor(halves)

        monkeypatch.setattr(partitions_mod, "_multipartitions", mutated)
        try:
            generated = scan_ext_degree_sets(n, PRIMES)
        except ArithmeticError:
            return
        assert generated != filter_ext_degree_sets(n, PRIMES)

    def test_inexact_inner_node_is_caught(self, monkeypatch):
        # 11 below move 0 and above every other move cancels on each leaf
        # that takes move 0 with another one, so a check at the leaves
        # alone returns a wrong set; the node of move 0 itself is not
        # integral, and the walk stops there
        real = hooks_mod._bead_moves

        def mutated(mu, e, a, moves):
            xs, ys, nums, dens = real(mu, e, a, moves)
            return (xs, ys, [nums[0]] + [11 * num for num in nums[1:]],
                    [11 * dens[0]] + dens[1:])

        monkeypatch.setattr(hooks_mod, "_bead_moves", mutated)
        with pytest.raises(ArithmeticError,
                           match=r"^bead moves \(\(0, 0, 1\),\) on the 5-core \(\) give no "
                                 r"integral degree for n = 10$"):
            scan_ext_degree_sets(10, (5,))

    def test_constructive_set_without_quasihooks_is_caught(self, monkeypatch, capsys):
        # the hooks alone miss the bound exactly where n has fewer than six
        # p'-hooks; at n = 26 = 1 + 5^2 the two hooks leave the set {1}
        monkeypatch.setattr(hooks_mod, "_quasihook_witnesses", lambda n, V, L, c: set())
        assert cli.main(["verify-an", "--n-max", "31", "--primes", "5",
                         "--exact-bound", "0"]) == 2
        out, err = capsys.readouterr()
        rows = {int(n): (int(found), ok) for n, _, _, _, found, ok in
                (line.split(",") for line in out.splitlines())}
        failing = [n for n, (_, ok) in rows.items() if ok == "false"]
        assert failing == [n for n in range(7, 32) if _an_bound_case(n, 5) != "hook-degrees"]
        assert failing == [7, 11, 16, 21, 26, 27, 31]
        assert rows[26] == (1, "false")
        record = json.loads(err)
        assert record["first"]["n"] == 7 and record["total"] == 7

    @pytest.mark.parametrize("p", PRIMES)
    def test_mutated_hook_count_is_caught(self, p):
        # a_2 + 1 read as a_2 + 2: wrong exactly where n has a second digit
        def mutant(n):
            (a1, e1), *rest = p_adic_expansion(n, p)
            return a1 * p**e1 * prod(a + 1 + (j == 0) for j, (a, _) in enumerate(rest))

        wrong = {n for n in range(1, 201) if mutant(n) != len(pprime_hook_xs(n, p))}
        assert wrong == {n for n in range(1, 201) if len(p_adic_expansion(n, p)) >= 2}
        assert len(wrong) >= 150

    @pytest.mark.parametrize("p", (5, 7))
    def test_mutated_mckay_count_is_caught(self, p):
        # the factor of the lowest digit, k(p^k, a), one too small
        def mutant(n):
            factors = [count_pprime_partitions_formula(a * p**k, p)
                       for a, k in p_adic_expansion(n, p)]
            return (factors[0] - 1) * prod(factors[1:])

        for n in range(1, 31):
            listed = sum(1 for _ in _pprime_tuples(n, p))
            assert count_pprime_partitions_formula(n, p) == listed
            assert mutant(n) != listed, (n, p)


# the first precondition each entry point checks, with its exact message
_PRECONDITIONS = [
    (pprime_hook_xs, (0, 5), "expected n >= 1, got 0"),
    (count_pprime_hooks_formula, (True, 5), "expected n >= 1, got True"),
    (hooks_mod.count_pprime_partitions_formula, (-1, 5), "expected n >= 0, got -1"),
    (quasihook_monotone, (10, 4, 0), "second row must be 2 or 3, got 4"),
    (scan_ext_degree_sets, (0, (5,)), "expected n >= 1, got 0"),
    (filter_ext_degree_sets, (0, (5,)), "expected n >= 1, got 0"),
    (ext_pprime_degree_set, (0, 5), "expected n >= 1, got 0"),
    (verify_An_bound, (7, 3), "expected a prime p > 3, got 3"),
    (lie.exceptional_pair_record, ("Ree2G2", 9, 5),
     "small Ree groups need q^2 = 3^(2m+1) with m >= 1, got 9"),
]


@pytest.mark.parametrize("call, args, message", _PRECONDITIONS,
                         ids=[call.__name__ for call, _, _ in _PRECONDITIONS])
def test_precondition_messages(call, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)
