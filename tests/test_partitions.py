"""Partition, hook and core arithmetic: frozen examples and invariants."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcd.degrees import degree_valuation
from ppcd.hooks import count_pprime_partitions_formula
from ppcd.partitions import (
    TRIAL_DIVISION_LIMIT,
    Partition,
    _QuotientTree,
    _abacus,
    _abacus_slides,
    _conjugate_parts,
    _hook_lengths,
    _multipartitions,
    _partition_tuples,
    _pprime_pair_cores,
    _pprime_tuples,
    _slide,
    _top_term,
    conjugate,
    divisible_hooks,
    e_core,
    e_core_by_removal,
    enumerate_partitions,
    hook_partition,
    is_prime,
    is_self_conjugate,
    p_adic_expansion,
    require_int,
    require_prime,
)


@st.composite
def partitions(draw, max_n=40):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    rest, cap = n, n
    while rest:
        x = draw(st.integers(min_value=1, max_value=min(cap, rest)))
        parts.append(x)
        cap = x
        rest -= x
    return Partition(parts)


class TestRequireInt:
    def test_accepts_and_returns(self):
        assert require_int(5, 5, "unused {!r}") == 5
        assert require_int(0, -3, "unused") == 0

    @pytest.mark.parametrize("value", [True, False, 2.0, "3", None, 4])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="^" + re.escape(f"need >= 5, got {value!r}") + "$"):
            require_int(value, 5, "need >= 5, got {!r}")

    def test_shown_value(self):
        with pytest.raises(ValueError, match=r"^parts: \(3, 0\)$"):
            require_int(0, 1, "parts: {!r}", (3, 0))


class TestTrialDivisionLimit:
    def test_values_up_to_the_limit_are_tested(self):
        # 2**40 - 87 is the largest prime below the limit, 2**40 itself composite
        assert require_prime(TRIAL_DIVISION_LIMIT - 87) == TRIAL_DIVISION_LIMIT - 87
        with pytest.raises(ValueError, match=f"^expected a prime, got {TRIAL_DIVISION_LIMIT}$"):
            require_prime(TRIAL_DIVISION_LIMIT)

    @pytest.mark.parametrize("p", [TRIAL_DIVISION_LIMIT + 1, 10**24 + 7])
    def test_values_above_the_limit_are_refused(self, p):
        message = f"expected a prime <= {TRIAL_DIVISION_LIMIT}, got {p}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            require_prime(p)


class TestPartitionType:
    def test_valid_construction(self):
        lam = Partition([4, 1])
        assert lam.parts == (4, 1)
        assert lam.n == 5
        assert len(lam) == 2
        assert list(lam) == [4, 1]
        assert lam[0] == 4

    def test_empty_is_partition_of_zero(self):
        assert Partition().n == 0
        assert Partition().parts == ()

    @pytest.mark.parametrize("bad", [[1, 2], [0], [-3], [2.5], [3, 0]])
    def test_rejects_invalid_parts(self, bad):
        with pytest.raises(ValueError):
            Partition(bad)

    def test_string_round_trip(self):
        assert Partition.from_string("4,1") == Partition([4, 1])
        assert Partition.from_string("") == Partition()
        assert Partition.from_string("0") == Partition()
        assert str(Partition([3, 1, 1])) == "3,1,1"

    def test_ordering_matches_enumeration(self):
        listed = list(enumerate_partitions(6))
        assert listed == sorted(listed, reverse=True)

    def test_hashable(self):
        assert len({Partition([2, 1]), Partition([2, 1]), Partition([3])}) == 2


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition([5])) == Partition([1] * 5)
        assert conjugate(Partition()) == Partition()
        assert conjugate(Partition([4, 1])) == Partition([2, 1, 1, 1])

    @given(partitions())
    @settings(max_examples=150)
    def test_involution_and_hook_invariance(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert sorted(_hook_lengths(lam.parts)) == sorted(_hook_lengths(conjugate(lam).parts))

    def test_exhaustive_involution_small(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam

    @pytest.mark.parametrize("n", range(21))
    def test_run_length_conjugate(self, n):
        for parts in _partition_tuples(n):
            conj = _conjugate_parts(parts)
            assert _conjugate_parts(conj) == parts
            columns = tuple(sum(1 for v in parts if v > j) for j in range(n and parts[0]))
            assert conj == columns

    def test_self_conjugate(self):
        assert is_self_conjugate(Partition([3, 1, 1]))
        assert is_self_conjugate(Partition([3, 2, 1]))
        assert not is_self_conjugate(Partition([4, 1]))


class TestHooks:
    def test_hook_length_examples(self):
        # row-major order: the first entry is the hook at node (1, 1)
        assert _hook_lengths((9,))[0] == 9
        assert _hook_lengths((2, 1))[0] == 3
        assert _hook_lengths((4, 1))[0] == 5

    def test_hook_multiset_examples(self):
        assert sorted(_hook_lengths((6,)), reverse=True) == [6, 5, 4, 3, 2, 1]
        assert sorted(_hook_lengths((2, 1)), reverse=True) == [3, 1, 1]
        assert sorted(_hook_lengths((4, 1)), reverse=True) == [5, 3, 2, 1, 1]

    @given(partitions())
    @settings(max_examples=150)
    def test_hook_count_is_size(self, lam):
        assert len(_hook_lengths(lam.parts)) == lam.n

    def test_divisible_hooks_examples(self):
        assert divisible_hooks(Partition([4, 1]), 5) == (5,)
        assert divisible_hooks(Partition([2, 1]), 2) == ()
        assert divisible_hooks(Partition([7]), 7) == (7,)

    def test_divisible_hooks_bad_modulus(self):
        with pytest.raises(ValueError):
            divisible_hooks(Partition([2, 1]), 1)


class TestECore:
    def test_examples(self):
        assert e_core(Partition([4, 1]), 5) == Partition()
        assert e_core(Partition([2, 1]), 2) == Partition([2, 1])
        assert e_core(Partition([7]), 8) == Partition([7])

    def test_size_drop_matches_divisible_hooks(self):
        for n in range(1, 15):
            for lam in enumerate_partitions(n):
                for e in (2, 3, 5):
                    core = e_core(lam, e)
                    assert lam.n - core.n == e * len(divisible_hooks(lam, e))
                    assert divisible_hooks(core, e) == ()

    def test_idempotent(self):
        for n in range(1, 14):
            for lam in enumerate_partitions(n):
                for e in (2, 3, 5, 7):
                    core = e_core(lam, e)
                    assert e_core(core, e) == core

    def test_removal_orders_agree_with_abacus(self):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                for e in (2, 3, 5, 7):
                    left = e_core_by_removal(lam, e)
                    right = e_core_by_removal(lam, e, rightmost=True)
                    assert left == right == e_core(lam, e)

    @given(partitions(max_n=25), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=120, deadline=None)
    def test_removal_orders_agree_sampled(self, lam, e):
        left = e_core_by_removal(lam, e)
        right = e_core_by_removal(lam, e, rightmost=True)
        assert left == right == e_core(lam, e)


class TestPAdicExpansion:
    def test_examples(self):
        assert p_adic_expansion(7, 5) == ((2, 0), (1, 1))
        assert p_adic_expansion(125, 5) == ((1, 3),)
        assert p_adic_expansion(0, 7) == ()

    def test_round_trip_sweep(self):
        for p in (5, 7, 11, 13):
            for n in range(0, 100_000, 7):
                assert sum(a * p**k for a, k in p_adic_expansion(n, p)) == n

    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11, 13]))
    @settings(max_examples=300)
    def test_round_trip_sampled(self, n, p):
        digits = p_adic_expansion(n, p)
        assert sum(a * p**k for a, k in digits) == n
        assert all(1 <= a <= p - 1 for a, _ in digits)
        exponents = [k for _, k in digits]
        assert exponents == sorted(set(exponents))

    def test_top_term(self):
        # n = a p^k + r with 1 <= a < p and 0 <= r < p^k makes p^k the
        # largest power of p that is at most n
        for p in (2, 3, 5, 7, 13):
            powers = {p**k for k in range(1, 15)}
            for n in range(p, 10**4 + 1):
                e, a, r = _top_term(n, p)
                assert e in powers and n == a * e + r and 1 <= a < p and 0 <= r < e

    def test_rejects_composite_and_small(self):
        for bad in (1, 0, -2, 4, 9, 15):
            with pytest.raises(ValueError):
                p_adic_expansion(10, bad)
        with pytest.raises(ValueError):
            p_adic_expansion(-1, 5)

    def test_is_prime(self):
        assert [k for k in range(2, 30) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestEnumeration:
    def test_zero(self):
        assert list(enumerate_partitions(0)) == [Partition()]

    def test_three(self):
        assert [lam.parts for lam in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]

    def test_counts(self):
        counts = [len(list(enumerate_partitions(n))) for n in range(11)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_no_duplicates(self):
        seen = list(enumerate_partitions(9))
        assert len(seen) == len(set(seen))

    def test_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(61))
        assert next(iter(enumerate_partitions(61, bound=61))).parts == (61,)

    def test_hooks(self):
        assert hook_partition(1, 0).parts == (1,)
        assert [hook_partition(3, x).parts for x in range(3)] == [(3,), (2, 1), (1, 1, 1)]
        assert len({hook_partition(17, x) for x in range(17)}) == 17

    def test_hook_partition_range(self):
        assert hook_partition(5, 4) == Partition([1] * 5)
        with pytest.raises(ValueError):
            hook_partition(5, 5)


class TestPPrimeGenerator:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_oracle_filter(self, p):
        for n in range(27):
            generated = list(_pprime_tuples(n, p))
            assert len(generated) == len(set(generated)), (n, p)
            expected = {lam.parts for lam in enumerate_partitions(n)
                        if degree_valuation(lam, p) == 0}
            assert set(generated) == expected, (n, p)


def _self_conjugate_tuples(n: int) -> list[tuple[int, ...]]:
    """Self-conjugate partitions of n from their diagonal hooks: distinct
    odd lengths h_1 > h_2 > ... with arm = leg = (h_i - 1) / 2, so row i
    (i <= d) is (h_i - 1) / 2 + i and row j > d counts the rows i <= d
    reaching column j."""
    out = []

    def extend(left: int, below: int, hooks: tuple[int, ...]):
        if not left:
            head = [(h - 1) // 2 + i for i, h in enumerate(hooks, 1)]
            tail = [sum(1 for v in head if v >= j) for j in range(len(head) + 1, (head or [0])[0] + 1)]
            out.append(tuple(head + tail))
            return
        for h in range(min(left, below - 2), 0, -1):
            if h % 2:
                extend(left - h, h, hooks + (h,))

    extend(n, n + 2, ())
    return out


def _lam(mu: tuple[int, ...], e: int, a: int, quotient) -> tuple[int, ...]:
    """lam from its e-core mu and one quotient of ``_pprime_pair_cores``:
    bead moves on ``_abacus(mu, e, a)``, or below p (e = 1) lam itself."""
    return quotient if e == 1 else _slide(*_abacus(mu, e, a), e, quotient)


def _multipartitions_by_shapes(e: int, a: int) -> tuple[_QuotientTree, tuple[int, ...],
                                                      _QuotientTree]:
    """The shape-based oracle for ``_multipartitions``: every
    e-multipartition of a as a tuple of (runner, parts) shapes, an index
    over the shapes, each shape's conjugate ((nu^(e-1-i))')_i looked up
    in it, and then the flat move tuples."""
    partitions_of: dict[int, tuple[tuple[int, ...], ...]] = {}

    def extend(first: int, left: int):
        if not left:
            yield ()
            return
        for runner in range(first, e):
            # the last runner takes all that is left
            for size in range(1 if runner < e - 1 else left, left + 1):
                if size not in partitions_of:
                    partitions_of[size] = tuple(_partition_tuples(size))
                for parts in partitions_of[size]:
                    for rest in extend(runner + 1, left - size):
                        yield ((runner, parts),) + rest

    shapes = tuple(extend(0, a))
    index = {shape: k for k, shape in enumerate(shapes)}
    conjugates = {parts: _conjugate_parts(parts)
                  for of_size in partitions_of.values() for parts in of_size}
    conj = tuple(index[tuple((e - 1 - runner, conjugates[parts])
                             for runner, parts in reversed(shape))]
                 for shape in shapes)
    # the j-th part of a partition of at most a is at most a // (j + 1)
    moves = tuple((i, j, v) for i in range(e) for j in range(a)
                  for v in range(1, a // (j + 1) + 1))
    flat = {move: m for m, move in enumerate(moves)}
    quotients = [tuple(flat[i, j, v] for i, parts in shape for j, v in enumerate(parts))
                 for shape in shapes]
    halves = (quotient for k, quotient in enumerate(quotients) if k < conj[k])
    return _QuotientTree(moves, quotients), conj, _QuotientTree(moves, halves)


class TestConjugateQuotient:
    """The conjugate index of ``_multipartitions`` against brute force:
    with a bead count divisible by e, lam with core mu and quotient k has
    conjugate lam' with core mu' and quotient conj[k]."""

    @pytest.mark.parametrize("e,a_max", [(1, 8), (2, 5), (3, 4), (4, 3), (5, 3), (7, 2), (9, 2)])
    def test_conjugate_partition_has_conjugate_quotient(self, e, a_max):
        for a in range(a_max + 1):
            tree, conj, _ = _multipartitions(e, a)
            for r in range(9 if e > 1 else 1):
                for mu in _partition_tuples(r):
                    if e > 1 and e_core(Partition(mu), e).parts != mu:
                        continue
                    slides = list(_abacus_slides(mu, e, a))
                    on_conjugate = list(_abacus_slides(_conjugate_parts(mu), e, a))
                    assert len(slides) == len(tree.leaves)
                    for k, lam in enumerate(slides):
                        assert _conjugate_parts(lam) == on_conjugate[conj[k]], (mu, e, k)

    @pytest.mark.parametrize("e,a", [(1, 6), (5, 3), (7, 2), (25, 1), (49, 1)])
    def test_conjugate_index_is_an_involution(self, e, a):
        tree, conj, _ = _multipartitions(e, a)
        assert len(conj) == len(tree.leaves) == len(set(tree))
        assert all(conj[conj[k]] == k for k in range(len(conj)))

    def test_moves_example(self):
        # the 2-multipartitions of 2: ((1), (1)), ((2), -), ((1,1), -),
        # (-, (2)), (-, (1,1)); conjugation reflects the runners and
        # conjugates each component
        tree, conj, halves = _multipartitions(2, 2)
        assert tuple(tree) == (((0, 0, 1), (1, 0, 1)), ((0, 0, 2),), ((0, 0, 1), (0, 1, 1)),
                               ((1, 0, 2),), ((1, 0, 1), (1, 1, 1)))
        assert conj == (0, 4, 3, 2, 1)
        assert tuple(halves) == (((0, 0, 2),), ((0, 0, 1), (0, 1, 1)))
        # moves (0,0,1) (0,0,2) (0,1,1) (1,0,1) (1,0,2) (1,1,1); the first
        # and third quotient share the node of their first move
        assert tree.moves == ((0, 0, 1), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 0, 2), (1, 1, 1))
        assert tree.move == (0, 3, 1, 2, 4, 3, 5)
        assert tree.parent == (0, 1, 0, 1, 0, 0, 6)
        assert tree.above == ((), (0,), (), (0,), (), (), (3,))
        assert tree.leaves == (2, 3, 4, 5, 7)

    @pytest.mark.parametrize("e,a", [(1, 0), (1, 6), (2, 5), (5, 4), (7, 3), (13, 2), (49, 1)])
    def test_tree_holds_each_prefix_once(self, e, a):
        # a node per distinct nonempty prefix of the quotients, its
        # parent's prefix one move shorter, and the halves the quotients
        # k < conj[k] in order, over the same moves
        tree, conj, halves = _multipartitions(e, a)
        quotients = tuple(tree)
        prefixes = {q[:d] for q in quotients for d in range(1, len(q) + 1)}
        assert len(tree.move) == len(tree.parent) == len(tree.above) == len(prefixes)
        assert {tree.path(t) for t in range(1, len(tree.move) + 1)} == prefixes
        for t, up in enumerate(tree.parent, 1):
            assert up < t and tree.path(up) == tree.path(t)[:-1]
        assert halves.moves is tree.moves
        assert tuple(halves) == tuple(q for k, q in enumerate(quotients) if k < conj[k])


    @pytest.mark.parametrize("e", range(1, 14))
    def test_one_pass_build_matches_shapes(self, e):
        # each quotient built with its conjugate gives the trees and the
        # conjugate index of the shape-based build, array for array
        fields = ("moves", "move", "parent", "above", "leaves")
        for a in range(7 if e <= 7 else 4):
            tree, conj, halves = _multipartitions(e, a)
            tree_by_shapes, conj_by_shapes, halves_by_shapes = _multipartitions_by_shapes(e, a)
            assert conj == conj_by_shapes, (e, a)
            for field in fields:
                assert getattr(tree, field) == getattr(tree_by_shapes, field), (e, a, field)
                assert getattr(halves, field) == getattr(halves_by_shapes, field), (e, a, field)


class TestPPrimePairs:
    """``_pprime_pair_cores`` against ``_pprime_tuples``: one member of
    every non-self-conjugate pair, once, and no self-conjugate partition."""

    @staticmethod
    def _kept(n: int, p: int) -> list[tuple[int, ...]]:
        return [_lam(mu, e, a, quotient)
                for mu, e, a, quotients in _pprime_pair_cores(n, p) for quotient in quotients]

    @classmethod
    def _check(cls, n: int, p: int) -> None:
        pairs = cls._kept(n, p)
        assert all(sum(parts) == n for parts in pairs), (n, p)
        assert len(pairs) == len(set(pairs)), (n, p)
        expected = set()
        for parts in _pprime_tuples(n, p):
            conj = _conjugate_parts(parts)
            if conj != parts:
                expected.add(max(parts, conj))
        chosen = {max(parts, _conjugate_parts(parts)) for parts in pairs}
        assert len(chosen) == len(pairs), (n, p)  # never both members of a pair
        assert chosen == expected, (n, p)
        assert all(_conjugate_parts(parts) != parts for parts in pairs), (n, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_one_per_pair(self, p):
        for n in range(31):
            self._check(n, p)

    @pytest.mark.parametrize("n,p", [(49, 7), (50, 5), (49, 2), (50, 3), (50, 7), (49, 13)])
    def test_one_per_pair_large(self, n, p):
        # 49 = 7^2 and 50 = 2 * 5^2 have an empty p^k-core
        self._check(n, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_count_is_half_mckay_minus_self_conjugate(self, p):
        for n in [*range(31), 49, 50]:
            self_conjugate = [parts for parts in _self_conjugate_tuples(n)
                              if degree_valuation(Partition(parts), p) == 0]
            pairs = sum(1 for *_, quotients in _pprime_pair_cores(n, p) for _ in quotients)
            assert 2 * pairs + len(self_conjugate) == count_pprime_partitions_formula(n, p), (n, p)

    def test_self_conjugate_helper(self):
        for n in range(16):
            assert sorted(_self_conjugate_tuples(n)) == sorted(
                parts for parts in _partition_tuples(n) if _conjugate_parts(parts) == parts)

    def test_self_conjugate_core_branch(self):
        # (3,1,1) is a self-conjugate 7-core; on it, n = 54 = 49 + 5 keeps
        # exactly one member of each pair that shares the core, and the
        # conjugate of each kept partition is on the core too
        assert _conjugate_parts((3, 1, 1)) == (3, 1, 1)
        on_core = [_lam(mu, e, a, moves) for mu, e, a, quotients in _pprime_pair_cores(54, 7)
                   if mu == (3, 1, 1) for moves in quotients]
        _, conj, _ = _multipartitions(49, 1)
        assert len(on_core) == sum(k < c for k, c in enumerate(conj)) == 24
        assert all(e_core(Partition(parts), 49).parts == (3, 1, 1) for parts in on_core)
        conjugates = {_conjugate_parts(parts) for parts in on_core}
        assert not conjugates & set(on_core)
        assert all(e_core(Partition(parts), 49).parts == (3, 1, 1) for parts in conjugates)

    def test_below_p_is_one_runner(self):
        # n < p: the core is empty, the whole partition is the quotient on
        # one runner, given as its parts, and one member of each conjugate
        # pair is kept
        (mu, e, a, quotients), = _pprime_pair_cores(6, 7)
        assert (mu, e, a) == ((), 1, 6)
        kept = list(quotients)
        assert kept == [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3)]  # p(6) = 11, (3,2,1) self-conjugate
        assert kept == [parts for parts in _partition_tuples(6) if _conjugate_parts(parts) < parts]
