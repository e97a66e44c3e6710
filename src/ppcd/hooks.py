"""Hook partitions of p'-degree and the alternating-group degree bound.

The set of p'-degree hooks of n is built two independent ways: by
filtering binomial coefficients with Legendre's formula
(``pprime_hook_xs``), and by the layered construction that adds top
p-power hooks to the row and column of each smaller member
(``_layered_first_parts``).  The filter tests every leg length on
the one base-p table here, L[m] = v_p(m!), and the test, symmetric in
x <-> n - 1 - x, runs on the lower half (``_lower_legs``), mirrored.
Their agreement with the closed counting formula
a_1 * p^{n_1} * prod(a_j + 1) is the main verification target.
The public names that no CLI path reaches back named checks;
``NOT_ON_A_CLI_PATH`` in tests/test_api.py lists each with its check.

On top of that sit the quasihook degree families (n-c-t, c, 1^t) and
``verify_An_bound``, which certifies at least three distinct p'-degrees
of A_n characters that extend to S_n.  The bound holds for every n >= 7
and prime p > 3, by a lemma (``_an_bound_case``): with 6 or more
p'-hooks the short-leg hooks give three degrees, and with fewer,
n = r (mod p) with r = 1 or 2, and the degrees of legs 0 and 1 of the
quasihooks with second row r + 1 join the trivial one.  Whatever the
case, the three witnesses are re-checked distinct and prime to p.

``ext_pprime_degree_set`` is exact up to a scan bound; above it, it is
the p'-hooks and the quasihook witnesses, which need no partition: the
hooks of (a, c, 1^t) are integer ranges, so every leg's p'-test is one
filter over slices of the tables v_p(m) and v_p(m!), and every degree
one exact division (``_quasihook_witnesses``); the hook legs are
filtered on the same v_p(m!).  Either set holds the floor(h/2)
distinct degrees C(n-1, x), x < (n - 1)/2, of the h p'-hooks,
and the witnesses of ``verify_An_bound``, so ``verify-an`` holds every
row to one contract: the bound certified and at least max(3, floor(h/2))
extendable degrees found.

The exact extendable p'-degree sets of A_n are generated from the
p-core tower: only the p'-partitions of n are visited, as many as the
McKay number prod_j k(p^j, a_j), instead of scanning all p(n), and none
of them is built.  Each is a p^k-core mu and a quotient, at most a bead
moves away on mu's abacus, and of each conjugate pair one member is visited,
picked by its core and its quotient index (``_pprime_pair_cores``).
Its degree is n!/H(mu) times one Frobenius ratio per moved bead and one
per pair of moved beads (``_core_degrees``); the moved beads' ratios
read one table of Q(z)/z! per core (``_q_table``).  The quotients of a
core come as a prefix tree of bead moves, walked once per core, so a
prefix that many quotients share is computed once, as one integer made
by one division checked exact: n!/|lam_t|! times the degree of the
partition lam_t the prefix reaches.  The root's n!/H(mu), and each
degree below p, is the Frobenius formula on a beta set (``_frobenius``).
The oracle the generated sets are tested against,
``filter_ext_degree_sets``, is the definition: ``degree`` of every
partition of n that is not self-conjugate, kept per prime p that does
not divide it.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, repeat, starmap
from math import comb, factorial, prod
from operator import add, mul, sub
from typing import Iterator, NamedTuple

from .degrees import degree, hook_degree
from .partitions import (
    Partition,
    _abacus,
    _partition_tuples,
    _pprime_pair_cores,
    hook_partition,
    is_self_conjugate,
    p_adic_expansion,
    require_int,
    require_prime,
    require_prime_above_3,
)

__all__ = [
    "AnBoundResult",
    "DEFAULT_SCAN_BOUND",
    "count_pprime_hooks_formula",
    "count_pprime_partitions_formula",
    "ext_pprime_degree_set",
    "filter_ext_degree_sets",
    "hook_count_row",
    "list_pprime_hooks",
    "pprime_hook_xs",
    "quasihook",
    "quasihook_monotone",
    "scan_ext_degree_sets",
    "verify_An_bound",
]

DEFAULT_SCAN_BOUND = 40


def _valuation_table(limit: int, p: int) -> list[int]:
    """V[m] = v_p(m), m <= limit (V[0] = 0); L[m] = v_p(m!) is its running sum."""
    tab = [0] * (limit + 1)
    for i in range(p, limit + 1, p):
        tab[i] = tab[i // p] + 1
    return tab


def _lower_legs(r: int, L: list[int]) -> list[int]:
    """Legs x <= r // 2 with binomial(r, x) prime to p, increasing.

    L[m] = v_p(m!) for m <= r, so by Legendre v_p(binomial(r, x)) is
    L[r] - L[x] - L[r-x] (Kummer's count of carries), and x passes iff
    L[x] + L[r-x] == L[r].
    """
    target = L[r]
    return [x for x, a, b in zip(range(r // 2 + 1), L, L[r::-1]) if a + b == target]


def pprime_hook_xs(n: int, p: int) -> list[int]:
    """Leg lengths x with binomial(n-1, x) coprime to p, increasing.

    The test of ``_lower_legs`` on the table L[m] = v_p(m!), m <= n - 1.
    It is symmetric in x <-> r - x (r = n - 1), so it runs on x <= r // 2
    only, and the upper half is the mirror r - x of the hits, without
    the middle leg x = r / 2 a second time.
    """
    require_prime(p)
    require_int(n, 1, "expected n >= 1, got {!r}")
    r = n - 1
    low = _lower_legs(r, list(accumulate(_valuation_table(r, p))))
    return low + [r - x for x in reversed(low) if 2 * x != r]


def list_pprime_hooks(n: int, p: int) -> list[Partition]:
    """The p'-degree hooks of n, by increasing leg length.

    Backs the brute-force hook test against ``degree_valuation``.
    """
    return [hook_partition(n, x) for x in pprime_hook_xs(n, p)]


def count_pprime_hooks_formula(n: int, p: int) -> int:
    """Closed form for the number of p'-degree hooks of n.

    With n = sum a_j p^{n_j} (nonzero digits, increasing exponents) the
    count is a_1 * p^{n_1} * prod_{j >= 2} (a_j + 1).
    """
    require_int(n, 1, "expected n >= 1, got {!r}")
    digits = p_adic_expansion(n, p)
    a1, e1 = digits[0]
    return a1 * p**e1 * prod(a + 1 for a, _ in digits[1:])


def count_pprime_partitions_formula(n: int, p: int) -> int:
    """McKay number: how many partitions of n have p'-degree.

    With n = sum a_j p^j in base p the count is prod_j k(p^j, a_j), where
    k(e, a) is the number of e-multipartitions of a (Macdonald).  k is
    the coefficient of x^a in prod_i (1 - x^i)^(-e), from the recurrence
    m c_m = e * sum_{i=1..m} sigma(i) c_{m-i}, independent of any
    enumeration.
    """
    require_int(n, 0, "expected n >= 0, got {!r}")
    count = 1
    for a, k in p_adic_expansion(n, p):
        e = p**k
        c = [1]
        for m in range(1, a + 1):
            c.append(e * sum(_divisor_sum(i) * c[m - i] for i in range(1, m + 1)) // m)
        count *= c[a]
    return count


def _divisor_sum(m: int) -> int:
    return sum(d for d in range(1, m + 1) if m % d == 0)


def _layered_first_parts(n: int, p: int) -> list[int]:
    """First parts of the p'-degree hooks of n, layered construction.

    With n = sum a_j p^{e_j} (nonzero digits, increasing exponents), the
    lowest term alone admits every hook (for a p^e < p because p does not
    divide its factorial, else because the full first hook is stripped in
    one layer).  Each higher term a p^e then grows every p'-hook of the
    lower part m by x top-power hooks on the row and the rest on the
    column, x = 0 .. a, i.e. adds x p^e to its first part, which
    determines the hook.  As m < p^e, the block for x lies above the
    block for x - 1, so the list stays increasing and needs no sort.
    """
    (a, e), *higher = p_adic_expansion(n, p)
    firsts = list(range(1, a * p**e + 1))
    for a, e in higher:
        step = p**e
        firsts = [g + off for off in range(0, (a + 1) * step, step) for g in firsts]
    return firsts


def hook_count_row(n: int, p: int) -> dict:
    """Formula vs binomial filter vs layered set of the p'-hooks of n.

    The three counts, and an ``ok`` flag meaning all counts and both
    constructed sets agree.
    """
    formula = count_pprime_hooks_formula(n, p)
    xs = pprime_hook_xs(n, p)
    layered = _layered_first_parts(n, p)
    ok = (
        formula == len(xs) == len(layered)
        and [n - x for x in reversed(xs)] == layered
    )
    return {"n": n, "p": p, "formula": formula, "filtered": len(xs),
            "layered": len(layered), "ok": ok}


def quasihook(n: int, c: int, t: int) -> Partition:
    """The partition (n - c - t, c, 1^t) for c in {2, 3}.

    Larger c is rejected: the strict degree growth in t that makes
    these families useful fails already at c = 5.
    """
    if c not in (2, 3):
        raise ValueError(f"second row must be 2 or 3, got {c!r}")
    if n < 4 + c:
        raise ValueError(f"need n >= {4 + c} for second row {c}, got {n}")
    if not (0 <= t <= n - 2 * c):
        raise ValueError(f"leg length {t} out of range for (n, c) = ({n}, {c})")
    return Partition._from_valid((n - c - t, c) + (1,) * t, n)


def quasihook_monotone(n: int, c: int, t: int) -> bool:
    """Whether degree((n-c-t, c, 1^t)) < degree for leg t + 1.

    Contract: true whenever 0 <= t <= floor((n - 4 - c) / 2), i.e. as
    long as the first row stays at least as long as the first column.
    Backs acceptance criterion 4.
    """
    if c not in (2, 3):
        raise ValueError(f"second row must be 2 or 3, got {c!r}")
    if n < 4 + c or not (0 <= t <= (n - 4 - c) // 2):
        raise ValueError(f"leg length {t} out of monotone range for (n, c) = ({n}, {c})")
    return degree(quasihook(n, c, t)) < degree(quasihook(n, c, t + 1))


def scan_ext_degree_sets(n: int, primes: tuple[int, ...]) -> dict[int, set[int]]:
    """Exact extendable p'-degree sets of A_n, generated from the p-core tower.

    For every prime p given, collects the degrees of the partitions of
    n with p'-degree and lam != lam' (exactly the p'-degree characters
    of A_n that extend to S_n).  A conjugate pair shares its degree, so
    ``_pprime_pair_cores`` names one member of each pair, by its
    p^k-core mu and its quotient, and no self-conjugate partition: on a
    bead count L divisible by e = p^k, lam' has core mu' and quotient
    ((nu^(e-1-i))')_i (James and Kerber 2.7), so a core with mu' < mu
    keeps every quotient, one with mu' > mu none, and a self-conjugate
    core quotient k iff k < conj[k].  By Frobenius, deg lam =
    n! Delta(X) / prod_{x in X} x! on any beta set X, so ``_core_degrees``
    takes each degree from n!/H(mu) by one ratio per moved bead
    x -> x + e v and one per pair of moved beads, over mu's abacus padded
    to L beads, each prefix of moves once per core on the quotients'
    prefix tree, with one exact division per prefix; no partition of n
    is built.  Below p the core is empty, e = 1, and the whole partition
    is the quotient on one runner: the partitions stream from the
    enumeration and the formula is taken on each one's own beta set.
    """
    primes = tuple(primes)
    for p in primes:
        require_prime(p)
    require_int(n, 1, "expected n >= 1, got {!r}")
    fact = factorial(n)
    out: dict[int, set[int]] = {}
    for p in primes:
        degs = out[p] = set()
        for mu, e, a, quotients in _pprime_pair_cores(n, p):
            degs.update(_core_degrees(fact, mu, e, a, quotients))
    return out


def _core_degrees(fact: int, mu: tuple[int, ...], e: int, a: int, quotients) -> Iterator[int]:
    """n!/H(lam) for each lam with e-core mu and its quotient in
    ``quotients``, a ``_QuotientTree`` of ``_multipartitions(e, a)``, in
    quotient order; n! = fact.

    By Frobenius, deg lam = n! Delta(X) / prod_{x in X} x! on any beta
    set X of lam, Delta(X) the product of the differences of X; on mu's
    beta set X0 it is n!/H(mu), the value of the root (``_frobenius``).
    The tree is walked once, parents first: a node's value is its
    parent's times the ratio of its move x -> y from ``_bead_moves`` and,
    for each move x2 -> y2 above it, (x - x2)(y - y2) / ((y2 - x)(y - x2)),
    zero factors left out (a bead may land where another one left), one
    division checked exact.  So each shared prefix of moves is computed
    once per core, and each degree is the absolute value of its leaf.

    Every node divides exactly.  The moves of a quotient come runner by
    runner, and on a runner the beads x_0 > x_1 > ... move in that order
    by weakly decreasing v_0 >= v_1 >= ... levels; when x_j moves, each
    x_i with i < j is already at x_i + e v_i > x_j + e v_j, each with
    i > j is still below x_j, and no other runner holds x_j + e v_j, so a
    prefix of the moves slides beads without collision.  Node t's bead
    set X_t is then the beta set of a partition lam_t with |lam_t| =
    |mu| + e (the prefix's sum of v) <= n, and the node's value is
    +-n! Delta(X_t) / prod_{x in X_t} x! = +-(n!/|lam_t|!) deg lam_t by
    Frobenius, an integer.  For e = 1 (below p) mu is empty and
    ``quotients`` streams each lam itself, whose degree is ``_frobenius``
    on its own parts.
    """
    if e == 1:
        for parts in quotients:
            yield _frobenius(fact, parts, a)
        return
    n = sum(mu) + e * a
    xs, ys, move_nums, move_dens = _bead_moves(mu, e, a, quotients.moves)
    values = [_frobenius(fact, mu, n)]  # node values, the root first
    for m, up, above in zip(quotients.move, quotients.parent, quotients.above):
        x = xs[m]
        y = ys[m]
        num = move_nums[m]
        den = move_dens[m]
        for m2 in above:
            x2 = xs[m2]
            y2 = ys[m2]
            num *= (x - x2) * (y - y2)
            den *= ((y2 - x) or 1) * ((y - x2) or 1)
        value, rem = divmod(values[up] * num, den)
        if rem:
            raise ArithmeticError(f"bead moves {quotients.path(len(values))} on the {e}-core "
                                  f"{mu} give no integral degree for n = {n}")
        values.append(value)
    yield from map(abs, map(values.__getitem__, quotients.leaves))


def _frobenius(fact: int, parts: tuple[int, ...], n: int) -> int:
    """fact Delta(beta) / prod_{b in beta} b! on the beta set
    beta_i = parts_i + len(parts) - 1 - i, the division checked exact:
    n!/H(lam) for fact = n! and lam = parts, a partition of at most n."""
    beta = tuple(map(add, parts, range(len(parts) - 1, -1, -1)))
    deg, rem = divmod(fact * prod(starmap(sub, combinations(beta, 2))),
                      prod(map(factorial, beta)))
    if rem:
        raise ArithmeticError(f"the beta set {beta} gives no integral degree for n = {n}")
    return deg


def _bead_moves(mu: tuple[int, ...], e: int, a: int,
                moves) -> tuple[list[int], list[int], list[int], list[int]]:
    """(xs, ys, nums, dens): for each move (i, j, v) of ``moves``, the flat
    moves of ``_multipartitions(e, a)``, in their order, on
    ``_abacus(mu, e, a)``, whose beta set X0 holds mu's beads above m
    padding beads {0 .. m-1}: the j-th lowest bead x of runner i goes to
    y = x + e v, and num/den is Q(y) x! / (Q(x) y! e v),
    Q(z) = prod_{c in X0, c != z} |z - c|.  The padding contributes
    z!/(z-m)! to Q(z) for z >= m and z! (m-1-z)! for z < m, so Q(z)/z!
    takes a product over mu's beads only.  No bead moves past
    beta[0] + e a, so Q(z)/z! is read from one ``_q_table`` of the
    positions up to there, built once per core.
    """
    beta, runners = _abacus(mu, e, a)
    q_nums, q_dens = _q_table(beta[: len(mu)], len(beta) - len(mu), beta[0] + e * a + 1)
    xs: list[int] = []
    ys: list[int] = []
    nums: list[int] = []
    dens: list[int] = []
    for i, j, v in moves:
        x = beta[runners[i][j]]
        y = x + e * v
        xs.append(x)
        ys.append(y)
        nums.append(q_nums[y] * q_dens[x])
        dens.append(q_nums[x] * q_dens[y] * e * v)
    return xs, ys, nums, dens


def _q_table(core: list[int], m: int, size: int) -> tuple[list[int], list[int]]:
    """(nums, dens): Q(z)/z! = nums[z]/dens[z] for every position z < size,
    on the beta set of the beads ``core`` above m padding beads
    {0 .. m-1} (``_bead_moves``).

    The product over the core is one pass per bead b over |z - b|, 1 in
    place of the zero factor at z = b.  The padding's factor is
    (m-1-z)! in the numerator below m and 1/(z-m)! from m on, both
    slices of one list of factorials.
    """
    prods = [1] * size
    for b in core:
        prods = list(map(mul, prods, chain(range(b, 0, -1), (1,), range(1, size - b))))
    facts = list(accumulate(range(1, size), mul, initial=1))
    return list(map(mul, prods[:m], facts[m - 1::-1])) + prods[m:], [1] * m + facts[: size - m]


def filter_ext_degree_sets(n: int, primes: tuple[int, ...]) -> dict[int, set[int]]:
    """Full-scan oracle for scan_ext_degree_sets: the definition itself.

    The ``degree`` of every partition lam of n with lam != lam' (each
    hook-length division checked exact), kept for every prime given that
    does not divide it.  Kept only as the reference the p-core-tower sets
    are tested against, like ``e_core_by_removal`` for the abacus core.
    """
    primes = tuple(primes)
    for p in primes:
        require_prime(p)
    require_int(n, 1, "expected n >= 1, got {!r}")
    lams = map(Partition._from_valid, _partition_tuples(n), repeat(n))
    degs = {degree(lam) for lam in lams if not is_self_conjugate(lam)}
    return {p: {d for d in degs if d % p} for p in primes}


def ext_pprime_degree_set(n: int, p: int, *, bound: int = DEFAULT_SCAN_BOUND) -> set[int]:
    """Degrees of p'-degree A_n characters that extend to S_n.

    Exact for n <= ``bound``, generated from the p-core tower
    (``scan_ext_degree_sets``); above it, the subset certified in
    closed form from the tables V[m] = v_p(m) and L[m] = v_p(m!), m <= n:
    the degrees C(n-1, x) of the p'-hooks that pass ``_lower_legs`` on L,
    and the ``_quasihook_witnesses``.  Either way it holds floor(h/2)
    distinct hook degrees, h the p'-hook count, and, at n >= 7 and p > 3,
    the witnesses of ``verify_An_bound``.
    """
    require_prime(p)
    require_int(n, 1, "expected n >= 1, got {!r}")
    if n <= bound:
        return scan_ext_degree_sets(n, (p,))[p]
    V = _valuation_table(n, p)
    L = list(accumulate(V))
    # C(n-1, x) = C(n-1, n-1-x): the lower half, without the self-conjugate hook
    degs = set(map(comb, repeat(n - 1), [x for x in _lower_legs(n - 1, L) if 2 * x < n - 1]))
    for c in (2, 3):
        if n >= 4 + c:
            degs |= _quasihook_witnesses(n, V, L, c)
    return degs


class AnBoundResult(NamedTuple):
    """Outcome of verify_An_bound: flag, witness degrees, strategy used.

    A NamedTuple, so it compares equal to the plain tuple of its values.
    """

    ok: bool
    witnesses: tuple[int, ...]
    method: str


def _quasihook_witnesses(n: int, V: list[int], L: list[int], c: int) -> set[int]:
    """Degrees of the p'-degree, non-self-conjugate quasihooks
    (n-c-t, c, 1^t), c in {2, 3} and n >= 4 + c, given the tables
    V[m] = v_p(m) and L[m] = v_p(m!) for m <= n.

    No partition is built.  With a = n - c - t the hook lengths are
    {1..a-c} u {a-c+2..a} u {a+t+1} in the first row, {1..c-1} u {c+t}
    in the second and {1..t} in the leg, so their product is
    H = a!/(a-c+1) * (a+t+1) * (c+t) * (c-1)! * t!.  As a + t = n - c is
    fixed, v_p(n!/H) = v0 + V[a-c+1] - L[a] - V[c+t] - L[t] with
    V[m] = v_p(m), L[m] = v_p(m!) and v0 = L[n] - V[n-c+1] - L[c-1], so
    the legs that pass are one filter over forward and reversed slices
    of V and L, and only they reach ``_quasihook_degrees``.  The
    conjugate of (n-2-t, 2, 1^t) is (t+2, 2, 1^(n-4-t)), the c = 2
    quasihook of leg n-4-t, so for c = 2 the legs t <= (n-5)//2 give
    every degree, and the self-conjugate leg t = (n-4)/2 lies outside
    them.
    """
    v0 = L[n] - V[n - c + 1] - L[c - 1]
    top = (n - 5) // 2 if c == 2 else n - 2 * c
    # la = L[a], lt = L[t], vb = V[a-c+1], vc = V[c+t] at a = n - c - t
    legs = [t for t, la, lt, vb, vc in zip(range(top + 1), L[n - c::-1], L,
                                           V[n - 2 * c + 1::-1], V[c:])
            if la + lt + vc - vb == v0]
    return set(_quasihook_degrees(n, c, legs))


def _quasihook_degrees(n: int, c: int, legs) -> Iterator[int]:
    """deg (n-c-t, c, 1^t) for each t in ``legs``, in order.

    n!/H with the hook product H of ``_quasihook_witnesses`` is
    n * C(n-1, t) * C(a+c-1, c-1) * (a-c+1) / ((n-c+1)(c+t)), a = n-c-t:
    two binomials and one exact division, whose remainder raises.
    """
    r = n - 1
    corner = n - c + 1
    for t in legs:
        deg, rem = divmod(n * comb(r, t) * comb(r - t, c - 1) * (r - 2 * c + 2 - t),
                          corner * (c + t))
        if rem:
            raise ArithmeticError(f"the quasihook (n, c, t) = ({n}, {c}, {t}) gives no "
                                  f"integral degree")
        yield deg


def _short_legs(n: int, p: int) -> tuple[int, ...]:
    """The two smallest p'-legs x1 < x2 above 0 of n, or (x1,) if there
    are no more: read off the base-p digits of n - 1 >= 1, with no table.

    By Lucas, x is a p'-leg iff no digit of x exceeds that of n - 1 in
    its place.  With a the lowest nonzero digit of n - 1, at place e,
    x1 = p^e: a smaller x > 0 has a nonzero digit below e.  If a > 1,
    x2 = 2 p^e, as the x between have a nonzero digit below e.  If a = 1,
    x2 = p^e' with e' the place of the next nonzero digit, and if there
    is none, n - 1 = p^e and the legs are 0 and x1 alone.
    """
    (a, e), *rest = p_adic_expansion(n - 1, p)
    x1 = p**e
    if a > 1:
        return x1, 2 * x1
    return (x1, p ** rest[0][1]) if rest else (x1,)


def _an_bound_case(n: int, p: int) -> str:
    """Which family certifies the A_n bound at (n, p); computes no degree.

    The case test reads the legs of ``_short_legs``: the row is in the
    hook case iff the last of them, x, has 2x < n - 1, which holds iff
    the p'-hook count h is at least 6.  If n - 1 = p^e, x = x1 = n - 1
    fails the test, and h = 2.  Else x = x2, and as the legs are closed
    under x <-> n - 1 - x, 2 x2 < n - 1 makes 0, x1, x2 and their three
    mirrors six distinct legs; and of h >= 6 sorted legs the i-th has
    its mirror at h - 1 - i, so 2x < n - 1 for i < (h - 1)/2, hence for
    x2 (i = 2).

    The lemma: for n >= 7 and p >= 5, fewer than 6 p'-hooks force
    n = 1 or 2 (mod p).  With n = sum_j a_j p^{n_j} (nonzero digits,
    increasing exponents) the count is a_1 p^{n_1} prod_{j >= 2} (a_j + 1).
    If n_1 >= 1, a count below 6 needs a_1 p^{n_1} = 5 with no other
    digit, i.e. n = 5; so n_1 = 0 and a_1 = n mod p.  A single digit makes
    the count a_1 = n >= 7, so a_2 >= 1 exists, and a_1 (a_2 + 1) < 6
    gives a_1 <= 2.
    """
    if 2 * _short_legs(n, p)[-1] < n - 1:
        return "hook-degrees"
    if n % p in (1, 2):
        return f"{n % p}-mod-p"
    raise AssertionError(f"n = {n} has p'-hook count below 6 for p = {p} "
                         f"but is {n % p} mod {p}, not 1 or 2")


def verify_An_bound(n: int, p: int) -> AnBoundResult:
    """Certify >= 3 distinct extendable p'-degrees of A_n (n >= 7, p > 3).

    This holds for every such n, by the lemma of ``_an_bound_case``.  With
    at least 6 p'-hooks the hooks of the three smallest p'-legs 0 < x1 <
    x2 of ``_short_legs`` give three distinct degrees C(n-1, x), all with
    2x < n - 1.
    Otherwise n = r (mod p) with r = 1 or 2, and the witnesses are 1 and
    the quasihooks (n-c-t, c, 1^t) with c = r + 1 and t = 0, 1, taken
    from ``_quasihook_degrees``: n(n-3)/2 and n(n-2)(n-4)/3 for r = 1,
    n(n-1)(n-5)/6 and n(n-1)(n-3)(n-6)/8 for r = 2.  At n = r (mod p)
    their factors are 1, -2 and 1, -1, -3 (r = 1) or 2, 1, -3 and
    2, 1, -1, -4 (r = 2) over the denominators 2, 3, 6 and 8, so p > 3
    divides neither.  None of those four partitions is self-conjugate at
    n >= 7: their conjugates are (2, 2, 1^(n-4)), (3, 2, 1^(n-5)),
    (2, 2, 2, 1^(n-6)) and (3, 2, 2, 1^(n-7)).  One rule judges the
    witnesses of every case, rather than trusting them: three, all
    distinct, none divisible by p.
    """
    require_int(n, 7, "expected an integer n >= 7, got {!r}")
    require_prime_above_3(p)

    method = _an_bound_case(n, p)
    if method == "hook-degrees":
        wits = tuple(hook_degree(n, x) for x in (0, *_short_legs(n, p)))
    else:
        wits = (1, *_quasihook_degrees(n, 1 + n % p, (0, 1)))
    return AnBoundResult(len(set(wits)) == 3 and all(d % p for d in wits), wits, method)
