"""Integer partitions and Young-diagram hook arithmetic.

Everything here is exact integer combinatorics: conjugation, hook
lengths, e-cores, base-p digit expansions, deterministic enumeration of
partitions, and the hook partitions (n - x, 1^x) from which ``hooks``
builds both p'-hook sets (the Legendre filter and ``_layered_first_parts``).

Every e-core is read off one beta-set abacus, ``_abacus``: ``e_core``
pushes every bead to the top of its runner, which is order-independent
by construction and runs in O(parts + e).  Three public names serve
checks, not any CLI path: the naive rim-hook remover
``e_core_by_removal`` is the oracle of ``e_core``, ``e_core`` gives
``degrees.is_pprime_macdonald`` its p-power cores, and
``divisible_hooks`` with ``e_core`` checks the James-Kerber weight
identity.  The same abacus, run in reverse, generates the p'-degree
partitions of n directly from the p-core tower (``_pprime_tuples``)
without visiting the others: each is a p^k-core and a quotient, and
``_multipartitions`` holds the quotients as a prefix tree of flat bead
moves (``_QuotientTree``), each shared prefix one node.
``_abacus`` lays out the core's abacus on a bead count divisible by e,
where lam' has core mu' and the reflected, conjugated quotient
((nu^(e-1-i))')_i (James and Kerber 2.7), so ``_pprime_pair_cores``
names one member of each conjugate pair by its core and its quotient
index, with no partition of n built or conjugated; below p the core is
empty and the whole partition is the quotient on one runner.

Partitions are immutable values and every function is pure, so the
module is safe for concurrent use.  Enumeration order is fixed
(descending lexicographic) so that downstream output is reproducible
byte for byte.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import sub
from typing import Iterable, Iterator

__all__ = [
    "DEFAULT_ENUMERATION_BOUND",
    "Partition",
    "TRIAL_DIVISION_LIMIT",
    "conjugate",
    "divisible_hooks",
    "e_core",
    "e_core_by_removal",
    "enumerate_partitions",
    "hook_partition",
    "is_prime",
    "is_self_conjugate",
    "p_adic_expansion",
    "require_int",
    "require_prime",
    "require_prime_above_3",
]

# Partition enumeration refuses n above this unless the caller raises the
# bound explicitly; p(60) is about 966k, already a deliberate request.
DEFAULT_ENUMERATION_BOUND = 60

# The largest p or q that require_prime and lie.prime_power_decomposition test by
# trial division: about 0.1 s on CPython 3.11, ten times as long per two more digits.
TRIAL_DIVISION_LIMIT = 2**40


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; inputs here are tiny."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_int(x, lo: int, message: str, shown=None) -> int:
    """x, if it is an int (a bool is not) with x >= lo; else ValueError.

    The error text is ``message.format(shown)``, shown defaulting to x,
    so a ``{!r}`` in the message is only rendered on failure.
    """
    if isinstance(x, int) and not isinstance(x, bool) and x >= lo:
        return x
    raise ValueError(message.format(x if shown is None else shown))


def require_prime(p: int) -> int:
    """p, if it is a prime <= ``TRIAL_DIVISION_LIMIT``; else ValueError."""
    if require_int(p, 2, "expected a prime, got {!r}") > TRIAL_DIVISION_LIMIT:
        raise ValueError(f"expected a prime <= {TRIAL_DIVISION_LIMIT}, got {p}")
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p!r}")
    return p


def require_prime_above_3(p: int) -> int:
    """``require_prime(p)``, then ValueError unless p > 3."""
    if require_prime(p) <= 3:
        raise ValueError(f"expected a prime p > 3, got {p}")
    return p


@total_ordering
class Partition:
    """A partition: weakly decreasing positive parts stored as a tuple.

    The empty partition is the unique partition of 0.  Instances are
    immutable and hashable; ordering is lexicographic on the parts, so
    ``sorted(..., reverse=True)`` matches the enumeration order used
    throughout.
    """

    __slots__ = ("parts", "n")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        prev = None
        for x in parts:
            require_int(x, 1, "parts must be positive integers: {!r}", parts)
            if prev is not None and x > prev:
                raise ValueError(f"parts must be weakly decreasing: {parts!r}")
            prev = x
        self.parts = parts
        self.n = sum(parts)

    @classmethod
    def _from_valid(cls, parts: tuple[int, ...], n: int | None = None) -> "Partition":
        """Wrap an already-validated parts tuple (internal fast path)."""
        self = object.__new__(cls)
        self.parts = parts
        self.n = sum(parts) if n is None else n
        return self

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse the textual form ``"4,1"``; "" and "0" mean the empty partition."""
        text = text.strip()
        if text in ("", "0"):
            return cls()
        return cls(int(tok) for tok in text.split(","))

    def to_list(self) -> list[int]:
        return list(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]


def _conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths, run by run: parts[i-1] - parts[i] columns of height i."""
    if not parts:
        return ()
    conj = [len(parts)] * parts[-1]
    for i in range(len(parts) - 1, 0, -1):
        conj += [i] * (parts[i - 1] - parts[i])
    return tuple(conj)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    return Partition._from_valid(_conjugate_parts(lam.parts), lam.n)


def is_self_conjugate(lam: Partition) -> bool:
    parts = lam.parts
    if parts and parts[0] != len(parts):
        return False
    return parts == _conjugate_parts(parts)


def _hook_lengths(parts: tuple[int, ...]) -> list[int]:
    """All hook lengths in row-major node order (internal, unsorted)."""
    conj = _conjugate_parts(parts)
    hooks = []
    append = hooks.append
    for i, v in enumerate(parts):
        base = v - i  # hook at (i, j) = v - j + conj[j] - i - 1, 0-indexed
        for j in range(v):
            append(base - j + conj[j] - 1)
    return hooks


def divisible_hooks(lam: Partition, e: int) -> tuple[int, ...]:
    """Sub-multiset of the hook lengths divisible by e (descending tuple).

    Backs the James-Kerber weight identity: lam has (n - |e_core|) / e of them.
    """
    _require_core_modulus(e)
    return tuple(sorted((h for h in _hook_lengths(lam.parts) if h % e == 0), reverse=True))


def _require_core_modulus(e: int) -> int:
    return require_int(e, 2, "hook modulus must be an integer >= 2, got {!r}")


def e_core(lam: Partition, e: int) -> Partition:
    """The e-core: what is left after removing all rim hooks of length e.

    lam's beta set on the abacus of ``_abacus(lam.parts, e, 0)``, with
    every bead slid as far up its runner as it goes.  This is
    removal-order independent by construction; ``e_core_by_removal`` is
    its oracle, and ``degrees.is_pprime_macdonald`` reads Macdonald's
    criterion off it.
    """
    _require_core_modulus(e)
    _, runners = _abacus(lam.parts, e, 0)
    return Partition._from_valid(_beta_parts(
        [r + e * i for r, beads in enumerate(runners) for i in range(len(beads))]))


def _removable_nodes(parts: tuple[int, ...], e: int) -> list[tuple[int, int]]:
    """0-indexed nodes whose hook length is exactly e, row-major order,
    read off ``_hook_lengths``."""
    nodes = ((i, j) for i, v in enumerate(parts) for j in range(v))
    return [node for node, h in zip(nodes, _hook_lengths(parts)) if h == e]


def _remove_rim_hook(parts: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """Strip the rim hook anchored at 0-indexed node (i, j)."""
    conj = _conjugate_parts(parts)
    leg = conj[j] - 1 - i
    out = list(parts)
    for r in range(i, i + leg):
        out[r] = parts[r + 1] - 1
    out[i + leg] = j
    return tuple(x for x in out if x > 0)


def e_core_by_removal(lam: Partition, e: int, *, rightmost: bool = False) -> Partition:
    """Naive e-core oracle: repeatedly strip a removable rim e-hook.

    ``rightmost`` switches which removable hook is taken first (last vs
    first in row-major node order); the result must not depend on it.
    The oracle of ``e_core``: both orders must give the abacus core.
    """
    _require_core_modulus(e)
    parts = lam.parts
    while True:
        nodes = _removable_nodes(parts, e)
        if not nodes:
            return Partition._from_valid(parts)
        i, j = nodes[-1] if rightmost else nodes[0]
        parts = _remove_rim_hook(parts, i, j)


def p_adic_expansion(n: int, p: int) -> tuple[tuple[int, int], ...]:
    """Base-p digits of n >= 0 as (digit, exponent) pairs, zeros omitted.

    Exponents increase and every digit is in 1 .. p-1, so
    n = sum(a * p**k); n = 0 gives the empty tuple.
    """
    require_prime(p)
    require_int(n, 0, "expected a non-negative integer, got {!r}")
    digits = []
    k = 0
    while n:
        n, a = divmod(n, p)
        if a:
            digits.append((a, k))
        k += 1
    return tuple(digits)


def _partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as raw tuples, descending lexicographic."""
    if n == 0:
        yield ()
        return
    r = (n,)
    yield r
    while True:
        i = len(r) - 1
        while i >= 0 and r[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(r) - i
        r = r[:i] + (r[i] - 1,)
        while rest > 0:
            nxt = min(r[-1], rest)
            r += (nxt,)
            rest -= nxt
        yield r


class _QuotientTree:
    """A sequence of quotients as a prefix tree of flat bead moves.

    ``moves[m]`` is the move (i, j, v) of flat index m.  Node 0 is the
    root, the empty prefix.  Node t >= 1 is at position t - 1 of the
    parallel tuples ``move``, ``parent`` and ``above``: it extends the
    prefix of node ``parent[t - 1]`` by move ``move[t - 1]``, and
    ``above[t - 1]`` lists the moves of that prefix, root first.  Each
    prefix is one node, and every parent comes before its children.
    Quotient k is the prefix of node ``leaves[k]``; iteration gives the
    quotients back as their moves, in order.
    """

    __slots__ = ("moves", "move", "parent", "above", "leaves")

    def __init__(self, moves: tuple[tuple[int, int, int], ...],
                 quotients: Iterable[tuple[int, ...]]):
        """The tree of ``quotients``, each a tuple of flat move indices."""
        node: dict[tuple[int, int], int] = {}
        prefix: list[tuple[int, ...]] = [()]
        move: list[int] = []
        parent: list[int] = []
        leaves: list[int] = []
        for quotient in quotients:
            t = 0
            for m in quotient:
                child = node.get((t, m))
                if child is None:
                    child = node[t, m] = len(prefix)
                    move.append(m)
                    parent.append(t)
                    prefix.append(prefix[t] + (m,))
                t = child
            leaves.append(t)
        self.moves = moves
        self.move = tuple(move)
        self.parent = tuple(parent)
        self.above = tuple(map(prefix.__getitem__, parent))
        self.leaves = tuple(leaves)

    def path(self, t: int) -> tuple[tuple[int, int, int], ...]:
        """The moves from the root to node t."""
        if not t:
            return ()
        return tuple(map(self.moves.__getitem__, self.above[t - 1] + (self.move[t - 1],)))

    def __iter__(self) -> Iterator[tuple[tuple[int, int, int], ...]]:
        return map(self.path, self.leaves)


@lru_cache(maxsize=None)
def _multipartitions(e: int, a: int) -> tuple[_QuotientTree, tuple[int, ...], _QuotientTree]:
    """(tree, conj, halves): every e-multipartition of a as its bead moves.

    A multipartition (nu^(0), ..., nu^(e-1)) is the tuple of its moves
    (i, j, nu^(i)_j), runner i increasing and then j: slide the j-th
    lowest bead of runner i down nu^(i)_j levels.  The empty tuple is the
    only one of 0.  ``tree`` holds them as a ``_QuotientTree``, the
    moves in order of i, j and then v >= 1, so each shared prefix of
    moves is one node.  ``conj[k]`` is the index of ((nu^(e-1-i))')_i: on
    abacuses with bead counts divisible by e, the conjugate of the
    partition with e-core mu and quotient number k has e-core mu' and
    quotient number conj[k] (James and Kerber 2.7).  ``halves`` is the
    tree of the quotients k < conj[k] alone, in the same order.

    One recursion builds each quotient and its conjugate's moves
    together, from the flat moves of every partition on every runner,
    taken once: the quotient with pieces nu^(i) on runners i increasing
    has the conjugate pieces (nu^(i))' on runners e - 1 - i, in reverse
    order, so conj[k] is one index lookup of that tuple.
    """
    # the j-th part of a partition of at most a is at most a // (j + 1)
    moves = tuple((i, j, v) for i in range(e) for j in range(a)
                  for v in range(1, a // (j + 1) + 1))
    flat = {move: m for m, move in enumerate(moves)}
    partitions_of = [tuple(_partition_tuples(size)) for size in range(a + 1)]
    # piece[i][parts]: the flat moves of parts on runner i
    piece = [{parts: tuple(flat[i, j, v] for j, v in enumerate(parts))
              for of_size in partitions_of for parts in of_size} for i in range(e)]
    conjugates = {parts: _conjugate_parts(parts) for of_size in partitions_of for parts in of_size}

    def extend(first: int, left: int):
        if not left:
            yield (), ()
            return
        for runner in range(first, e):
            mine = piece[runner]
            mirror = piece[e - 1 - runner]
            # the last runner takes all that is left
            for size in range(1 if runner < e - 1 else left, left + 1):
                for parts in partitions_of[size]:
                    head = mine[parts]
                    tail = mirror[conjugates[parts]]
                    for rest, rest_conj in extend(runner + 1, left - size):
                        yield head + rest, rest_conj + tail

    quotients, mirrored = zip(*extend(0, a))
    index = {quotient: k for k, quotient in enumerate(quotients)}
    conj = tuple(map(index.__getitem__, mirrored))
    halves = (quotient for k, quotient in enumerate(quotients) if k < conj[k])
    return _QuotientTree(moves, quotients), conj, _QuotientTree(moves, halves)


def _pprime_tuples(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """Every partition of n with p'-degree, once each, as raw tuples.

    Built from the p-core tower instead of filtered.  With a * p^k the
    top base-p term of n and r = n - a * p^k, lam has p'-degree iff it
    has p^k-weight a and its p^k-core, a partition of r, has p'-degree
    (Macdonald).  Every partition of r < p^k is a p^k-core, so the
    core/quotient bijection on the beta-set abacus rebuilds each such
    lam exactly once from a p'-partition mu of r and a p^k-multipartition
    of a.  A partition of n < p always has p'-degree, since p does not
    divide n!.
    """
    if n < p:
        yield from _partition_tuples(n)
        return
    e, a, r = _top_term(n, p)
    for mu in _pprime_tuples(r, p):
        yield from _abacus_slides(mu, e, a)


def _pprime_pair_cores(n: int, p: int) -> Iterator[tuple[tuple[int, ...], int, int, Iterable]]:
    """(mu, e, a, quotients): one member of each pair {lam, lam'} of
    p'-partitions of n with lam != lam', and no self-conjugate partition.

    Each lam is given by its p^k-core mu and its quotient, as the bead
    moves of one leaf of a ``_QuotientTree`` of ``_multipartitions(e, a)``
    on ``_abacus(mu, e, a)``.  The p^k-core of lam' is mu' (James and
    Kerber 2.7), so with mu' < mu the full tree is handed out and the
    conjugates, on mu', are never visited; with mu' > mu nothing is.
    With mu' = mu it is the tree of the halves, the quotients k with
    k < conj[k]; the fixed points of conj are the self-conjugate lam.
    Both trees are cached with the multipartitions.  Below p the core is
    empty, e = 1, and the quotient on the one runner is lam itself, so
    the quotients are the partitions lam of n with lam' < lam, streamed
    from ``_partition_tuples`` as their parts.
    """
    if n < p:
        # a first row longer than the first column settles lam' < lam
        yield (), 1, n, (parts for parts in _partition_tuples(n)
                         if parts and (len(parts) < parts[0] or len(parts) == parts[0]
                                       and _conjugate_parts(parts) < parts))
        return
    e, a, r = _top_term(n, p)
    tree, _, halves = _multipartitions(e, a)
    for mu in _pprime_tuples(r, p):
        mu_conj = _conjugate_parts(mu)
        if mu_conj < mu:
            yield mu, e, a, tree
        elif mu_conj == mu:
            yield mu, e, a, halves


def _top_term(n: int, p: int) -> tuple[int, int, int]:
    """(p^k, a, r) for the top base-p term a * p^k of n >= p, r = n - a * p^k."""
    a, k = p_adic_expansion(n, p)[-1]
    e = p**k
    return e, a, n - a * e


def _abacus(mu: tuple[int, ...], e: int, a: int) -> tuple[list[int], list[list[int]]]:
    """(beta, runners): the abacus on which a partition with e-core mu
    and e-weight a is mu plus the bead moves of one quotient.

    beta is mu's beta set on L beads, decreasing, L the least multiple of
    e with L >= len(mu) + e a: the padding {0 .. L-len(mu)-1} puts at
    least a beads on every runner, and L = 0 (mod e) makes the runner
    labels those of the conjugate index of ``_multipartitions``.
    runners[i] lists the indices in beta of runner i's beads, lowest
    first (largest position first), so move (i, j, v) slides
    beta[runners[i][j]] down to beta[runners[i][j]] + e v.  With a = 0
    it is the abacus of mu itself, which ``e_core`` reads.
    """
    beads = e * (a + -(-len(mu) // e))
    beta = [v + beads - 1 - i for i, v in enumerate(mu)]
    beta += range(beads - len(mu) - 1, -1, -1)
    runners: list[list[int]] = [[] for _ in range(e)]
    for k, b in enumerate(beta):
        runners[b % e].append(k)
    return beta, runners


def _slide(beta: list[int], runners: list[list[int]], e: int, moves) -> tuple[int, ...]:
    """The partition whose beta set is ``_abacus``'s (beta, runners) after
    the bead moves of one quotient."""
    moved = beta[:]
    for runner, j, v in moves:
        moved[runners[runner][j]] += e * v
    return _beta_parts(moved)


def _beta_parts(beta: list[int]) -> tuple[int, ...]:
    """The partition with beta set ``beta``, which is sorted in place."""
    beta.sort(reverse=True)
    return tuple(filter(None, map(sub, beta, range(len(beta) - 1, -1, -1))))


def _abacus_slides(mu: tuple[int, ...], e: int, a: int) -> Iterator[tuple[int, ...]]:
    """Every partition with e-core mu and e-weight a, as raw tuples, in
    the order of the quotients of ``_multipartitions(e, a)``, read back
    from its tree."""
    beta, runners = _abacus(mu, e, a)
    for moves in _multipartitions(e, a)[0]:
        yield _slide(beta, runners, e, moves)


def enumerate_partitions(n: int, *, bound: int = DEFAULT_ENUMERATION_BOUND) -> Iterator[Partition]:
    """Every partition of n exactly once, descending lexicographic order."""
    require_int(n, 0, "expected a non-negative integer, got {!r}")
    if n > bound:
        raise ValueError(f"n = {n} exceeds the partition scan bound {bound}")
    return (Partition._from_valid(parts, n) for parts in _partition_tuples(n))


def hook_partition(n: int, x: int) -> Partition:
    """The hook (n - x, 1^x)."""
    require_int(n, 1, "expected a positive integer, got {!r}")
    if not (0 <= x <= n - 1):
        raise ValueError(f"leg length {x} out of range for n = {n}")
    return Partition._from_valid((n - x,) + (1,) * x, n)
