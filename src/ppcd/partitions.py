"""Integer partitions and Young-diagram hook arithmetic.

Everything here is exact integer combinatorics: conjugation, hook
lengths, e-cores, base-p digit expansions, deterministic enumeration of
partitions, and the hook partitions (n - x, 1^x) from which ``hooks``
builds both p'-hook sets (the Kummer filter and ``_layered_first_parts``).

e-cores are computed on a beta-set abacus (push every bead to the top
of its runner), which is order-independent by construction and runs in
O(parts + e).  Three public names serve checks, not any CLI path: the
naive rim-hook remover ``e_core_by_removal`` is the oracle of
``e_core``, and ``e_core`` with ``divisible_hooks`` checks the
James-Kerber weight identity that ``degrees.is_pprime_macdonald``
relies on.  The same abacus, run in reverse, generates the p'-degree
partitions of n directly from the p-core tower (``_pprime_tuples``)
without visiting the others.  Since the p^k-core of lam' is the
conjugate of the p^k-core of lam, the core alone picks one member of
each conjugate pair (``_pprime_pairs``): only the partitions built on a
self-conjugate core are ever conjugated.

Hook products are also taken row by row (``_hook_product``): the first
row of (lam_1, ..., lam_{l+1}) contributes
(lam_1 + l)! / prod_{j=1..l} (lam_1 + j - lam_{j+1}), and the product
of the rows below the second comes from a caller-owned memo.

Partitions are immutable values and every function is pure, so the
module is safe for concurrent use.  Enumeration order is fixed
(descending lexicographic) so that downstream output is reproducible
byte for byte.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from math import factorial, prod
from operator import sub
from typing import Iterable, Iterator

__all__ = [
    "DEFAULT_ENUMERATION_BOUND",
    "Partition",
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
]

# Partition enumeration refuses n above this unless the caller raises the
# bound explicitly; p(60) is about 966k, already a deliberate request.
DEFAULT_ENUMERATION_BOUND = 60


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
    if not is_prime(require_int(p, 2, "expected a prime, got {!r}")):
        raise ValueError(f"expected a prime, got {p!r}")
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


def _hook_lengths(parts: tuple[int, ...], conj: tuple[int, ...] | None = None) -> list[int]:
    """All hook lengths in row-major node order (internal, unsorted)."""
    if conj is None:
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

    Backs the James-Kerber weight identity that is_pprime_macdonald uses.
    """
    _require_core_modulus(e)
    return tuple(sorted((h for h in _hook_lengths(lam.parts) if h % e == 0), reverse=True))


def _require_core_modulus(e: int) -> int:
    return require_int(e, 2, "hook modulus must be an integer >= 2, got {!r}")


def e_core(lam: Partition, e: int) -> Partition:
    """The e-core: what is left after removing all rim hooks of length e.

    Beta-set abacus: place the first-column hook lengths as beads on e
    runners and slide every bead as far up its runner as it goes.  This
    is removal-order independent by construction.
    Backs the James-Kerber weight identity that is_pprime_macdonald uses.
    """
    _require_core_modulus(e)
    parts = lam.parts
    ell = len(parts)
    if ell == 0:
        return lam
    beta = [parts[i] + (ell - 1 - i) for i in range(ell)]
    runner_counts = [0] * e
    for b in beta:
        runner_counts[b % e] += 1
    new_beta = []
    for r in range(e):
        new_beta.extend(r + e * i for i in range(runner_counts[r]))
    new_beta.sort(reverse=True)
    core = [new_beta[i] - (ell - 1 - i) for i in range(ell)]
    return Partition._from_valid(tuple(x for x in core if x > 0))


def _removable_nodes(parts: tuple[int, ...], e: int) -> list[tuple[int, int]]:
    """0-indexed nodes whose hook length is exactly e, row-major order."""
    conj = _conjugate_parts(parts)
    nodes = []
    for i, v in enumerate(parts):
        for j in range(v):
            if v - j + conj[j] - i - 1 == e:
                nodes.append((i, j))
    return nodes


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


@lru_cache(maxsize=None)
def _multipartitions(e: int, a: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Every e-multipartition of a, each as its nonempty components.

    A multipartition is a tuple of (runner, parts) pairs with strictly
    increasing runners in range(e); the empty tuple is the only one of 0.
    """
    partitions_of = [tuple(_partition_tuples(size)) for size in range(a + 1)]

    def extend(first: int, left: int):
        if not left:
            yield ()
            return
        for runner in range(first, e):
            for size in range(1, left + 1):
                for parts in partitions_of[size]:
                    for rest in extend(runner + 1, left - size):
                        yield ((runner, parts),) + rest

    return tuple(extend(0, a))


def _pprime_tuples(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """Every partition of n with p'-degree, once each, as raw tuples.

    Built from the p-core tower instead of filtered.  With a * p^k the
    top base-p term of n and r = n - a * p^k, lam has p'-degree iff it
    has p^k-weight a and its p^k-core, a partition of r, has p'-degree
    (Macdonald).  Every partition of r < p^k is a p^k-core, so the
    core/quotient bijection on the beta-set abacus rebuilds each such
    lam exactly once from a p'-partition mu of r and a p^k-multipartition
    of a: slide the j-th lowest bead of runner i down nu^(i)_j levels.
    A partition of n < p always has p'-degree, since p does not divide n!.
    """
    if n < p:
        yield from _partition_tuples(n)
        return
    e, a, r = _top_term(n, p)
    for mu in _pprime_tuples(r, p):
        yield from _abacus_slides(mu, e, a)


def _pprime_pairs(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """One member of each pair {lam, lam'} of p'-partitions of n with
    lam != lam', as raw tuples; no self-conjugate partition.

    The p^k-core of lam' is the conjugate of the p^k-core of lam (James
    and Kerber 2.7), so the core mu of ``_pprime_tuples`` picks the
    member: with mu' < mu every partition built on mu is kept and its
    conjugate, built on mu', is never built; with mu' > mu nothing is
    built; with mu' = mu (mu empty included) lam is kept when lam' < lam.
    Below p every partition of n is a p'-partition, kept when lam' < lam.
    """
    if n < p:
        yield from filter(_above_conjugate, _partition_tuples(n))
        return
    e, a, r = _top_term(n, p)
    for mu in _pprime_tuples(r, p):
        conj = _conjugate_parts(mu)
        if conj < mu:
            yield from _abacus_slides(mu, e, a)
        elif conj == mu:
            yield from filter(_above_conjugate, _abacus_slides(mu, e, a))


def _above_conjugate(parts: tuple[int, ...]) -> bool:
    """Whether lam' < lam; a first column longer than the first row
    settles it without conjugating."""
    return bool(parts) and len(parts) <= parts[0] and _conjugate_parts(parts) < parts


def _top_term(n: int, p: int) -> tuple[int, int, int]:
    """(p^k, a, r) for the top base-p term a * p^k of n >= p, r = n - a * p^k."""
    e = p
    while e * p <= n:
        e *= p
    a, r = divmod(n, e)
    return e, a, r


def _abacus_slides(mu: tuple[int, ...], e: int, a: int) -> Iterator[tuple[int, ...]]:
    """Every partition with e-core mu and e-weight a, as raw tuples.

    The core/quotient bijection on the beta-set abacus: one partition per
    e-multipartition of a, made by sliding the j-th lowest bead of
    runner i down nu^(i)_j levels.
    """
    # len(mu) + e * a beads, so that every runner holds at least a
    beads = len(mu) + e * a
    beta = [v + beads - 1 - i for i, v in enumerate(mu)]
    beta += range(e * a - 1, -1, -1)
    offsets = range(beads - 1, -1, -1)
    runners: list[list[int]] = [[] for _ in range(e)]
    for i, b in enumerate(beta):  # indices of each runner's beads, lowest first
        runners[b % e].append(i)
    for quotient in _multipartitions(e, a):
        moved = beta[:]
        for runner, nu in quotient:
            idx = runners[runner]
            for j, v in enumerate(nu):
                moved[idx[j]] += e * v
        moved.sort(reverse=True)
        lam = list(map(sub, moved, offsets))
        yield tuple(lam[: lam.index(0)] if lam[-1] == 0 else lam)


def _hook_product(parts: tuple[int, ...], memo: dict) -> int:
    """Product of all hook lengths of lam, row by row.

    Row 0 of (lam_1, ..., lam_{l+1}) holds the hooks {1 .. lam_1 + l}
    minus the first-column beta-set gaps lam_1 + j - lam_{j+1}, so its
    product is (lam_1 + l)! / prod_{j=1..l} (lam_1 + j - lam_{j+1}).  The
    top two rows are computed here and the product of the rest is looked
    up in ``memo``, keyed by parts[2:].  A missing entry is filled the
    same way, two rows at a time down to the first suffix found, with no
    recursion, so a long column costs no stack depth.
    """
    tops = []
    while (below := memo.get(parts[2:])) is None and len(parts) > 2:
        tops.append(parts)
        parts = parts[2:]
    # below is None only for parts[2:] == (), whose product is 1
    product = (below or 1) * _top_rows_hook_product(parts)
    while tops:
        memo[parts] = product
        parts = tops.pop()
        product *= _top_rows_hook_product(parts)
    return product


def _top_rows_hook_product(parts: tuple[int, ...]) -> int:
    """Product of the hook lengths in the top two rows of parts: the row
    formula of ``_hook_product`` on parts and on parts[1:], over one
    division."""
    ell = len(parts)
    if ell < 2:
        return factorial(parts[0]) if parts else 1
    a, b = parts[0], parts[1]
    return (factorial(a + ell - 1) * factorial(b + ell - 2)
            // (prod(map(sub, range(a + 1, a + ell), parts[1:]))
                * prod(map(sub, range(b + 1, b + ell - 1), parts[2:]))))


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
