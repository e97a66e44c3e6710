"""Degree polynomials in q for characters of finite groups of Lie type.

Four layers:

* ``DegreeFormula`` -- a product form prod(q^m - s) over prod(q^m - s),
  taken by one exact division and halved where its ``half`` flag is
  set.  A value is an ``int``, and a ``Fraction`` only where it is
  non-integral.  The halved classical q'-part entries clear the 1/2
  only for odd q; at even q they are non-integral, and the grid prints
  them as such.
* generic-order arithmetic for GL/GU, giving semisimple character
  degrees as p'-parts of centralizer indices, checked against the
  closed forms they reproduce (acceptance criterion 7).
* the classical grid: two carried unipotent q'-degrees (d1, d2) per
  family and rank, checked for every grid prime p > 3 prime to q.  A
  degree's denominator is 1 or 2, so p divides it exactly when it
  divides its numerator.  The grid is computed by (family, rank, q)
  block: d1 and d2 are fixed within a block, and p divides both exactly
  when p | gcd(d1.numerator, d2.numerator), so one gcd per block gives
  every failing p.
* the small families (PSL2, PSL3/PSU3, PSp4, the Suzuki and small Ree
  groups, and the defining-characteristic G2/F4/triality-D4
  constants), each selecting for every (family, q, p) of its domain a
  pair of p'-degrees (d1, d2) with d2 never dividing d1.  One table,
  ``_SMALL_FAMILIES``, maps each family to its record builder and to
  whether the pair is claimed only in defining characteristic;
  ``exceptional_pair_record``, ``in_contract_regime`` and
  ``exceptional_grid`` all read it, the grid being the (family, q, p)
  whose builder accepts them and whose regime holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import groupby
from math import gcd, isqrt, prod
from typing import Iterator, NamedTuple

from .partitions import (TRIAL_DIVISION_LIMIT, is_prime, require_int, require_prime,
                         require_prime_above_3)

__all__ = [
    "DegreeFormula",
    "ExceptionalPairRecord",
    "classical_families",
    "classical_family_rank_range",
    "classical_grid",
    "classical_unipotent_pair",
    "exceptional_grid",
    "exceptional_pair_record",
    "gl_order",
    "in_contract_regime",
    "nondivisibility_check",
    "prime_power_decomposition",
    "prime_powers_upto",
    "qprime_part",
    "semisimple_degree",
]


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """(r, a) with q = r^a and r prime, or None (also for a non-int or q < 2);
    q is factored by trial division, so ValueError above ``TRIAL_DIVISION_LIMIT``."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        return None
    if q > TRIAL_DIVISION_LIMIT:
        raise ValueError(f"expected a prime power <= {TRIAL_DIVISION_LIMIT}, got {q}")
    r = next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)
    a = 0
    m = q
    while m % r == 0:
        m //= r
        a += 1
    return (r, a) if m == 1 else None


def require_prime_power(q: int) -> tuple[int, int]:
    """``prime_power_decomposition(q)``, or ValueError where it is None."""
    dec = prime_power_decomposition(q)
    if dec is None:
        raise ValueError(f"expected a prime power >= 2, got {q!r}")
    return dec


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers q <= limit, increasing."""
    return [q for q in range(2, limit + 1) if prime_power_decomposition(q)]


def _primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


@dataclass(frozen=True)
class DegreeFormula:
    """prod(q^m - s) / prod(q^m - s), s = +-1, halved where ``half``.

    For every carried formula the quotient of the products is a
    polynomial in q with integer coefficients, so ``evaluate_rational``
    takes it by one exact division, whose remainder raises.  The value
    is an ``int``, or a ``Fraction`` with denominator 2 where ``half``
    is set and the quotient is odd: the halved rows are non-integral at
    even q.
    """

    half: bool = False
    factors: tuple[tuple[int, int], ...] = ()
    denominator_factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for m, s in self.factors + self.denominator_factors:
            if m < 1 or s not in (1, -1):
                raise ValueError(f"bad factor (m, s) = ({m}, {s})")

    def evaluate_rational(self, q: int) -> int | Fraction:
        """The value at q: an ``int``, or a ``Fraction`` with denominator 2
        exactly when ``half`` is set and the quotient is odd."""
        num = 1
        for m, s in self.factors:
            num *= q**m - s
        den = 1
        for m, s in self.denominator_factors:
            den *= q**m - s
        value, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"{self} does not divide exactly at q = {q}")
        if not self.half:
            return value
        halved, odd = divmod(value, 2)
        return Fraction(value, 2) if odd else halved


def qprime_part(N: int, r: int) -> int:
    """N with every factor of the prime r removed."""
    require_prime(r)
    require_int(N, 1, "expected a positive integer, got {!r}")
    while N % r == 0:
        N //= r
    return N


def gl_order(n: int, eps: int, q: int) -> int:
    """|GL_n(q)| for eps = +1, |GU_n(q)| for eps = -1.

    Backs acceptance criterion 7, through ``semisimple_degree``.
    """
    if eps not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {eps!r}")
    require_int(n, 1, "rank must be a positive integer, got {!r}")
    require_prime_power(q)
    order = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        order *= q**i - eps**i
    return order


def semisimple_degree(
    n: int, eps: int, q: int, centralizer: tuple[tuple[int, int, int], ...]
) -> int:
    """Degree of the semisimple character attached to a centralizer.

    The centralizer C is a product of factors (rank, sign, twist), each
    GL_rank^sign(q^twist) inside GL_n^eps(q) and checked by ``gl_order``;
    the ranks weighted by their twists must fill n.  The degree is the
    r'-part of [GL_n^eps(q) : C], r the defining prime of q.  A centralizer
    whose order does not divide the group order is rejected.
    Backs acceptance criterion 7: the closed forms for GL_2, GL_3, GU_3.
    """
    r, _ = require_prime_power(q)
    filled = sum(rank * twist for rank, _, twist in centralizer)
    if filled != n:
        raise ValueError(f"centralizer fills rank {filled}, ambient rank is {n}")
    order = prod(gl_order(rank, sign, q**twist) for rank, sign, twist in centralizer)
    index, rem = divmod(gl_order(n, eps, q), order)
    if rem:
        raise ArithmeticError(f"centralizer order does not divide the group order: {centralizer}")
    return qprime_part(index, r)


# -- classical-family unipotent degree pairs ---------------------------------
#
# For each classical family two specific low unipotent characters are
# carried, as q'-parts of their degrees.  The twisted-A pair is the A
# pair under Ennola duality (q -> -q): each factor q^m - 1 becomes
# q^m - (-1)^m, so the parity of m picks the sign.  The halved rows
# (B/C, the rank-4 D row, and the even-q B2 row) are integral only for
# odd q; they are evaluated as written, to exact rationals.

CLASSICAL_FAMILY_ALIASES = {"C": "B"}

_CLASSICAL_RANK_RANGES = {
    "A": (4, None),
    "2A": (4, None),
    "B": (2, None),
    "B2-even": (2, 2),
    "D": (5, None),
    "D4": (4, 4),
    "2D": (4, None),
}


def classical_families() -> list[str]:
    return list(_CLASSICAL_RANK_RANGES)


def classical_family_rank_range(family: str) -> tuple[int, int | None]:
    """(min_rank, max_rank) for a classical family; None = unbounded."""
    fam = CLASSICAL_FAMILY_ALIASES.get(family, family)
    if fam not in _CLASSICAL_RANK_RANGES:
        raise ValueError(f"unknown classical family {family!r}")
    return _CLASSICAL_RANK_RANGES[fam]


def classical_unipotent_pair(family: str, n: int) -> tuple[DegreeFormula, DegreeFormula]:
    """The two carried unipotent q'-degree formulas for a classical family.

    Ranks follow the matrix size for the (twisted) linear families
    (so family "A" with n means GL_n-type, n >= 4) and the Lie rank for
    the others.  "B" covers both B_n and C_n; rank 2 there presumes odd
    q, even q being the separate "B2-even" row.
    """
    fam = CLASSICAL_FAMILY_ALIASES.get(family, family)
    lo, hi = classical_family_rank_range(fam)
    if n < lo or (hi is not None and n > hi):
        raise ValueError(f"rank {n} out of range for family {family!r}")
    if fam in ("A", "2A"):
        # each factor q^m - eps^m: eps = 1 for A, and -1 for 2A by Ennola
        eps = 1 if fam == "A" else -1
        f1 = DegreeFormula(factors=((n - 1, eps ** (n - 1)),), denominator_factors=((1, eps),))
        f2 = DegreeFormula(
            factors=((n, eps**n), (n - 3, eps ** (n - 3))),
            denominator_factors=((1, eps), (2, eps**2)),
        )
    elif fam == "B":
        f1 = DegreeFormula(half=True, factors=((n - 1, 1), (n, -1)), denominator_factors=((1, 1),))
        f2 = DegreeFormula(half=True, factors=((n - 1, -1), (n, 1)), denominator_factors=((1, 1),))
    elif fam == "B2-even":
        f1 = DegreeFormula(half=True, factors=((1, 1), (1, 1)))
        f2 = DegreeFormula(half=True, factors=((1, -1), (1, -1)))
    elif fam == "D4":
        f1 = DegreeFormula(half=True, factors=((1, -1), (1, -1), (1, -1), (3, -1)))
        # (q^2+1)^2 (q^2+q+1) / 2, with q^2+q+1 written (q^3-1)/(q-1)
        f2 = DegreeFormula(half=True, factors=((2, -1), (2, -1), (3, 1)),
                           denominator_factors=((1, 1),))
    else:
        # d1 = (q^n - eps)(q^(n-2) + eps) / (q^2 - 1): eps = 1 for D, -1 for 2D
        eps = 1 if fam == "D" else -1
        f1 = DegreeFormula(factors=((n, eps), (n - 2, -eps)), denominator_factors=((2, 1),))
        f2 = DegreeFormula(factors=((n - 1, -1), (n - 1, 1)), denominator_factors=((2, 1),))
    return f1, f2


def _takes_q(fam: str, n: int, q: int) -> bool:
    """Whether the row of (canonical family, rank) takes q: the rank-2
    B/C row needs odd q, and the B2-even row even q."""
    if fam == "B2-even":
        return q % 2 == 0
    return not (fam == "B" and n == 2 and q % 2 == 0)


class _ClassicalBlock(NamedTuple):
    """The rows of one (family, rank, q) of the classical grid.

    ``primes`` are the grid primes p with q % p != 0, increasing;
    ``failing`` are those of them that divide both d1 and d2.  d1 and d2
    are as ``DegreeFormula.evaluate_rational`` returns them; ``row``
    gives them as ``Fraction``s.
    """

    family: str
    n: int
    q: int
    d1: int | Fraction
    d2: int | Fraction
    primes: tuple[int, ...]
    failing: frozenset[int]

    def row(self, p: int, ok: bool) -> dict:
        return {"family": self.family, "n": self.n, "q": self.q, "p": p,
                "d1": Fraction(self.d1), "d2": Fraction(self.d2), "ok": ok}


def _classical_blocks(
    q_max: int,
    p_max: int,
    families: list[str] | None = None,
    rank_max: int = 10,
) -> Iterator[_ClassicalBlock]:
    """The classical grid as (family, rank, q) blocks, in row order.

    Every family is checked, and the prime powers q <= q_max found,
    before this returns; the blocks themselves are built one at a time
    as the returned iterator is read, so only the current one is held.
    Within a block d1 and d2 are fixed, so with g = gcd(d1.numerator,
    d2.numerator) a prime p fails exactly when p | g; one gcd against
    the product of the grid primes finds them all.
    """
    fams = families if families is not None else classical_families()
    ranges = [classical_family_rank_range(family) for family in fams]
    ps = _primes_in(5, p_max)
    ps_product = prod(ps)
    primes_of = {q: tuple(p for p in ps if q % p) for q in prime_powers_upto(q_max)}

    def blocks():
        for family, (lo, hi) in zip(fams, ranges):
            fam = CLASSICAL_FAMILY_ALIASES.get(family, family)
            top = min(rank_max, hi) if hi is not None else rank_max
            for n in range(lo, top + 1):
                f1, f2 = classical_unipotent_pair(fam, n)
                for q, primes in primes_of.items():
                    if not _takes_q(fam, n, q):
                        continue
                    d1 = f1.evaluate_rational(q)
                    d2 = f2.evaluate_rational(q)
                    g = gcd(d1.numerator, d2.numerator, ps_product)
                    failing = frozenset(p for p in primes if g % p == 0) if g > 1 else frozenset()
                    yield _ClassicalBlock(family, n, q, d1, d2, primes, failing)

    return blocks()


def classical_grid(
    q_max: int,
    p_max: int,
    families: list[str] | None = None,
    rank_max: int = 10,
) -> list[dict]:
    """One row per (family, rank, q, p) combination of the verification grid.

    Degrees are exact rationals (the halved rows are non-integral for
    even q).  The rows are the (family, rank, q) blocks of
    ``_classical_blocks`` flattened as the stream yields them, and ``ok``
    is its not-both-divisible check; unlike that stream, the returned
    list grows with the grid (``verify-lie`` writes the blocks
    instead).  ``ok`` is False on the A rows with q = -1 (mod p), n odd and
    p | n - 3, and on the 2A rows with q = 1 (mod p) and the same n, for
    example (A, 13, 4, 5) and (2A, 13, 11, 5): the open type-A defect of
    the classical grid that ROADMAP.md lists.
    """
    return [
        block.row(p, p not in block.failing)
        for block in _classical_blocks(q_max, p_max, families, rank_max)
        for p in block.primes
    ]


# -- exceptional pairs for the excluded small families -----------------------


@dataclass(frozen=True)
class CharacterWitness:
    degree: int
    origin: str
    extends_to_aut: bool
    p_group_invariant: bool


@dataclass(frozen=True)
class ExceptionalPairRecord:
    family: str
    q: int
    p: int
    case: str
    chi1: CharacterWitness
    chi2: CharacterWitness

    @property
    def degrees(self) -> tuple[int, int]:
        return (self.chi1.degree, self.chi2.degree)


def _psl2_record(q: int, p: int) -> ExceptionalPairRecord:
    r, a = require_prime_power(q)
    if q < 4:
        raise ValueError(f"PSL2({q}) is not simple")
    m = qprime_part(a, p)
    square = a % 2 == 0
    if p == r:
        # defining characteristic: semisimple pairs from rank-1 tori
        if p > 5:
            chi1 = CharacterWitness(q + 1, "semisimple:split-torus", True, True)
            chi2 = CharacterWitness(
                q - 1, "semisimple:nonsplit-torus", not square, True
            )
            case = "defining"
        elif m > 1:
            d1 = q + 1 if square else q - 1
            d2 = q - 1 if square else q + 1
            chi1 = CharacterWitness(d1, "semisimple:order-6-eigenvalues", True, True)
            chi2 = CharacterWitness(d2, "semisimple:subfield-torus", False, True)
            case = "defining-p5-mixed-exponent"
        else:
            chi1 = CharacterWitness(q - 1, "semisimple:order-6-eigenvalues", True, True)
            chi2 = CharacterWitness((q + 1) // 2, "half-discrete-series", False, True)
            case = "defining-p5-tower"
        return ExceptionalPairRecord("PSL2", q, p, case, chi1, chi2)
    if q == 5:
        # q+1 = 6 is not a degree of PSL2(5); pair the Steinberg with
        # the discrete-series degree 4 instead
        chi1 = CharacterWitness(q, "steinberg", True, True)
        chi2 = CharacterWitness(q - 1, "semisimple:nonsplit-torus", False, True)
        return ExceptionalPairRecord("PSL2", q, p, "nondefining-small-q", chi1, chi2)
    if (q + 1) % p and (q - 1) % p:
        if r > 3:
            extends2 = r > 5 and not square
            chi1 = CharacterWitness(q + 1, "semisimple:split-torus", True, True)
            chi2 = CharacterWitness(q - 1, "semisimple:nonsplit-torus", extends2, True)
            return ExceptionalPairRecord(
                "PSL2", q, p, "nondefining-generic", chi1, chi2
            )
        # q a power of 2 or 3: Steinberg plus a torus character fixed
        # by the p-power field automorphisms
        chi1 = CharacterWitness(q, "steinberg", True, True)
        if m > 1:
            chi2 = CharacterWitness(q + 1, "semisimple:subfield-torus", False, True)
        elif r == 2:
            chi2 = CharacterWitness(q - 1, "semisimple:order-3-eigenvalues", False, True)
        else:
            chi2 = CharacterWitness((q - 1) // 2, "half-discrete-series", False, True)
        return ExceptionalPairRecord(
            "PSL2", q, p, "nondefining-small-field", chi1, chi2
        )
    chi1 = CharacterWitness(q, "steinberg", True, True)
    if (q + 1) % p == 0:
        chi2 = CharacterWitness(q - 1, "semisimple:nonsplit-torus", False, True)
        case = "nondefining-p-divides-q-plus-1"
    else:
        chi2 = CharacterWitness(q + 1, "semisimple:split-torus", False, True)
        case = "nondefining-p-divides-q-minus-1"
    return ExceptionalPairRecord("PSL2", q, p, case, chi1, chi2)


def _psl3_record(family: str, q: int, p: int) -> ExceptionalPairRecord:
    eps = 1 if family == "PSL3" else -1
    r, a = require_prime_power(q)
    if eps == -1 and q < 3:
        raise ValueError("PSU3(2) is not simple")
    square = a % 2 == 0
    cyclo = q * q + eps * q + 1
    if p == r:
        chi1 = CharacterWitness((q + 1) * cyclo, "semisimple:split-torus", True, True)
        chi2 = CharacterWitness(
            (q - 1) * cyclo, "semisimple:nonsplit-torus", not square, True
        )
        return ExceptionalPairRecord(family, q, p, "defining", chi1, chi2)
    st = CharacterWitness(q**3, "steinberg", True, True)
    if (q + eps) % p:
        chi2 = CharacterWitness(q * (q + eps), "unipotent-subregular", True, True)
        case = "nondefining-unipotent"
    else:
        extends2 = eps == -1 or not square
        chi2 = CharacterWitness(
            (q - eps) * cyclo, "semisimple:nonsplit-torus", extends2, True
        )
        case = "nondefining-semisimple"
    return ExceptionalPairRecord(family, q, p, case, st, chi2)


def _psp4_record(q: int, p: int) -> ExceptionalPairRecord:
    r, a = require_prime_power(q)
    if r <= 3:
        raise ValueError(
            f"PSp4 degree pair is only carried for q a power of a prime > 3, got q = {q}"
        )
    square = a % 2 == 0
    chi1 = CharacterWitness((q + 1) * (q * q + 1), "principal-series", True, True)
    chi2 = CharacterWitness(
        (q - 1) * (q * q + 1), "discrete-series", not square, True
    )
    return ExceptionalPairRecord("PSp4", q, p, "defining", chi1, chi2)


def _suzuki_record(q2: int, p: int) -> ExceptionalPairRecord:
    dec = prime_power_decomposition(q2)
    if dec is None or dec[0] != 2 or dec[1] % 2 == 0 or dec[1] < 3:
        raise ValueError(f"Suzuki groups need q^2 = 2^(2m+1) with m >= 1, got {q2}")
    if (q2 - 1) % p:
        raise ValueError(
            f"the carried Suzuki pair needs p dividing q^2 - 1 = {q2 - 1}, got p = {p}"
        )
    chi1 = CharacterWitness(q2 * q2, "steinberg", True, True)
    chi2 = CharacterWitness(q2 * q2 + 1, "torus-series", False, True)
    return ExceptionalPairRecord("Suzuki", q2, p, "p-divides-q2-minus-1", chi1, chi2)


def _ree_record(q2: int, p: int) -> ExceptionalPairRecord:
    dec = prime_power_decomposition(q2)
    if dec is None or dec[0] != 3 or dec[1] % 2 == 0 or dec[1] < 3:
        raise ValueError(f"small Ree groups need q^2 = 3^(2m+1) with m >= 1, got {q2}")
    if (q2 - 1) % p:
        raise ValueError(
            f"the carried Ree pair needs p dividing q^2 - 1 = {q2 - 1}, got p = {p}"
        )
    chi1 = CharacterWitness(q2**3, "steinberg", True, True)
    chi2 = CharacterWitness(q2 * q2 - q2 + 1, "cuspidal-unique-degree", True, True)
    return ExceptionalPairRecord("Ree2G2", q2, p, "p-divides-q2-minus-1", chi1, chi2)


def _exceptional_defining_record(family: str, q: int, p: int) -> ExceptionalPairRecord:
    """G2/F4/triality-D4 defining-characteristic constants.

    These degrees are carried as data (unique characters of the stated
    degrees).  Their one oracle is the order necessary condition, each
    degree d divides |G| and d^2 < |G|, checked over
    ``exceptional_grid(128, 97)`` in tests/test_lie.py.
    """
    r, _ = require_prime_power(q)
    if p != r or r <= 3:
        raise ValueError(
            f"{family} degrees are only carried in defining characteristic > 3"
        )
    if family == "G2":
        eps = 1 if q % 6 == 1 else -1
        d1, d2 = q**4 + q**2 + 1, q**3 + eps
    elif family == "F4":
        d1 = q**8 + q**4 + 1
        d2 = (q**2 + 1) * (q**4 + 1) * (q**8 + q**4 + 1)
    else:  # TriD4
        d1 = q**8 + q**4 + 1
        d2 = (q + 1) * (q**8 + q**4 + 1)
    chi1 = CharacterWitness(d1, "unique-degree", True, True)
    chi2 = CharacterWitness(d2, "unique-degree", True, True)
    return ExceptionalPairRecord(family, q, p, "defining", chi1, chi2)


# family -> (record builder, claimed only in defining characteristic).
# A builder (q, p) -> record raises ValueError outside its domain.  The
# PSp4 and exceptional-type pairs carry no divisibility guarantee off
# the defining prime; the other families' case split covers every p.
_SMALL_FAMILIES = {
    "PSL2": (_psl2_record, False),
    "PSL3": (partial(_psl3_record, "PSL3"), False),
    "PSU3": (partial(_psl3_record, "PSU3"), False),
    "PSp4": (_psp4_record, True),
    "G2": (partial(_exceptional_defining_record, "G2"), True),
    "F4": (partial(_exceptional_defining_record, "F4"), True),
    "TriD4": (partial(_exceptional_defining_record, "TriD4"), True),
    "Suzuki": (_suzuki_record, False),
    "Ree2G2": (_ree_record, False),
}

_EXC_ALIASES = {"PSL3e": "PSL3", "2B2": "Suzuki", "2G2": "Ree2G2", "3D4": "TriD4"}


def _small_family(family: str) -> tuple:
    """The table entry of a small family or alias."""
    fam = _EXC_ALIASES.get(family, family)
    if fam not in _SMALL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _SMALL_FAMILIES[fam]


def exceptional_pair_record(family: str, q: int, p: int) -> ExceptionalPairRecord:
    """Full record (degrees plus invariance metadata) for a small family."""
    build, _ = _small_family(family)
    require_prime_above_3(p)
    return build(q, p)


def nondivisibility_check(d1: int, d2: int, p: int) -> bool:
    """p divides neither degree and d2 does not divide d1."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees must be positive")
    return d1 % p != 0 and d2 % p != 0 and d1 % d2 != 0


def in_contract_regime(family: str, q: int, p: int) -> bool:
    """Whether (family, q, p) falls under the nondivisibility contract.

    True unless the family is claimed only in defining characteristic
    (PSp4 and the exceptional-type constants) and p is not the prime
    of q.
    """
    _, defining_only = _small_family(family)
    return not defining_only or p == require_prime_power(q)[0]


def exceptional_grid(q_max: int = 128, p_max: int = 97) -> list[tuple[str, int, int]]:
    """Every regime-valid (family, q, p) combination within the caps.

    A filter over ``_SMALL_FAMILIES``, prime powers q <= q_max and
    primes 5 <= p <= p_max: (family, q, p) is kept when the builder
    returns a record and ``in_contract_regime`` holds.  The families
    claimed only in defining characteristic are walked together, q by
    q, every other family on its own, in table order: the order the
    benchmark's lie-pair corpus was recorded in.
    """
    ps = _primes_in(5, p_max)
    qs = prime_powers_upto(q_max)
    combos: list[tuple[str, int, int]] = []
    for _, walk in groupby(_SMALL_FAMILIES.items(), key=lambda kv: kv[1][1] or kv[0]):
        walk = list(walk)
        for q in qs:
            for fam, (build, _) in walk:
                for p in ps:
                    try:
                        build(q, p)
                    except ValueError:
                        continue
                    if in_contract_regime(fam, q, p):
                        combos.append((fam, q, p))
    return combos
