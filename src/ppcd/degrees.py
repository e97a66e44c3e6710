"""Character degrees of the symmetric and alternating groups.

Degrees come from the hook-length formula with exact big-integer
arithmetic.  p-divisibility questions go through Legendre's factorial
valuation, so n! is never factored and never materialized for a mere
p'-test.  The second p'-test is Macdonald's criterion, read off the
p-power cores of ``partitions.e_core``.  The valuation computation over
all hook lengths is its independent oracle, and the one a CLI path
uses: ``ppcd degrees`` reports ``pprime`` from ``degree_valuation``, and
Macdonald's test backs acceptance criterion 1.
"""

from __future__ import annotations

from math import comb, factorial, prod

from .partitions import Partition, _hook_lengths, e_core, require_int, require_prime

__all__ = [
    "binomial_coprime_lucas",
    "degree",
    "degree_valuation",
    "factorial_valuation",
    "hook_degree",
    "int_valuation",
    "is_pprime_macdonald",
]


def int_valuation(m: int, p: int) -> int:
    """Largest v with p^v dividing m (m >= 1)."""
    require_int(m, 1, "valuation needs a positive integer, got {!r}")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def factorial_valuation(n: int, p: int) -> int:
    """Legendre's formula: the exponent of p in n!."""
    s = 0
    while n:
        n //= p
        s += n
    return s


def degree(lam: Partition) -> int:
    """Degree of the irreducible S_n character labelled by lam.

    n! divided by the product of all hook lengths; the division is
    exact, anything else means the hook computation is broken.
    """
    hooks = _hook_lengths(lam.parts)
    q, r = divmod(factorial(lam.n), prod(hooks))
    if r:
        raise ArithmeticError(f"hook product does not divide {lam.n}! for {lam}")
    return q


def hook_degree(n: int, x: int) -> int:
    """Degree of the hook character (n - x, 1^x): binomial(n-1, x)."""
    if not (0 <= x <= n - 1):
        raise ValueError(f"leg length {x} out of range for n = {n}")
    return comb(n - 1, x)


def degree_valuation(lam: Partition, p: int) -> int:
    """Exponent of p in degree(lam), without computing the degree."""
    require_prime(p)
    v = factorial_valuation(lam.n, p)
    for h in _hook_lengths(lam.parts):
        if h % p == 0:
            v -= int_valuation(h, p)
    if v < 0:
        raise ArithmeticError(f"negative valuation for {lam} at p = {p}")
    return v


def is_pprime_macdonald(lam: Partition, p: int) -> bool:
    """p'-degree test by Macdonald's criterion (Bull. LMS 3 (1971)): lam
    has p'-degree iff, for every e = p^j <= n, its e-core has size n mod e.

    The cores are ``e_core``'s, so no hook length is built.  For n < p
    there is no such e: p does not divide n!.
    """
    require_prime(p)
    n = lam.n
    e = p
    while e <= n:
        if e_core(lam, e).n != n % e:
            return False
        e *= p
    return True


def binomial_coprime_lucas(n: int, k: int, p: int) -> bool:
    """Lucas test: p does not divide binomial(n, k) iff every base-p
    digit of k is at most the matching digit of n.

    Backs the Lucas check against the Legendre filter in ``pprime_hook_xs``.
    """
    require_prime(p)
    if not (0 <= k <= n):
        return False
    while k:
        if k % p > n % p:
            return False
        k //= p
        n //= p
    return True
