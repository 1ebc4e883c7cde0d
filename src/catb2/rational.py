"""Exact rational scalars and the combinatorial quantities built from them.

Everything here is arbitrary-precision and exact: rationals are
`fractions.Fraction`, never floats.  The falling factorial uses the
convention (a)_k = a*(a-1)*...*(a-k+1) and is extended to negative k by
(a)_{-n} = 1/(a+n)_n, the unique extension satisfying the shift law
(a)_{j+k} = (a)_j * (a-j)_k.

This bottom module also holds the one memo registry: `_cached` memoizes a
pure builder without bound and registers it (here and in `poly`,
`constructions` and `checks`), and `clear_caches` empties every memo.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# str() of a Fraction is "num/den" with the denominator omitted when it is
# 1, which is exactly the text form used by the serializer and the CLI.
RatLike = Fraction | int

_CACHES: list = []


def _cached(fn):
    """fn memoized without bound, in the registry `clear_caches` empties."""
    wrapped = functools.lru_cache(maxsize=None)(fn)
    _CACHES.append(wrapped)
    return wrapped


def clear_caches() -> None:
    """Drop all memoized values (used by mutation/soundness tests)."""
    for fn in _CACHES:
        fn.cache_clear()


def falling_factorial(alpha: RatLike, k: int) -> Fraction:
    """Falling factorial (alpha)_k.

    For k >= 0 this is the product alpha*(alpha-1)*...*(alpha-k+1), with the
    empty product equal to 1.  For k < 0 it is 1/(alpha+|k|)_{|k|}; that case
    raises if any of alpha+1, ..., alpha+|k| is zero.
    """
    return Fraction(*falling_factorial_pair(alpha.numerator, alpha.denominator, k))


@_cached
def falling_factorial_pair(a: int, d: int, k: int) -> tuple[int, int]:
    """(a/d)_k, d > 0, as an unreduced integer pair (numerator, nonzero denominator)
    with the poles of `falling_factorial`; (a/d)_n = prod_{j<n} (a - j*d) / d^n."""
    n = abs(k)
    if k < 0:
        a += n * d  # (a/d)_k = 1 / (a/d + n)_n
    num = math.prod(a - j * d for j in range(n))
    if k >= 0:
        return num, d**n
    if num == 0:
        raise ZeroDivisionError("falling factorial pole")
    return d**n, num


def binomial(n: int, k: int) -> int:
    """Binomial coefficient for n >= 0, with value 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("unsupported binomial")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def beta_half(u: int, i: int, m: int) -> Fraction:
    """Exact value of the Beta integral B(u+i+1/2, m+1) for u, i, m >= 0.

    Equals m! / (m+i+u+1/2)_{m+1}; the falling factorial of a half-integer
    over an integer length never vanishes, so this is always defined.
    """
    if u < 0 or i < 0 or m < 0:
        raise ValueError("beta_half arguments must be nonnegative")
    return math.factorial(m) / falling_factorial(Fraction(2 * (m + i + u) + 1, 2), m + 1)

