"""Exact coefficient fields: the rationals and prime fields F_p.

A rational scalar is stored in one canonical form (see `canonical`): an
int when its value is integral, else a gmpy2.mpq (fractions.Fraction when
gmpy2 is missing) in lowest terms with denominator above 1; never a float.
Kernels read ints with no conversion, and mixed int/mpq arithmetic stays
exact.  Prime-field scalars are plain ints reduced to the range [0, p).
"""

from __future__ import annotations

from dataclasses import dataclass

try:
    from gmpy2 import mpq
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as mpq

MAX_PRIME = 1 << 31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^31 cap."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def canonical(c):
    """The stored form of the exact rational c, an int or an mpq: c itself
    unless it is an mpq with denominator 1, which becomes an int."""
    if type(c) is int or c.denominator != 1:
        return c
    return int(c.numerator)


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field descriptor: characteristic 0 means the rationals,
    a prime p < 2^31 means F_p."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p >= MAX_PRIME:
            raise ValueError(f"prime field characteristic {p} exceeds 2^31")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")

    def coerce(self, value):
        """Turn an int, Fraction-like, or same-field scalar into a scalar:
        over QQ an int comes back unchanged and anything else in its
        canonical form."""
        p = self.characteristic
        if p:
            if isinstance(value, int):
                return value % p
            num = getattr(value, "numerator", None)
            den = getattr(value, "denominator", None)
            if num is not None and den is not None:
                return int(num) % p * pow(int(den), -1, p) % p
            raise TypeError(f"cannot coerce {value!r} into F_{p}")
        if type(value) is int:
            return value
        return canonical(mpq(value))

    def zero(self):
        """0, an int in either field."""
        return 0

    def one(self):
        """1, an int in either field."""
        return 1

    def inv(self, a):
        """The exact inverse of a nonzero scalar, in canonical form."""
        p = self.characteristic
        if p:
            return pow(a, -1, p)
        return canonical(1 / mpq(a))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
