"""Sparse multivariate polynomials over an exact field.

Terms are kept as parallel tuples (packed monomial keys, coefficients),
strictly descending in the degrevlex key order, with no zero coefficients.
Over QQ each coefficient is stored in the field's canonical form (an int
when integral, else an mpq; see fields.canonical), which every route that
can produce a rational by mpq arithmetic applies, so kernels read the
stored coefficients as they are.  That canonical form makes equality,
hashing, and leading-term access O(1) and keeps every construction path
bit-stable.
"""

from __future__ import annotations

from math import gcd

from .errors import (DegreeOverflowError, NonHomogeneousError,
                     RingMismatchError, SingularMatrixError)
from .fields import canonical, mpq
from .ring import CAP, EXP_LIMIT, Ring


class Polynomial:
    __slots__ = ("ring", "_keys", "_coeffs", "_hash", "_zform")

    def __init__(self, ring: Ring, keys, coeffs):
        """Trusted constructor: keys strictly descending, coeffs nonzero.
        Use the from_* classmethods for unsorted or unnormalized input."""
        self.ring = ring
        self._keys = tuple(keys)
        self._coeffs = tuple(coeffs)
        self._hash = None
        self._zform = None

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, (), ())

    @classmethod
    def constant(cls, ring: Ring, value) -> "Polynomial":
        c = ring.field.coerce(value)
        if not c:
            return cls(ring, (), ())
        return cls(ring, (ring.one_key,), (c,))

    @classmethod
    def variable(cls, ring: Ring, which) -> "Polynomial":
        i = which if isinstance(which, int) else ring.variables.index(which)
        return cls(ring, (ring.var_key(i),), (ring.field.one(),))

    @classmethod
    def from_key_dict(cls, ring: Ring, data: dict) -> "Polynomial":
        p = ring.field.characteristic
        if p:
            items = [(k, r) for k, c in data.items() if (r := c % p)]
        else:
            items = [(k, canonical(c)) for k, c in data.items() if c]
        items.sort(reverse=True)
        return cls(ring, [k for k, _ in items], [c for _, c in items])

    @classmethod
    def from_terms(cls, ring: Ring, terms) -> "Polynomial":
        """terms: iterable of (exponent sequence, coefficient)."""
        acc = {}
        for exps, c in terms:
            k = ring.pack(exps)
            acc[k] = acc.get(k, 0) + ring.field.coerce(c)
        return cls.from_key_dict(ring, acc)

    # -- views ----------------------------------------------------------------

    def terms(self):
        """Pairs (exponent tuple, coefficient), descending degrevlex."""
        unpack = self.ring.unpack
        return [(unpack(k), c) for k, c in zip(self._keys, self._coeffs)]

    @property
    def keys(self):
        return self._keys

    @property
    def coeffs(self):
        return self._coeffs

    def __len__(self):
        return len(self._keys)

    def is_zero(self) -> bool:
        return not self._keys

    def is_constant(self) -> bool:
        return not self._keys or (len(self._keys) == 1
                                  and self._keys[0] == self.ring.one_key)

    def total_degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        if not self._keys:
            return -1
        return self.ring.key_degree(self._keys[0])

    def leading_key(self) -> int:
        return self._keys[0]

    def leading_coefficient(self):
        return self._coeffs[0]

    def is_homogeneous(self) -> bool:
        if not self._keys:
            return True
        deg = self.ring.key_degree
        d0 = deg(self._keys[0])
        return all(deg(k) == d0 for k in self._keys[1:])

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands in {self.ring!r} and {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + Polynomial.constant(self.ring, other)
        self._check_ring(other)
        p = self.ring.field.characteristic
        ka, ca, kb, cb = self._keys, self._coeffs, other._keys, other._coeffs
        i = j = 0
        na, nb = len(ka), len(kb)
        keys, coeffs = [], []
        while i < na and j < nb:
            x, y = ka[i], kb[j]
            if x > y:
                keys.append(x)
                coeffs.append(ca[i])
                i += 1
            elif x < y:
                keys.append(y)
                coeffs.append(cb[j])
                j += 1
            else:
                c = ca[i] + cb[j]
                c = c % p if p else canonical(c)
                if c:
                    keys.append(x)
                    coeffs.append(c)
                i += 1
                j += 1
        keys.extend(ka[i:])
        coeffs.extend(ca[i:])
        keys.extend(kb[j:])
        coeffs.extend(cb[j:])
        return Polynomial(self.ring, keys, coeffs)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.characteristic
        if p:
            return Polynomial(self.ring, self._keys,
                              [(-c) % p for c in self._coeffs])
        return Polynomial(self.ring, self._keys, [-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(self.ring, other) + (-self)

    def _scalar_mul(self, value):
        c = self.ring.field.coerce(value)
        if not c:
            return Polynomial.zero(self.ring)
        p = self.ring.field.characteristic
        if p:
            return Polynomial(self.ring, self._keys,
                              [a * c % p for a in self._coeffs])
        return Polynomial(self.ring, self._keys,
                          [canonical(a * c) for a in self._coeffs])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self._scalar_mul(other)
        self._check_ring(other)
        if not self._keys or not other._keys:
            return Polynomial.zero(self.ring)
        if self.total_degree() + other.total_degree() >= EXP_LIMIT:
            raise DegreeOverflowError(
                "product degree exceeds the packed-monomial range")
        off = self.ring.mul_off
        acc = {}
        ka, ca, kb, cb = self._keys, self._coeffs, other._keys, other._coeffs
        if len(ka) < len(kb):  # outer loop over the shorter operand
            ka, ca, kb, cb = kb, cb, ka, ca
        for kx, cx in zip(kb, cb):
            base = kx - off
            for ky, cy in zip(ka, ca):
                k = ky + base
                v = acc.get(k)
                acc[k] = cx * cy if v is None else v + cx * cy
        return Polynomial.from_key_dict(self.ring, acc)

    def __rmul__(self, other):
        return self._scalar_mul(other)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base1 = base
            e >>= 1
            if e:
                base = base1 * base1
        return result

    # -- calculus and substitution -------------------------------------------

    def derivative(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable."""
        ring = self.ring
        p = ring.field.characteristic
        step = ring.var_key(i) - ring.mul_off
        shift = 16 * i
        keys, coeffs = [], []
        for k, c in zip(self._keys, self._coeffs):
            e = (k >> shift) & CAP
            if not e:
                continue
            if p:
                c = c * e % p
                if not c:
                    continue
            else:
                c = canonical(c * e)
            keys.append(k - step)
            coeffs.append(c)
        # dropping terms keeps descending order; subtracting a fixed
        # variable step preserves relative degrevlex order of the rest
        return Polynomial(ring, keys, coeffs)

    def evaluate(self, values):
        """Value at a point; values are coerced into the field."""
        ring = self.ring
        vals = [ring.field.coerce(v) for v in values]
        p = ring.field.characteristic
        total = 0
        for exps, c in self.terms():
            t = c
            for v, e in zip(vals, exps):
                if e:
                    t = t * v ** e
            total = total + t
        return total % p if p else canonical(total)

    def map_exponents(self, new_ring: Ring, fn) -> "Polynomial":
        """Rebuild the polynomial in new_ring with exponent tuples fn(exps)."""
        acc = {}
        for exps, c in self.terms():
            k = new_ring.pack(fn(exps))
            acc[k] = acc.get(k, 0) + c
        return Polynomial.from_key_dict(new_ring, acc)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return not self._keys
            return self == Polynomial.constant(self.ring, other)
        return (self.ring == other.ring and self._keys == other._keys
                and self._coeffs == other._coeffs)

    def __hash__(self):
        """The hash of the stored (ring, keys, coefficients), which are
        canonical in either field, so equal polynomials hash equal."""
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ring, self._keys, self._coeffs))
        return h

    # -- integer form for the reduction engine --------------------------------

    def zform(self):
        """(keys, integer coeffs, scale): poly == scale * sum(c_i * m_i) with
        the integer part primitive and positive-leading.  Over F_p the scale
        is 1 and coefficients are the stored residues."""
        zf = self._zform
        if zf is not None:
            return zf
        ring = self.ring
        if ring.field.characteristic:
            zf = (list(self._keys), list(self._coeffs), 1)
        elif not self._keys:
            zf = ([], [], mpq(1))
        elif all(type(c) is int for c in self._coeffs):
            g = _content(self._coeffs)
            zf = (list(self._keys), [c // g for c in self._coeffs], mpq(g))
        else:
            den = 1
            for c in self._coeffs:
                d = int(c.denominator)
                den = den * d // gcd(den, d)
            ints = [int(c.numerator) * (den // int(c.denominator))
                    for c in self._coeffs]
            g = _content(ints)
            zf = (list(self._keys), [v // g for v in ints], mpq(g, den))
        self._zform = zf
        return zf

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if not self._keys:
            return "0"
        ring = self.ring
        out = []
        for k, c in zip(self._keys, self._coeffs):
            mono = ring.monomial_str(k)
            neg = (not ring.field.characteristic) and c < 0
            mag = -c if neg else c
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not out:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self):
        return f"<poly {self} in {self.ring!r}>"


# -- module-level operations -----------------------------------------------


def _content(coeffs):
    """The gcd of integer coeffs, negated when the leading one is negative:
    dividing by it leaves them primitive with a positive leading one."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    if coeffs and coeffs[0] < 0:
        g = -g
    return g


# -- the kernel's term form ------------------------------------------------
#
# Kernels that expand products (the coordinate change here, the matrix
# kernel in matrix.py, the frame algebra in charts.py) work on (key, coeff)
# pairs and dicts {key: coeff}, and build one Polynomial per result.


def _settle(acc: dict, p: int) -> dict:
    """acc without zero coefficients, residues reduced mod p."""
    if p:
        return {k: r for k, c in acc.items() if (r := c % p)}
    return {k: c for k, c in acc.items() if c}


def _poly(ring: Ring, d: dict, sign: int = 1) -> Polynomial:
    """sign * d as a Polynomial; d must be settled (see _settle), and over
    QQ its coefficients, ints or mpqs, are stored in canonical form."""
    keys = sorted(d, reverse=True)
    p = ring.field.characteristic
    if p:
        return Polynomial(ring, keys, [sign * d[k] % p for k in keys])
    return Polynomial(ring, keys, [canonical(sign * d[k]) for k in keys])


def _mac(acc: dict, a, b, off: int):
    """acc += a * b on (key, coeff) pairs; put the shorter factor in a."""
    get = acc.get
    for kb, cb in b:
        shift = kb - off
        for ka, ca in a:
            k = ka + shift
            acc[k] = get(k, 0) + ca * cb


def variables(ring: Ring):
    return tuple(Polynomial.variable(ring, i) for i in range(ring.nvars))


def _field_matrix_is_invertible(ring: Ring, rows) -> bool:
    """Gaussian elimination over the coefficient field; rows are scalars."""
    n = len(rows)
    m = [list(r) for r in rows]
    fld = ring.field
    p = fld.characteristic
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = fld.inv(m[col][col])
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                if p:
                    factor %= p
                for c in range(col, n):
                    v = m[r][c] - factor * m[col][c]
                    m[r][c] = v % p if p else v
    return True


def linear_change(ring: Ring, matrix):
    """The substitution x_i -> sum_j matrix[i][j] * x_j (row i gives the
    image of the i-th variable) as a function on polynomials of ring.  The
    matrix must be square and invertible; it is checked once, here, however
    many polynomials the function is applied to.

    The expansion runs on the kernel's (key, coeff) term tuples; over QQ
    integral coefficients are stored as ints, so integer input costs no
    Fraction at all.  The image of each monomial is kept, so the
    images of a monomial's lower powers, and of monomials the polynomials
    share, are expanded once: x^e's image is the image of x^e / x_i times
    x_i's, with x_i the last variable of x^e."""
    n = ring.nvars
    rows = [tuple(ring.field.coerce(v) for v in row) for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"need a {n}x{n} matrix")
    if not _field_matrix_is_invertible(ring, rows):
        raise SingularMatrixError("coordinate change matrix is singular")
    p = ring.field.characteristic
    off = ring.mul_off
    lines = []
    for row in rows:
        line = Polynomial.from_key_dict(
            ring, {ring.var_key(j): v for j, v in enumerate(row)})
        lines.append(tuple(zip(line.keys, line.coeffs)))
    images = {(0,) * n: ((ring.one_key, 1),)}  # exponents -> image terms

    def image(exps):
        got = images.get(exps)
        chain = []  # (exponents, i) down to the first image known
        while got is None:
            i = max(j for j, e in enumerate(exps) if e)
            chain.append((exps, i))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            got = images.get(exps)
        for exps, i in reversed(chain):
            acc = {}
            _mac(acc, lines[i], got, off)
            got = images[exps] = tuple(_settle(acc, p).items())
        return got

    def apply(f: Polynomial) -> Polynomial:
        if f.ring != ring:
            raise RingMismatchError(
                f"operands in {f.ring!r} and {ring!r}")
        if f.total_degree() >= EXP_LIMIT:
            # an image of that degree leaves the packed exponent lanes
            raise DegreeOverflowError(
                "product degree exceeds the packed-monomial range")
        unpack = ring.unpack
        acc = {}
        get = acc.get
        for k, c in zip(f.keys, f.coeffs):
            for key, v in image(unpack(k)):
                acc[key] = get(key, 0) + c * v
        return _poly(ring, _settle(acc, p))

    return apply


def apply_linear_change(f: Polynomial, matrix) -> Polynomial:
    """Substitute x_i -> sum_j matrix[i][j] * x_j (row i gives the image of
    the i-th variable).  The matrix must be square and invertible.  To
    change several polynomials by one matrix, use linear_change, which
    checks the matrix once and shares the monomial images."""
    return linear_change(f.ring, matrix)(f)


def dehomogenize(f: Polynomial, i: int) -> Polynomial:
    """Set the i-th variable to 1, landing in the ring without it.
    Rejects non-homogeneous input.  Works on packed keys: lane i is dropped
    from both halves and the degree falls by its exponent.  No two terms
    meet, since in a homogeneous f the other exponents fix that of x_i;
    only the order changes."""
    if not f.is_homogeneous():
        raise NonHomogeneousError(f"{f} is not homogeneous")
    n = f.ring.nvars
    half = 16 * n
    lanes = (1 << half) - 1
    below = (1 << 16 * i) - 1   # the lanes before i in either half
    at, above = 16 * i, 16 * (i + 1)
    new_half = half - 16
    terms = []
    for k, c in zip(f.keys, f.coeffs):
        lo = k & lanes
        hi = (k >> half) & lanes
        deg = (k >> 2 * half) - ((lo >> at) & CAP)
        terms.append(((deg << 2 * new_half)
                      | ((hi & below) | (hi >> above) << at) << new_half
                      | (lo & below) | (lo >> above) << at, c))
    terms.sort(reverse=True)
    return Polynomial(f.ring.drop(i), [k for k, _ in terms],
                      [c for _, c in terms])
