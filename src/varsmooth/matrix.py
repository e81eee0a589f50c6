"""Matrices of polynomials: determinants, adjugates, minors.

Determinants use fraction-free Bareiss elimination (the two-step division
is exact, keeping intermediate entries small) with direct cofactor
expansion below 4x4.

Minors are enumerated in lexicographic subset order and computed by
memoized first-row Laplace expansion, so overlapping submatrices are
shared.  The kernel works on term dicts {monomial key: coefficient}, not on
Polynomial objects: over QQ integral coefficients are plain ints (mixing
with rationals stays exact), over F_p residues are reduced once per
submatrix.  Minors modulo an ideal take a reducer that must be linear and
idempotent, such as a normal form modulo a Groebner basis.  The kernel then
reduces monomials only: each distinct monomial's normal form is computed
once per call and kept in a table local to that call, a product
entry * subminor is the sum of c_e * c_s * NF(x^(e+s)) over their terms,
and a sum of normal forms is already one, so it is never reduced again.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DegreeOverflowError, RingMismatchError
from .poly import Polynomial
from .ring import EXP_LIMIT, Ring


class PolyMatrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if e.ring != ring:
                raise RingMismatchError("matrix entries in different rings")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, ring: Ring, row_lists) -> "PolyMatrix":
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(ring, rows, cols, flat)

    def get(self, i: int, j: int) -> Polynomial:
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        ents = [self.get(i, j) for i in row_idx for j in col_idx]
        return PolyMatrix(self.ring, len(row_idx), len(col_idx), ents)

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __repr__(self):
        return f"<{self.rows}x{self.cols} matrix over {self.ring!r}>"


def jacobian(ring: Ring, polys) -> PolyMatrix:
    """Rows are gradients: J[i][j] = d f_i / d x_j."""
    rows = [[f.derivative(j) for j in range(ring.nvars)] for f in polys]
    flat = [e for r in rows for e in r]
    return PolyMatrix(ring, len(rows), ring.nvars, flat)


def poly_exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact quotient a / b; raises if the division leaves a remainder.
    Repeated leading-term cancellation terminates exactly when b | a."""
    if a.is_zero():
        return a
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = a.ring
    p = ring.field.characteristic
    lead_b = b.leading_key()
    lc_b = b.leading_coefficient()
    inv_b = ring.field.inv(lc_b)
    work = dict(zip(a.keys, a.coeffs))
    quot = {}
    while work:
        m = max(work)
        c = work.pop(m)
        if not c:
            continue
        if not ring.divides(lead_b, m):
            raise ArithmeticError("inexact polynomial division")
        qk = m - lead_b + ring.mul_off
        qc = c * inv_b % p if p else c * inv_b
        quot[qk] = qc
        base = qk - ring.mul_off
        for tk, tc in zip(b.keys[1:], b.coeffs[1:]):
            kk = tk + base
            v = work.get(kk, 0) - qc * tc
            work[kk] = v % p if p else v
    return Polynomial.from_key_dict(ring, quot)


def determinant(m: PolyMatrix) -> Polynomial:
    """Determinant via Bareiss elimination (cofactor below 4x4)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    ring = m.ring
    if n == 0:
        return Polynomial.constant(ring, 1)
    e = m.entries
    if n == 1:
        return e[0]
    if n == 2:
        return e[0] * e[3] - e[1] * e[2]
    if n == 3:
        return (e[0] * (e[4] * e[8] - e[5] * e[7])
                - e[1] * (e[3] * e[8] - e[5] * e[6])
                + e[2] * (e[3] * e[7] - e[4] * e[6]))
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = Polynomial.constant(ring, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((r for r in range(k + 1, n) if not a[r][k].is_zero()),
                       None)
            if piv is None:
                return Polynomial.zero(ring)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                num = a[i][j] * pivot - aik * a[k][j]
                a[i][j] = poly_exact_div(num, prev)
            a[i][k] = Polynomial.zero(ring)
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def adjugate(m: PolyMatrix):
    """(A, q) with q = det(m) and A the cofactor matrix
    A[l][k] = (-1)^(l+k) * det(m with row l and column k removed),
    normalized so that sum_k A[l][k] * m.get(mm, k) equals q if mm == l
    and 0 otherwise.  For the 0x0 matrix returns (empty, 1)."""
    if m.rows != m.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    ring = m.ring
    q = determinant(m)
    if n == 0:
        return PolyMatrix(ring, 0, 0, ()), q
    ents = []
    idx = tuple(range(n))
    for l in range(n):
        rows = idx[:l] + idx[l + 1:]
        for k in range(n):
            cols = idx[:k] + idx[k + 1:]
            d = determinant(m.submatrix(rows, cols))
            ents.append(-d if (l + k) & 1 else d)
    return PolyMatrix(ring, n, n, ents), q


def minors(m: PolyMatrix, size: int, reducer=None, checkpoint=None):
    """All size x size minors, row subsets outer / column subsets inner,
    both lexicographic; zero minors are dropped.  `checkpoint` is called
    once per subset pair so long enumerations can be interrupted by
    resource limits.

    `reducer` must be linear and idempotent: a normal form modulo a
    Groebner basis (`GroebnerBasis.normal_form`), or None for no reduction.
    Each minor is then the normal form of the true minor.  The reducer is
    called only on monomials, at most once per distinct monomial key."""
    if size < 0:
        raise ValueError("minor size must be non-negative")
    ring = m.ring
    if size == 0:
        return [Polynomial.constant(ring, 1)]
    if size > m.rows or size > m.cols:
        return []
    if size * max(e.total_degree() for e in m.entries) >= EXP_LIMIT:
        raise DegreeOverflowError(
            "minor degree exceeds the packed-monomial range")
    field = ring.field
    p = field.characteristic
    off = ring.mul_off
    one = field.one()

    def scalar(c):
        # integral rationals become ints: int arithmetic is far cheaper,
        # and mixing int with mpq stays exact
        return c if p or c.denominator != 1 else int(c.numerator)

    def terms(f):
        return tuple((k, scalar(c)) for k, c in zip(f.keys, f.coeffs))

    cols = m.cols
    ents = [terms(e) for e in m.entries]
    negs = [tuple((k, -c) for k, c in t) for t in ents]
    table = {}  # monomial key -> its normal form as (key, coeff) pairs

    def nf(key):
        got = table.get(key)
        if got is None:
            if reducer is None:
                got = ((key, 1),)
            else:
                got = terms(reducer(Polynomial(ring, (key,), (one,))))
            table[key] = got
        return got

    memo = {((), ()): {ring.one_key: 1}}  # the 0x0 determinant

    def det_of(rows, cs):
        got = memo.get((rows, cs))
        if got is not None:
            return got
        acc = {}
        base = rows[0] * cols
        rest = rows[1:]
        for idx, c in enumerate(cs):
            entry = (negs if idx & 1 else ents)[base + c]
            if not entry:
                continue
            sub = det_of(rest, cs[:idx] + cs[idx + 1:])
            for ks, cv in sub.items():
                shift = ks - off
                for ke, ce in entry:
                    prod = ce * cv
                    for nk, nc in nf(ke + shift):
                        acc[nk] = acc.get(nk, 0) + prod * nc
        if p:
            acc = {k: c % p for k, c in acc.items()}
        d = {k: c for k, c in acc.items() if c}
        memo[(rows, cs)] = d
        return d

    coerce = field.coerce
    out = []
    for rs in combinations(range(m.rows), size):
        for cs in combinations(range(cols), size):
            if checkpoint is not None:
                checkpoint()
            d = det_of(rs, cs)
            if d:
                keys = sorted(d, reverse=True)
                out.append(
                    Polynomial(ring, keys, [coerce(d[k]) for k in keys]))
    return out
