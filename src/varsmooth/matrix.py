"""Matrices of polynomials: determinants, adjugates, minors.

Every determinant here comes from one kernel, memoized first-row Laplace
expansion on term dicts {monomial key: coefficient}: _laplace(m) returns
det_of(rows, cols) over one memo.  `determinant`, `adjugate` and
`iter_minors` each make one for their matrix and read every subdeterminant
they need from it, so shared submatrices are expanded once; an adjugate
takes q and all of its (n-1)-minors from the same memo.  The memo keeps the
subdeterminants an expansion reads, never the requested determinants
themselves, which nothing reads twice; a matrix with more rows than columns
is expanded as its transpose, whose rows are the shorter side, so the memo
keeps fewer row suffixes.  There is no elimination (Bareiss) and no
polynomial division.  Over QQ integral coefficients are plain ints inside
the kernel (mixing with rationals stays exact), over F_p residues are
reduced once per subdeterminant, and a Polynomial is built only for each
result.

`iter_minors` is the one minor enumerator, and it serves both callers:
the relative criterion's frame tasks, of the hybrid and of the Jacobian
baseline, which stop at their first proof, and the descent's
singular-locus ideals, which take every minor.  It yields each distinct
nonzero minor once, as soon as it is formed, deduplicated on its term dict
before any Polynomial is built.  It walks rows and columns constant-first
(those with the most entries that have a nonzero constant term first),
since a constant minor settles the unit-ideal questions its callers ask.

The walk prunes row sets that can only give zero minors.  Row sets come in
lexicographic order of their ranked positions, so the sets that start with
a given ranked prefix P are contiguous.  If every k x k minor of P's rows
is zero, then expanding any larger minor along P's rows (the generalized
Laplace expansion) writes it as a sum of products of those minors with
minors of the other rows, so it is zero too: over any commutative ring,
and modulo an ideal, since a multiple of a member is a member.  So after a
row set whose minors all vanish, the walk tests the prefixes of that set
from length 1 up, and when one vanishes it skips every later set that
starts with it.  Only a row set whose minors all vanished starts those
tests, and a prefix found to have a nonzero minor is not tested again,
so a walk that meets no zero row set forms exactly what it did unpruned.
The yielded stream is the unpruned one, in the same order.

Minors modulo an ideal take a reducer that must be linear and idempotent,
such as a normal form modulo a Groebner basis.  The kernel then reduces
monomials only: each distinct monomial's normal form is computed once per
call and kept in a table local to that call.  A product entry * subminor
is first summed unreduced (_mac), and each monomial it reaches adds its
coefficient times that monomial's normal form; a sum of normal forms is
already one, so it is never reduced again.  Without a reducer the
products are accumulated directly.

Over QQ a normal form modulo a basis whose integer rows are not monic has
denominators, and a sum of Fraction products, one per term, is slow.  So
with integral entries each monomial's normal form and each subdeterminant
are kept as integer numerators over one denominator (the normal form's
over the lcm of its coefficients' denominators), and only a yielded minor
gets Fractions; where every normal form is integral, as on the charts of
the rational normal curves, every denominator is 1.  Over F_p, and with
entries that have denominators, the same loop runs on the field's
coefficients over 1.

Jacobians come from a Partials table, which differentiates each polynomial
once (by _gradient) and keeps its gradient in the kernel's term form.

Adding packed keys cannot notice an exponent leaving its 16-bit lane, so
every entry point first checks that no product it forms reaches the 2^15
exponent limit, and raises DegreeOverflowError otherwise.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .errors import DegreeOverflowError, RingMismatchError
from .fields import mpq
from .poly import Polynomial, _mac, _poly, _settle, _terms
from .ring import CAP, EXP_LIMIT, Ring


class PolyMatrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if e.ring is not ring and e.ring != ring:
                raise RingMismatchError("matrix entries in different rings")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

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
    """Rows are gradients: J[i][j] = d f_i / d x_j.  A chart reads its
    Jacobians from its tree's Partials table instead."""
    return Partials(ring).jacobian(polys)


def _gradient(f: Polynomial, p: int):
    """The partial derivatives of f, one (key, coeff) tuple per variable,
    in the term order of _terms(f, p)."""
    ring = f.ring
    terms = _terms(f, p)
    out = []
    for i in range(ring.nvars):
        step = ring.var_key(i) - ring.mul_off
        shift = 16 * i
        d = []
        for k, c in terms:
            e = (k >> shift) & CAP
            if e:
                c = c * e % p if p else c * e
                if c:
                    d.append((k - step, c))
        out.append(tuple(d))
    return out


class Partials:
    """The partial derivatives of polynomials of one ring, each polynomial
    differentiated at most once: a table polynomial -> gradient, kept in
    the kernel's (key, coeff) form, with each gradient's Polynomials built
    on first request.

    A chart tree shares one table (Chart.partials).  Its variety stays the
    same down the tree and a new ambient generator is a variety generator
    or a combination of them, differentiated when the descent first reads
    its rows, so no polynomial of the tree is differentiated twice."""

    __slots__ = ("ring", "_grads", "_rows")

    def __init__(self, ring: Ring):
        self.ring = ring
        self._grads = {}
        self._rows = {}

    def gradient(self, f: Polynomial):
        """f's partials as _gradient(f, p) gives them."""
        got = self._grads.get(f)
        if got is None:
            got = self._grads[f] = _gradient(f, self.ring.field.characteristic)
        return got

    def row(self, f: Polynomial) -> tuple:
        """f's partials as Polynomials: its row of the Jacobian."""
        got = self._rows.get(f)
        if got is None:
            ring = self.ring
            p = ring.field.characteristic
            got = self._rows[f] = tuple(
                Polynomial(ring, [k for k, _ in d],
                           [c if p else mpq(c) for _, c in d])
                for d in self.gradient(f))
        return got

    def jacobian(self, polys) -> PolyMatrix:
        """The matrix whose rows are the rows of polys."""
        polys = list(polys)
        return PolyMatrix(self.ring, len(polys), self.ring.nvars,
                          [e for f in polys for e in self.row(f)])


def _top_degree(polys) -> int:
    return max((f.total_degree() for f in polys), default=0)


def _check_degree(degree: int):
    if degree >= EXP_LIMIT:
        raise DegreeOverflowError(
            "product degree exceeds the packed-monomial range")


def _expand(memo, ctx, rows, cs):
    """Determinant of the (rows, cs) submatrix by first-row expansion, as
    a settled dict of numerators over a positive den, recorded in dens
    under (rows, cs) when it is not 1.  The subdeterminants it expands are
    recorded in memo, the result itself is not: the caller stores it if it
    will be read again.  A module function, not a recursive closure, so
    the memo holds no reference cycle and dies with its caller's reference.

    With a reducer, nf(key) is the monomial's normal form as (pairs, den),
    and entry * subminor is summed unreduced first (_mac), so each monomial
    it reaches is reduced once; its coefficient times that normal form has
    the denominator of the subminor times the normal form's.  acc keeps
    numerators over one running denominator, raised to the lcm (and acc
    with it) when a product's denominator does not divide it; the result
    is divided by the gcd of its numerators and den, so equal minors get
    the same numerators and den."""
    ents, negs, ncols, off, nf, dens, p = ctx
    known = memo.get
    acc = {}
    get = acc.get
    den = 1
    base = rows[0] * ncols
    rest = rows[1:]
    for idx, c in enumerate(cs):
        entry = (negs if idx & 1 else ents)[base + c]
        if not entry:
            continue
        sub_cs = cs[:idx] + cs[idx + 1:]
        sub = known((rest, sub_cs))
        if sub is None:
            sub = memo[rest, sub_cs] = _expand(memo, ctx, rest, sub_cs)
        if nf is None:
            _mac(acc, entry, sub.items(), off)
            continue
        sden = dens.get((rest, sub_cs), 1)
        raw = {}
        _mac(raw, entry, sub.items(), off)
        for key, prod in raw.items():
            if not prod:
                continue
            terms, d = nf(key)
            d *= sden
            if d != den:
                if den % d:
                    lift = d // gcd(den, d)
                    for k in acc:
                        acc[k] *= lift
                    den *= lift
                prod *= den // d
            for nk, nc in terms:
                acc[nk] = get(nk, 0) + prod * nc
    acc = _settle(acc, p)
    if den != 1:
        g = gcd(den, *acc.values())
        if g != 1:
            den //= g
            acc = {k: c // g for k, c in acc.items()}
        if den != 1:
            dens[rows, cs] = den
    return acc


def _laplace(m: PolyMatrix, reducer=None, transpose=False):
    """det_of(rows, cols): the (reduced) determinant of the submatrix on
    those index tuples, of equal length, as (settled term dict of
    numerators, their denominator).  With transpose the kernel expands the
    transposed matrix, which gives the same determinants; det_of still
    takes row and column indices of m.

    With a reducer over QQ and integral entries, each monomial's normal
    form is kept as integers over the lcm of its coefficients'
    denominators.  Over F_p, or with entries that have denominators, it
    keeps the field's coefficients over 1, and so does every result."""
    ring = m.ring
    p = ring.field.characteristic
    memo = {((), ()): {ring.one_key: 1}}  # the 0x0 determinant
    dens = {}  # (rows, cols) -> the denominator of a result, when not 1
    ents = [_terms(e, p) for e in m.entries]
    ncols = m.cols
    if transpose:
        ents = [ents[i * ncols + j] for j in range(ncols)
                for i in range(m.rows)]
        ncols = m.rows
    negs = [tuple((k, -c) for k, c in t) for t in ents]
    nf = None
    if reducer is not None:
        one = ring.field.one()
        scale = not p and all(type(c) is int for e in ents for _, c in e)
        table = {}  # monomial key -> its normal form as (pairs, den)

        def nf(key):
            got = table.get(key)
            if got is None:
                terms = _terms(reducer(Polynomial(ring, (key,), (one,))), p)
                den = 1
                if scale:
                    for _, c in terms:
                        if type(c) is not int:
                            d = int(c.denominator)
                            den *= d // gcd(den, d)
                    if den != 1:
                        terms = tuple(
                            (k, int(c.numerator) * (den // int(c.denominator)))
                            for k, c in terms)
                got = table[key] = (terms, den)
            return got

    ctx = (ents, negs, ncols, ring.mul_off, nf, dens, p)

    def det_of(rows, cols):
        if transpose:
            rows, cols = cols, rows
        key = rows, cols
        got = memo.get(key)
        if got is not None:
            return got, dens.get(key, 1)
        got = _expand(memo, ctx, rows, cols)
        # the memo does not keep the result, nor dens its denominator
        return got, dens.pop(key, 1)

    return det_of


def determinant(m: PolyMatrix) -> Polynomial:
    """Determinant by the Laplace kernel; the 0x0 determinant is 1."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    _check_degree(m.rows * _top_degree(m.entries))
    idx = tuple(range(m.rows))
    return _poly(m.ring, _laplace(m)(idx, idx)[0])


def adjugate(m: PolyMatrix):
    """(A, q) with q = det(m) and A the cofactor matrix
    A[l][k] = (-1)^(l+k) * det(m with row l and column k removed),
    normalized so that sum_k A[l][k] * m.get(mm, k) equals q if mm == l
    and 0 otherwise.  For the 0x0 matrix returns (empty, 1)."""
    if m.rows != m.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    ring = m.ring
    _check_degree(n * _top_degree(m.entries))
    det_of = _laplace(m)
    idx = tuple(range(n))
    q = _poly(ring, det_of(idx, idx)[0])
    ents = []
    for l in range(n):
        rows = idx[:l] + idx[l + 1:]
        for k in range(n):
            d, _ = det_of(rows, idx[:k] + idx[k + 1:])
            ents.append(_poly(ring, d, -1 if (l + k) & 1 else 1))
    return PolyMatrix(ring, n, n, ents), q


def _constant_first(counts):
    """Indices by descending count, ties by index."""
    return sorted(range(len(counts)), key=lambda i: -counts[i])


def iter_minors(m: PolyMatrix, size: int, reducer=None, checkpoint=None,
                prefix_checkpoint=None):
    """The distinct nonzero size x size minors of m, with their signs, each
    yielded once, as soon as it is formed.  Rows and columns are taken
    constant-first: ranked by how many of their entries have a nonzero
    constant term, descending, ties by index.  Subsets are formed in that
    ranked order and sorted back before the lookup, so each minor is the
    one of m as given.

    Row sets whose minors all vanish are pruned: after a row set whose
    size-minors are all zero, the walk finds the shortest ranked prefix of
    it whose minors are all zero, if it is shorter than the row set, and
    skips every later row set that starts with that prefix.  Those sets
    are contiguous in the walk, and by Laplace expansion along the
    prefix's rows every minor of such a set is a combination of the
    prefix's minors, so it is zero too (modulo the ideal, with a reducer).
    The stream is therefore exactly the unpruned one, in the same order;
    only fewer minors are formed.  Prefixes are tested from length 1 up,
    only after a row set whose minors all vanished, and a prefix found
    not to vanish is never tested again.

    `checkpoint` is called once per size-minor formed and
    `prefix_checkpoint` once per minor of a prefix tested, so long
    enumerations can be interrupted by resource limits; the arguments are
    checked when called, not on the first step of the iterator.

    `reducer` must be linear and idempotent: a normal form modulo a
    Groebner basis (`GroebnerBasis.normal_form`), or None for no reduction.
    Each minor is then the normal form of the true minor.  The reducer is
    called only on monomials, at most once per distinct monomial key."""
    ring = m.ring
    if size < 0:
        raise ValueError("minor size must be non-negative")
    if size == 0:
        return iter([Polynomial.constant(ring, 1)])
    if size > m.rows or size > m.cols:
        return iter(())
    _check_degree(size * _top_degree(m.entries))
    det_of = _laplace(m, reducer, transpose=m.rows > m.cols)
    one = ring.one_key
    const = [bool(e.keys) and e.keys[-1] == one for e in m.entries]
    cols = m.cols
    row_rank = _constant_first([sum(const[i * cols:(i + 1) * cols])
                                for i in range(m.rows)])
    col_rank = _constant_first([sum(const[j::cols]) for j in range(cols)])
    return _distinct_minors(ring, det_of, row_rank, col_rank, size,
                            checkpoint, prefix_checkpoint)


def _advance(pos, n: int, keep: int) -> bool:
    """Step pos, a combination of range(n) as an increasing list, to the
    lexicographically next one whose first `keep` entries differ from
    pos's; False when there is none."""
    size = len(pos)
    i = keep - 1
    while i >= 0 and pos[i] == n - size + i:
        i -= 1
    if i < 0:
        return False
    pos[i] += 1
    for j in range(i + 1, size):
        pos[j] = pos[j - 1] + 1
    return True


def _distinct_minors(ring, det_of, row_rank, col_rank, size, checkpoint,
                     prefix_checkpoint):
    """The generator behind iter_minors, over the ranked indices: row sets
    are positions in row_rank, walked by _advance."""
    coerce = ring.field.coerce
    n = len(row_rank)
    col_sets = {}  # k -> the column k-sets, ranked order, each sorted
    live = set()  # ranked prefixes with a nonzero minor

    def cols_of(k):
        got = col_sets.get(k)
        if got is None:
            got = col_sets[k] = [tuple(sorted(cs))
                                 for cs in combinations(col_rank, k)]
        return got

    def vanishing_prefix(pos):
        """The length of the shortest prefix of pos whose minors all vanish
        and that a later row set starts with, else size."""
        top = size  # prefixes from pos[:top] on start no later row set
        while top and pos[top - 1] == n - size + top - 1:
            top -= 1
        for k in range(1, top):
            key = tuple(pos[:k])
            if key in live:
                continue
            rs = tuple(sorted(row_rank[i] for i in key))
            for cs in cols_of(k):
                if prefix_checkpoint is not None:
                    prefix_checkpoint()
                if det_of(rs, cs)[0]:
                    live.add(key)
                    break
            else:
                return k
        return size

    seen = set()
    pos = list(range(size))
    full = cols_of(size)
    while True:
        rs = tuple(sorted(row_rank[i] for i in pos))
        vanished = True
        for cs in full:
            if checkpoint is not None:
                checkpoint()
            d, den = det_of(rs, cs)
            if not d:
                continue
            vanished = False
            items = tuple(sorted(d.items(), reverse=True))
            value = items, den
            if value in seen:
                continue
            seen.add(value)
            yield Polynomial(ring, [k for k, _ in items],
                             [coerce(c) for _, c in items] if den == 1
                             else [mpq(c, den) for _, c in items])
        if not _advance(pos, n, vanishing_prefix(pos) if vanished else size):
            return
