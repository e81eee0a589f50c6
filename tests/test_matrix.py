import gc
import random
from fractions import Fraction
from itertools import combinations as icombs, islice
from math import comb

import pytest

from conftest import (nonzero_random_poly, random_poly, reference_minors,
                      variables)
from varsmooth.errors import DegreeOverflowError, SingularMatrixError
from varsmooth.fields import QQ, GF
from varsmooth.groebner import Ideal, buchberger
from varsmooth import matrix
from varsmooth.matrix import (PolyMatrix, adjugate, determinant, iter_minors,
                              jacobian)
from varsmooth.poly import Polynomial
from varsmooth.ring import EXP_LIMIT, Ring


# -- oracle: first-row Laplace expansion on Polynomial entries ----------------

def laplace_det(m):
    if m.rows == 1:
        return m.get(0, 0)
    acc = Polynomial.zero(m.ring)
    for j in range(m.cols):
        e = m.get(0, j)
        if e.is_zero():
            continue
        sub = m.submatrix(tuple(range(1, m.rows)),
                          tuple(k for k in range(m.cols) if k != j))
        term = e * laplace_det(sub)
        acc = acc - term if j & 1 else acc + term
    return acc


def random_matrix(ring, rng, n, sparse=0.2):
    ents = []
    for _ in range(n * n):
        if rng.random() < sparse:
            ents.append(Polynomial.zero(ring))
        else:
            ents.append(random_poly(ring, rng, max_terms=3, max_deg=2,
                                    coeff_bound=3))
    return PolyMatrix(ring, n, n, ents)


@pytest.mark.parametrize("field", [QQ, GF(32003)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_matches_laplace(field, n):
    ring = Ring(field, ("x", "y"))
    rng = random.Random(100 * n + field.characteristic)
    for _ in range(12):
        m = random_matrix(ring, rng, n)
        assert determinant(m) == laplace_det(m)


def test_determinant_special_cases(rxy):
    x, y = variables(rxy)
    one = Polynomial.constant(rxy, 1)
    zero = Polynomial.zero(rxy)
    ident = PolyMatrix(rxy, 2, 2, [one, zero, zero, one])
    assert determinant(ident) == one
    swap = PolyMatrix(rxy, 2, 2, [zero, one, one, zero])
    assert determinant(swap) == -one
    dup = PolyMatrix(rxy, 2, 2, [x, y, x, y])
    assert determinant(dup).is_zero()
    diag = PolyMatrix(rxy, 3, 3, [x, zero, zero,
                                  zero, y, zero,
                                  zero, zero, x + y])
    assert determinant(diag) == x * y * (x + y)


def test_determinant_requires_square(rxy):
    x, y = variables(rxy)
    m = PolyMatrix(rxy, 1, 2, [x, y])
    with pytest.raises(ValueError):
        determinant(m)


@pytest.mark.parametrize("field", [QQ, GF(32003)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjugate_contract(field, n):
    # sum_k A[l][k] * M[m][k] == det(M) * delta(l, m)
    ring = Ring(field, ("x", "y"))
    rng = random.Random(7 * n + field.characteristic)
    done = 0
    while done < 8:
        m = random_matrix(ring, rng, n)
        q = determinant(m)
        if q.is_zero():
            continue
        adj, q2 = adjugate(m)
        assert q2 == q
        zero = Polynomial.zero(ring)
        for l in range(n):
            for mm in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + adj.get(l, k) * m.get(mm, k)
                assert acc == (q if l == mm else zero), (l, mm)
        done += 1


def test_jacobian_entries(rxyz):
    x, y, z = variables(rxyz)
    polys = [x * x + y * z, z * z * z - x]
    jac = jacobian(rxyz, polys)
    assert jac.rows == 2 and jac.cols == 3
    for i, f in enumerate(polys):
        for j in range(3):
            assert jac.get(i, j) == f.derivative(j)


def test_minors_against_direct_enumeration(rxy):
    rng = random.Random(41)
    ring = rxy
    for rows, cols, size in ((2, 3, 2), (3, 3, 2), (3, 4, 3), (2, 2, 1)):
        ents = [random_poly(ring, rng, max_terms=2, max_deg=1)
                for _ in range(rows * cols)]
        m = PolyMatrix(ring, rows, cols, ents)
        got = list(iter_minors(m, size))
        want = []
        for rs in icombs(range(rows), size):
            for cs in icombs(range(cols), size):
                d = laplace_det(m.submatrix(rs, cs))
                if not d.is_zero():
                    want.append(d)
        assert len(got) == len(set(got)) == len(set(want))
        assert set(got) == set(want)


def test_minors_edge_sizes(rxy):
    x, y = variables(rxy)
    m = PolyMatrix(rxy, 2, 2, [x, y, y, x])
    assert list(iter_minors(m, 0)) == [Polynomial.constant(rxy, 1)]
    assert list(iter_minors(m, 3)) == []
    with pytest.raises(ValueError):
        iter_minors(m, -1)


def test_minors_reducer_applied(rxy):
    # reducing modulo x kills every minor that contains the x column
    from varsmooth.groebner import Ideal, buchberger
    x, y = variables(rxy)
    gb = buchberger(Ideal(rxy, [x]))
    m = PolyMatrix(rxy, 2, 2, [x, y,
                               y, x])
    red = list(iter_minors(m, 2, reducer=gb.normal_form))
    assert red == [gb.normal_form(x * x - y * y)]
    assert red == [-(y * y)]


def test_minors_checkpoint_called_and_interruptible(rxy):
    x, y = variables(rxy)
    m = PolyMatrix(rxy, 3, 3, [x] * 9)
    calls = []
    assert list(iter_minors(m, 2, checkpoint=lambda: calls.append(1))) == []
    assert len(calls) == 9  # C(3,2)^2

    class Stop(Exception):
        pass

    def bomb():
        raise Stop()

    with pytest.raises(Stop):
        list(iter_minors(m, 2, checkpoint=bomb))


def _fractional_poly(ring, rng):
    """Random polynomial whose rational coefficients include some 1/k."""
    f = random_poly(ring, rng, max_terms=4, max_deg=3, coeff_bound=4)
    if ring.field.characteristic or f.is_zero():
        return f
    return f * Fraction(1, rng.randint(1, 6))


def _kernel_cases(seed, count):
    """(matrix, Groebner basis) pairs over QQ, GF(101) and GF(7)."""
    rng = random.Random(seed)
    fields = (QQ, GF(101), GF(7))
    for t in range(count):
        ring = Ring(fields[t % 3], tuple(f"x{i}" for i in range(
            rng.randint(2, 4))))
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        ents = [_fractional_poly(ring, rng) if rng.random() < 0.8
                else Polynomial.zero(ring) for _ in range(rows * cols)]
        gens = [nonzero_random_poly(ring, rng, max_terms=3, max_deg=2)
                for _ in range(rng.randint(1, 3))]
        if not ring.field.characteristic:
            gens[0] = gens[0] * Fraction(1, rng.randint(2, 5))
        yield PolyMatrix(ring, rows, cols, ents), buchberger(Ideal(ring, gens))


def test_minors_kernel_matches_polynomial_reference():
    # the reference minors, with their signs and coefficient types
    checked = 0
    for m, gb in _kernel_cases(5150, 90):
        for size in range(min(m.rows, m.cols) + 2):
            for red in (None, gb.normal_form):
                got = list(iter_minors(m, size, reducer=red))
                want = reference_minors(m, size, reducer=red)
                assert set(got) == set(want), (m, size, red)
                by_value = {f: f for f in want}
                assert all(_coeff_types([f]) == _coeff_types([by_value[f]])
                           for f in got)
                checked += len(got)
    assert checked > 500


def test_iter_minors_yields_each_distinct_minor_once():
    # no repeats, none missed, also where the kernel expands the transpose;
    # an abandoned walk yields a prefix of the exhausted one
    checked = transposed = 0
    for m, gb in _kernel_cases(5150, 90):
        for size in range(min(m.rows, m.cols) + 2):
            for red in (None, gb.normal_form):
                got = list(iter_minors(m, size, reducer=red))
                want = set(reference_minors(m, size, reducer=red))
                assert len(got) == len(set(got)) == len(want), (m, size, red)
                half = len(got) // 2
                stream = iter_minors(m, size, reducer=red)
                assert [next(stream) for _ in range(half)] == got[:half]
                transposed += m.rows > m.cols and size > 0
                checked += len(got)
    assert checked > 500 and transposed > 30


def test_minors_reduces_each_monomial_once():
    calls = 0
    for m, gb in _kernel_cases(6160, 60):
        one = m.ring.field.one()
        for size in range(1, min(m.rows, m.cols) + 1):
            seen = []

            def counting(f):
                assert f.coeffs == (one,), f  # monomials only
                seen.append(f.leading_key())
                return gb.normal_form(f)

            got = list(iter_minors(m, size, reducer=counting))
            assert len(seen) == len(set(seen))
            assert set(got) == set(
                reference_minors(m, size, reducer=gb.normal_form))
            calls += len(seen)
    assert calls > 500


def test_iter_minors_walks_constant_first_and_checks_up_front(rxy):
    x, y = variables(rxy)
    one = Polynomial.constant(rxy, 1)
    zero = Polynomial.zero(rxy)
    # only the last row and column carry constants: their minor comes first
    m = PolyMatrix(rxy, 3, 3, [x, y, zero,
                               y, x, zero,
                               zero, zero, one + x])
    first = next(iter_minors(m, 1))
    assert first == one + x
    assert set(iter_minors(m, 2)) == set(reference_minors(m, 2))
    calls = []
    assert len(list(iter_minors(m, 2, checkpoint=lambda: calls.append(1)))) \
        == len(set(reference_minors(m, 2)))
    assert len(calls) == 9
    with pytest.raises(ValueError):
        iter_minors(m, -1)
    big = PolyMatrix(rxy, 2, 2, [x ** (EXP_LIMIT - 1), y, y, x])
    with pytest.raises(DegreeOverflowError):
        iter_minors(big, 2)
    assert list(iter_minors(m, 0)) == [one]
    assert list(iter_minors(m, 4)) == []


def test_minor_memo_never_holds_the_requested_size(monkeypatch):
    memos = []
    real = matrix._expand

    def spy(memo, ctx, rows, cs):
        if not any(memo is seen for seen in memos):
            memos.append(memo)
        return real(memo, ctx, rows, cs)

    monkeypatch.setattr(matrix, "_expand", spy)
    sizes = 0
    for m, gb in _kernel_cases(7170, 45):
        for size in range(1, min(m.rows, m.cols) + 1):
            for red in (None, gb.normal_form):
                del memos[:]
                list(iter_minors(m, size, reducer=red))
                assert len(memos) <= 1
                short = min(m.rows, m.cols)
                for memo in memos:
                    assert max(len(rows) for rows, _ in memo) < size
                    # expanded rows index the shorter side
                    assert all(max(rows, default=-1) < short
                               for rows, _ in memo)
                sizes += 1
    assert sizes > 100


def _ranked_reference(m, size, reducer=None):
    """The unpruned walk: every row set outer and column set inner, both in
    the ranked order iter_minors documents, each distinct nonzero minor
    once, from reference_minors on the (sorted) submatrix."""
    one = m.ring.one_key
    const = [bool(e.keys) and e.keys[-1] == one for e in m.entries]

    def ranked(counts):
        return sorted(range(len(counts)), key=lambda i: -counts[i])

    rows = ranked([sum(const[i * m.cols:(i + 1) * m.cols])
                   for i in range(m.rows)])
    cols = ranked([sum(const[j::m.cols]) for j in range(m.cols)])
    out = []
    for rs in icombs(rows, size):
        for cs in icombs(cols, size):
            got = reference_minors(m.submatrix(sorted(rs), sorted(cs)), size,
                                   reducer=reducer)
            if got and got[0] not in out:
                out.append(got[0])
    return out


def _dependent_cases(seed, count):
    """_kernel_cases with up to six rows, some of them dependent: zero, a
    multiple of an earlier row, a sum of two earlier rows, or with every
    entry in the ideal, so that it vanishes under the reducer."""
    rng = random.Random(seed)
    for m, gb in _kernel_cases(seed, count):
        ring, cols = m.ring, m.cols
        rows = [list(m.row(i)) for i in range(m.rows)]
        while len(rows) < 6 and rng.random() < 0.7:
            pick = rng.randrange(4)
            if pick == 0:
                row = [Polynomial.zero(ring)] * cols
            elif pick == 1:
                lam = nonzero_random_poly(ring, rng, max_terms=2, max_deg=1)
                row = [lam * e for e in rng.choice(rows)]
            elif pick == 2:
                a, b = rng.choice(rows), rng.choice(rows)
                row = [u + v for u, v in zip(a, b)]
            else:
                g = gb.ideal.generators[0]
                row = [g * random_poly(ring, rng, max_terms=2, max_deg=1)
                       for _ in range(cols)]
            rows.insert(rng.randrange(len(rows) + 1), row)
        yield (PolyMatrix(ring, len(rows), cols, [e for r in rows for e in r]),
               gb)


def test_pruned_walk_matches_the_unpruned_reference():
    # same minors, order and signs as the walk over every row set, over
    # QQ, GF(101) and GF(7), with and without a reducer; an abandoned walk
    # yields a prefix of the full stream
    checked = pruned = 0
    for cases in (_kernel_cases(5150, 90), _dependent_cases(9190, 150)):
        for m, gb in cases:
            for size in range(1, min(m.rows, m.cols) + 1):
                for red in (None, gb.normal_form):
                    formed = []
                    got = list(iter_minors(m, size, reducer=red,
                                           checkpoint=lambda: formed.append(1)))
                    assert got == _ranked_reference(m, size, red), \
                        (m, size, red)
                    possible = comb(m.rows, size) * comb(m.cols, size)
                    assert len(formed) <= possible
                    pruned += len(formed) < possible
                    for stop in range(len(got)):
                        stream = iter_minors(m, size, reducer=red)
                        assert [next(stream) for _ in range(stop)] \
                            == got[:stop]
                    checked += len(got)
    assert checked > 1000 and pruned > 50, (checked, pruned)


def test_pruned_walk_on_pinned_cases(rxy):
    # a zero row ranked first: its row sets after the first are skipped,
    # after one prefix test of its three 1-minors
    x, y = variables(rxy)
    zero = Polynomial.zero(rxy)
    m = PolyMatrix(rxy, 4, 3, [zero, zero, zero,
                               x, y, zero,
                               y, x, x * y,
                               x * y, x, y])
    formed, probed = [], []
    got = list(iter_minors(m, 2, checkpoint=lambda: formed.append(1),
                           prefix_checkpoint=lambda: probed.append(1)))
    assert got == _ranked_reference(m, 2)
    # 12 of the C(4, 2) * C(3, 2) = 18 minors
    assert (len(formed), len(probed)) == (3 + 3 * 3, 3)
    # rows 0 and 1 proportional: every row set starting with both is
    # skipped after the first, and rows 1 and 2 vanish modulo (x)
    m = PolyMatrix(rxy, 5, 3, [x, y, x + y,
                               x * x, x * y, x * x + x * y,
                               x, x * y, x * x,
                               y, x, y * y,
                               y * y, x + y, x])
    formed, probed = [], []
    got = list(iter_minors(m, 3, checkpoint=lambda: formed.append(1),
                           prefix_checkpoint=lambda: probed.append(1)))
    assert got == _ranked_reference(m, 3)
    # (0, 1, 2) formed, (0, 1, 3) and (0, 1, 4) skipped, the rest formed
    assert len(formed) == comb(5, 3) - 2
    assert len(probed) == 1 + 3
    gb = buchberger(Ideal(rxy, [x]))
    formed = []
    got = list(iter_minors(m, 2, reducer=gb.normal_form,
                           checkpoint=lambda: formed.append(1)))
    assert got == _ranked_reference(m, 2, gb.normal_form)
    assert len(formed) < comb(5, 2) * comb(3, 2)


def test_prefix_checkpoint_interrupts_the_prefix_tests(rxy):
    x, y = variables(rxy)
    zero = Polynomial.zero(rxy)
    m = PolyMatrix(rxy, 3, 2, [zero, zero, x, y, y, x])

    class Stop(Exception):
        pass

    def bomb():
        raise Stop()

    formed = []
    stream = iter_minors(m, 2, checkpoint=lambda: formed.append(1),
                         prefix_checkpoint=bomb)
    with pytest.raises(Stop):
        next(stream)
    assert formed == [1]  # the zero row set, then its prefix test


# -- oracle: fraction-free Bareiss elimination on Polynomial entries ----------

def bareiss_exact_div(a, b):
    """Exact quotient a / b by leading-term cancellation."""
    if a.is_zero():
        return a
    ring = a.ring
    p = ring.field.characteristic
    lead_b = b.leading_key()
    inv_b = ring.field.inv(b.leading_coefficient())
    work = dict(zip(a.keys, a.coeffs))
    quot = {}
    while work:
        m = max(work)
        c = work.pop(m)
        if not c:
            continue
        assert ring.divides(lead_b, m), "inexact division"
        qk = m - lead_b + ring.mul_off
        qc = c * inv_b % p if p else c * inv_b
        quot[qk] = qc
        base = qk - ring.mul_off
        for tk, tc in zip(b.keys[1:], b.coeffs[1:]):
            kk = tk + base
            v = work.get(kk, 0) - qc * tc
            work[kk] = v % p if p else v
    return Polynomial.from_key_dict(ring, quot)


def bareiss_determinant(m):
    """Bareiss elimination, with direct cofactor expansion below 4x4."""
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
                a[i][j] = bareiss_exact_div(a[i][j] * pivot - aik * a[k][j],
                                            prev)
            a[i][k] = Polynomial.zero(ring)
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def bareiss_adjugate(m):
    n = m.rows
    q = bareiss_determinant(m)
    ents = []
    idx = tuple(range(n))
    for l in range(n):
        for k in range(n):
            d = bareiss_determinant(
                m.submatrix(idx[:l] + idx[l + 1:], idx[:k] + idx[k + 1:]))
            ents.append(-d if (l + k) & 1 else d)
    return PolyMatrix(m.ring, n, n, ents), q


def _coeff_types(polys):
    return [[type(c) for c in f.coeffs] for f in polys]


def _bareiss_entry(ring, rng, n):
    """Entries shrink with the size so the oracle stays quick at 6x6."""
    if n <= 4:
        return _fractional_poly(ring, rng)
    f = random_poly(ring, rng, max_terms=2, max_deg=1, coeff_bound=3)
    if ring.field.characteristic or f.is_zero():
        return f
    return f * Fraction(1, rng.randint(1, 4))


def test_determinant_and_adjugate_match_bareiss_reference():
    rng = random.Random(8080)
    fields = (QQ, GF(101), GF(7))
    zero_pivots = checked = 0
    for t in range(150):
        field = fields[t % 3]
        ring = Ring(field, tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        n = t % 7
        ents = [_bareiss_entry(ring, rng, n) if rng.random() < 0.75
                else Polynomial.zero(ring) for _ in range(n * n)]
        if n and rng.random() < 0.3:
            ents[0] = Polynomial.zero(ring)  # Bareiss must swap a pivot
        m = PolyMatrix(ring, n, n, ents)
        zero_pivots += n > 3 and ents[0].is_zero()
        q = determinant(m)
        want = bareiss_determinant(m)
        assert q == want, (t, m)
        adj, q2 = adjugate(m)
        want_adj, _ = bareiss_adjugate(m)
        assert q2 == want and adj == want_adj, (t, m)
        assert (_coeff_types([q, q2] + list(adj.entries))
                == _coeff_types([want, want] + list(want_adj.entries)))
        checked += not q.is_zero()
    assert zero_pivots >= 10 and checked >= 100


def _rnc_jacobian(d):
    from varsmooth.bench import rational_normal_curve
    ideal = rational_normal_curve(d).ideal
    return jacobian(ideal.ring, ideal.generators)


def _fraction_laplace(m, reducer=None, transpose=False):
    """The reference for matrix._laplace's loop on scaled integers: products
    summed on (key, coeff) pairs, with each normal form's coefficients
    Fractions wherever they have a denominator, so one Fraction per term.
    Its det_of gives (settled dict, 1), the shape iter_minors reads."""
    ring = m.ring
    off = ring.mul_off
    one = ring.field.one()
    ents = [tuple(zip(e.keys, e.coeffs)) for e in m.entries]
    ncols = m.cols
    if transpose:
        ents = [ents[i * ncols + j] for j in range(ncols)
                for i in range(m.rows)]
        ncols = m.rows
    memo = {((), ()): {ring.one_key: 1}}
    table = {}

    def nf(key):
        if key not in table:
            r = reducer(Polynomial(ring, (key,), (one,)))
            table[key] = tuple(zip(r.keys, r.coeffs))
        return table[key]

    def expand(rows, cs):
        acc = {}
        for idx, c in enumerate(cs):
            entry = ents[rows[0] * ncols + c]
            sub = (rows[1:], cs[:idx] + cs[idx + 1:])
            if sub not in memo:
                memo[sub] = expand(*sub)
            for ks, cv in memo[sub].items():
                for ke, ce in entry:
                    prod = -ce * cv if idx & 1 else ce * cv
                    for nk, nc in nf(ke + ks - off):
                        acc[nk] = acc.get(nk, 0) + prod * nc
        return {k: c for k, c in acc.items() if c}

    def det_of(rows, cols):
        if transpose:
            rows, cols = cols, rows
        return expand(rows, cols), 1

    return det_of


def _scaled_cases(seed, count):
    """Integral matrices over QQ, some rows dependent (zero, a multiple of
    another, or in the ideal), modulo bases whose leading coefficients are
    not 1, so that normal forms of monomials carry denominators."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = Ring(QQ, tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        cols = rng.randint(2, 4)
        gens = [nonzero_random_poly(ring, rng, max_terms=3, max_deg=2,
                                    coeff_bound=5)
                for _ in range(rng.randint(1, 2))]
        rows = []
        for _ in range(rng.randint(2, 5)):
            pick = rng.randrange(6) if rows else 5
            if pick == 0:
                row = [Polynomial.zero(ring)] * cols
            elif pick == 1:
                row = [e * rng.randint(-2, 2) for e in rng.choice(rows)]
            elif pick == 2:
                row = [gens[0] * random_poly(ring, rng, max_terms=2,
                                             max_deg=1) for _ in range(cols)]
            else:
                row = [random_poly(ring, rng, max_terms=3, max_deg=2)
                       for _ in range(cols)]
            rows.append(row)
        yield (PolyMatrix(ring, len(rows), cols, [e for r in rows for e in r]),
               buchberger(Ideal(ring, gens)))


def _i4_6_3_chart_jacobian():
    """The Jacobian of I4-6-3-cc's first affine chart, its variety's
    Groebner basis and codimension: integral entries, normal forms with
    denominators of up to 16 digits."""
    from conftest import chart_ideals
    from varsmooth.bench import cyclic_polytope_sr, random_coordinate_change
    from varsmooth.groebner import krull_dimension
    ideal = chart_ideals(random_coordinate_change(
        cyclic_polytope_sr(3, 6), 0).ideal)[0]
    ring = ideal.ring
    return (jacobian(ring, ideal.generators), buchberger(ideal),
            ring.nvars - krull_dimension(ideal))


def test_scaled_minors_match_the_fraction_kernel(monkeypatch):
    # integral entries, normal forms with denominators: the same stream,
    # order and coefficient types as the Fraction kernel; each distinct
    # nonzero minor once, also where the walk forms repeats and zeros
    real_laplace = matrix._laplace
    scaled = []

    def streams(m, size, reduce, stop=None):
        def red(f):
            # notes each monomial's normal form that has a denominator
            r = reduce(f)
            scaled.append(any(c.denominator != 1 for c in r.coeffs))
            return r

        formed = []
        got = list(islice(iter_minors(m, size, reducer=red,
                                      checkpoint=lambda: formed.append(1)),
                          stop))
        monkeypatch.setattr(matrix, "_laplace", _fraction_laplace)
        want = list(islice(iter_minors(m, size, reducer=reduce), stop))
        monkeypatch.setattr(matrix, "_laplace", real_laplace)
        assert got == want, (m, size)
        assert _coeff_types(got) == _coeff_types(want)
        assert len(set(got)) == len(got) and not any(f.is_zero()
                                                     for f in got)
        return got, len(formed)

    # 2x reduces to y over 2 times 2: the same minor as y, yielded once
    ring = Ring(QQ, ("x", "y"))
    x, y = variables(ring)
    red = buchberger(Ideal(ring, [2 * x - y])).normal_form
    assert streams(PolyMatrix(ring, 1, 2, [2 * x, y]), 1, red)[0] == [y]
    jac, gb_x, c = _i4_6_3_chart_jacobian()
    for size, stop in ((1, None), (2, None), (c, 4)):
        del scaled[:]
        got, _ = streams(jac, size, gb_x.normal_form, stop)
        assert len(got) == (stop or len(got)) and any(scaled)
    assert any(c.denominator > 10 ** 12 for f in got for c in f.coeffs)
    cases = dropped = went_scaled = 0
    for m, gb in _scaled_cases(3131, 120):
        for size in range(1, min(m.rows, m.cols) + 1):
            del scaled[:]
            got, formed = streams(m, size, gb.normal_form)
            assert got == _ranked_reference(m, size, gb.normal_form)
            dropped += formed > len(got)
            went_scaled += any(scaled)
            cases += 1
    assert cases > 300 and dropped > 50 and went_scaled > 60, \
        (cases, dropped, went_scaled)
    # the scaled loop leaves no reference cycle
    gc.collect()
    gc.disable()
    try:
        list(iter_minors(jac, 2, reducer=gb_x.normal_form))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kernel_leaves_no_reference_cycles():
    from varsmooth.charts import Chart, enumerate_frames, relative_jacobian
    jac = _rnc_jacobian(4)
    square = jac.submatrix((0, 1, 2), (0, 1, 2))
    ring = Ring(QQ, ("x", "y"))
    x, y = variables(ring)
    w = Ideal(ring, [x * x + y * y - 1])
    chart = Chart(w, w, Polynomial.constant(ring, 1), depth=1, check=False)
    frame = enumerate_frames(chart).frames[0]
    gb = buchberger(Ideal(jac.ring, [jac.get(0, 0)]))
    calls = [lambda: list(iter_minors(jac, 3)),
             lambda: list(iter_minors(jac, 2, reducer=gb.normal_form)),
             lambda: next(iter_minors(jac, 2, reducer=gb.normal_form)),
             lambda: determinant(square),
             lambda: adjugate(square),
             lambda: relative_jacobian([x * y], chart, frame)]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.collect() == 0, call
    finally:
        gc.enable()


def test_kernel_entry_points_guard_the_exponent_range():
    from varsmooth.charts import Chart, enumerate_frames, relative_jacobian
    ring = Ring(QQ, ("x", "y"))
    x, y = variables(ring)
    half = EXP_LIMIT // 2
    big = PolyMatrix(ring, 2, 2, [x ** half, y, y, x ** half])
    for call in (lambda: determinant(big), lambda: adjugate(big),
                 lambda: iter_minors(big, 2)):
        with pytest.raises(DegreeOverflowError):
            call()
    # one below the limit still fits every lane
    fits = PolyMatrix(ring, 2, 2, [x ** (half - 1), y, y, x ** (half - 1)])
    want = x ** (2 * half - 2) - y * y
    assert determinant(fits) == want
    assert adjugate(fits)[1] == want
    assert list(iter_minors(fits, 2)) == [want]

    g = y + x ** (half + 8)   # frame on y: q = 1, free column x
    w = Ideal(ring, [g])
    chart = Chart(w, w, Polynomial.constant(ring, 1), depth=1, check=False)
    frame = next(fr for fr in enumerate_frames(chart).frames
                 if fr.cols == (1,))
    with pytest.raises(DegreeOverflowError):
        relative_jacobian([x ** (half + 8) * y], chart, frame)
