import random
from fractions import Fraction
from itertools import combinations as icombs

import pytest

from conftest import nonzero_random_poly, random_poly, variables
from varsmooth.errors import SingularMatrixError
from varsmooth.fields import QQ, GF
from varsmooth.groebner import Ideal, buchberger
from varsmooth.matrix import (PolyMatrix, adjugate, determinant, jacobian,
                              minors, poly_exact_div)
from varsmooth.poly import Polynomial
from varsmooth.ring import Ring


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


def test_poly_exact_div_round_trip(rxyz):
    rng = random.Random(31)
    for _ in range(30):
        a = random_poly(rxyz, rng)
        b = nonzero_random_poly(rxyz, rng)
        assert poly_exact_div(a * b, b) == a


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
        got = minors(m, size)
        want = []
        for rs in icombs(range(rows), size):
            for cs in icombs(range(cols), size):
                d = laplace_det(m.submatrix(rs, cs))
                if not d.is_zero():
                    want.append(d)
        assert got == want


def test_minors_edge_sizes(rxy):
    x, y = variables(rxy)
    m = PolyMatrix(rxy, 2, 2, [x, y, y, x])
    assert minors(m, 0) == [Polynomial.constant(rxy, 1)]
    assert minors(m, 3) == []
    with pytest.raises(ValueError):
        minors(m, -1)


def test_minors_reducer_applied(rxy):
    # reducing modulo x kills every minor that contains the x column
    from varsmooth.groebner import Ideal, buchberger
    x, y = variables(rxy)
    gb = buchberger(Ideal(rxy, [x]))
    m = PolyMatrix(rxy, 2, 2, [x, y,
                               y, x])
    red = minors(m, 2, reducer=gb.normal_form)
    assert red == [gb.normal_form(x * x - y * y)]
    assert red == [-(y * y)]


def test_minors_checkpoint_called_and_interruptible(rxy):
    x, y = variables(rxy)
    m = PolyMatrix(rxy, 3, 3, [x] * 9)
    calls = []
    minors(m, 2, checkpoint=lambda: calls.append(1))
    assert len(calls) == 9  # C(3,2)^2

    class Stop(Exception):
        pass

    def bomb():
        raise Stop()

    with pytest.raises(Stop):
        minors(m, 2, checkpoint=bomb)


# -- oracle: the Polynomial-based memoized expansion, reducing everything -----

def reference_minors(m, size, reducer=None):
    """Memoized first-row Laplace expansion on Polynomial entries that passes
    every entry, product and sum through the reducer."""
    ring = m.ring
    if size == 0:
        return [Polynomial.constant(ring, 1)]
    if size > m.rows or size > m.cols:
        return []
    red = reducer if reducer is not None else (lambda f: f)
    memo = {}

    def det_of(rows, cols):
        got = memo.get((rows, cols))
        if got is not None:
            return got
        if len(rows) == 1:
            d = red(m.get(rows[0], cols[0]))
        else:
            acc = Polynomial.zero(ring)
            for idx, c in enumerate(cols):
                entry = m.get(rows[0], c)
                if entry.is_zero():
                    continue
                sub = det_of(rows[1:], cols[:idx] + cols[idx + 1:])
                if sub.is_zero():
                    continue
                prod = red(entry * sub)
                acc = acc - prod if idx & 1 else acc + prod
            d = red(acc)
        memo[(rows, cols)] = d
        return d

    out = []
    for rs in icombs(range(m.rows), size):
        for cs in icombs(range(m.cols), size):
            d = det_of(rs, cs)
            if not d.is_zero():
                out.append(d)
    return out


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
    checked = 0
    for m, gb in _kernel_cases(5150, 90):
        for size in range(min(m.rows, m.cols) + 2):
            for red in (None, gb.normal_form):
                got = minors(m, size, reducer=red)
                want = reference_minors(m, size, reducer=red)
                assert got == want, (m, size, red)
                assert ([[type(c) for c in f.coeffs] for f in got]
                        == [[type(c) for c in f.coeffs] for f in want])
                checked += len(got)
    assert checked > 1000


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

            got = minors(m, size, reducer=counting)
            assert len(seen) == len(set(seen))
            assert got == reference_minors(m, size, reducer=gb.normal_form)
            calls += len(seen)
    assert calls > 500
