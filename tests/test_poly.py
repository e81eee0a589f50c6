import random
from fractions import Fraction

import pytest

from conftest import random_poly, variables
from varsmooth.errors import DegreeOverflowError, NonHomogeneousError
from varsmooth.fields import QQ, GF
from varsmooth.poly import Polynomial, apply_linear_change, dehomogenize
from varsmooth.ring import EXP_LIMIT, Ring


# -- independent oracle: exponent-dict arithmetic over Fraction / F_p --------

def to_dict(f):
    return {exps: Fraction(c) if f.ring.field.characteristic == 0 else int(c)
            for exps, c in f.terms()}


def dict_add(a, b, p):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + c
        if p:
            v %= p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def dict_mul(a, b, p):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            v = out.get(k, 0) + ca * cb
            if p:
                v %= p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def assert_same(f, d):
    assert to_dict(f) == {k: v for k, v in d.items() if v}, (str(f), d)


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(5)])
def test_arithmetic_matches_dict_oracle(field):
    ring = Ring(field, ("x", "y", "z"))
    p = field.characteristic
    rng = random.Random(11)
    for _ in range(120):
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        assert_same(f + g, dict_add(to_dict(f), to_dict(g), p))
        assert_same(f - g, dict_add(to_dict(f),
                                    {k: -v for k, v in to_dict(g).items()},
                                    p))
        assert_same(f * g, dict_mul(to_dict(f), to_dict(g), p))


def test_ring_axioms(rxyz):
    rng = random.Random(23)
    for _ in range(60):
        f = random_poly(rxyz, rng)
        g = random_poly(rxyz, rng)
        h = random_poly(rxyz, rng)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + Polynomial.zero(rxyz) == f
        assert f * Polynomial.constant(rxyz, 1) == f
        assert f - f == Polynomial.zero(rxyz)


def test_pow_is_repeated_product(rxy):
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(rxy, rng, max_terms=3, max_deg=2)
        assert f ** 0 == Polynomial.constant(rxy, 1)
        assert f ** 1 == f
        assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        random_poly(rxy, rng) ** -1


def test_scalar_multiplication(rxy):
    x, y = variables(rxy)
    f = x * x + 2 * y
    assert 3 * f == f + f + f
    assert 0 * f == Polynomial.zero(rxy)
    assert Fraction(1, 2) * (2 * f) == f


def test_degrevlex_leading_term_properties():
    # same degree: the term whose trailing exponent drops last wins
    ring = Ring(QQ, ("x", "y", "z"))
    x, y, z = variables(ring)
    assert (x * y + z * z).leading_key() == (x * y).leading_key()
    assert (x * x + x * y).leading_key() == (x * x).leading_key()
    assert (y * y + x * z).leading_key() == (y * y).leading_key()
    # multiplicativity: lt(f*g) = lt(f)*lt(g) over a domain
    rng = random.Random(5)
    for _ in range(60):
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        if f.is_zero() or g.is_zero():
            continue
        lt = (f * g).leading_key()
        assert lt == ring.mul_key(f.leading_key(), g.leading_key())


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_derivative_rules(field):
    ring = Ring(field, ("x", "y", "z"))
    rng = random.Random(7)
    for _ in range(60):
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        for i in range(3):
            assert (f + g).derivative(i) == f.derivative(i) + g.derivative(i)
            prod = (f * g).derivative(i)
            assert prod == f.derivative(i) * g + f * g.derivative(i)
    assert Polynomial.constant(ring, 7).derivative(0).is_zero()
    x = Polynomial.variable(ring, 0)
    assert (x ** 4).derivative(0) == 4 * x ** 3


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_derivative_keys_stay_descending_without_a_sort(field):
    # derivative keeps the input's term order; from_key_dict sorts
    ring = Ring(field, ("x", "y", "z", "w"))
    rng = random.Random(11)
    third = ring.field.coerce(Fraction(1, 3) if field is QQ else 3)
    for _ in range(150):
        f = third * random_poly(ring, rng, max_terms=9, max_deg=7)
        for i in range(ring.nvars):
            d = f.derivative(i)
            assert all(a > b for a, b in zip(d.keys, d.keys[1:])), (f, i)
            acc = {}
            for exps, c in f.terms():
                if exps[i]:
                    lower = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                    acc[ring.pack(lower)] = c * exps[i]
            want = Polynomial.from_key_dict(ring, acc)
            assert (d.keys, d.coeffs) == (want.keys, want.coeffs), (f, i)


def test_derivative_kills_other_variables(rxyz):
    x, y, z = variables(rxyz)
    f = x * x * y + z
    assert f.derivative(0) == 2 * x * y
    assert f.derivative(1) == x * x
    assert f.derivative(2) == Polynomial.constant(rxyz, 1)


def test_evaluate_is_ring_homomorphism(rxyz):
    rng = random.Random(13)
    for _ in range(40):
        f = random_poly(rxyz, rng)
        g = random_poly(rxyz, rng)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(3)]
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_evaluate_on_known_polynomial(rxy):
    x, y = variables(rxy)
    f = x * x + 2 * x * y - 3
    assert f.evaluate([2, 5]) == 4 + 20 - 3
    assert f.evaluate([0, 0]) == -3


def test_homogeneity_detection(rxyz):
    x, y, z = variables(rxyz)
    assert (x * y - z * z).is_homogeneous()
    assert (x + y + z).is_homogeneous()
    assert not (x * y - z).is_homogeneous()
    assert Polynomial.zero(rxyz).is_homogeneous()
    assert Polynomial.constant(rxyz, 4).is_homogeneous()


def test_apply_linear_change_matches_point_oracle(rxyz):
    # row i of the matrix is the image of variable i
    rng = random.Random(17)
    for _ in range(30):
        f = random_poly(rxyz, rng)
        mat = [[Fraction(rng.randint(-2, 2)) for _ in range(3)]
               for _ in range(3)]
        try:
            g = apply_linear_change(f, mat)
        except Exception:
            continue  # singular draw
        for _ in range(4):
            v = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            w = [sum(mat[i][j] * v[j] for j in range(3)) for i in range(3)]
            assert g.evaluate(v) == f.evaluate(w)


def _reference_linear_change(f, matrix):
    """x_i -> sum_j matrix[i][j] * x_j on Polynomial arithmetic: products
    and sums of Polynomials, one field scalar per term."""
    ring = f.ring
    n = ring.nvars
    images = [Polynomial.from_terms(
        ring, [(tuple(1 if j == c else 0 for c in range(n)), v)
               for j, v in enumerate(row) if v])
        for row in matrix]
    total = Polynomial.zero(ring)
    for exps, c in f.terms():
        term = Polynomial.constant(ring, c)
        for i, e in enumerate(exps):
            if e:
                term = term * images[i] ** e
        total = total + term
    return total


def _same_polynomial(got, want):
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert got.zform() == want.zform()
    assert hash(got) == hash(want)


def test_linear_change_matches_polynomial_arithmetic():
    # over QQ with integral and with rational entries, and over GF(101);
    # exponents up to 4, one change applied to several polynomials
    from varsmooth.errors import SingularMatrixError
    from varsmooth.poly import linear_change
    rng = random.Random(2727)
    checked = singular = 0
    for t in range(60):
        ring = Ring((QQ, QQ, GF(101))[t % 3],
                    tuple(f"x{i}" for i in range(rng.randint(1, 4))))
        n = ring.nvars
        if t % 3 == 1:
            mat = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(n)] for _ in range(n)]
        else:
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        polys = [random_poly(ring, rng, max_terms=6, max_deg=4,
                             coeff_bound=9) for _ in range(3)]
        polys[0] = polys[0] * Fraction(1, rng.randint(1, 3))
        try:
            change = linear_change(ring, mat)
        except SingularMatrixError:
            singular += 1
            continue
        field_mat = [[ring.field.coerce(v) for v in row] for row in mat]
        for f in polys:
            want = _reference_linear_change(f, field_mat)
            _same_polynomial(change(f), want)
            _same_polynomial(apply_linear_change(f, mat), want)
            checked += not want.is_zero()
    assert checked > 100 and singular


def test_apply_linear_change_rejects_singular_matrix(rxy):
    from varsmooth.errors import SingularMatrixError
    x, y = variables(rxy)
    with pytest.raises(SingularMatrixError):
        apply_linear_change(x + y, [[1, 1], [2, 2]])


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_apply_linear_change_rejects_degree_overflow(field):
    # every exponent fits its lane, the total degree does not: the images
    # would leave the packed range, as a product of that degree does (a
    # diagonal matrix keeps each image one term, so nothing else is slow)
    from varsmooth.poly import linear_change
    ring = Ring(field, ("x", "y"))
    x, y = variables(ring)
    half = EXP_LIMIT // 2
    f = Polynomial.from_terms(ring, [((half, half), 1), ((1, 0), 1)])
    mat = [[2, 0], [0, -1]]
    with pytest.raises(DegreeOverflowError):
        x ** half * y ** half
    with pytest.raises(DegreeOverflowError):
        apply_linear_change(f, mat)
    change = linear_change(ring, mat)
    with pytest.raises(DegreeOverflowError):
        change(f)
    assert change(x * y + y) == -2 * x * y - y


def test_dehomogenize_matches_point_oracle():
    ring = Ring(QQ, ("a", "b", "c"))
    a, b, c = variables(ring)
    f = a * a * c - b * b * b + a * b * c
    for i in range(3):
        g = dehomogenize(f, i)
        assert g.ring.nvars == 2
        rng = random.Random(i)
        for _ in range(5):
            v = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
            full = list(v)
            full.insert(i, Fraction(1))
            assert g.evaluate(v) == f.evaluate(full)


def test_dehomogenize_rejects_inhomogeneous(rxy):
    x, y = variables(rxy)
    with pytest.raises(NonHomogeneousError):
        dehomogenize(x * x + y, 0)


def _homogeneous_poly(ring, rng, degree):
    """Up to five terms of the given degree; some pile the whole degree
    into one lane, so lanes reach 2^15 - 1."""
    n = ring.nvars
    terms = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.3:
            exps = [0] * n
            exps[rng.randrange(n)] = degree
        else:
            cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
            exps = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        c = rng.randint(-9, 9)
        if not ring.field.characteristic:
            c = Fraction(c, rng.randint(1, 7))
        terms.append((tuple(exps), c))
    return Polynomial.from_terms(ring, terms)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_dehomogenize_equals_map_exponents(field):
    rng = random.Random(4242 + field.characteristic)
    checked = 0
    for t in range(120):
        n = rng.randint(2, 5)
        ring = Ring(field, tuple(f"x{j}" for j in range(n)))
        degree = rng.choice((0, 1, 2, 3, 7, 300, EXP_LIMIT - 1))
        f = _homogeneous_poly(ring, rng, degree)
        for i in range(n):
            want = f.map_exponents(ring.drop(i),
                                   lambda e: e[:i] + e[i + 1:])
            got = dehomogenize(f, i)
            assert got == want, (f, i)
            assert [type(c) for c in got.coeffs] == \
                [type(c) for c in want.coeffs]
            checked += 1
    assert checked > 300


def test_zform_primitive_positive_leading(rxy):
    import math
    rng = random.Random(19)
    for _ in range(40):
        f = random_poly(rxy, rng)
        if f.is_zero():
            continue
        half = Fraction(1, 2) * f
        keys, coeffs, scale = half.zform()
        assert list(keys) == list(half.keys)
        ints = [int(c) for c in coeffs]
        assert ints[0] > 0
        assert math.gcd(*ints) == 1 if len(ints) > 1 else abs(ints[0]) == 1
        # poly == scale * primitive integer part
        rebuilt = Polynomial(rxy, list(keys),
                             [rxy.field.coerce(c) for c in ints])
        assert scale * rebuilt == half


def test_exponent_overflow_raises(rxy):
    x, _ = variables(rxy)
    with pytest.raises(DegreeOverflowError):
        x ** (1 << 15)


def test_str_round_trip_sign_handling(rxy):
    x, y = variables(rxy)
    f = -x * x + 2 * y - 1
    s = str(f)
    assert "- 1" in s or "-1" in s
    assert s.count("+") + s.count("-") >= 2


def test_equal_polynomials_hash_equal_however_built():
    from varsmooth.matrix import _poly
    for field in (QQ, GF(32003)):
        p = field.characteristic
        ring = Ring(field, ("x", "y", "z"))
        x, y, z = variables(ring)
        # negative leading coefficient, content 2
        ints = {ring.pack((2, 1, 0)): -6, ring.pack((0, 1, 1)): 4,
                ring.pack((0, 0, 0)): -10}
        settled = {k: c % p for k, c in ints.items()} if p else ints
        negated = {k: -c % p if p else -c for k, c in ints.items()}
        built = [
            _poly(ring, settled),
            _poly(ring, negated, -1) if not p else _poly(ring, settled),
            Polynomial.from_key_dict(
                ring, {k: c if p else Fraction(c) for k, c in ints.items()}),
            -6 * x * x * y + 4 * y * z - 10,
            (3 * x * x * y - 2 * y * z + 5) * (-2),
        ]
        first = built[0]
        for f in built:
            assert f == first and hash(f) == hash(first), field
            assert f.zform() == first.zform(), field
        if not p:
            assert first.zform() == (list(first.keys), [3, -2, 5],
                                     Fraction(-2))
            first._zform = first._hash = None
            assert hash(first) == hash(built[3])
        else:
            assert first.zform() == (list(first.keys), list(first.coeffs), 1)
        # non-unit content with rational coefficients: same hash
        halves = {ring.pack((1, 0, 0)): Fraction(-3, 2),
                  ring.pack((0, 0, 1)): Fraction(9, 4)}
        if p:
            halves = {k: c.numerator * pow(c.denominator, -1, p) % p
                      for k, c in halves.items()}
        g = _poly(ring, halves)
        assert g._zform is None
        h = Polynomial.from_key_dict(ring, halves)
        k = (x * (-6) + z * 9) * field.coerce(Fraction(1, 4))
        assert g == h == k and hash(g) == hash(h) == hash(k), field
        if not p:
            assert g.zform() == ([ring.pack((1, 0, 0)), ring.pack((0, 0, 1))],
                                 [2, -3], Fraction(-3, 4))


def test_derived_rings_are_kept_and_equal_rings_mix():
    from varsmooth.groebner import Ideal
    for field in (QQ, GF(32003)):
        ring = Ring(field, ("x", "y"))
        ext = ring.extend("t")
        assert ring.extend("t") is ext
        fresh = Ring(field, ("x", "y", "t"))
        assert ext is not fresh
        assert ext == fresh and fresh == ext and hash(ext) == hash(fresh)
        other = ring.extend("u")
        assert other is not ext and other.variables == ("x", "y", "u")
        assert ext.drop(2) is ext.drop(2) == ring
        assert ring.drop(0).variables == ("y",)
        twin = Ring(field, ("x", "y"))
        assert twin is not ring
        assert twin == ring and hash(twin) == hash(ring)
        assert twin.extend("t") == ext
        assert ring != Ring(field, ("y", "x"))
        assert ring != Ring(GF(7), ("x", "y"))
        # polynomials and ideals over equal but distinct rings mix
        f = Polynomial.variable(ring, 0) * 2 + 1
        f2 = Polynomial.variable(twin, 0) * 2 + 1
        assert f == f2 and hash(f) == hash(f2)
        assert Ideal(ring, [f2]) == Ideal(twin, [f])
        assert hash(Ideal(ring, [f2])) == hash(Ideal(twin, [f]))


def test_qq_inverse_is_exact_and_canonical():
    from varsmooth.errors import SingularMatrixError
    from varsmooth.fields import mpq
    from varsmooth.poly import linear_change
    third = QQ.inv(3)
    assert third == Fraction(1, 3) and type(third) is mpq
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    minus_two = QQ.inv(Fraction(-1, 2))
    assert minus_two == -2 and type(minus_two) is int
    ring = Ring(QQ, ("x", "y", "z"))
    # row 3 is row 1 plus row 2: singular, however the elimination pivots
    for mat in ([[3, 7, 1], [5, 2, 9], [8, 9, 10]],
                [[7, 3, 5], [2, 9, 4], [9, 12, 9]],
                [[6, 10, 3], [7, 11, 3], [13, 21, 6]]):
        with pytest.raises(SingularMatrixError):
            linear_change(ring, mat)


def _assert_canonical(values, kinds, route):
    """Every value is an int when integral, else a rational with
    denominator other than 1, and never a float; kinds[route] gains the
    kinds seen."""
    from varsmooth.fields import mpq
    for c in values:
        assert type(c) is not float, route
        if c.denominator == 1:
            assert type(c) is int, (route, c, type(c))
            kinds.setdefault(route, set()).add("int")
        else:
            assert type(c) is mpq, (route, c, type(c))
            kinds.setdefault(route, set()).add("rational")


def _assert_same(polys, route):
    """Equal polynomials built by different routes hash equal and have
    equal integer forms."""
    first = polys[0]
    for f in polys[1:]:
        assert f == first, route
        assert hash(f) == hash(first), route
        assert f.zform() == first.zform(), route


def test_qq_coefficients_are_canonical_on_every_route():
    from varsmooth.charts import Chart, enumerate_frames
    from varsmooth.groebner import Ideal, buchberger
    from varsmooth.matrix import (Partials, PolyMatrix, adjugate,
                                  determinant, iter_minors)
    from varsmooth.poly import _poly, linear_change
    ring = Ring(QQ, ("x", "y", "z"))
    x, y, z = variables(ring)
    rng = random.Random(32)
    half = Fraction(1, 2)
    kinds = {}

    def check(polys, route):
        for f in polys:
            _assert_canonical(f.coeffs, kinds, route)

    def mixed(deg=None, ints=False):
        """A nonzero polynomial with coefficients k/1, k/2 or k/3 (k/1
        only with ints), homogeneous of degree deg if deg is given."""
        while True:
            terms = []
            for _ in range(rng.randint(1, 4)):
                if deg is None:
                    exps = tuple(rng.randint(0, 2) for _ in range(3))
                else:
                    a = rng.randint(0, deg)
                    b = rng.randint(0, deg - a)
                    exps = (a, b, deg - a - b)
                den = 1 if ints else rng.choice((1, 1, 2, 3))
                terms.append((exps, Fraction(rng.randint(-6, 6), den)))
            f = Polynomial.from_terms(ring, terms)
            if not f.is_constant():
                return f

    identity = linear_change(
        ring, [[Fraction(int(i == j)) for j in range(3)] for i in range(3)])
    shear = linear_change(ring, [[1, half, 0], [0, 1, 0], [0, 0, 2]])
    for _ in range(30):
        f, g = mixed(), mixed()
        fractions = {k: Fraction(c) for k, c in zip(f.keys, f.coeffs)}
        built = [f, Polynomial.from_key_dict(ring, fractions),
                 _poly(ring, fractions), _poly(ring, {
                     k: -c for k, c in fractions.items()}, -1),
                 f.map_exponents(ring, lambda e: e),
                 (f * half) * 2, half * (2 * f), f * 3 + f * (-2),
                 f * half + f * half,
                 f * Polynomial.constant(ring, Fraction(2, 2)),
                 identity(f), g + f - g]
        check(built, "construction")
        _assert_same(built, "construction")
        check([f * g, f * half, f * x * y], "mul")
        check([f + g, f - g, f + half, -f], "add")
        for i in range(3):
            d = f.derivative(i)
            check([d], "derivative")
            row = Partials(ring).row(f)[i]
            check([row], "Partials.row")
            _assert_same([d, row], "derivative")
        point = [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                 for _ in range(3)]
        _assert_canonical([f.evaluate(point), g.evaluate(point)], kinds,
                          "evaluate")
        check([shear(f), shear(g)], "linear_change")
        h = mixed(deg=2)
        for i in range(3):
            check([dehomogenize(h, i)], "dehomogenize")

        m = PolyMatrix(ring, 2, 2, [mixed() for _ in range(4)])
        q = determinant(m)
        adj, q2 = adjugate(m)
        check([q], "determinant")
        check(adj.entries, "adjugate")
        _assert_same([q, q2], "determinant")
        tall = PolyMatrix(ring, 3, 2, [mixed() for _ in range(6)])
        minors = list(iter_minors(tall, 2))
        check(minors, "iter_minors")
        gb = buchberger(Ideal(ring, [mixed(), mixed()]))
        check(gb.elements, "GroebnerBasis.elements")
        u = mixed()
        nfs = [gb.normal_form(u), gb.normal_form(u + gb.elements[0] * g)]
        check(nfs, "normal_form")
        _assert_same(nfs, "normal_form")
        # integral entries are expanded on scaled integers (den != 1)
        for ints in (False, True):
            m = PolyMatrix(ring, 3, 2, [mixed(ints=ints) for _ in range(6)])
            check(iter_minors(m, 2, gb.normal_form),
                  f"iter_minors with normal_form, ints={ints}")
        # a relative Jacobian row on each frame of a one-generator chart
        w = Ideal(ring, [mixed()])
        chart = Chart(w, w, Polynomial.constant(ring, 1), depth=1,
                      check=False)
        for frame in enumerate_frames(chart).frames:
            check(frame.row(g), "relative_jacobian")
    # the field's own scalars
    _assert_canonical([QQ.coerce(Fraction(6, 2)), QQ.coerce(0.5),
                       QQ.coerce(-4), QQ.zero(), QQ.one(), QQ.inv(3)],
                      kinds, "fields")
    assert all(k == {"int", "rational"} for k in kinds.values()), kinds
    assert len(kinds) == 17, sorted(kinds)
