import heapq
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations as icombs

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (chart_ideals, equal_on_chart, nonzero_random_poly,
                      random_poly, variables)
from varsmooth.errors import RingMismatchError
from varsmooth.fields import QQ, GF
from varsmooth.groebner import (Ideal, _PairQueue, _lift, buchberger,
                                clear_caches, ideal_membership,
                                krull_dimension, prepare_divisor,
                                radical_membership, reduce_terms)
from varsmooth.limits import Budget, ensure_budget
from varsmooth.poly import Polynomial
from varsmooth.ring import EXP_LIMIT, Ring


# -- independent oracle: textbook division over exponent tuples --------------
# Works entirely on terms() output with Fraction / residue arithmetic, no
# shared code with the packed-key engine.

def _deg(e):
    return sum(e)


def _drl_less(a, b):
    # degrevlex: smaller degree first; ties broken by the last nonzero
    # coordinate of a - b being positive
    if _deg(a) != _deg(b):
        return _deg(a) < _deg(b)
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x > y
    return False


def _lead(d):
    best = None
    for e in d:
        if best is None or _drl_less(best, e):
            best = e
    return best


def _divides(ea, eb):
    return all(x <= y for x, y in zip(ea, eb))


def _poly_dict(f, p):
    return {e: (int(c) if p else Fraction(c)) for e, c in f.terms()}


def _dict_sub_scaled(a, b, shift, factor, p):
    out = dict(a)
    for e, c in b.items():
        k = tuple(x + y for x, y in zip(e, shift))
        v = out.get(k, 0) - factor * c
        if p:
            v %= p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def naive_normal_form(f, basis, p):
    """Textbook multivariate division remainder, first divisor wins."""
    work = _poly_dict(f, p) if not isinstance(f, dict) else dict(f)
    divisors = [_poly_dict(g, p) if not isinstance(g, dict) else g
                for g in basis]
    leads = [( _lead(d), d) for d in divisors if d]
    rem = {}
    while work:
        m = _lead(work)
        c = work.pop(m)
        hit = None
        for le, d in leads:
            if _divides(le, m):
                hit = (le, d)
                break
        if hit is None:
            rem[m] = c
            continue
        le, d = hit
        lc = d[le]
        factor = c * pow(lc, -1, p) % p if p else c / lc
        shift = tuple(x - y for x, y in zip(m, le))
        work[m] = c
        work = _dict_sub_scaled(work, d, shift, factor, p)
    return rem


def naive_spoly(f, g, p):
    df, dg = (h if isinstance(h, dict) else _poly_dict(h, p) for h in (f, g))
    lf, lg = _lead(df), _lead(dg)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out = {}
    for (le, d, sign) in ((lf, df, 1), (lg, dg, -1)):
        lc = d[le]
        inv = pow(lc, -1, p) if p else 1 / lc
        shift = tuple(a - b for a, b in zip(lcm, le))
        for e, c in d.items():
            k = tuple(x + y for x, y in zip(e, shift))
            v = out.get(k, 0) + sign * inv * c
            if p:
                v %= p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def naive_buchberger(ideal):
    """Textbook Buchberger: every pair, no criterion, then minimalize,
    interreduce and make monic.  The reduced basis as term dicts in
    ascending lead order."""
    p = ideal.ring.field.characteristic
    basis = [_poly_dict(g, p) for g in ideal.generators]
    pairs = list(icombs(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        r = naive_normal_form(naive_spoly(basis[i], basis[j], p), basis, p)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    kept = []
    for d in sorted(basis, key=cmp_to_key(
            lambda a, b: -1 if _drl_less(_lead(a), _lead(b)) else 1)):
        if not any(_divides(_lead(k), _lead(d)) for k in kept):
            kept.append(d)
    reduced = []
    for i, d in enumerate(kept):
        r = naive_normal_form(d, kept[:i] + kept[i + 1:], p)
        lc = r[_lead(r)]
        inv = pow(lc, -1, p) if p else 1 / lc
        reduced.append({e: (c * inv % p if p else c * inv)
                        for e, c in r.items()})
    return reduced


FIXED_SYSTEMS = []


def _fixed_systems():
    if FIXED_SYSTEMS:
        return FIXED_SYSTEMS
    r2 = Ring(QQ, ("x", "y"))
    x, y = variables(r2)
    r3 = Ring(QQ, ("x", "y", "z"))
    x3, y3, z3 = variables(r3)
    rp = Ring(GF(32003), ("x", "y", "z"))
    xp, yp, zp = variables(rp)
    FIXED_SYSTEMS.extend([
        Ideal(r2, [x * x + y * y - 1, x * y - 2]),
        Ideal(r2, [x * x * x - 2 * x * y, x * x * y - 2 * y * y + x]),
        Ideal(r3, [x3 + y3 + z3, x3 * y3 + y3 * z3 + z3 * x3,
                   x3 * y3 * z3 - 1]),  # cyclic-3
        Ideal(r3, [x3 * x3 - y3, x3 * y3 - z3]),
        Ideal(rp, [xp * xp - yp * zp, yp * yp - xp * zp]),
    ])
    return FIXED_SYSTEMS


def _random_systems(count=8):
    out = []
    rng = random.Random(71)
    r2 = Ring(QQ, ("x", "y"))
    rp = Ring(GF(101), ("x", "y"))
    for i in range(count):
        ring = r2 if i % 2 else rp
        gens = [nonzero_random_poly(ring, rng, max_terms=3, max_deg=3,
                                    coeff_bound=3) for _ in range(2)]
        out.append(Ideal(ring, gens))
    return out


def all_systems():
    return _fixed_systems() + _random_systems()


def test_spolys_reduce_to_zero_by_naive_division():
    for ideal in all_systems():
        p = ideal.ring.field.characteristic
        gb = buchberger(ideal)
        if gb.is_unit():
            continue
        els = list(gb.elements)
        for f, g in icombs(els, 2):
            s = naive_spoly(f, g, p)
            assert naive_normal_form(s, els, p) == {}, (str(f), str(g))


def test_generators_reduce_to_zero_over_their_basis():
    for ideal in all_systems():
        p = ideal.ring.field.characteristic
        gb = buchberger(ideal)
        for f in ideal.generators:
            if gb.is_unit():
                assert True
                continue
            assert naive_normal_form(f, list(gb.elements), p) == {}


def test_reduced_basis_shape():
    for ideal in all_systems():
        gb = buchberger(ideal)
        els = list(gb.elements)
        one = ideal.ring.field.one()
        for f in els:
            assert f.leading_coefficient() == one
        leads = [f.leading_key() for f in els]
        assert leads == sorted(leads)
        ring = ideal.ring
        for i, f in enumerate(els):
            others = [g.leading_key() for j, g in enumerate(els) if j != i]
            for key in f.keys:
                assert not any(ring.divides(lk, key) for lk in others), str(f)


def test_basis_equals_textbook_buchberger():
    # the oracle's basis generates the input ideal and no larger one, and
    # a reduced basis is unique, so the two must agree element by element
    for ideal in all_systems():
        p = ideal.ring.field.characteristic
        clear_caches()
        got = [_poly_dict(f, p) for f in buchberger(ideal).elements]
        assert got == naive_buchberger(ideal), repr(ideal)


@pytest.mark.parametrize("p", [0, 32003])
def test_generator_rows_are_tail_reduced_before_the_pairs(p, monkeypatch):
    # xy + yz enters first; xy + yz + y reduces by it to y, whose lead
    # divides the first row's tail yz.  The engine must reduce that tail to
    # zero before its one pair, whose S-polynomial xy - x*y then cancels
    # outright: it sums the two empty tails, and the leads, which cancel,
    # never enter its work dict.  The interreduction then reduces the one
    # minimal row's empty tail.  With y + z first and x^2 + z after, the
    # later lead is above y: no tail is reduced before the interreduction,
    # and the coprime leads form no pair.
    ring = Ring(GF(p) if p else QQ, ("x", "y", "z"))
    x, y, z = variables(ring)
    calls = []

    def spy(work, divisors, guards, char):
        taken = {k for k, c in work.items() if c}
        held = set(work)
        out = reduce_terms(work, divisors, guards, char)
        calls.append((taken, out[0], held))
        return out

    monkeypatch.setattr("varsmooth.groebner.reduce_terms", spy)
    xy, yz, yk, zk, xx = ((x * y).keys[0], (y * z).keys[0], y.keys[0],
                          z.keys[0], (x * x).keys[0])
    clear_caches()
    ideal = Ideal(ring, [x * y + y * z, x * y + y * z + y])
    gb = buchberger(ideal)
    assert [taken for taken, _, _ in calls] \
        == [{xy, yz}, {xy, yz, yk}, {yz}, set(), set()]
    assert calls[2][1] == []
    assert xy not in calls[3][2]    # the pair's lcm key
    assert [str(f) for f in gb.elements] == ["y"]
    calls.clear()
    clear_caches()
    ascending = Ideal(ring, [y + z, x * x + z])
    gb = buchberger(ascending)
    assert [taken for taken, _, _ in calls] \
        == [{yk, zk}, {xx, zk}, {zk}, {zk}]
    assert [_poly_dict(f, p) for f in gb.elements] \
        == naive_buchberger(ascending)


def test_basis_rows_are_the_integer_forms_of_its_elements():
    # buchberger keeps the engine's rows as divisors and builds the monic
    # elements only when read; the elements' own integer forms must give
    # the same divisors, and the predicates read from the leads must agree
    for ideal in all_systems():
        clear_caches()
        gb = buchberger(ideal)
        p = ideal.ring.field.characteristic
        els = gb.elements
        assert gb._divisors == [prepare_divisor(*e.zform()[:2], p)
                                for e in els]
        assert gb._lead_keys == tuple(e.leading_key() for e in els)
        assert gb.is_unit() == (len(els) == 1 and els[0].is_constant())
        assert gb.is_zero_ideal() == (not els)
        assert gb.elements is els


def test_lift_to_extension_equals_map_exponents():
    top = EXP_LIMIT - 1
    rng = random.Random(1515)
    for trial in range(120):
        n = 1 + trial % 6
        field = (QQ, GF(101))[trial % 2]
        ring = Ring(field, tuple(f"x{i}" for i in range(n)))
        ext = ring.extend(ring.fresh_name("t"))
        terms = []
        for _ in range(rng.randint(1, 6)):
            exps = [rng.choice((0, 1, 2, 255, top - 1, top))
                    if rng.random() < 0.5 else 0 for _ in range(n)]
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            terms.append((exps, c))
        f = Polynomial.from_terms(ring, terms)
        if trial % 3 == 0:
            f.zform()   # a computed integer form is carried over
        want = f.map_exponents(ext, lambda e: e + (0,))
        got = _lift(f, ext)
        assert (got._zform is not None) == (trial % 3 == 0)
        assert got == want, trial
        assert got.zform() == want.zform(), trial


def test_normal_form_idempotent_and_matches_oracle():
    rng = random.Random(9)
    for ideal in all_systems():
        p = ideal.ring.field.characteristic
        gb = buchberger(ideal)
        for _ in range(6):
            f = random_poly(ideal.ring, rng)
            nf = gb.normal_form(f)
            assert gb.normal_form(nf) == nf
            assert _poly_dict(nf, p) == naive_normal_form(
                f, list(gb.elements), p)


def test_normal_form_is_linear_over_the_ideal():
    rng = random.Random(15)
    for ideal in all_systems()[:6]:
        gb = buchberger(ideal)
        for _ in range(4):
            f = random_poly(ideal.ring, rng)
            mix = f
            for g in ideal.generators:
                mix = mix + random_poly(ideal.ring, rng, max_terms=2,
                                        max_deg=2) * g
            assert gb.normal_form(mix) == gb.normal_form(f)


def test_membership_round_trip():
    rng = random.Random(29)
    for ideal in all_systems():
        gb = buchberger(ideal)
        p = ideal.ring.field.characteristic
        # random element of the ideal is a member
        mix = Polynomial.zero(ideal.ring)
        for g in ideal.generators:
            mix = mix + random_poly(ideal.ring, rng, max_terms=2,
                                    max_deg=2) * g
        assert ideal_membership(mix, ideal)
        # anything with a nonzero naive remainder is not
        for _ in range(4):
            f = random_poly(ideal.ring, rng)
            if naive_normal_form(f, list(gb.elements), p):
                assert not ideal_membership(f, ideal)


def test_predicates_reject_a_polynomial_of_another_ring():
    # against (x^2, y) in QQ[x, y]: a variable of a larger ring, of an
    # unrelated ring and of the same names over F_7, and the zero of
    # another ring, each raise in every predicate, where they used to give
    # a malformed remainder, a degree overflow or a wrong answer
    ring = Ring(QQ, ("x", "y"))
    x, y = variables(ring)
    ideal = Ideal(ring, [x * x, y])
    gb = buchberger(ideal)
    z = variables(Ring(QQ, ("x", "y", "z")))[2]
    u = variables(Ring(QQ, ("u", "v")))[0]
    x7 = variables(Ring(GF(7), ("x", "y")))[0]
    asks = (gb.normal_form, gb.contains,
            lambda f: ideal_membership(f, ideal),
            lambda f: radical_membership(f, ideal))
    for f in (z + 1, z, u, x7, x7 + 1, Polynomial.zero(u.ring)):
        for ask in asks:
            with pytest.raises(RingMismatchError):
                ask(f)
    # an equal ring that is another object is the same ring
    xe = variables(Ring(QQ, ("x", "y")))[0]
    assert radical_membership(xe, ideal) and ideal_membership(xe * xe, ideal)
    assert gb.normal_form(xe + 1) == x + 1 and not gb.contains(xe)


# -- radical membership vs the power oracle ----------------------------------

def power_oracle(f, ideal, max_m=6):
    acc = Polynomial.constant(f.ring, 1)
    for _ in range(max_m):
        acc = acc * f
        if ideal_membership(acc, ideal):
            return True
    return False


def test_radical_membership_agrees_with_power_oracle():
    r2 = Ring(QQ, ("x", "y"))
    x, y = variables(r2)
    r3 = Ring(QQ, ("x", "y", "z"))
    x3, y3, z3 = variables(r3)
    one = Polynomial.constant(r2, 1)
    cases = [
        (x, Ideal(r2, [x * x])),
        (x, Ideal(r2, [x * x * x, y])),
        (x + y, Ideal(r2, [x * x, y * y])),
        (x * y, Ideal(r2, [x * x * y, x * y * y])),
        (x, Ideal(r2, [y])),
        (x + one, Ideal(r2, [x * x])),
        (x, Ideal(r2, [x * y])),
        (x3 * y3 - z3, Ideal(r3, [(x3 * y3 - z3) ** 2])),
        (x3, Ideal(r3, [x3 * x3 - y3 * z3, y3])),
        (one, Ideal(r2, [x, y])),
        (one, Ideal(r2, [x, one - y])),
    ]
    for f, ideal in cases:
        want = power_oracle(f, ideal)
        assert radical_membership(f, ideal) == want, (str(f), ideal)


def test_radical_membership_random_agreement():
    rng = random.Random(55)
    r2 = Ring(QQ, ("x", "y"))
    checked_true = checked_false = 0
    while checked_true < 10 or checked_false < 10:
        gens = [nonzero_random_poly(r2, rng, max_terms=2, max_deg=2,
                                    coeff_bound=2) for _ in range(2)]
        ideal = Ideal(r2, gens)
        f = nonzero_random_poly(r2, rng, max_terms=2, max_deg=1)
        want = power_oracle(f, ideal)
        got = radical_membership(f, ideal)
        if want:
            # the power oracle proves membership up to exponent 6 only,
            # so agreement is two-sided just on this branch
            assert got
            checked_true += 1
        elif not got:
            checked_false += 1


def _rabinowitsch(f, ideal):
    """f in the radical of the ideal by the plain extra-variable test, with
    no shortcut: one basis of I + (1 - t*f) in the ring extended by t."""
    ring = ideal.ring
    ext = ring.extend(ring.fresh_name("t"))

    def lift(g):
        return g.map_exponents(ext, lambda e: e + (0,))

    t = Polynomial.variable(ext, ext.nvars - 1)
    rab = Polynomial.constant(ext, 1) - t * lift(f)
    gens = [lift(g) for g in ideal.generators] + [rab]
    return buchberger(Ideal(ext, gens)).is_unit()


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_radical_certificates_agree_with_rabinowitsch(field):
    # a nonzero constant generator answers yes, generators all vanishing at
    # the origin where f does not answer no; either answer is exact and is
    # no Groebner query, and every other question is one query, with the
    # ideal's basis cached or not
    rng = random.Random(15)
    fired = {"unit": 0, "origin": 0, None: 0}
    for trial in range(500):
        ring = Ring(field, ("x", "y", "z")[:2 + trial % 2])
        origin = [0] * ring.nvars

        def poly():
            return random_poly(ring, rng, max_terms=3, max_deg=2)

        def at_origin(g):
            return g - Polynomial.constant(ring, g.evaluate(origin))

        shape = rng.choice(("plain", "origin", "unit"))
        gens = [poly() for _ in range(rng.randint(0, 3))]
        if shape == "origin":
            gens = [at_origin(g) for g in gens]
        elif shape == "unit":
            gens.insert(rng.randint(0, len(gens)),
                        Polynomial.constant(ring, rng.randint(1, 5)))
        ideal = Ideal(ring, gens)
        f = rng.choice((Polynomial.zero(ring),
                        Polynomial.constant(ring, rng.randint(-3, 3)),
                        poly(), at_origin(poly())))
        if rng.random() >= 0.5:
            buchberger(ideal)   # a warm cache

        if any(g.is_constant() for g in ideal.generators):
            rule = "unit"
        elif (not f.is_zero() and f.evaluate(origin)
              and not any(g.evaluate(origin) for g in ideal.generators)):
            rule = "origin"
        else:
            rule = None
        fired[rule] += 1
        budget = Budget()
        got = radical_membership(f, ideal, budget=budget)
        assert got == _rabinowitsch(f, ideal), (str(f), ideal, trial)
        if rule is not None:
            assert got is (rule == "unit"), (rule, str(f), ideal, trial)
        free = rule is not None or f.is_zero()
        assert budget.gb_queries == (0 if free else 1), (
            rule, str(f), ideal, trial)
    assert min(fired.values()) >= 50, fired


def test_krull_dimension_known_values():
    r1 = Ring(QQ, ("x",))
    r2 = Ring(QQ, ("x", "y"))
    r3 = Ring(QQ, ("x", "y", "z"))
    r4 = Ring(QQ, ("a", "b", "c", "d"))
    x, y = variables(r2)
    x3, y3, z3 = variables(r3)
    a, b, c, d = variables(r4)
    one2 = Polynomial.constant(r2, 1)
    assert krull_dimension(Ideal(r2, [])) == 2
    assert krull_dimension(Ideal(r2, [one2 + one2])) == -1
    assert krull_dimension(Ideal(r2, [x])) == 1
    assert krull_dimension(Ideal(r2, [x, y])) == 0
    assert krull_dimension(Ideal(r2, [x * x + y * y - 1])) == 1
    assert krull_dimension(Ideal(r3, [x3 * y3, x3 * z3])) == 2
    assert krull_dimension(Ideal(r1, [Polynomial.variable(r1, 0)])) == 0
    # twisted cubic: a curve in P^3, affine cone has dimension 2
    tw = Ideal(r4, [a * c - b * b, b * d - c * c, a * d - b * c])
    assert krull_dimension(tw) == 2


def test_krull_dimension_is_kept_on_the_cached_basis():
    # asking again on an equal ideal is one basis query and no engine run,
    # counted the same way as the first ask
    r3 = Ring(QQ, ("x", "y", "z"))
    x, y, z = variables(r3)
    clear_caches()
    budget = Budget()
    assert krull_dimension(Ideal(r3, [x * y - z, y * z]), budget) == 1
    assert (budget.gb_queries, budget.runs_started) == (1, 1)
    assert krull_dimension(Ideal(r3, [x * y - z, y * z]), budget) == 1
    assert (budget.gb_queries, budget.runs_started) == (2, 1)


def test_krull_dimension_monomial_brute_force():
    # independent count: dim = size of the largest variable subset S such
    # that no generator's support is contained in S
    rng = random.Random(77)
    r3 = Ring(QQ, ("x", "y", "z"))
    vs = variables(r3)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 4)):
            support = rng.sample(range(3), rng.randint(1, 3))
            m = Polynomial.constant(r3, 1)
            for i in support:
                m = m * vs[i] ** rng.randint(1, 2)
            gens.append(m)
        ideal = Ideal(r3, gens)
        supports = [set(i for i in range(3)
                        if any(e[i] for e, _ in g.terms()))
                    for g in gens]
        best = -1
        for k in range(3, -1, -1):
            for sub in icombs(range(3), k):
                s = set(sub)
                if not any(sup <= s for sup in supports):
                    best = k
                    break
            if best >= 0:
                break
        assert krull_dimension(ideal) == best


def test_equal_on_chart():
    r2 = Ring(QQ, ("x", "y"))
    x, y = variables(r2)
    one = Polynomial.constant(r2, 1)
    # X = W everywhere
    assert equal_on_chart(Ideal(r2, [x]), Ideal(r2, [x, x * y]), one)
    # X = V(x) inside W = V(xy) only off y = 0
    assert equal_on_chart(Ideal(r2, [x * y]), Ideal(r2, [x]), y)
    assert not equal_on_chart(Ideal(r2, [x * y]), Ideal(r2, [x]), one)
    assert not equal_on_chart(Ideal(r2, [x * y]), Ideal(r2, [x]), x)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_generator_order_does_not_change_the_basis(field):
    # The engine sorts its input by leading key; whatever order the caller
    # gives, the reduced basis and the radical verdicts must be the same.
    # Each generator is a multiple of a variable, so the ideal is a unit
    # ideal exactly when a constant is added to it.
    ring = Ring(field, ("x", "y", "z"))
    xs = variables(ring)
    rng = random.Random(303)
    answers = set()
    for case in range(16):
        gens = [nonzero_random_poly(ring, rng, max_terms=4, max_deg=2,
                                    coeff_bound=5) * rng.choice(xs)
                for _ in range(rng.randint(2, 4))]
        with_constant = case % 3 == 0
        if with_constant:
            gens.append(Polynomial.constant(ring, rng.choice((1, -2, 7))))
        tests = [nonzero_random_poly(ring, rng, max_terms=3, max_deg=2)
                 for _ in range(3)] + xs
        seen = None
        for _ in range(4):
            rng.shuffle(gens)
            ideal = Ideal(ring, gens)
            clear_caches()
            gb = buchberger(ideal)
            got = (gb._divisors, gb.elements,
                   [radical_membership(f, ideal) for f in tests])
            if seen is None:
                seen = got
                assert gb.is_unit() == with_constant
                if not with_constant:
                    answers.update(got[2])
            assert got == seen, (case, ideal)
    assert answers == {True, False}


def test_budget_counts_engine_runs():
    clear_caches()
    r2 = Ring(QQ, ("x", "y"))
    x, y = variables(r2)
    ideal = Ideal(r2, [x * x + y * y - 1, x * y - 2])
    b1 = ensure_budget(None)
    buchberger(ideal, budget=b1)
    assert b1.runs_started == 1
    clear_caches()
    buchberger(ideal, budget=b1)
    assert b1.runs_started == 2
    clear_caches()
    b2 = ensure_budget(None)
    buchberger(ideal, budget=b2)
    buchberger(ideal, budget=b2)  # cache hit, no new engine run
    assert b2.runs_started == 1


# -- runs seeded from the cached basis of a base ideal -------------------------

SEED_RINGS = {p: Ring(QQ if not p else GF(p), ("x", "y", "z"))
              for p in (0, 32003)}


def _terms_st(top):
    """Term lists of up to three terms, exponents at most top."""
    return st.lists(st.tuples(st.tuples(*[st.integers(0, top)] * 3),
                              st.integers(-5, 5).filter(bool)),
                    min_size=1, max_size=3)


def _gens_st(top):
    return st.lists(_terms_st(top), min_size=2, max_size=4)


def _split_ideal(p, terms, k):
    """(base, extra) from generator term lists, None when a generator is
    zero; k is reduced to a split with both parts nonempty."""
    ring = SEED_RINGS[p]
    gens = [Polynomial.from_terms(ring, t) for t in terms]
    if any(g.is_zero() for g in gens):
        return None
    k = 1 + k % (len(gens) - 1)
    return Ideal(ring, gens[:k]), gens[k:]


def _cold_and_seeded(base, extra):
    """(cold basis, seeded basis, seeded budget) of base + extra."""
    clear_caches()
    cold = buchberger(Ideal(base.ring, [*base.generators, *extra]))
    clear_caches()
    buchberger(base)
    budget = Budget()
    seeded = buchberger(base.extended(extra), budget=budget)
    return cold, seeded, budget


def test_extended_ideal_is_equal_to_the_plain_one():
    r3 = Ring(QQ, ("x", "y", "z"))
    x, y, z = variables(r3)
    base = Ideal(r3, [x * y - z, y * y])
    ext = base.extended([x - 1, Polynomial.zero(r3)])
    plain = Ideal(r3, [x * y - z, y * y, x - 1])
    assert ext.base is base and plain.base is None
    assert ext.generators == plain.generators
    assert ext == plain and hash(ext) == hash(plain)
    assert ext.fingerprint() == plain.fingerprint()
    clear_caches()
    assert buchberger(plain) is buchberger(ext)   # one cache entry


@given(st.sampled_from(sorted(SEED_RINGS)), _gens_st(2), st.integers(0, 3))
@settings(max_examples=60)
def test_seeded_basis_equals_cold_basis(p, terms, k):
    split = _split_ideal(p, terms, k)
    if split is None:
        return
    base, extra = split
    cold, seeded, budget = _cold_and_seeded(base, extra)
    assert seeded._divisors == cold._divisors
    assert seeded._lead_keys == cold._lead_keys
    assert (budget.gb_queries, budget.runs_started,
            budget.runs_seeded) == (1, 1, 1)


# multilinear: a Rabinowitsch run on degree-6 input can take seconds
@given(st.sampled_from(sorted(SEED_RINGS)), _gens_st(1), st.integers(0, 3),
       _terms_st(1))
@settings(max_examples=60)
def test_radical_membership_same_with_warm_or_cold_base(p, terms, k,
                                                        f_terms):
    split = _split_ideal(p, terms, k)
    f = Polynomial.from_terms(SEED_RINGS[p], f_terms)
    if split is None:
        return
    base, extra = split
    target = base.extended(extra)
    got = []
    for warm in (None, base, target):
        clear_caches()
        if warm is not None:
            buchberger(warm)
        budget = Budget()
        got.append((radical_membership(f, target, budget=budget),
                    budget.gb_queries))
    assert got[0] == got[1] == got[2]


def test_seeded_run_from_a_unit_base():
    for p, ring in SEED_RINGS.items():
        x, y, z = variables(ring)
        one = Polynomial.constant(ring, 1)
        base = Ideal(ring, [x * y, x * y - one])    # unit, no constant
        cold, seeded, budget = _cold_and_seeded(base, [y * y + z])
        assert seeded.is_unit() and cold.is_unit()
        assert seeded._divisors == cold._divisors
        assert budget.runs_seeded == 1
        clear_caches()
        buchberger(base)
        assert radical_membership(z, base.extended([y - z]))


def test_seeded_run_with_an_extra_lead_dividing_a_base_lead():
    for p, ring in SEED_RINGS.items():
        x, y, z = variables(ring)
        base = Ideal(ring, [x ** 3 - y * z, y * y - z])
        base_leads = buchberger(base)._lead_keys
        extra = [x * x - z]
        assert any(ring.divides(extra[0].leading_key(), lk)
                   for lk in base_leads)
        cold, seeded, budget = _cold_and_seeded(base, extra)
        assert seeded._divisors == cold._divisors
        assert budget.runs_seeded == 1
        assert not set(base_leads) <= set(seeded._lead_keys)


def test_seeded_run_after_the_base_was_evicted(monkeypatch):
    from varsmooth import groebner
    r3 = SEED_RINGS[0]
    x, y, z = variables(r3)
    base = Ideal(r3, [x * y - z, y * z - x])
    extra = [x * z - y]
    cold, _, _ = _cold_and_seeded(base, extra)
    monkeypatch.setattr(groebner, "_CACHE_MAX", 1)
    clear_caches()
    buchberger(base)
    buchberger(Ideal(r3, [x + y]))      # evicts the base's basis
    budget = Budget()
    again = buchberger(base.extended(extra), budget=budget)
    assert (budget.runs_started, budget.runs_seeded) == (1, 0)
    assert again._divisors == cold._divisors


@pytest.mark.parametrize("p", sorted(SEED_RINGS))
def test_lifted_basis_equals_a_cold_basis_of_the_lifted_ideal(p):
    # radical_membership lifts the cached basis of I row by row into the
    # ring extended by t and caches it under I's lift; lifted, a reduced
    # basis stays one, so it must equal what a cold run on an equal ideal
    # with no link to I returns.  The leading coefficients are not 1, so
    # the rows over QQ are not monic and those over F_p were scaled.
    from varsmooth import groebner
    ring = SEED_RINGS[p]
    x, y, z = variables(ring)
    for gens in ([2 * x * y - 3 * z, 5 * y * z - x, 3 * x * z - 7 * y],
                 [3 * x ** 3 - 2 * y * z, 5 * y * y - z],
                 [2 * x * x - y, 7 * y * y - 3 * x * z + z * z]):
        base = Ideal(ring, gens)
        clear_caches()
        buchberger(base)
        radical_membership(x + y, base)
        lifted = groebner._lifted(base)
        stored = groebner._cache[lifted]
        clear_caches()
        cold = buchberger(Ideal(lifted.ring, lifted.generators))
        assert stored is not cold
        assert stored._divisors == cold._divisors
        assert stored.elements == cold.elements


def test_each_base_is_lifted_once_per_run(monkeypatch):
    # hironaka runs on the charts of rnc6: a Rabinowitsch query lifts f and
    # the generators past its base, and the base's generators and the seed
    # rows only the first time that base (basis) seeds a query
    from varsmooth import charts, driver, groebner
    from varsmooth.bench import rational_normal_curve
    real_lift, real_keys = groebner._lift, groebner._lift_keys
    real_rm = groebner.radical_membership
    polys, rows = [], []    # lifted in the open query, by _lift and not
    in_lift = False
    queries = []    # (f, target, own basis cached, answer, polys, rows)

    def lift(f, ext):
        nonlocal in_lift
        polys.append(f)
        in_lift = True
        try:
            return real_lift(f, ext)
        finally:
            in_lift = False

    def lift_keys(keys, n):
        if not in_lift:
            rows.append(tuple(keys))
        return real_keys(keys, n)

    def rm(f, target, budget=None):
        own = target in groebner._cache
        answer = real_rm(f, target, budget=budget)
        queries.append((f, target, own, answer, polys[:], rows[:]))
        del polys[:], rows[:]
        return answer

    monkeypatch.setattr(groebner, "_lift", lift)
    monkeypatch.setattr(groebner, "_lift_keys", lift_keys)
    for mod in (groebner, charts):
        monkeypatch.setattr(mod, "radical_membership", rm)
    clear_caches()
    for chart in chart_ideals(rational_normal_curve(6).ideal):
        assert driver.smoothness_test(chart).status == "smooth"

    lifted_bases, lifted_bases_rows = set(), set()
    engine_queries = 0
    for f, target, own, _, lifts, seed_rows in queries:
        if not lifts:       # a certificate or a constant f: nothing lifted
            assert not seed_rows
            continue
        engine_queries += 1
        gens = target.generators
        base = gens if own else (target.base.generators
                                 if target.base is not None else ())
        assert lifts.pop() == f     # lifted after the generators
        if lifts != list(gens[len(base):]):
            # the first query this base seeds lifts its generators
            assert lifts == list(gens), "a query lifted a stray poly"
            key = (target.ring, base)
            assert key not in lifted_bases, "a base was lifted twice"
            lifted_bases.add(key)
        if seed_rows:
            key = (target.ring, tuple(seed_rows))
            assert key not in lifted_bases_rows, "seed rows lifted twice"
            lifted_bases_rows.add(key)
    assert engine_queries > 20 and lifted_bases and lifted_bases_rows

    monkeypatch.setattr(groebner, "_lift", real_lift)
    monkeypatch.setattr(groebner, "_lift_keys", real_keys)
    for f, target, _, answer, _, _ in queries:
        clear_caches()
        assert real_rm(f, target) == answer
        clear_caches()
        assert real_rm(f, Ideal(target.ring, target.generators)) == answer


def test_the_cache_is_the_only_seed_route(monkeypatch):
    # with room for two bases, a query's lifted base outlives the base it
    # was lifted from: the next query finds only the lifted basis and
    # starts from it; once that is evicted too, a query that finds the base
    # again lifts it again, once, and no answer moves
    from varsmooth import groebner
    r3 = SEED_RINGS[0]
    x, y, z = variables(r3)
    base = Ideal(r3, [x * y - z, y * z - x])
    target = base.extended([x * z - y])
    clear_caches()
    plain = Ideal(r3, target.generators)
    want = [radical_membership(f, plain) for f in (x, y, z)]
    stored = []
    real_store = groebner._store

    def store(ideal, gb):
        stored.append(ideal)
        real_store(ideal, gb)

    def ask(f):
        budget = Budget()
        answer = radical_membership(f, target, budget=budget)
        return (answer, budget.runs_started, budget.runs_seeded,
                sum(i is lifted for i in stored))

    monkeypatch.setattr(groebner, "_store", store)
    monkeypatch.setattr(groebner, "_CACHE_MAX", 2)
    clear_caches()
    lifted = groebner._lifted(base)
    buchberger(base)
    assert ask(x) == (want[0], 1, 1, 1)
    assert base not in groebner._cache and lifted in groebner._cache
    # (a) the unlifted basis is gone, the lifted one seeds
    assert ask(y) == (want[1], 1, 1, 1)
    assert lifted not in groebner._cache
    # (b) the lifted basis is gone: the base's basis is lifted again
    buchberger(base)
    assert ask(z) == (want[2], 1, 1, 2)


# -- pair queue ----------------------------------------------------------------


class _TuplePairQueue:
    """Reference pair queue on exponent tuples, the rules _PairQueue keeps
    written the slow way.  `events` counts what each rule removed."""

    def __init__(self, ring):
        self.ring = ring
        self.leads = []
        self.alive = {}   # (i, j) -> lcm exponent tuple
        self.heap = []
        self.events = {"divisible": 0, "equal": 0, "coprime": 0, "chain": 0}

    def add_element(self, lt):
        def lcm(a, b):
            return tuple(map(max, a, b))

        def divides(a, b):
            return all(x <= y for x, y in zip(a, b))

        t = len(self.leads)
        self.leads.append(lt)
        cand = [(i, lcm(self.leads[i], lt)) for i in range(t)]
        kept = []
        for i, L in cand:
            if any(i != j and L2 != L and divides(L2, L) for j, L2 in cand):
                self.events["divisible"] += 1
            else:
                kept.append((i, L))
        first = {}
        for i, L in kept:
            first.setdefault(L, i)
        self.events["equal"] += sum(first[L] != i for i, L in kept)
        kept = [(i, L) for i, L in kept if first[L] == i]
        coprime = [(i, L) for i, L in kept
                   if all(x == 0 or y == 0 for x, y in zip(self.leads[i], lt))]
        self.events["coprime"] += len(coprime)
        kept = [e for e in kept if e not in coprime]
        for (i, j), L in list(self.alive.items()):
            if (divides(lt, L) and lcm(self.leads[i], lt) != L
                    and lcm(self.leads[j], lt) != L):
                del self.alive[(i, j)]
                self.events["chain"] += 1
        for i, L in kept:
            self.alive[(i, t)] = L
            heapq.heappush(self.heap, (sum(L), self.ring.pack(L), i, t))

    def pop(self):
        while self.heap:
            _, key, i, j = heapq.heappop(self.heap)
            if self.alive.pop((i, j), None) is not None:
                return i, j, key
        return None


RING_PAIRS = {n: Ring(QQ, tuple(f"x{i}" for i in range(n)))
              for n in range(1, 10)}


def _pair_queue_trial(rng, n, steps, pop_rate):
    """Feed one random lead sequence to both queues, popping at random and
    then to the end; the pop sequences must agree.  Returns the oracle's
    rule counts."""
    ring = RING_PAIRS[n]
    queue, oracle = _PairQueue(ring), _TuplePairQueue(ring)
    top = rng.choice((1, 2, 3, 5))
    zero_rate = rng.random()
    added = 0
    while added < steps:
        if rng.random() < pop_rate:
            assert queue.pop() == oracle.pop()
            continue
        lead = tuple(0 if rng.random() < zero_rate else rng.randint(1, top)
                     for _ in range(n))
        queue.add_element(ring.pack(lead))
        oracle.add_element(lead)
        added += 1
    while True:
        got = queue.pop()
        assert got == oracle.pop()
        if got is None:
            break
    assert queue.alive == {} and oracle.alive == {}
    return oracle.events


def test_pair_queue_matches_tuple_reference():
    rng = random.Random(2024)
    # small queues in 1-9 variables, then bases of 40-80 leads in 6-9
    # variables, where each new lead meets many distinct lcms
    regimes = (
        [(1 + trial % 9, rng.randint(2, 30), 0.25) for trial in range(300)],
        [(6 + trial % 4, rng.randint(40, 80), 0.1) for trial in range(12)],
    )
    for trials in regimes:
        totals = dict.fromkeys(("divisible", "equal", "coprime", "chain"), 0)
        for n, steps, pop_rate in trials:
            events = _pair_queue_trial(rng, n, steps, pop_rate)
            for name, count in events.items():
                totals[name] += count
        # every rule fired many times, so each of them is pinned
        assert min(totals.values()) >= 50, totals


def test_pair_queue_lane_lcm_at_the_guard_boundary():
    top = EXP_LIMIT - 1
    values = (0, 1, 2, 255, 256, top - 1, top)
    rng = random.Random(7)
    for n in (1, 2, 3, 9):
        ring = RING_PAIRS[n]
        for _ in range(200):
            a = [rng.choice(values) for _ in range(n)]
            b = [rng.choice(values) for _ in range(n)]
            k = rng.randrange(n)   # a shared variable keeps the pair
            a[k] = a[k] or 1
            b[k] = b[k] or top
            queue = _PairQueue(ring)
            queue.add_element(ring.pack(a))
            queue.add_element(ring.pack(b))
            assert queue.pop() == (0, 1, ring.pack(map(max, a, b))), (a, b)


# -- reduction kernel ----------------------------------------------------------

RING3 = Ring(QQ, ("x", "y", "z"))


def pack_poly(term_list):
    """[(exps, coeff)] -> descending (keys, coeffs), duplicates summed."""
    acc = {}
    for exps, c in term_list:
        k = RING3.pack(exps)
        acc[k] = acc.get(k, 0) + c
    items = sorted(((k, c) for k, c in acc.items() if c), reverse=True)
    return [k for k, _ in items], [c for _, c in items]


exps_st = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
coeff_st = st.integers(-50, 50).filter(bool)
poly_st = st.lists(st.tuples(exps_st, coeff_st), min_size=0,
                   max_size=6).map(pack_poly)
nonzero_poly_st = poly_st.filter(lambda kc: bool(kc[0]))


def _positive_leading(dc):
    # integer divisors reach the kernel zform-normalized: leading coeff > 0
    return dc if dc[0] > 0 else [-c for c in dc]


@given(nonzero_poly_st, st.lists(nonzero_poly_st, min_size=1, max_size=3))
def test_reduce_terms_integer_contract(f, divisors):
    # remainder keys strictly descending, none divisible by a divisor lead,
    # positive mult
    fk, fc = f
    divs = [prepare_divisor(list(dk), _positive_leading(list(dc)), 0)
            for dk, dc in divisors]
    rk, rc, mult = reduce_terms(dict(zip(fk, fc)), divs, RING3.guards, 0)
    assert mult >= 1
    assert all(rk[i] > rk[i + 1] for i in range(len(rk) - 1))
    assert all(c != 0 for c in rc)
    for k in rk:
        for d in divs:
            assert ((k | RING3.guards) - d[0]) & RING3.guards != RING3.guards


@given(nonzero_poly_st, st.lists(nonzero_poly_st, min_size=1, max_size=2))
def test_reduce_terms_mod_p_exact(f, divisors):
    p = 101
    fk, fc = f
    fc = [c % p for c in fc]
    if not all(fc):
        return
    divs = []
    for dk, dc in divisors:
        dc = [c % p for c in dc]
        if not all(dc):
            return
        divs.append(prepare_divisor(list(dk), list(dc), p))
    rk, rc, mult = reduce_terms(dict(zip(fk, fc)), divs, RING3.guards, p)
    assert mult == 1
    assert all(0 < c < p for c in rc)


def _random_zpoly(rng, ring, nterms, lo, hi):
    """zform of a random polynomial whose terms have degree in [lo, hi]."""
    terms = []
    for _ in range(nterms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(lo, hi)):
            exps[rng.randrange(ring.nvars)] += 1
        terms.append((exps, rng.choice((1, 2, 3, 4, 6, 9, 12, -2, -3))))
    zk, zc, _ = Polynomial.from_terms(ring, terms).zform()
    return list(zk), list(zc)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_reduce_terms_remainder_is_mult_times_textbook_division(field):
    # Long reductions by small divisors with mixed leading coefficients.
    # Over QQ, mult grows by the lead coefficients' cofactors at each step
    # and no content is divided back out; the remainder must stay mult * NF.
    ring = Ring(field, ("x", "y", "z"))
    p = field.characteristic

    def as_dict(keys, coeffs):
        return {tuple(ring.unpack(k)): c % p if p else Fraction(c)
                for k, c in zip(keys, coeffs)}

    rng = random.Random(5)
    mults = set()
    for _ in range(400):
        fk, fc = _random_zpoly(rng, ring, 15, 6, rng.randint(6, 14))
        divs, oracle_divs = [], []
        for _ in range(rng.randint(1, 3)):
            dk, dc = _random_zpoly(rng, ring, rng.randint(2, 3), 0, 2)
            if len(dk) >= 2 and dk[0] != ring.one_key:
                divs.append(prepare_divisor(dk, dc, p))
                oracle_divs.append(as_dict(dk, dc))
        rk, rc, mult = reduce_terms(dict(zip(fk, fc)), divs, ring.guards, p)
        want = naive_normal_form(as_dict(fk, fc), oracle_divs, p)
        assert as_dict(rk, rc) == {e: c * mult % p if p else c * mult
                                   for e, c in want.items()}
        mults.add(mult)
    assert mults == {1} if p else len(mults) > 1
