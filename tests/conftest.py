import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings

from varsmooth.fields import QQ, GF
from varsmooth.groebner import Ideal, buchberger, krull_dimension
from varsmooth.matrix import iter_minors, jacobian
from varsmooth.poly import Polynomial, dehomogenize
from varsmooth.ring import Ring

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rxy():
    return Ring(QQ, ("x", "y"))


@pytest.fixture
def rxyz():
    return Ring(QQ, ("x", "y", "z"))


def variables(ring):
    return [Polynomial.variable(ring, i) for i in range(ring.nvars)]


def chart_ideals(ideal):
    """Every standard affine chart x_i = 1 of a homogeneous ideal, in
    ascending i: the ideal dehomogenized at x_i, in the ring without x_i.
    A projective run skips the charts the earlier ones cover; these are
    all of them, for tests that use a projective input as a source of
    charts."""
    ring = ideal.ring
    return [Ideal(ring.drop(i), [dehomogenize(f, i)
                                 for f in ideal.generators])
            for i in range(ring.nvars)]


def random_poly(ring, rng, max_terms=5, max_deg=3, coeff_bound=4):
    """Small random polynomial with integer coefficients; may be zero."""
    f = Polynomial.zero(ring)
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff_bound, coeff_bound)
        if not c:
            continue
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ring.nvars)] += 1
        f = f + Polynomial.from_terms(ring, [(tuple(exps), c)])
    return f


def nonzero_random_poly(ring, rng, **kw):
    while True:
        f = random_poly(ring, rng, **kw)
        if not f.is_zero():
            return f


# -- oracle: the Polynomial-based memoized expansion, reducing everything -----

def reference_minors(m, size, reducer=None):
    """Every nonzero size x size minor, row subsets outer and column subsets
    inner, both lexicographic, repeats kept: memoized first-row Laplace
    expansion on Polynomial entries that passes every entry, product and
    sum through the reducer."""
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
    for rs in combinations(range(m.rows), size):
        for cs in combinations(range(m.cols), size):
            d = det_of(rs, cs)
            if not d.is_zero():
                out.append(d)
    return out


# -- oracle: the two ideals of a chart agree where its localizer is a unit ---

def equal_on_chart(i_w, i_x, g):
    """True when g * f lies in I_W for every generator f of I_X, i.e. the
    two ideals cut the same set on the chart where g is invertible."""
    gb = buchberger(i_w)
    return all(gb.contains(g * f) for f in i_x.generators)


# -- oracle: the classical Jacobian criterion, with no early exit ------------

def criterion_on_every_minor(ideal):
    """Whether the affine variety of an equidimensional radical ideal I is
    smooth by the classical criterion: 1 lies in I plus every
    codimension-size minor of its Jacobian, reduced modulo I, asked once."""
    ring = ideal.ring
    gb = buchberger(ideal)
    if not ideal.generators or gb.is_unit():
        return True
    c = ring.nvars - krull_dimension(ideal)
    if c == 0:
        return True
    mins = iter_minors(jacobian(ring, ideal.generators), c,
                       reducer=gb.normal_form)
    return buchberger(Ideal(ring, [*ideal.generators, *mins])).is_unit()
