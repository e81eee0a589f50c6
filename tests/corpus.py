"""Deterministic corpus of fifty small affine instances with known verdicts.

Every entry is a radical, equidimensional ideal in at most four variables
with at most three generators of degree at most three.  The bases are model
varieties (smooth curves and surfaces, disjoint and crossing unions of
smooth pieces, classical singular templates).  Each corpus index applies a
seeded unimodular change of variables, which is a ring automorphism and so
preserves the verdict, radicality, equidimensionality, and degrees; about
half the entries also rewrite the generating set by adding a scalar
multiple of one generator to another, which leaves the ideal unchanged.
"""

import itertools
import random
from typing import Iterator, List, NamedTuple

from varsmooth.fields import GF, QQ
from varsmooth.groebner import Ideal
from varsmooth.poly import Polynomial, apply_linear_change
from varsmooth.ring import Ring

R2 = Ring(QQ, ("x", "y"))
R3 = Ring(QQ, ("x", "y", "z"))
R4 = Ring(QQ, ("x", "y", "z", "w"))


def _vars(ring):
    return [Polynomial.variable(ring, i) for i in range(ring.nvars)]


def _bases():
    x, y = _vars(R2)
    x3, y3, z3 = _vars(R3)
    x4, y4, z4, w4 = _vars(R4)
    one2 = Polynomial.constant(R2, 1)
    smooth = [
        ("line", R2, [2 * x + 3 * y - 1]),
        ("circle1", R2, [x * x + y * y - 1]),
        ("circle4", R2, [x * x + y * y - 4]),
        ("parabola", R2, [y - x * x - x]),
        # (x-2)(x+2): disjoint union of two lines
        ("parallel-lines", R2, [x * x - 4]),
        ("graph", R3, [z3 - x3 * y3 - x3]),
        ("twisted-cubic", R3, [y3 - x3 * x3, z3 - x3 ** 3]),
        # transversal: the Jacobian drops rank only where x = y = z,
        # which misses the intersection
        ("sphere-plane", R3, [x3 * x3 + y3 * y3 + z3 * z3 - 4,
                              x3 + y3 + z3 - 1]),
        # three reduced points (0,0), (1,0), (0,1)
        ("three-points", R2, [x * x - x, y * y - y, x * y]),
        # y^2 = x^3 - x has three distinct branch points
        ("elliptic", R2, [y * y - x ** 3 + x]),
        ("hyperbola", R2, [x * y - 1]),
    ]
    singular = [
        ("cusp", R2, [y * y - x ** 3]),
        ("node", R2, [y * y - x ** 3 - x * x]),
        # union of the axes, crossing at the origin
        ("cross", R2, [x * y]),
        ("cone", R3, [x3 * x3 + y3 * y3 - z3 * z3]),
        ("umbrella", R3, [x3 * x3 - y3 * y3 * z3]),
        # plane tangent to the sphere: two lines crossing at (0,0,1)
        ("tangent-plane", R3, [x3 * x3 + y3 * y3 + z3 * z3 - 1, z3 - 1]),
        ("segre", R4, [x4 * z4 - y4 * w4]),
    ]
    out = [(name, Ideal(ring, gens), "smooth")
           for name, ring, gens in smooth]
    out += [(name, Ideal(ring, gens), "singular")
            for name, ring, gens in singular]
    return out


def _unimodular(rng: random.Random, n: int):
    """Product of one to three integer shears; determinant one."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        u = rng.choice([-2, -1, 1, 2])
        for j in range(n):
            m[a][j] += u * m[b][j]
    return m


def _remix(rng: random.Random, gens):
    """Adds a scalar multiple of one generator to another; same ideal."""
    gens = list(gens)
    if len(gens) >= 2 and rng.random() < 0.5:
        j = rng.randrange(len(gens))
        k = rng.randrange(len(gens) - 1)
        if k >= j:
            k += 1
        gens[j] = gens[j] + rng.choice([-2, -1, 1, 2]) * gens[k]
    return gens


class CorpusInstance(NamedTuple):
    name: str
    ideal: Ideal
    expected: str


def corpus50() -> List[CorpusInstance]:
    bases = _bases()
    out = []
    for i in range(50):
        rng = random.Random(f"corpus|{i}")
        name, ideal, expected = bases[i % len(bases)]
        gens = _remix(rng, ideal.generators)
        m = _unimodular(rng, ideal.ring.nvars)
        gens = [apply_linear_change(g, m) for g in gens]
        out.append(CorpusInstance(f"c{i:02d}-{name}",
                                  Ideal(ideal.ring, gens), expected))
    return out


def linear_form_products() -> Iterator[Ideal]:
    """Endless seeded stream of n generators in n variables, n in {2, 3},
    each generator a product of two linear forms with coefficients in
    [-2, 2], alternating QQ and GF(32003).  Each hypersurface is singular
    where its two factors meet, so the descent often has to cover a chart
    by singular-locus generators, which corpus50 never makes it do."""
    rng = random.Random(7)
    for i in itertools.count():
        n = rng.choice((2, 3))
        ring = Ring((QQ, GF(32003))[i % 2], ("x", "y", "z")[:n])
        xs = _vars(ring)

        def linear():
            f = Polynomial.constant(ring, rng.randint(-2, 2))
            for x in xs:
                f = f + rng.randint(-2, 2) * x
            return f

        yield Ideal(ring, [linear() * linear() for _ in xs])
