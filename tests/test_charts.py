import random
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from conftest import (chart_ideals, criterion_on_every_minor,
                      equal_on_chart, nonzero_random_poly, reference_minors,
                      variables)
from corpus import corpus50
from varsmooth.errors import (ContractError, DegenerateGeneratorError,
                              DescentError, LimitExceededError)
from varsmooth.fields import QQ, GF
from varsmooth.charts import (Chart, delta_frame_tasks, descend,
                              embedded_frame_tasks, enumerate_frames,
                              relative_jacobian, singular_locus_ideal,
                              smooth_on_frames)
from varsmooth import charts, driver, limits, matrix
from varsmooth.bench import (cyclic_polytope_sr, random_coordinate_change,
                             rational_normal_curve, veronese_ci)
from varsmooth.driver import (Config, projective_smoothness, run_parallel,
                              smoothness_test)
from varsmooth.groebner import (Ideal, buchberger, ideal_membership,
                                krull_dimension, radical_membership)
from varsmooth.limits import Budget, Limits
from varsmooth.matrix import (PolyMatrix, _gradient, adjugate, determinant,
                              iter_minors, jacobian)
from varsmooth.parser import ideal_file_text, parse_ideal_file
from varsmooth.poly import Polynomial
from varsmooth.ring import Ring


def mkvars(field, names):
    ring = Ring(field, names)
    return ring, variables(ring)


def descend_on_frames(chart, rng, **kw):
    """descend on the frames, with their rows, that delta_frame_tasks
    builds for the chart, as the driver hands them on."""
    enum, _ = delta_frame_tasks(chart)
    return descend(chart, enum, rng, **kw)


def random_ambient_charts(seed, want, fields=(QQ, GF(32003))):
    """Yield `want` charts with at least one frame each, r <= 2, n <= 5."""
    rng = random.Random(seed)
    made = 0
    while made < want:
        field = fields[rng.randrange(len(fields))]
        n = rng.randint(2, 5)
        ring = Ring(field, tuple(f"x{i}" for i in range(n)))
        r = rng.randint(1, min(2, n - 1))
        gens = []
        for _ in range(r):
            f = nonzero_random_poly(ring, rng, max_terms=4, max_deg=3,
                                    coeff_bound=3)
            if f.is_constant():
                continue
            gens.append(f)
        if len(gens) < r:
            continue
        w = Ideal(ring, gens)
        chart = Chart(w, w, Polynomial.constant(ring, 1), depth=r,
                      check=False)
        enum = enumerate_frames(chart)
        if not enum.frames:
            continue
        made += 1
        yield chart, enum


def test_tangency_invariant_hundred_random_charts():
    # every relative Jacobian row of an ambient generator vanishes exactly
    count = 0
    for chart, enum in random_ambient_charts(4242, 100):
        for frame in enum.frames:
            rel = relative_jacobian(list(chart.ambient.generators), chart,
                                    frame)
            assert all(e.is_zero() for e in rel.entries), (
                [str(g) for g in chart.ambient.generators], frame.cols)
        count += 1
    assert count == 100


def test_relative_jacobian_hand_example():
    # W = V(x^2 + y^2 - 1), frame on column x: q = 2x, free column y,
    # relative row of h is q*dh/dy - df/dy * dh/dx
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    f = x * x + y * y - 1
    w = Ideal(ring, [f])
    chart = Chart(w, w, one, depth=1, check=False)
    enum = enumerate_frames(chart)
    by_cols = {fr.cols: fr for fr in enum.frames}
    fr = by_cols[(0,)]
    assert fr.q == 2 * x
    rel = relative_jacobian([y], chart, fr)
    assert rel.rows == 1 and rel.cols == 1
    assert rel.get(0, 0) == 2 * x
    rel2 = relative_jacobian([x], chart, fr)
    assert rel2.get(0, 0) == -(2 * y)


def test_trivial_frame_at_full_ambient():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    circle = Ideal(ring, [x * x + y * y - 1])
    enum = enumerate_frames(Chart.root(circle))
    assert len(enum.frames) == 1
    fr = enum.frames[0]
    assert fr.cols == ()
    assert fr.q == Polynomial.constant(ring, 1)
    assert enum.cover_complete
    rel = relative_jacobian([x * x + y * y - 1], Chart.root(circle), fr)
    assert rel.get(0, 0) == 2 * x and rel.get(0, 1) == 2 * y


def test_enumerate_frames_skips_zero_determinants():
    ring, (x, y, z) = mkvars(QQ, ("x", "y", "z"))
    one = Polynomial.constant(ring, 1)
    # df has a zero x-column, so only columns y, z can host frames
    f = y * y + z * z - 1
    w = Ideal(ring, [f])
    chart = Chart(w, w, one, depth=1, check=False)
    enum = enumerate_frames(chart)
    assert all(fr.cols in ((1,), (2,)) for fr in enum.frames)
    assert enum.cover_complete


def test_enumerate_frames_cover_flag_matches_radical_check():
    for chart, enum in random_ambient_charts(99, 25):
        dets = [fr.q for fr in enum.frames]
        total = Ideal(chart.ring,
                      list(chart.ambient.generators) + dets)
        want = radical_membership(chart.localizer, total)
        assert enum.cover_complete == want


def test_radical_cover_exits_on_a_power_of_the_localizer():
    # the first determinant 3x^2 does not generate g = x, but a power of g
    # lies in it: the cover exits there, before the constant q = -1 on y
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    f = x * x * x - y  # df/dx = 3x^2, df/dy = -1
    w = Ideal(ring, [f])
    enum = enumerate_frames(Chart(w, w, x, depth=1, check=False))
    assert enum.cover_complete
    assert [(fr.cols, fr.q) for fr in enum.frames] == [((0,), 3 * x * x)]


def _eager_frames(chart):
    """Reference enumeration: an adjugate for every candidate submatrix,
    then the radical cover scan over the nonzero ones.  Returns (frames
    as (cols, q, adj) triples, cover_complete)."""
    ring = chart.ring
    r = len(chart.ambient.generators)
    g = chart.localizer
    if r == 0:
        one = Polynomial.constant(ring, 1)
        empty = PolyMatrix(ring, 0, 0, ())
        return [((), one, empty)], True
    jac = jacobian(ring, chart.ambient.generators)
    rows = tuple(range(r))
    candidates = []
    for cols in combinations(range(ring.nvars), r):
        adj, q = adjugate(jac.submatrix(rows, cols))
        if not q.is_zero():
            candidates.append((cols, q, adj))
    frames, dets = [], []
    for cols, q, adj in candidates:
        frames.append((cols, q, adj))
        dets.append(q)
        if q.is_constant() or radical_membership(
                g, Ideal(ring, list(chart.ambient.generators) + dets)):
            return frames, True
    return frames, False


def _rnc_charts():
    """Every chart the driver enumerates frames on for the standard affine
    charts of I1-4 and I1-5, in hironaka and hybrid mode: frameless roots
    and descended charts."""
    seen = []
    original = charts.enumerate_frames

    def record(chart, budget=None):
        seen.append(chart)
        return original(chart, budget=budget)

    charts.enumerate_frames = record
    try:
        for d in (4, 5):
            for cfg in (Config(), Config(mode="hybrid", to_codim=2)):
                for ideal in chart_ideals(rational_normal_curve(d).ideal):
                    smoothness_test(ideal, cfg)
    finally:
        charts.enumerate_frames = original
    return seen


def test_lazy_frames_match_eager_reference(monkeypatch):
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    cubic = Ideal(ring, [x * x * x - y])
    # q = 3x^2 and 3y^2: the radical cover fires on the first frame
    fermat = Ideal(ring, [x ** 3 + y ** 3 + 1])
    # q = -3x^2 and 2y both vanish at the origin, a singular point of the
    # cusp: no frame covers D(1), and the enumeration exhausts both
    cusp = Ideal(ring, [y * y - x * x * x])
    one = Polynomial.constant(ring, 1)
    cases = [Chart(cubic, cubic, x, depth=1, check=False),
             Chart(fermat, fermat, x, depth=1, check=False),
             Chart(cusp, cusp, one, depth=1, check=False)]
    rnc = _rnc_charts()
    assert {len(c.ambient.generators) for c in rnc} == {0, 1, 2, 3}
    cases += rnc
    calls = []

    def counting(m):
        calls.append(m)
        return adjugate(m)

    monkeypatch.setattr(charts, "adjugate", counting)
    exhausted = 0
    for chart in cases:
        del calls[:]
        enum = enumerate_frames(chart)
        frames, cover = _eager_frames(chart)
        assert [(fr.cols, fr.q, fr.adj) for fr in enum.frames] == frames
        assert enum.cover_complete == cover
        assert all(fr.chart is chart for fr in enum.frames)
        assert [fr.test for fr in enum.frames] == [
            fr.q * chart.localizer for fr in enum.frames]
        assert len(calls) == len(enum.frames), chart
        exhausted += not cover
    assert exhausted  # the exhaustion path is exercised too


def reference_relative_jacobian(polys, chart, frame):
    """The relative Jacobian in Polynomial arithmetic, term by term."""
    ring = chart.ring
    n = ring.nvars
    r = len(chart.ambient.generators)
    if r == 0:
        return jacobian(ring, polys)
    cols = frame.cols
    free = [j for j in range(n) if j not in cols]
    zero = Polynomial.zero(ring)
    partials = [[f.derivative(j) for j in range(n)] for f in polys]
    b = []
    for l in range(r):
        row = []
        for i in range(len(polys)):
            acc = zero
            for k, c in enumerate(cols):
                a = frame.adj.get(l, k)
                d = partials[i][c]
                if not a.is_zero() and not d.is_zero():
                    acc = acc + a * d
            row.append(acc)
        b.append(row)
    entries = []
    for i in range(len(polys)):
        for j in free:
            acc = frame.q * partials[i][j]
            for l in range(r):
                dg = frame.jac.get(l, j)
                if not dg.is_zero() and not b[l][i].is_zero():
                    acc = acc - dg * b[l][i]
            entries.append(acc)
    return PolyMatrix(ring, len(polys), len(free), entries)


def test_relative_jacobian_matches_reference_and_schur_identity():
    checked = 0
    for chart in _rnc_charts():
        ring = chart.ring
        amb = list(chart.ambient.generators)
        r = len(amb)
        polys = list(chart.variety.generators)
        for frame in enumerate_frames(chart).frames:
            rel = relative_jacobian(polys, chart, frame)
            want = reference_relative_jacobian(polys, chart, frame)
            assert rel == want
            assert ([[type(c) for c in e.coeffs] for e in rel.entries]
                    == [[type(c) for c in e.coeffs] for e in want.entries])
            # entry (i, j) is the determinant of the ambient rows stacked on
            # grad f_i, on columns cols + (j,): sorting j into place costs
            # one sign per frame column above it
            free = [j for j in range(ring.nvars) if j not in frame.cols]
            for i, f in enumerate(polys):
                stacked = jacobian(ring, amb + [f])
                for pos, j in enumerate(free):
                    cs = tuple(sorted(frame.cols + (j,)))
                    d = determinant(stacked.submatrix(tuple(range(r + 1)), cs))
                    above = sum(c > j for c in frame.cols)
                    assert rel.get(i, pos) == (-d if above & 1 else d)
                    checked += 1
    assert checked > 1000, checked
    # random ambients over QQ and F_p, with polynomials outside them
    rng = random.Random(77)
    for chart, enum in random_ambient_charts(78, 40):
        polys = [nonzero_random_poly(chart.ring, rng, max_terms=4, max_deg=3)
                 for _ in range(2)]
        for frame in enum.frames:
            assert (relative_jacobian(polys, chart, frame)
                    == reference_relative_jacobian(polys, chart, frame))


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_combined_ambient_reads_the_shared_table(field):
    # the descent takes z - x, then a random combination of the two
    # singular generators: a depth-2 chart whose table was filled above it
    ring, (x, y, z) = mkvars(field, ("x", "y", "z"))
    variety = Ideal(ring, [x * (y + 1), y * (x + 1), z - x])
    polys = list(variety.generators)
    p = field.characteristic
    for seed in range(3):
        rng = random.Random(seed)
        root = Chart.root(variety)
        (child,) = descend_on_frames(root, rng)
        (grand,) = descend_on_frames(child, rng)
        assert grand.partials is child.partials is root.partials
        gens = list(grand.ambient.generators)
        assert len(gens) == 2 and gens[-1] not in polys
        assert root.partials.gradient(gens[-1]) == _gradient(gens[-1], p)
        enum = enumerate_frames(grand)
        assert enum.frames
        assert ([(fr.cols, fr.q, fr.adj) for fr in enum.frames],
                enum.cover_complete) == _eager_frames(grand)
        fresh = Chart(grand.ambient, grand.variety, grand.localizer,
                      grand.depth, check=False)
        assert fresh.partials is not grand.partials
        for frame in enum.frames:
            assert frame.jac == jacobian(ring, gens)
            rel = relative_jacobian(polys, grand, frame)
            assert rel == reference_relative_jacobian(polys, grand, frame)
            assert rel == relative_jacobian(polys, fresh, frame)


def test_frame_count_exceeding_ambient_raises():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    w = Ideal(ring, [x, y, x + y])
    chart = Chart(w, w, Polynomial.constant(ring, 1), depth=0, check=False)
    with pytest.raises(ContractError):
        enumerate_frames(chart)


def test_chart_requires_ambient_inside_variety():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    with pytest.raises(ContractError):
        Chart(Ideal(ring, [x]), Ideal(ring, [y]), one, depth=0)
    chart = Chart(Ideal(ring, [x]), Ideal(ring, [x, y]), one, depth=0)
    assert chart.depth == 0


def test_delta_check_known_curves():
    # smooth curves pass; a singular one fails the order-one check on the
    # root chart's single frame
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    rp, (xp, yp) = mkvars(GF(32003), ("x", "y"))
    smooth = [Ideal(ring, [x * x + y * y - 1]), Ideal(ring, [y - x * x]),
              Ideal(rp, [yp - xp * xp])]
    singular = [Ideal(ring, [y * y - x * x * x]), Ideal(ring, [x * y]),
                Ideal(rp, [yp * yp - xp * xp * xp])]
    for ideal in smooth:
        assert smoothness_test(ideal).status == "smooth", ideal
    for ideal in singular:
        v = smoothness_test(ideal)
        assert v.status == "singular", ideal
        assert (v.witness.depth, v.witness.kind) == (0, "delta"), ideal


def test_delta_frame_tasks_shape(monkeypatch):
    # each check asks radical membership of its test polynomial in I_X
    # plus the frame's rows, when it runs
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    circle = Ideal(ring, [x * x + y * y - 1])
    chart = Chart(circle, circle, one, depth=1)
    asked = []
    real = charts.radical_membership

    def spy(f, target, budget=None):
        asked.append((f, target))
        return real(f, target, budget=budget)

    monkeypatch.setattr(charts, "radical_membership", spy)
    enum, checks = delta_frame_tasks(chart)
    assert [check.frame for check in checks] == enum.frames
    del asked[:]
    for check in checks:
        frame = check.frame
        assert check.kind == "delta" and frame.test == frame.q * one
        check.holds(Budget())
        (f, ideal), = asked
        del asked[:]
        assert f == frame.test
        gens = set(map(str, ideal.generators))
        assert str(circle.generators[0]) in gens


def test_descend_parabola_single_child():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    par = Ideal(ring, [y - x * x])
    kids = descend_on_frames(Chart.root(par), random.Random(0))
    assert len(kids) == 1
    child = kids[0]
    assert child.depth == 1
    assert list(child.ambient.generators) == [y - x * x]
    assert equal_on_chart(child.ambient, child.variety, child.localizer)


def test_descend_two_point_example_both_flavors():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    pts = Ideal(ring, [x * (y + one), y * (x + one)])
    root = Chart.root(pts)
    covering = descend_on_frames(root, random.Random(1), combinations=False)
    assert len(covering) == 2
    locs = {str(k.localizer) for k in covering}
    assert locs == {"x", "y + 1"}
    for k in covering:
        assert enumerate_frames(k).cover_complete
    combined = descend_on_frames(root, random.Random(1), combinations=True)
    assert len(combined) == 1
    assert len(combined[0].ambient.generators) == 1


def _rnc_over(field_text, d):
    text = ideal_file_text(rational_normal_curve(d).ideal)
    return parse_ideal_file(text.replace("ring QQ", f"ring {field_text}"))[1]


@pytest.mark.parametrize("combinations", [True, False],
                         ids=["combinations", "no-combinations"])
def test_descended_ambients_lie_in_the_variety(monkeypatch, combinations):
    # descend builds its children with check=False: each child's ambient
    # adds a variety generator, or a combination of them, to its parent's,
    # so I_W lies in I_X by construction; every descent the driver runs
    # must keep that
    real = driver.descend
    made = {"children": 0, "covering": 0, "combination": 0}
    strays = []     # (generator, chart) of ambient generators outside I_X

    def checked(chart, enum, rng, **kw):
        children = real(chart, enum, rng, **kw)
        gb_x = buchberger(chart.variety)
        for child in children:
            strays.extend((str(h), child) for h in child.ambient.generators
                          if child.variety is not chart.variety
                          or not gb_x.normal_form(h).is_zero())
            made["children"] += 1
            made["covering"] += child.localizer != chart.localizer
            made["combination"] += (child.ambient.generators[-1]
                                    not in chart.variety.generators)
        return children

    monkeypatch.setattr(driver, "descend", checked)
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    points = Ideal(ring, [x * (y + one), y * (x + one)])
    cfg = Config(combinations=combinations)
    assert smoothness_test(points, cfg).status == "smooth", strays
    assert made["covering"] == (0 if combinations else 2)
    for ideal in (_rnc_over("QQ", 4), _rnc_over("QQ", 5),
                  _rnc_over("F32003", 4)):
        for chart in chart_ideals(ideal):
            assert smoothness_test(chart, cfg).status == "smooth", strays
    assert not strays, strays
    assert made["children"] > 30, made
    assert (made["combination"] > 0) == combinations, made


def test_descend_rejects_chart_with_no_usable_generator():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    w = Ideal(ring, [x])
    chart = Chart(w, Ideal(ring, [x]), one, depth=1)
    with pytest.raises(ContractError):
        descend_on_frames(chart, random.Random(0))


def test_descend_fails_on_singular_generators():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    cusp = Ideal(ring, [y * y - x * x * x])
    with pytest.raises(DescentError):
        descend_on_frames(Chart.root(cusp), random.Random(0),
                          combinations=False)


def test_singular_locus_ideal_contents():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    par = y - x * x
    root = Chart.root(Ideal(ring, [par]))
    s = singular_locus_ideal(root, par)
    # the constant minor comes first: its column has the constant entry
    assert list(s.generators) == [par, Polynomial.constant(ring, 1), -(2 * x)]
    with pytest.raises(DegenerateGeneratorError):
        singular_locus_ideal(Chart(Ideal(ring, [par]), Ideal(ring, [par]),
                                   Polynomial.constant(ring, 1), depth=1),
                             par)


def test_singular_locus_ideal_takes_each_reference_minor_once():
    cases = [(c, f) for c in _rnc_charts() for f in c.variety.generators]
    ring, (x, y, z) = mkvars(GF(32003), ("x", "y", "z"))
    w = Ideal(ring, [x * y - z])
    v = Ideal(ring, [x * y - z, x * x + y * y - 1, z * z - x * z])
    chart = Chart(w, v, x + 1, depth=1, check=False)
    cases += [(chart, f) for f in v.generators]
    checked = 0
    for chart, f in cases:
        amb = list(chart.ambient.generators)
        if ideal_membership(f, chart.ambient):
            continue
        budget = Budget()
        gens = list(singular_locus_ideal(chart, f, budget=budget).generators)
        r = len(amb)
        want = reference_minors(jacobian(chart.ring, amb + [f]), r + 1)
        assert gens[:r + 1] == amb + [f]
        mins = gens[r + 1:]
        assert len(mins) == len(set(mins)) == len(set(want)), (chart, f)
        assert set(mins) == set(want), (chart, f)
        # one count per subset pair: every (r+1)-subset of the columns
        n = chart.ring.nvars
        assert budget.minors == budget.minors_possible == comb(n, r + 1)
        checked += 1
    assert checked > 100


def _frame_wise_against_loci(chart):
    """The descent's frame-wise answers for the chart's usable generators
    and three seeded combinations, each checked against the whole-ideal
    answer g in rad(singular_locus_ideal(chart, f)); returns them."""
    enum, _ = delta_frame_tasks(chart)
    ring, g = chart.ring, chart.localizer
    # the equivalence needs frames covering the chart
    assert radical_membership(g, Ideal(ring, [*chart.ambient.generators,
                                              *(fr.q for fr in enum.frames)]))
    usable = [f for f in chart.variety.generators
              if not ideal_membership(f, chart.ambient)]
    cases = list(usable)
    p = ring.field.characteristic
    for seed in range(3 if len(usable) >= 2 else 0):
        rng = random.Random(seed)
        lams = [rng.randint(1, p - 1 if p else 2039) for _ in usable]
        f = Polynomial.zero(ring)
        for lam, u in zip(lams, usable):
            f = f + lam * u
        if f.is_zero() or ideal_membership(f, chart.ambient):
            continue
        # the row is linear in f: the combination's row, formed from f,
        # is the same combination of the generators' rows
        for frame in enum.frames:
            want = [Polynomial.zero(ring)] * len(frame.row(f))
            for lam, u in zip(lams, usable):
                want = [w + lam * e for w, e in zip(want, frame.row(u))]
            assert list(frame.row(f)) == want, (chart, f)
        cases.append(f)
    answers = []
    for f in cases:
        whole = radical_membership(g, singular_locus_ideal(chart, f))
        assert smooth_on_frames(chart, enum, f) == whole, (chart, f)
        answers.append(whole)
    return answers


def _sphere_chart(field):
    """The sphere as ambient in three variables, cut by a plane z = 2 (a
    smooth circle) and by z(x - y) (two circles meeting in two points).
    Its frames are 2x, 2y, 2z, and it takes all three to cover it."""
    ring, (x, y, z) = mkvars(field, ("x", "y", "z"))
    sphere = x * x + y * y + z * z - 1
    w = Ideal(ring, [sphere])
    v = Ideal(ring, [sphere, z * (x - y), z - 2])
    return Chart(w, v, Polynomial.constant(ring, 1), depth=1)


def test_frame_wise_hypersurface_test_matches_singular_locus():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    pts = Chart.root(Ideal(ring, [x * (y + 1), y * (x + 1)]))
    two_point = [pts]
    for combine in (False, True):
        two_point += descend_on_frames(pts, random.Random(1),
                                       combinations=combine)
    # the cusp is singular only at the origin, which D(x) leaves out
    cusp = Ideal(ring, [y * y - x * x * x])
    localized = [Chart(Ideal(ring, []), cusp, g) for g in (x, x - 1)]
    families = {
        "rnc": _rnc_charts(),
        "localized": localized,
        "two-point": two_point,
        "GF(32003)": [_sphere_chart(GF(32003))],
        "sphere": [_sphere_chart(QQ), _sphere_chart(GF(7))],
    }
    for name, cases in families.items():
        answers = [a for chart in cases
                   for a in _frame_wise_against_loci(chart)]
        assert True in answers and False in answers, (name, answers)
    assert len(families["rnc"]) > 50
    # the sphere's cover needs all three frames; the descent reads them
    # and takes the plane section
    chart = _sphere_chart(QQ)
    enum, _ = delta_frame_tasks(chart)
    assert enum.cover_complete and len(enum.frames) == 3
    kids = descend(chart, enum, random.Random(0), combinations=False)
    assert [k.ambient.generators[-1] for k in kids] == [
        chart.variety.generators[-1]]


def test_descend_rejects_frames_that_do_not_cover():
    # the cusp as ambient is singular at the origin, where both frame
    # determinants -3x^2 and 2y vanish: the frames do not cover D(1)
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    cusp = y * y - x * x * x
    chart = Chart(Ideal(ring, [cusp]), Ideal(ring, [cusp, x - y]),
                  Polynomial.constant(ring, 1), depth=1)
    assert not enumerate_frames(chart).cover_complete
    with pytest.raises(ContractError, match="do not cover"):
        delta_frame_tasks(chart)
    # every mode reports it as a broken precondition, not as an answer;
    # the Jacobian baseline too, which reads the chart's frames rather than
    # the whole variety
    for cfg in (Config(), Config(mode="hybrid"),
                Config(mode="hybrid", to_codim=2), Config(mode="jacobian")):
        v = driver.run_parallel([chart], cfg)
        assert v.status == "indeterminate", (cfg, v.status)
        assert v.reason_kind == "precondition" and "do not cover" in v.reason
    # handed such an enumeration directly, the descent and the embedded
    # step refuse it the same way
    enum = enumerate_frames(chart)
    with pytest.raises(ContractError, match="do not cover"):
        descend(chart, enum, random.Random(0))
    with pytest.raises(ContractError, match="do not cover"):
        embedded_frame_tasks(chart, enum, krull_dimension(chart.variety))


def _embedded_at(chart):
    """The hybrid run whose relative criterion starts on this chart."""
    return run_parallel([chart], Config(mode="hybrid",
                                        descent_depth=chart.depth))


def test_embedded_jacobian_on_descended_points():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    pts = Ideal(ring, [x * (y + one), y * (x + one)])
    for child in descend_on_frames(Chart.root(pts), random.Random(2),
                                   combinations=False):
        v = _embedded_at(child)
        # smooth by the relative criterion, which formed minors
        assert v.status == "smooth" and v.stats["minors"] > 0, v.stats


def test_embedded_jacobian_detects_singular_variety():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    cusp = Ideal(ring, [y * y - x * x * x])
    assert _embedded_at(Chart.root(cusp)).status == "singular"


def test_embedded_jacobian_equal_dimensions_passes():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    circle = Ideal(ring, [x * x + y * y - 1])
    chart = Chart(circle, circle, one, depth=1)
    assert _embedded_at(chart).status == "smooth"
    # the dimension exits settle such a chart: no step reaches its frames
    enum, _ = delta_frame_tasks(chart)
    with pytest.raises(ContractError, match="dimension"):
        embedded_frame_tasks(chart, enum, krull_dimension(circle))


def _baseline(ideal):
    """The Jacobian baseline's verdict on an affine ideal, which must reach
    one, and its stats."""
    v = smoothness_test(ideal, Config(mode="jacobian"))
    assert v.status in ("smooth", "singular"), v.reason
    return v.status == "smooth", v.stats


def test_jacobian_mode_known_varieties():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    assert _baseline(Ideal(ring, [x * x + y * y - 1]))[0]
    assert not _baseline(Ideal(ring, [y * y - x * x * x]))[0]
    assert _baseline(Ideal(ring, []))[0]
    assert _baseline(Ideal(ring, [one + one]))[0]
    # three reduced points: the classic full-minor trap must stay smooth
    trap = Ideal(ring, [x * x - x, y * y - y, x * y])
    assert _baseline(trap)[0]
    r6, vs6 = mkvars(QQ, ("x1", "x2", "x3", "x4", "y1", "y2"))
    x1, x2, x3, x4, y1, y2 = vs6
    x2cone = Ideal(r6, [x1 * x3 - y1 * y2, x2 * x4 - y1 * y2])
    assert not _baseline(x2cone)[0]


def test_early_exit_agrees_with_every_minor():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    singular = [Ideal(ring, [y * y - x * x * x])]
    singular += chart_ideals(veronese_ci().ideal)
    for n, d in ((4, 2), (5, 3)):
        singular += chart_ideals(random_coordinate_change(
            cyclic_polytope_sr(d, n), 0, 4).ideal)
    rnc = [c for d in (3, 4, 5, 6)
           for c in chart_ideals(rational_normal_curve(d).ideal)]
    verdicts = []
    for ideal in ([inst.ideal for inst in corpus50()] + rnc + singular):
        got, stats = _baseline(ideal)
        assert got == criterion_on_every_minor(ideal), ideal
        assert stats["minors"] <= stats["minors_possible"]
        verdicts.append(got)
    assert all(verdicts[50:50 + len(rnc)])
    assert not any(verdicts[50 + len(rnc):])
    assert 0 < sum(verdicts[:50]) < 50
    # every I1-6 chart is proved smooth before its walk ends
    for ideal in chart_ideals(rational_normal_curve(6).ideal):
        got, stats = _baseline(ideal)
        assert got
        assert 0 < stats["minors"] < stats["minors_possible"], ideal


def test_jacobian_forms_far_fewer_minors_than_possible(monkeypatch):
    inst = rational_normal_curve(6)
    v = projective_smoothness(inst.ideal, Config(mode="jacobian"))
    s = v.stats
    assert v.status == "smooth"
    assert 0 < 100 * s["minors"] < s["minors_possible"], s
    loci = []
    real_locus = charts.singular_locus_ideal

    def counting_locus(chart, f, budget=None):
        loci.append(f)
        return real_locus(chart, f, budget=budget)

    monkeypatch.setattr(charts, "singular_locus_ideal", counting_locus)
    # the descent tests each hypersurface on the frames: no minors at all
    v = projective_smoothness(rational_normal_curve(4).ideal, Config())
    assert v.status == "smooth"
    assert v.stats["minors"] == v.stats["minors_possible"] == 0, v.stats
    assert loci == []
    # only a covering builds the singular loci, and it takes every minor
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    pts = Ideal(ring, [x * (y + 1), y * (x + 1)])
    v = smoothness_test(pts, Config(combinations=False))
    assert v.status == "smooth"
    assert 0 < v.stats["minors"] == v.stats["minors_possible"], v.stats
    assert loci == list(pts.generators)


# (verdict, gb_queries, minors, minors_possible) of the Jacobian baseline
# on each affine chart of I1-5 and I1-6: run as the relative criterion on
# the chart's one frame, it asks the questions the classical criterion
# always did.  Where the first minor is a nonzero constant (three charts of
# each curve), radical membership answers yes from that unit generator and
# the query is not counted (3 -> 2).  On charts 3 to 5 of I1-6 the walk
# skips row sets whose minors all vanish on its way to the first nonzero
# minor
_JACOBIAN_CHART_STATS = {
    5: [(True, 2, 1, 1050), (True, 3, 1, 1050), (True, 2, 1, 1050)]
       + [(True, 3, 6, 1050)] * 2 + [(True, 2, 1, 1050)],
    6: [(True, 2, 1, 18018), (True, 3, 1, 18018), (True, 2, 1, 18018),
        (True, 3, 7, 18018)] + [(True, 3, 13, 18018)] * 2
       + [(True, 2, 1, 18018)],
}


def test_jacobian_mode_stats_on_rnc():
    for d, want in _JACOBIAN_CHART_STATS.items():
        got = []
        for ideal in chart_ideals(rational_normal_curve(d).ideal):
            ok, stats = _baseline(ideal)
            got.append((ok, stats["gb_queries"], stats["minors"],
                        stats["minors_possible"]))
        assert got == want, d


def test_pruned_walk_matches_the_unpruned_walk_on_rnc_charts(monkeypatch):
    # every reduced minor of each affine chart's Jacobian, walked to the
    # end, as the walk that never skips a row set yields them
    real = matrix._advance
    for d in (5, 6):
        for ideal in chart_ideals(rational_normal_curve(d).ideal):
            reduce = buchberger(ideal).normal_form
            c = ideal.ring.nvars - krull_dimension(ideal)
            jac = jacobian(ideal.ring, ideal.generators)
            formed = []
            got = list(iter_minors(jac, c, reducer=reduce,
                                   checkpoint=lambda: formed.append(1)))
            monkeypatch.setattr(matrix, "_advance",
                                lambda pos, n, keep: real(pos, n, len(pos)))
            assert got == list(iter_minors(jac, c, reducer=reduce)), d
            monkeypatch.setattr(matrix, "_advance", real)
            assert len(formed) < comb(jac.rows, c) * comb(jac.cols, c)


def test_hybrid_frames_stop_at_their_first_proof():
    # with no descent every root chart takes the relative criterion at
    # once, on the codimension-size minors of its whole Jacobian
    for d in (6, 7):
        v = projective_smoothness(
            rational_normal_curve(d).ideal,
            Config(mode="hybrid", descent_depth=0, limits=Limits(time_s=30)))
        s = v.stats
        assert v.status == "smooth", (d, v.reason)
        assert 0 < 100 * s["minors"] < s["minors_possible"], (d, s)


def test_failing_hybrid_frame_walks_its_whole_stream():
    # the cusp y^2 = x^3 in the plane z = 0 of 3-space: its Jacobian has
    # rank one at the origin, so the delta frame passes and the relative
    # criterion fails there
    ring, (x, y, z) = mkvars(QQ, ("x", "y", "z"))
    cusp = Ideal(ring, [z, y * y - x * x * x])
    for jobs in (1, 2):
        v = smoothness_test(cusp, Config(mode="hybrid", jobs=jobs))
        assert v.status == "singular"
        w = v.witness
        assert (w.path, w.depth, w.kind, w.frame_cols) == (
            (1, 0), 0, "jacobian", ()), jobs
        # every minor formed; a failed prefix, then the full ideal asked,
        # both answered no at the origin without a Groebner query
        assert v.stats == {"charts": 1, "frames": 2, "gb_queries": 2,
                           "max_depth": 0, "minors": 3,
                           "minors_possible": 3}, jobs


def _frame_testing(variety, test):
    """The one frame of the frameless chart of variety on D(test), whose
    test polynomial is test itself."""
    chart = Chart(Ideal(variety.ring, []), variety, test, check=False)
    frame, = enumerate_frames(chart).frames
    assert frame.test == test
    return frame


def test_minor_check_without_nonzero_minors_asks_the_variety():
    # every minor reduces to zero modulo I_X, so the stream is empty and
    # the frame passes exactly when the test vanishes on X alone
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    variety = Ideal(ring, [x])
    rel = PolyMatrix(ring, 1, 2, [x, x * y])
    for test, want in ((x * y, True), (y, False)):
        check = charts.MinorCheck(_frame_testing(variety, test),
                                  variety.generators, rel, 1,
                                  buchberger(variety).normal_form)
        budget = Budget()
        assert check.holds(budget) is want
        assert budget.minors == budget.minors_possible == 2
        assert budget.gb_queries == 1


def test_minor_check_counts_size_minors_and_stops_in_prefix_tests(
        monkeypatch):
    # row 0 of rel vanishes modulo I_X = (x): after the zero row set (0, 1)
    # the walk tests the prefix (0,), finds its 1-minors zero and skips
    # (0, 2), so it forms 2 of the 3 minors; the prefix test's minors run
    # the budget's checkpoint but are not counted
    ring, (x, y, z) = mkvars(QQ, ("x", "y", "z"))
    variety = Ideal(ring, [x])
    rel = PolyMatrix(ring, 3, 2, [x, x * y,
                                  y, z,
                                  z, y])
    check = charts.MinorCheck(_frame_testing(variety, y * y - z * z),
                              variety.generators, rel, 2,
                              buchberger(variety).normal_form)
    budget = Budget()
    assert check.holds(budget)
    assert (budget.minors, budget.minors_possible) == (2, 3)
    # a clock that ticks once per reading: the deadline passes at the
    # second checkpoint, the first minor of the prefix test
    ticks = iter(range(100))
    monkeypatch.setattr(limits, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    budget = Budget(Limits(time_s=1.5))
    with pytest.raises(LimitExceededError):
        check.holds(budget)
    assert (budget.minors, budget.minors_possible) == (1, 3)


def _criterion_ideals(monkeypatch, runs):
    """Run each (runner, ideal, config) of `runs` with the criterion loop
    spied on.  Returns one record per minor stream it walked: (the run's
    mode, the deciding ideal, the head followed by the minors the stream
    yielded before the decision, the head followed by every minor with
    repeats as `reference_minors` returns them, the verdict, and a function
    giving the verdict for any ideal)."""
    records = []
    streams = []   # (args, yielded) per iter_minors call
    real_iter = charts.iter_minors
    real_proved = charts.proved_by_minors
    real_radical = charts.radical_membership
    mode = [None]

    def spy_iter(m, size, reducer=None, checkpoint=None,
                 prefix_checkpoint=None):
        yielded = []
        streams.append(((m, size, reducer), yielded))
        for f in real_iter(m, size, reducer=reducer, checkpoint=checkpoint,
                           prefix_checkpoint=prefix_checkpoint):
            yielded.append(f)
            yield f

    def spy_proved(test, head, minors, budget):
        asked = []

        def spy_radical(f, target, budget=None):
            asked.append(target)
            return real_radical(f, target, budget=budget)

        monkeypatch.setattr(charts, "radical_membership", spy_radical)
        try:
            ok = real_proved(test, head, minors, budget)
        finally:
            monkeypatch.setattr(charts, "radical_membership", real_radical)
        (args, yielded), = streams
        del streams[:]
        gens = list(head)

        def decide(i):
            return radical_membership(test, i)

        records.append((mode[0], asked[-1], gens + yielded,
                        gens + reference_minors(*args), ok, decide))
        return ok

    monkeypatch.setattr(charts, "iter_minors", spy_iter)
    monkeypatch.setattr(charts, "proved_by_minors", spy_proved)
    for runner, ideal, cfg in runs:
        mode[0] = cfg.mode
        runner(ideal, cfg)
    return records


def test_criterion_ideals_take_each_minor_once(monkeypatch):
    runs = [(projective_smoothness, rational_normal_curve(4).ideal, cfg)
            for cfg in (Config(mode="jacobian"),
                        Config(mode="hybrid", to_codim=2))]
    runs += [(smoothness_test, inst.ideal, cfg)
             for inst in corpus50()[:12]
             for cfg in (Config(mode="jacobian"), Config(mode="hybrid"))]
    records = _criterion_ideals(monkeypatch, runs)
    repeats = {"jacobian": 0, "hybrid": 0}
    early = {"jacobian": 0, "hybrid": 0}
    for kind, ideal, prefix, full, verdict, decide in records:
        gens = list(ideal.generators)
        assert len(set(gens)) == len(gens), kind
        # the deciding ideal is the head plus a prefix of the stream, each
        # yielded minor once
        assert gens == list(dict.fromkeys(prefix)), kind
        assert set(prefix) <= set(full), kind
        if not verdict:   # only a "no" walks the whole stream
            assert set(prefix) == set(full), kind
        early[kind] += set(prefix) != set(full)
        # the verdict on every minor, repeats included, agrees
        assert decide(Ideal(ideal.ring, full)) == verdict, kind
        repeats[kind] += len(full) - len(set(full))
    assert all(repeats.values()), repeats  # both modes skipped repeats
    assert all(early.values()), early      # both stopped at a first proof


def test_delta_then_descend_chain_settles_circle():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    circle = Ideal(ring, [x * x + y * y - 1])
    root = Chart.root(circle)
    assert smoothness_test(circle).status == "smooth"
    kids = descend_on_frames(root, random.Random(5))
    assert len(kids) == 1
    assert equal_on_chart(kids[0].ambient, kids[0].variety,
                          kids[0].localizer)
