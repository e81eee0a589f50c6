import random
from itertools import combinations

import pytest

from conftest import nonzero_random_poly, variables
from corpus import corpus50
from varsmooth.errors import (ContractError, DegenerateGeneratorError,
                              DescentError)
from varsmooth.fields import QQ, GF
from varsmooth.charts import (Chart, affine_jacobian_criterion, delta_check,
                              delta_frame_tasks, descend, embedded_jacobian,
                              enumerate_frames, relative_jacobian,
                              singular_locus_ideal)
from varsmooth import charts, driver
from varsmooth.bench import rational_normal_curve
from varsmooth.driver import Config, projective_smoothness, smoothness_test
from varsmooth.groebner import (Ideal, buchberger, equal_on_chart,
                                ideal_membership, krull_dimension,
                                radical_membership)
from varsmooth.matrix import PolyMatrix, adjugate, jacobian
from varsmooth.poly import Polynomial
from varsmooth.ring import Ring


def mkvars(field, names):
    ring = Ring(field, names)
    return ring, variables(ring)


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
        dets = list(enum.determinants)
        total = Ideal(chart.ring,
                      list(chart.ambient.generators) + dets)
        want = radical_membership(chart.localizer, total)
        assert enum.cover_complete == want


def test_strict_cover_demands_plain_membership():
    # determinants generate x^2 while g = x: radical cover yes, strict no
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    f = x * x * x - y  # df/dx = 3x^2, df/dy = -1
    w = Ideal(ring, [f])
    chart_rad = Chart(w, w, x, depth=1, check=False)
    enum = enumerate_frames(chart_rad)
    assert enum.cover_complete  # q = -1 on column y covers everything
    only_x = [fr for fr in enum.frames if fr.cols == (0,)]
    assert only_x and only_x[0].q == 3 * x * x


def _eager_frames(chart, strict=False):
    """Reference enumeration: an adjugate for every candidate submatrix,
    then the cover scan over the nonzero ones.  Returns (frames as
    (cols, q, adj) triples, cover_complete, determinants)."""
    ring = chart.ring
    r = len(chart.ambient.generators)
    g = chart.localizer
    if r == 0:
        one = Polynomial.constant(ring, 1)
        empty = PolyMatrix(ring, 0, 0, ())
        return [((), one, empty)], True, [one]
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
        if q.is_constant():
            return frames, True, dets
        if strict:
            covered = ideal_membership(g, Ideal(ring, dets))
        else:
            covered = radical_membership(
                g, Ideal(ring, list(chart.ambient.generators) + dets))
        if covered:
            return frames, True, dets
    return frames, False, dets


def _rnc_charts():
    """Every chart the driver enumerates frames on for I1-4 and I1-5, in
    hironaka and hybrid mode: frameless roots and descended charts."""
    seen = []
    original = charts.enumerate_frames

    def record(chart, strict=False, budget=None):
        seen.append(chart)
        return original(chart, strict=strict, budget=budget)

    charts.enumerate_frames = record
    try:
        for d in (4, 5):
            for cfg in (Config(), Config(mode="hybrid", to_codim=2)):
                projective_smoothness(rational_normal_curve(d).ideal, cfg)
    finally:
        charts.enumerate_frames = original
    return seen


def test_lazy_frames_match_eager_reference(monkeypatch):
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    cubic = Ideal(ring, [x * x * x - y])
    # q = 3x^2 and 3y^2: the radical cover fires on the first frame, the
    # strict one never does and exhausts both
    fermat = Ideal(ring, [x ** 3 + y ** 3 + 1])
    cases = [(Chart(cubic, cubic, x, depth=1, check=False), False),
             (Chart(fermat, fermat, x, depth=1, check=False), False),
             (Chart(fermat, fermat, x, depth=1, check=False), True)]
    rnc = _rnc_charts()
    assert {len(c.ambient.generators) for c in rnc} == {0, 1, 2, 3}
    cases += [(c, strict) for c in rnc for strict in (False, True)]
    calls = []

    def counting(m):
        calls.append(m)
        return adjugate(m)

    monkeypatch.setattr(charts, "adjugate", counting)
    exhausted = 0
    for chart, strict in cases:
        del calls[:]
        enum = enumerate_frames(chart, strict=strict)
        frames, cover, dets = _eager_frames(chart, strict=strict)
        assert [(fr.cols, fr.q, fr.adj) for fr in enum.frames] == frames
        assert enum.cover_complete == cover
        assert enum.determinants == dets
        assert len(calls) == len(enum.frames), (chart, strict)
        exhausted += not cover
    assert exhausted  # the exhaustion path is exercised too


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
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    assert delta_check(Chart.root(Ideal(ring, [x * x + y * y - 1])))
    assert delta_check(Chart.root(Ideal(ring, [y - x * x])))
    assert not delta_check(Chart.root(Ideal(ring, [y * y - x * x * x])))
    assert not delta_check(Chart.root(Ideal(ring, [x * y])))
    rp, (xp, yp) = mkvars(GF(32003), ("x", "y"))
    assert delta_check(Chart.root(Ideal(rp, [yp - xp * xp])))
    assert not delta_check(Chart.root(Ideal(rp, [yp * yp - xp * xp * xp])))


def test_delta_frame_tasks_shape():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    circle = Ideal(ring, [x * x + y * y - 1])
    chart = Chart(circle, circle, one, depth=1)
    enum, checks = delta_frame_tasks(chart)
    assert len(checks) == len(enum.frames)
    for frame, ideal, test in checks:
        assert test == frame.q * one
        gens = set(map(str, ideal.generators))
        assert str(circle.generators[0]) in gens


def test_descend_parabola_single_child():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    par = Ideal(ring, [y - x * x])
    kids = descend(Chart.root(par), random.Random(0))
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
    covering = descend(root, random.Random(1), combinations=False)
    assert len(covering) == 2
    locs = {str(k.localizer) for k in covering}
    assert locs == {"x", "y + 1"}
    for k in covering:
        assert enumerate_frames(k).cover_complete
    combined = descend(root, random.Random(1), combinations=True)
    assert len(combined) == 1
    assert len(combined[0].ambient.generators) == 1


def test_descend_rejects_chart_with_no_usable_generator():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    w = Ideal(ring, [x])
    chart = Chart(w, Ideal(ring, [x]), one, depth=1)
    with pytest.raises(ContractError):
        descend(chart, random.Random(0))


def test_descend_fails_on_singular_generators():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    cusp = Ideal(ring, [y * y - x * x * x])
    with pytest.raises(DescentError):
        descend(Chart.root(cusp), random.Random(0), combinations=False)


def test_singular_locus_ideal_contents():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    par = y - x * x
    root = Chart.root(Ideal(ring, [par]))
    s = singular_locus_ideal(root, par)
    assert list(s.generators) == [par, -(2 * x), Polynomial.constant(ring, 1)]
    with pytest.raises(DegenerateGeneratorError):
        singular_locus_ideal(Chart(Ideal(ring, [par]), Ideal(ring, [par]),
                                   Polynomial.constant(ring, 1), depth=1),
                             par)


def test_embedded_jacobian_on_descended_points():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    pts = Ideal(ring, [x * (y + one), y * (x + one)])
    for child in descend(Chart.root(pts), random.Random(2),
                         combinations=False):
        assert embedded_jacobian(child)


def test_embedded_jacobian_detects_singular_variety():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    cusp = Ideal(ring, [y * y - x * x * x])
    assert not embedded_jacobian(Chart.root(cusp))


def test_embedded_jacobian_equal_dimensions_passes():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    circle = Ideal(ring, [x * x + y * y - 1])
    chart = Chart(circle, circle, one, depth=1)
    assert embedded_jacobian(chart)


def test_affine_jacobian_criterion_known_varieties():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    one = Polynomial.constant(ring, 1)
    assert affine_jacobian_criterion(Ideal(ring, [x * x + y * y - 1]))
    assert not affine_jacobian_criterion(Ideal(ring, [y * y - x * x * x]))
    assert affine_jacobian_criterion(Ideal(ring, []))
    assert affine_jacobian_criterion(Ideal(ring, [one + one]))
    # three reduced points: the classic full-minor trap must stay smooth
    trap = Ideal(ring, [x * x - x, y * y - y, x * y])
    assert affine_jacobian_criterion(trap)
    r6, vs6 = mkvars(QQ, ("x1", "x2", "x3", "x4", "y1", "y2"))
    x1, x2, x3, x4, y1, y2 = vs6
    x2cone = Ideal(r6, [x1 * x3 - y1 * y2, x2 * x4 - y1 * y2])
    assert not affine_jacobian_criterion(x2cone)


def _criterion_ideals(monkeypatch, runs):
    """Run `runs()` with both criteria spied on.  Returns one record per
    ideal they built from minors: (kind, the ideal, the generators followed
    by every minor with duplicates kept, its verdict on the ideal, and a
    function giving that verdict for any ideal)."""
    records = []
    got = []
    real_minors = charts.minors
    real_buchberger = charts.buchberger
    real_affine = charts.affine_jacobian_criterion
    real_embedded = charts.embedded_frame_tasks

    def spy_minors(*args, **kw):
        got.append(real_minors(*args, **kw))
        return got[-1]

    def affine(ideal, budget=None):
        del got[:]
        built = []

        def spy_buchberger(target, **kw):
            built.append(target)
            return real_buchberger(target, **kw)

        monkeypatch.setattr(charts, "buchberger", spy_buchberger)
        try:
            ok = real_affine(ideal, budget=budget)
        finally:
            monkeypatch.setattr(charts, "buchberger", real_buchberger)
        if got:
            records.append(("affine", built[-1],
                            list(ideal.generators) + got[0], ok,
                            lambda i: buchberger(i).is_unit()))
        return ok

    def embedded(chart, strict=False, budget=None):
        del got[:]
        enum, checks = real_embedded(chart, strict=strict, budget=budget)
        assert len(got) == len(checks or ())
        for (_, ideal, test), mins in zip(checks or (), got):
            def decide(i, test=test):
                return radical_membership(test, i)
            records.append(("embedded", ideal,
                            list(chart.variety.generators) + mins,
                            decide(ideal), decide))
        return enum, checks

    monkeypatch.setattr(charts, "minors", spy_minors)
    monkeypatch.setattr(driver, "affine_jacobian_criterion", affine)
    monkeypatch.setattr(driver, "embedded_frame_tasks", embedded)
    runs()
    return records


def test_criterion_ideals_take_each_minor_once(monkeypatch):
    def runs():
        for cfg in (Config(mode="jacobian"),
                    Config(mode="hybrid", to_codim=2)):
            projective_smoothness(rational_normal_curve(4).ideal, cfg)
        for inst in corpus50()[:12]:
            for cfg in (Config(mode="jacobian"), Config(mode="hybrid")):
                smoothness_test(inst.ideal, cfg)

    records = _criterion_ideals(monkeypatch, runs)
    dropped = {"affine": 0, "embedded": 0}
    for kind, ideal, with_dups, verdict, decide in records:
        gens = list(ideal.generators)
        assert len(set(gens)) == len(gens), kind
        assert gens == list(dict.fromkeys(with_dups)), kind
        assert decide(Ideal(ideal.ring, with_dups)) == verdict, kind
        dropped[kind] += len(with_dups) - len(gens)
    assert all(dropped.values()), dropped  # both criteria met repeats


def test_delta_then_descend_chain_settles_circle():
    ring, (x, y) = mkvars(QQ, ("x", "y"))
    circle = Ideal(ring, [x * x + y * y - 1])
    root = Chart.root(circle)
    assert delta_check(root)
    kids = descend(root, random.Random(5))
    assert len(kids) == 1
    assert equal_on_chart(kids[0].ambient, kids[0].variety,
                          kids[0].localizer)
