import json
from fractions import Fraction
from itertools import combinations as icombs

import pytest

from varsmooth import bench, groebner
from varsmooth.bench import (BenchInstance, cyclic_polytope_sr, get_suite,
                             format_rows, random_coordinate_change,
                             rational_normal_curve, rows_as_json,
                             run_instance, run_suite, veronese_ci,
                             SUITE_NAMES)
from varsmooth.bench import _gale_facets, _minimal_nonfaces
from varsmooth.driver import Config, projective_smoothness, smoothness_test
from varsmooth.groebner import Ideal


# -- oracle: facets of the cyclic polytope from exact moment-curve geometry --

def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Fraction(0)
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(sub)
        acc += -term if j & 1 else term
    return acc


def moment_curve_facets(d, n):
    """d-subsets whose affine hull supports the polytope on one side."""
    pts = [[Fraction(t) ** k for k in range(1, d + 1)] for t in range(n)]
    facets = set()
    for S in icombs(range(n), d):
        signs = set()
        for o in range(n):
            if o in S:
                continue
            rows = [[Fraction(1)] + pts[i] for i in S]
            rows.append([Fraction(1)] + pts[o])
            v = _det(rows)
            if v:
                signs.add(v > 0)
        if len(signs) == 1:
            facets.add(frozenset(S))
    return facets


@pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 5), (3, 6), (3, 7),
                                 (4, 6), (4, 7), (4, 8)])
def test_gale_evenness_matches_moment_curve_oracle(d, n):
    got = {frozenset(f) for f in _gale_facets(d, n)}
    assert got == moment_curve_facets(d, n)


def brute_minimal_nonfaces(d, n):
    facets = [set(f) for f in _gale_facets(d, n)]

    def is_face(t):
        return any(t <= f for f in facets)

    out = set()
    for k in range(1, d + 2):
        for t in icombs(range(n), k):
            ts = set(t)
            if is_face(ts):
                continue
            if all(is_face(ts - {i}) for i in ts):
                out.add(frozenset(t))
    return out


@pytest.mark.parametrize("d,n", [(2, 5), (3, 6), (3, 7), (4, 7)])
def test_minimal_nonfaces_brute_force(d, n):
    got = {frozenset(t)
           for t in _minimal_nonfaces(d, n, _gale_facets(d, n))}
    assert got == brute_minimal_nonfaces(d, n)


def test_stanley_reisner_generators_are_squarefree_nonface_products():
    inst = cyclic_polytope_sr(3, 6)
    assert inst.name == "I4-6-3"
    assert inst.expected == "singular"
    assert inst.projective
    ring = inst.ideal.ring
    assert ring.nvars == 6
    nonfaces = {frozenset(t)
                for t in _minimal_nonfaces(3, 6, _gale_facets(3, 6))}
    seen = set()
    for g in inst.ideal.generators:
        terms = g.terms()
        assert len(terms) == 1
        exps, c = terms[0]
        assert c == ring.field.one()
        assert all(e in (0, 1) for e in exps)
        seen.add(frozenset(i for i, e in enumerate(exps) if e))
    assert seen == nonfaces


def test_cyclic_polytope_requires_enough_vertices():
    with pytest.raises(Exception):
        cyclic_polytope_sr(3, 4)


def test_rational_normal_curve_shape():
    for d in (2, 3, 4, 6):
        inst = rational_normal_curve(d)
        assert inst.name == f"I1-{d}"
        assert inst.expected == "smooth"
        assert inst.projective
        assert inst.ideal.ring.nvars == d + 1
        gens = inst.ideal.generators
        assert len(gens) == d * (d - 1) // 2
        assert all(g.is_homogeneous() and g.total_degree() == 2
                   for g in gens)
    assert rational_normal_curve(1).ideal.generators == ()


def test_rational_normal_curve_verdicts_small():
    for d in (2, 3):
        inst = rational_normal_curve(d)
        v = projective_smoothness(inst.ideal, Config(mode="hironaka"))
        assert v.status == "smooth"


def test_veronese_instance():
    inst = veronese_ci()
    assert inst.name == "X2"
    assert inst.expected == "singular"
    assert len(inst.ideal.generators) == 2
    v = projective_smoothness(inst.ideal, Config(mode="jacobian"))
    assert v.status == "singular"


def test_coordinate_change_preserves_verdict_and_is_deterministic():
    inst = rational_normal_curve(3)
    cc1 = random_coordinate_change(inst, seed=7)
    cc2 = random_coordinate_change(inst, seed=7)
    assert cc1.name == "I1-3-cc"
    assert [str(g) for g in cc1.ideal.generators] == \
        [str(g) for g in cc2.ideal.generators]
    assert [str(g) for g in cc1.ideal.generators] != \
        [str(g) for g in inst.ideal.generators]
    v = projective_smoothness(cc1.ideal, Config(mode="hironaka"))
    assert v.status == "smooth"
    sing = cyclic_polytope_sr(2, 4)
    ccs = random_coordinate_change(sing, seed=3)
    vs = projective_smoothness(ccs.ideal, Config(mode="hironaka"))
    assert vs.status == "singular"


def test_coordinate_change_checks_each_drawn_matrix_once(monkeypatch):
    from varsmooth import poly
    real = poly._field_matrix_is_invertible
    calls = []

    def spy(ring, rows):
        calls.append(rows)
        return real(ring, rows)

    monkeypatch.setattr(poly, "_field_matrix_is_invertible", spy)
    inst = cyclic_polytope_sr(3, 7)
    cc = random_coordinate_change(inst, seed=0)
    assert len(inst.ideal.generators) > 1
    assert len(calls) == 1
    # a rejected draw is replaced by the next one, checked once too
    del calls[:]
    monkeypatch.setattr(poly, "_field_matrix_is_invertible",
                        lambda ring, rows: bool(spy(ring, rows))
                        and len(calls) > 1)
    redrawn = random_coordinate_change(inst, seed=0)
    assert len(calls) == 2 and calls[0] != calls[1]
    assert redrawn.ideal.generators != cc.ideal.generators
    monkeypatch.setattr(poly, "_field_matrix_is_invertible", real)
    for f, g in zip(redrawn.ideal.generators, inst.ideal.generators):
        assert f == poly.apply_linear_change(g, calls[1])


def test_suites_contents():
    assert set(SUITE_NAMES) == {"rnc", "cyclic", "x2", "quick", "all"}
    rnc = get_suite("rnc")
    assert [i.name for i in rnc] == ["I1-6", "I1-7", "I1-8"]
    cyc = get_suite("cyclic")
    assert [i.name for i in cyc] == ["I4-6-3-cc", "I4-7-3-cc", "I4-7-4-cc"]
    allsuite = get_suite("all")
    assert len(allsuite) == len(rnc) + len(cyc) + 1
    with pytest.raises(Exception):
        get_suite("nope")


def test_run_instance_row_schema():
    inst = rational_normal_curve(2)
    row = run_instance(inst, "hironaka", Config(mode="hironaka"))
    assert row["name"] == "I1-2"
    assert row["mode"] == "hironaka"
    assert row["verdict"] == "smooth"
    assert row["verdict"] == inst.expected
    assert row["wall_ms"] >= 0
    assert row["sim_parallel_ms"] >= 0
    assert row["charts"] >= 1
    for key in ("name", "mode", "verdict", "wall_ms", "sim_parallel_ms",
                "charts", "frames"):
        assert key in row


def test_run_suite_and_formatting():
    rows = run_suite(get_suite("quick")[:2], modes=("jacobian",),
                     cfg=Config(mode="jacobian"))
    assert len(rows) == 2
    table = format_rows(rows)
    assert "I1-2" in table and "jacobian" in table
    for line in rows_as_json(rows).strip().splitlines():
        parsed = json.loads(line)
        assert parsed["verdict"] == "smooth"


def test_run_suite_rows_start_cold(monkeypatch):
    sizes = []

    def spy(ideal, cfg):
        sizes.append(len(groebner._cache))
        return projective_smoothness(ideal, cfg)

    monkeypatch.setattr(bench, "projective_smoothness", spy)
    groebner.buchberger(rational_normal_curve(3).ideal)  # a warm cache
    rows = run_suite([rational_normal_curve(3)], modes=("hironaka", "hybrid"))
    assert [r["verdict"] for r in rows] == ["smooth", "smooth"]
    assert sizes == [0, 0]


def test_instances_are_frozen():
    inst = rational_normal_curve(2)
    assert isinstance(inst, BenchInstance)
    with pytest.raises(Exception):
        inst.name = "other"
