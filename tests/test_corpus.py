"""Structural checks for the fixed fifty-instance corpus, plus a fast
verdict validation in jacobian mode so corpus mistakes surface before the
long equivalence sweep."""

from itertools import islice

from varsmooth import charts
from varsmooth.driver import Config, smoothness_test
from varsmooth.groebner import Ideal, krull_dimension, radical_membership

from corpus import corpus50, linear_form_products


def test_corpus_shape_and_determinism():
    a = corpus50()
    b = corpus50()
    assert len(a) == 50
    assert [i.name for i in a] == [i.name for i in b]
    assert all(x.ideal == y.ideal for x, y in zip(a, b))
    for inst in a:
        ring = inst.ideal.ring
        assert ring.nvars <= 4
        assert 1 <= len(inst.ideal.generators) <= 3
        assert all(g.total_degree() <= 3 for g in inst.ideal.generators)
        assert inst.expected in ("smooth", "singular")
    # both verdicts are represented, repeatedly
    verdicts = [i.expected for i in a]
    assert verdicts.count("smooth") >= 20
    assert verdicts.count("singular") >= 15


def test_corpus_verdicts_in_jacobian_mode():
    cfg = Config(mode="jacobian")
    for inst in corpus50():
        verdict = smoothness_test(inst.ideal, cfg)
        assert verdict.status == inst.expected, inst.name


def test_covering_corpus_modes_agree_and_covers_are_minimal(monkeypatch):
    # Every chosen covering set S must have g in rad(h_S) and lose that
    # when any one member is dropped.
    calls = []
    real = charts._covering_subset

    def spy(g, hs, budget):
        chosen = real(g, hs, budget)
        calls.append((g, list(hs), chosen))
        return chosen

    monkeypatch.setattr(charts, "_covering_subset", spy)
    reached = 0
    for ideal in islice(linear_form_products(), 20):
        calls.clear()
        off = smoothness_test(ideal, Config(mode="hironaka",
                                            combinations=False))
        if not calls:
            continue
        reached += 1
        codim = ideal.ring.nvars - krull_dimension(ideal)
        cfgs = [Config(mode="hironaka"), Config(mode="jacobian")]
        cfgs += [Config(mode="hybrid", descent_depth=k)
                 for k in range(codim + 1)]
        statuses = {off.status} | {smoothness_test(ideal, cfg).status
                                   for cfg in cfgs}
        assert len(statuses) == 1, (ideal, statuses)
        assert statuses <= {"smooth", "singular"}, (ideal, statuses)
        for g, hs, chosen in calls:
            ring = g.ring

            def covers(picked):
                return radical_membership(
                    g, Ideal(ring, [hs[j] for j in picked]))

            assert chosen and covers(chosen), (ideal, g)
            for j in chosen:
                assert not covers([k for k in chosen if k != j]), (ideal, j)
        if reached == 10:
            break
    assert reached == 10
