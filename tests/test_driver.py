import json
import random
import threading
from collections import Counter

import pytest

from conftest import chart_ideals, criterion_on_every_minor, variables
from corpus import corpus50
from varsmooth import charts, matrix
from varsmooth.bench import rational_normal_curve
from varsmooth.charts import Chart, delta_frame_tasks, descend
from varsmooth.errors import ContractError
from varsmooth.driver import (Config, Observer, Verdict, projective_smoothness,
                              run_parallel, smoothness_test)
from varsmooth.fields import QQ, GF
from varsmooth.groebner import (Ideal, buchberger, clear_caches,
                                krull_dimension, radical_membership)
from varsmooth.limits import Limits
from varsmooth.parser import ideal_file_text, parse_ideal_file
from varsmooth.poly import Polynomial
from varsmooth.ring import Ring


def _r2():
    ring = Ring(QQ, ("x", "y"))
    return (ring,) + tuple(variables(ring))


def circle_ideal():
    ring, x, y = _r2()
    return Ideal(ring, [x * x + y * y - 1])


def cusp_ideal():
    ring, x, y = _r2()
    return Ideal(ring, [y * y - x * x * x])


def two_points_ideal():
    ring, x, y = _r2()
    one = Polynomial.constant(ring, 1)
    return Ideal(ring, [x * (y + one), y * (x + one)])


def x2_cone_ideal():
    ring = Ring(QQ, ("x1", "x2", "x3", "x4", "y1", "y2"))
    x1, x2, x3, x4, y1, y2 = variables(ring)
    return Ideal(ring, [x1 * x3 - y1 * y2, x2 * x4 - y1 * y2])


def x2_cone_moved_ideal():
    # X2 under x -> x + 1 in every variable: the vertex moves to
    # (-1, ..., -1), and the origin is a smooth point of the cone, so no
    # question about it is decided at the origin
    ring = Ring(QQ, ("x1", "x2", "x3", "x4", "y1", "y2"))
    one = Polynomial.constant(ring, 1)
    x1, x2, x3, x4, y1, y2 = (v + one for v in variables(ring))
    return Ideal(ring, [x1 * x3 - y1 * y2, x2 * x4 - y1 * y2])


MODES = ("hironaka", "hybrid", "jacobian")


@pytest.mark.parametrize("mode", MODES)
def test_verdicts_all_modes(mode):
    assert smoothness_test(circle_ideal(), Config(mode=mode)).status == \
        "smooth"
    v = smoothness_test(cusp_ideal(), Config(mode=mode))
    assert v.status == "singular"
    assert v.witness is not None
    assert smoothness_test(two_points_ideal(),
                           Config(mode=mode)).status == "smooth"
    assert smoothness_test(x2_cone_ideal(),
                           Config(mode=mode)).status == "singular"


def test_config_validation():
    with pytest.raises(ContractError):
        Config(mode="newton")
    with pytest.raises(ContractError):
        Config(descent_depth=-1)
    with pytest.raises(ContractError):
        Config(to_codim=-2)
    with pytest.raises(ContractError):
        Config(jobs=0)


def test_trivial_ideals():
    ring, x, y = _r2()
    assert smoothness_test(Ideal(ring, []), Config()).status == "smooth"
    two = Polynomial.constant(ring, 2)
    assert smoothness_test(Ideal(ring, [two]), Config()).status == "smooth"


def test_disjoint_point_and_line_smooth():
    # reducible but smooth: the line x = 0 plus the isolated point (1, 0)
    ring, x, y = _r2()
    ideal = Ideal(ring, [x * (x - 1), x * y])
    for mode in MODES:
        assert smoothness_test(ideal, Config(mode=mode)).status == "smooth"


@pytest.mark.parametrize("jobs", [2, 8])
def test_determinism_across_jobs(jobs):
    for ideal, expected in ((cusp_ideal(), "singular"),
                            (two_points_ideal(), "smooth")):
        base = smoothness_test(ideal, Config(mode="hironaka", jobs=1,
                                             combinations=False))
        alt = smoothness_test(ideal, Config(mode="hironaka", jobs=jobs,
                                            combinations=False))
        assert base.status == expected
        assert alt.status == base.status
        assert alt.witness == base.witness
        assert alt.stats == base.stats
        r1 = json.dumps(base.as_report(), sort_keys=True)
        r2 = json.dumps(alt.as_report(), sort_keys=True)
        assert r1 == r2


def test_projective_determinism_and_witness():
    ring = Ring(QQ, ("X", "Y", "Z"))
    X, Y, Z = variables(ring)
    nodal = Ideal(ring, [Y * Y * Z - X * X * (X + Z)])
    base = projective_smoothness(nodal, Config(mode="hironaka", jobs=1))
    assert base.status == "singular"
    for jobs in (2, 8):
        v = projective_smoothness(nodal, Config(mode="hironaka", jobs=jobs))
        assert v.witness == base.witness
        assert v.stats == base.stats


def test_no_engine_starts_after_commit():
    clear_caches()

    class Probe(Observer):
        def __init__(self):
            self.events = []

        def on_gb_start(self, path):
            self.events.append("gb")

        def on_commit(self, path):
            self.events.append("commit")

    probe = Probe()
    v = smoothness_test(cusp_ideal(), Config(mode="hironaka", jobs=4),
                        observer=probe)
    assert v.status == "singular"
    assert probe.events.count("commit") == 1
    tail = probe.events[probe.events.index("commit") + 1:]
    assert "gb" not in tail, tail


def test_runs_are_sequential_on_the_calling_thread():
    class Threads(Observer):
        def __init__(self):
            self.idents = set()
            self.hooks = set()

        def _seen(self, hook):
            self.idents.add(threading.get_ident())
            self.hooks.add(hook)

        def on_gb_start(self, path):
            self._seen("gb")

        def on_task_start(self, path, kind):
            self._seen("start")

        def on_task_done(self, path, kind, passed):
            self._seen("done")

        def on_commit(self, path):
            self._seen("commit")

        def on_cover(self, path, chart, enum):
            self._seen("cover")

    # I1-6 is smooth, so the singular cusp is run too for on_commit
    before = threading.active_count()
    probe = Threads()
    rnc6 = rational_normal_curve(6).ideal
    for runner, ideal, status in ((projective_smoothness, rnc6, "smooth"),
                                  (smoothness_test, cusp_ideal(), "singular")):
        clear_caches()
        v = runner(ideal, Config(jobs=8), observer=probe)
        assert v.status == status
        assert threading.active_count() == before
    assert probe.hooks == {"gb", "start", "done", "commit", "cover"}
    assert probe.idents == {threading.get_ident()}


def test_limits_reject_nan_and_negative_caps():
    for bad in (float("nan"), -1.0):
        with pytest.raises(ContractError):
            Limits(time_s=bad)
    Limits(time_s=0.0)


def test_hybrid_all_depths_agree():
    for ideal, expected in ((circle_ideal(), "smooth"),
                            (cusp_ideal(), "singular"),
                            (two_points_ideal(), "smooth"),
                            (x2_cone_ideal(), "singular")):
        codim = ideal.ring.nvars - krull_dimension(ideal)
        for depth in range(codim + 1):
            v = smoothness_test(ideal, Config(mode="hybrid",
                                              descent_depth=depth))
            assert v.status == expected, (depth, v.status)


def _rnc_started_charts():
    """The charts one to three descents below the root chart x_0 = 1 of
    I1-5."""
    ideal = rational_normal_curve(5).ideal
    root = Chart.root(chart_ideals(ideal)[0])
    level, started = [root], []
    for _ in range(3):
        level = [child for chart in level
                 for child in descend(chart, delta_frame_tasks(chart)[0],
                                      random.Random(0))]
        started += level
    return started


def test_to_codim_equivalent_to_depth(monkeypatch):
    ideal = two_points_ideal()
    codim = 2
    for c in range(codim + 1):
        a = smoothness_test(ideal, Config(mode="hybrid", to_codim=c))
        b = smoothness_test(ideal, Config(mode="hybrid",
                                          descent_depth=codim - c))
        assert a.status == b.status == "smooth"
        assert a.stats == b.stats
    # a chart started at depth d0 with relative codimension c_rel0: to_codim
    # c switches where descent_depth d0 + max(0, c_rel0 - c) does, so the
    # same charts reach the embedded step
    from varsmooth import driver
    embedded = []
    real = driver.embedded_frame_tasks

    def spy(chart, enum, d_x, budget=None):
        embedded.append((chart.depth, chart.ambient.fingerprint(),
                         str(chart.localizer)))
        return real(chart, enum, d_x, budget=budget)

    monkeypatch.setattr(driver, "embedded_frame_tasks", spy)
    started = _rnc_started_charts()
    assert {chart.depth for chart in started} == {1, 2, 3}
    reached = 0
    for chart in started:
        c_rel0 = (chart.ring.nvars - len(chart.ambient.generators)
                  - krull_dimension(chart.variety))
        for c in range(c_rel0 + 2):
            runs = []
            for cfg in (Config(mode="hybrid", to_codim=c),
                        Config(mode="hybrid", descent_depth=chart.depth
                               + max(0, c_rel0 - c))):
                del embedded[:]
                v = run_parallel([chart], cfg)
                runs.append((v.status, v.stats, sorted(embedded)))
            a, b = runs
            assert a == b and a[0] == "smooth", (chart, c)
            reached += bool(a[2])
    assert reached


def test_max_depth_bounded_by_codimension():
    for ideal in (circle_ideal(), two_points_ideal(), x2_cone_ideal()):
        codim = ideal.ring.nvars - krull_dimension(ideal)
        v = smoothness_test(ideal, Config(mode="hironaka",
                                          combinations=False))
        assert v.stats["max_depth"] <= codim


def test_indeterminate_on_tiny_limits():
    # the cone at the origin is singular there, which radical membership
    # reads off the constant terms before any basis is built; moved off the
    # origin, its criterion needs a basis, and no time is left for one
    clear_caches()
    assert smoothness_test(x2_cone_moved_ideal(),
                           Config(mode="jacobian")).status == "singular"
    clear_caches()
    v = smoothness_test(x2_cone_moved_ideal(),
                        Config(mode="jacobian", limits=Limits(time_s=0.0)))
    assert v.status == "indeterminate"
    assert "limit" in v.reason
    assert v.reason_kind == v.as_report()["reason_kind"] == "limit"
    clear_caches()
    w = smoothness_test(x2_cone_ideal(),
                        Config(mode="hironaka", limits=Limits(time_s=0.0)))
    assert w.status == "indeterminate"
    assert w.reason_kind == "limit"


def test_seeded_runs_leave_reports_unchanged(monkeypatch):
    # a seeded engine run must return what a cold run on the whole ideal
    # returns: run every seeded run cold, on the seed rows and the new
    # generators, and the reports must not change
    from varsmooth import groebner
    engine = groebner._engine

    def cold(ring, gens_raw, budget, seed=()):
        rows = [((d[0],) + d[2], (d[1],) + d[3]) for d in seed]
        return engine(ring, rows + list(gens_raw), budget)

    # each group: the projective run of I1-5, over QQ or F_32003, and each
    # of its charts by itself, which also runs the charts the projective
    # run skips as covered
    groups = []
    for rnc5 in (rational_normal_curve(5).ideal, _rnc_over("F32003", 5)):
        for mode, opts in (("hironaka", {}), ("hybrid", {"to_codim": 1}),
                           ("jacobian", {})):
            cfg = Config(mode=mode, **opts)
            groups.append([(projective_smoothness, rnc5, cfg)]
                          + [(smoothness_test, chart, cfg)
                             for chart in chart_ideals(rnc5)])
    groups.append([(smoothness_test, two_points_ideal(),
                    Config(combinations=False))])
    for group in groups:
        seeded_runs = 0
        for runner, ideal, cfg in group:
            clear_caches()
            seeded = runner(ideal, cfg)
            seeded_runs += seeded.timing["gb_runs_seeded"]
            assert seeded.timing["gb_runs_seeded"] <= seeded.timing["gb_runs"]
            with monkeypatch.context() as m:
                m.setattr(groebner, "_engine", cold)
                clear_caches()
                plain = runner(ideal, cfg)
            assert (json.dumps(seeded.as_report())
                    == json.dumps(plain.as_report()))
            assert seeded.timing["gb_runs"] == plain.timing["gb_runs"]
        assert seeded_runs > 0, cfg


@pytest.mark.parametrize("d, opts, runs", [
    (6, {}, (27, 16)), (6, {"mode": "hybrid", "to_codim": 2}, (22, 11)),
    (7, {}, (35, 23)), (7, {"mode": "hybrid", "to_codim": 2}, (30, 18))])
def test_cold_engine_runs_and_seeded_runs(d, opts, runs):
    # (gb_runs, gb_runs_seeded) of a cold run: every seed comes from the
    # cache, the Rabinowitsch runs' from the lifted bases cached there
    clear_caches()
    v = projective_smoothness(rational_normal_curve(d).ideal, Config(**opts))
    assert v.status == "smooth"
    assert (v.timing["gb_runs"], v.timing["gb_runs_seeded"]) == runs


def test_reason_kind_tells_preconditions_and_crashes_apart(monkeypatch):
    from varsmooth import driver
    from varsmooth.errors import DescentError
    assert smoothness_test(cusp_ideal(), Config()).reason_kind is None

    def raising(exc):
        def embedded_frame_tasks(*args, **kwargs):
            raise exc
        return embedded_frame_tasks

    for exc, kind in ((DescentError("no cover"), "precondition"),
                      (ZeroDivisionError("bug"), "internal")):
        clear_caches()
        monkeypatch.setattr(driver, "embedded_frame_tasks", raising(exc))
        w = smoothness_test(circle_ideal(), Config(mode="jacobian"))
        assert (w.status, w.reason_kind) == ("indeterminate", kind), w.reason


def test_witness_contents():
    v = smoothness_test(cusp_ideal(), Config(mode="hironaka"))
    w = v.witness
    assert w.kind == "delta"
    assert w.depth == 0
    assert w.path == (0,)
    d = w.as_dict()
    assert d["kind"] == "delta"
    assert isinstance(d["ambient"], str) and isinstance(d["variety"], str)
    # the Jacobian baseline fails on the minor frame that its root chart's
    # step spawns: the chart's one frame, with no columns
    vj = smoothness_test(cusp_ideal(), Config(mode="jacobian"))
    assert (vj.witness.path, vj.witness.kind) == ((0, 0), "jacobian")
    assert vj.witness.as_dict()["frame_cols"] == []
    vh = smoothness_test(cusp_ideal(), Config(mode="hybrid",
                                              descent_depth=0))
    assert vh.witness.kind in ("delta", "jacobian")


def test_report_shape():
    v = smoothness_test(circle_ideal(), Config())
    rep = v.as_report()
    assert set(rep) == {"status", "mode", "witness", "stats", "reason",
                        "reason_kind"}
    assert rep["status"] == "smooth" and rep["witness"] is None
    assert rep["reason_kind"] is None
    rep_t = v.as_report(include_timing=True)
    assert set(rep_t["timing"]) == {"wall_s", "sim_parallel_s",
                                    "sequential_s", "gb_runs",
                                    "gb_runs_seeded"}
    assert not {"gb_runs", "gb_runs_seeded"} & set(rep["stats"])
    assert rep_t["timing"]["sim_parallel_s"] <= \
        rep_t["timing"]["sequential_s"] + 1e-9
    assert isinstance(Verdict.__slots__ if hasattr(Verdict, "__slots__")
                      else rep, (tuple, dict))


def test_observer_cover_reports_verifiable_covers():
    from varsmooth.groebner import Ideal as Id

    class Covers(Observer):
        def __init__(self):
            self.rows = []

        def on_cover(self, path, chart, enum):
            self.rows.append((chart, enum))

    probe = Covers()
    v = smoothness_test(two_points_ideal(),
                        Config(mode="hironaka", combinations=False),
                        observer=probe)
    assert v.status == "smooth"
    assert probe.rows
    for chart, enum in probe.rows:
        assert enum.cover_complete
        total = Id(chart.ring, list(chart.ambient.generators)
                   + [fr.q for fr in enum.frames])
        assert radical_membership(chart.localizer, total)


def test_run_parallel_multiple_roots():
    c1 = Chart.root(circle_ideal())
    c2 = Chart.root(cusp_ideal())
    v = run_parallel([c1, c2], Config(mode="hironaka"))
    assert v.status == "singular"
    assert v.witness.path[0] == 1  # second root hosts the failure
    v2 = run_parallel([c1], Config(mode="hironaka"))
    assert v2.status == "smooth"


def test_run_parallel_rejects_an_empty_chart_list():
    # no chart checks nothing, which must not read as smooth
    with pytest.raises(ContractError):
        run_parallel([], Config())


class _Clock:
    """A monotonic clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


class _Starts(Observer):
    def __init__(self):
        self.paths = []

    def on_task_start(self, path, kind):
        self.paths.append(path)


def _nodal_cubic():
    ring = Ring(QQ, ("X", "Y", "Z"))
    X, Y, Z = variables(ring)
    return Ideal(ring, [Y * Y * Z - X * X * (X + Z)])


@pytest.mark.parametrize("ideal, opts, status, tasks, critical", [
    (_nodal_cubic(), {}, "singular", 10, 4),
    (rational_normal_curve(4).ideal, {}, "smooth", 15, 6),
    (rational_normal_curve(5).ideal, {"mode": "hybrid", "to_codim": 2},
     "smooth", 24, 8),
])
def test_tasks_run_in_path_order_on_the_critical_path_clock(
        monkeypatch, ideal, opts, status, tasks, critical):
    # every task lasts one clock unit: sequential_s counts the tasks, and
    # sim_parallel_s is the longest chain of tasks each waiting on the last
    # (a frame on its chart, a step on its chart and frames, a child on its
    # step)
    from varsmooth import driver
    monkeypatch.setattr(driver, "time", _Clock())
    clear_caches()
    starts = _Starts()
    v = projective_smoothness(ideal, Config(**opts), observer=starts)
    assert v.status == status
    assert len(starts.paths) == tasks
    assert v.timing["sequential_s"] == tasks
    assert v.timing["sim_parallel_s"] == critical
    assert all(a < b for a, b in zip(starts.paths, starts.paths[1:]))


def test_projective_requires_two_variables():
    r1 = Ring(QQ, ("x",))
    with pytest.raises(ContractError):
        projective_smoothness(Ideal(r1, [Polynomial.variable(r1, 0)]),
                              Config())


def test_projective_smooth_curves():
    r4 = Ring(QQ, ("a", "b", "c", "d"))
    a, b, c, d = variables(r4)
    tw = Ideal(r4, [a * c - b * b, b * d - c * c, a * d - b * c])
    for mode in ("hironaka", "jacobian"):
        assert projective_smoothness(tw, Config(mode=mode)).status == \
            "smooth"
    r3 = Ring(QQ, ("X", "Y", "Z"))
    X, Y, Z = variables(r3)
    conic = Ideal(r3, [X * X + Y * Y - Z * Z])
    assert projective_smoothness(conic, Config()).status == "smooth"


def test_finite_field_variety():
    ring = Ring(GF(32003), ("x", "y"))
    x, y = variables(ring)
    cusp = Ideal(ring, [y * y - x * x * x])
    circ = Ideal(ring, [x * x + y * y - 1])
    for mode in MODES:
        assert smoothness_test(cusp, Config(mode=mode)).status == "singular"
        assert smoothness_test(circ, Config(mode=mode)).status == "smooth"


def test_seed_changes_combination_draws_not_verdict():
    ideal = two_points_ideal()
    verdicts = set()
    for seed in range(4):
        v = smoothness_test(ideal, Config(mode="hironaka", seed=seed))
        verdicts.add(v.status)
    assert verdicts == {"smooth"}


def test_projective_roots_are_built_when_their_task_runs(monkeypatch):
    from varsmooth import driver
    from varsmooth.bench import (cyclic_polytope_sr,
                                 random_coordinate_change)
    from varsmooth.errors import NonHomogeneousError
    built = []
    real = driver.dehomogenize

    def spy(f, i):
        built.append(i)
        return real(f, i)

    monkeypatch.setattr(driver, "dehomogenize", spy)
    inst = random_coordinate_change(cyclic_polytope_sr(3, 6), 0, 4)
    v = projective_smoothness(inst.ideal, Config())
    assert v.status == "singular" and v.witness.path[0] == 0
    assert set(built) == {0}   # the other root charts were pruned unbuilt
    # inhomogeneous input is still refused before any chart runs
    ring = Ring(QQ, ("x", "y", "z"))
    x, y, z = variables(ring)
    del built[:]
    with pytest.raises(NonHomogeneousError):
        projective_smoothness(Ideal(ring, [x * y - z]), Config())
    assert built == []


# -- root charts: a chart the charts before it cover ---------------------------


def _charts_in_order(ideal, cfg):
    """The projective verdict read off the standard affine charts, each run
    by itself: the status of the first chart that is not smooth, and its
    index, or smooth and None."""
    for i, chart in enumerate(chart_ideals(ideal)):
        status = smoothness_test(chart, cfg).status
        if status != "smooth":
            return status, i
    return "smooth", None


def test_covered_root_charts_keep_the_verdict_and_the_witness(monkeypatch):
    # root chart i > 0 passes with no frame when 1 lies in
    # I_i + (x_0, ..., x_{i-1}); the verdict must be the one the charts
    # give one by one, a witness must lie on the first chart that fails,
    # and each chart taken as covered must be covered in the homogeneous
    # ring: x_i lies in the radical of I + (x_0, ..., x_{i-1})
    from varsmooth import driver
    from varsmooth.bench import (cyclic_polytope_sr, random_coordinate_change,
                                 veronese_ci)
    covered = []    # root chart indices whose cover query said yes
    real = driver.radical_membership

    def spy(f, target, budget=None):
        answer = real(f, target, budget=budget)
        if answer and len(budget.task_path) == 1:
            covered.append(budget.task_path[0])
        return answer

    monkeypatch.setattr(driver, "radical_membership", spy)
    all_modes = [Config(), Config(mode="hybrid", to_codim=2),
                 Config(mode="jacobian")]
    cases = [(f"rnc{d}", rational_normal_curve(d).ideal, all_modes,
              set(range(1, d))) for d in (3, 4, 5)]
    cases += [("X2", veronese_ci().ideal, all_modes, None),
              ("emptyroot", _empty_root_ideal(), all_modes, {1}),
              ("rnc3-cc", random_coordinate_change(
                  rational_normal_curve(3), 0).ideal, all_modes[:2], {2, 3})]
    for d, n in ((3, 6), (3, 7)):
        cases.append((f"cyclic{d}{n}-cc", random_coordinate_change(
            cyclic_polytope_sr(d, n), 0).ideal, all_modes[:2], set()))
    seen = 0
    for name, ideal, cfgs, want in cases:
        ring = ideal.ring
        xs = variables(ring)
        for cfg in cfgs:
            label = (name, cfg.mode)
            del covered[:]
            log = _Starts()
            v = projective_smoothness(ideal, cfg, observer=log)
            status, first = _charts_in_order(ideal, cfg)
            assert v.status == status, label
            if status == "singular":
                assert v.witness.path[0] == first, (label, v.witness.path)
            if want is not None:
                assert set(covered) == want, (label, covered)
            for i in covered:
                assert i > 0 and (i,) in log.paths, (label, i)
                # a covered chart spawns nothing
                assert not [p for p in log.paths
                            if len(p) > 1 and p[0] == i], (label, i)
                assert radical_membership(
                    xs[i], Ideal(ring, [*ideal.generators, *xs[:i]])), \
                    (label, i)
            seen += len(covered)
    assert seen > 20, seen


def test_no_earlier_root_tree_is_alive_when_a_root_starts():
    # a root chart's tree, its Partials table with it, is released once
    # the root's walk is done
    import gc
    from varsmooth.matrix import Partials

    def tables():
        gc.collect()
        return sum(isinstance(o, Partials) for o in gc.get_objects())

    class Count(Observer):
        def __init__(self):
            self.alive = {}

        def on_task_start(self, path, kind):
            if len(path) == 1:
                self.alive[path] = tables()

    from varsmooth.bench import random_coordinate_change
    cases = [(rational_normal_curve(7).ideal, Config()),
             (rational_normal_curve(7).ideal, Config(mode="jacobian")),
             (random_coordinate_change(rational_normal_curve(3), 0).ideal,
              Config(mode="hybrid"))]
    for ideal, cfg in cases:
        before = tables()
        count = Count()
        assert projective_smoothness(ideal, cfg, observer=count).status == \
            "smooth"
        assert len(count.alive) == ideal.ring.nvars
        assert set(count.alive.values()) == {before}, (cfg.mode, count.alive)


# -- root charts: the order-one check before the dimension ---------------------


class _Log(Observer):
    """Engine starts, commits and task starts, in the order they fire."""

    def __init__(self):
        self.events = []
        self.kinds = {}

    def on_gb_start(self, path):
        self.events.append("gb")

    def on_commit(self, path):
        self.events.append("commit")

    def on_task_start(self, path, kind):
        self.kinds.setdefault(path, []).append(kind)


_ROOT_MODES = ({"mode": "hironaka"}, {"mode": "hybrid"},
               {"mode": "hybrid", "to_codim": 2})


def test_root_chart_witnesses_fail_the_classical_criterion():
    """Every depth-0 witness names its root chart x_i = 1: the chart rebuilt
    from the path's first entry has the witness's variety fingerprint, and
    the classical Jacobian criterion, run on it apart from the driver
    (criterion_on_every_minor), fails there.  The Jacobian baseline's
    witnesses are audited too, on the inputs where the criterion runs.  On
    the coordinate-changed cyclic inputs only the fingerprint is checked,
    and the baseline does not run: on swollen normal forms the criterion
    takes about 5 s on the first root chart of I4-6-3-cc (2-vCPU x86-64,
    Python 3.11), as does the baseline on the whole input, and over two
    minutes on the first root chart of I4-7-3-cc."""
    from varsmooth.bench import (cyclic_polytope_sr, random_coordinate_change,
                                 veronese_ci)
    cases = [(_nodal_cubic(), True), (veronese_ci().ideal, True)]
    for d, n in ((3, 6), (3, 7)):
        base = cyclic_polytope_sr(d, n)
        cases.append((base.ideal, True))
        cases.append((random_coordinate_change(base, 0).ideal, False))
    audited = criteria = 0
    for ideal, run_criterion in cases:
        modes = _ROOT_MODES + (({"mode": "jacobian"},) if run_criterion
                               else ())
        for opts in modes:
            w = projective_smoothness(ideal, Config(**opts)).witness
            assert w is not None
            if w.depth:
                continue
            chart = chart_ideals(ideal)[w.path[0]]
            assert (w.variety, w.ambient, w.localizer) == (
                chart.fingerprint(), Ideal(chart.ring, []).fingerprint(),
                "1"), (opts, w.path)
            audited += 1
            if run_criterion:
                assert not criterion_on_every_minor(chart), (opts, w.path)
                criteria += 1
    assert (audited, criteria) == (21, 15)


class _Covers(Observer):
    """(chart, enumeration) of every covered chart, keyed by its path."""

    def __init__(self):
        self.charts = {}

    def on_cover(self, path, chart, enumeration):
        self.charts[path] = (chart, enumeration)


def test_witnesses_below_the_root_fail_the_classical_criterion():
    """Every golden case whose witness lies at depth >= 1 names a chart the
    run reported: the one at the longest reported path that is a prefix of
    the witness's path has its fingerprints and a frame with its columns.
    A failed delta or minor check puts a singular point of X inside
    D(q*g), so the frame's test q*g is not in the radical of I_X plus
    every c-minor of the Jacobian of I_X reduced mod I_X, c = n - dim I_X.
    """
    from varsmooth.bench import veronese_ci
    from varsmooth.matrix import iter_minors, jacobian
    x2 = veronese_ci().ideal
    cases = [("x2/hironaka", projective_smoothness, x2, {}),
             ("x2/hybrid-descents2", projective_smoothness, x2,
              {"mode": "hybrid", "descent_depth": 2}),
             ("nodal/hironaka", smoothness_test, _nodal_space_curve(), {}),
             ("emptyroot/hironaka", projective_smoothness,
              _empty_root_ideal(), {})]
    depths = {}
    for name, runner, ideal, opts in cases:
        clear_caches()
        covers = _Covers()
        w = runner(ideal, Config(**opts), observer=covers).witness
        assert w is not None and w.depth >= 1, name
        path = max((p for p in covers.charts if w.path[:len(p)] == p),
                   key=len)
        chart, enum = covers.charts[path]
        assert (w.ambient, w.variety, w.localizer) == (
            chart.ambient.fingerprint(), chart.variety.fingerprint(),
            str(chart.localizer)), name
        frame, = [fr for fr in enum.frames if fr.cols == w.frame_cols]
        i_x = chart.variety
        ring = i_x.ring
        c = ring.nvars - krull_dimension(i_x)
        mins = iter_minors(jacobian(ring, i_x.generators), c,
                           reducer=buchberger(i_x).normal_form)
        assert not radical_membership(
            frame.test, Ideal(ring, [*i_x.generators, *mins])), name
        depths[name] = w.depth
    assert depths == {"x2/hironaka": 1, "x2/hybrid-descents2": 1,
                      "nodal/hironaka": 1, "emptyroot/hironaka": 2}


@pytest.mark.parametrize("opts", [{"mode": "hironaka"},
                                  {"mode": "hybrid", "to_codim": 2}])
def test_singular_root_chart_commits_after_one_groebner_run(monkeypatch,
                                                            opts):
    from varsmooth import driver, groebner
    from varsmooth.bench import cyclic_polytope_sr, random_coordinate_change
    ideal = random_coordinate_change(cyclic_polytope_sr(3, 7), 0).ideal
    dims = []
    real = groebner.krull_dimension

    def counted(*args, **kwargs):
        dims.append(args)
        return real(*args, **kwargs)

    for module in (driver, groebner):
        monkeypatch.setattr(module, "krull_dimension", counted)
    clear_caches()
    log = _Log()
    base = projective_smoothness(ideal, Config(**opts), observer=log)
    assert base.status == "singular"
    assert (base.witness.path, base.witness.kind) == ((0, 0), "delta")
    assert log.events == ["gb", "commit"]
    assert dims == []
    assert base.stats["gb_queries"] == 1
    for jobs in (1, 2, 8):
        v = projective_smoothness(ideal, Config(jobs=jobs, **opts))
        assert v.witness == base.witness, jobs
        assert v.stats == base.stats, jobs
    assert dims == []


def _empty_root_ideal():
    # the chart W = 1 is cut out by 1 - X and 1 + X: empty, although no
    # generator is constant; the ideal is (W, X, Y^2), a double point
    ring = Ring(QQ, ("X", "Y", "Z", "W"))
    X, Y, Z, W = variables(ring)
    return Ideal(ring, [W - X, W + X, X * Z - Y * Y])


def _empty_root_point():
    # the same empty chart W = 1 on a radical ideal: the reduced point
    ring = Ring(QQ, ("X", "Y", "Z", "W"))
    X, Y, Z, W = variables(ring)
    return Ideal(ring, [W - X, W + X, Y])


# (input, config) -> (status, witness (path, depth, kind, cols) or None,
# stats).  Paths and witnesses are those of the order that computed every
# chart's dimension first; each empty root chart now runs its one frame
# before its dimension (frames and gb_queries +1 each), a chart that fails
# its first frame skips its dimension (gb_queries -1), and the zero ideal
# exits without a basis (gb_queries -1).  A hybrid frame check stops at the
# first minor that proves it: the nodal cubic's two smooth embedded charts
# form one of their two minors each (minors 4 -> 2).  A radical membership
# decided by a unit generator or by the origin is not a Groebner query, and
# a descended chart takes its dimension from its parent's step and asks
# neither whether its variety equals its ambient nor whether its ambient
# lies in the variety, so the gb_queries here are those the certificates
# leave.  A descended chart that will descend again searches for a smooth
# generator before its frames: the double point's failing depth-2 chart in
# hironaka asks its failed search's query before its frame fails
# (gb_queries 5 -> 6).  A root chart that the root charts before it cover
# runs no frame and no dimension, only its cover query: Y = 1 of the double
# point, covered by X = 1, and W = 1 of the point, covered by X = 1 and
# Z = 1 (frames -1 each; gb_queries unchanged, as the cover query takes
# the place of one query of the chart it skips, or of none on Y = 1 of the
# point, whose constant generator 1 answers it).  The Jacobian baseline
# runs as the relative criterion on each root chart's one frame, in a
# minor frame task under the chart's step: every root chart that reaches
# its step counts that frame (the empty chart X = 1 stops at its dimension
# first), and a witness names it at (i, 0, 0).
_EDGE = {
    ("double point", "hironaka"): (
        "singular", ((2, 1, 0, 1, 0, 0), 2, "delta", (0, 2)),
        {"charts": 5, "frames": 4, "gb_queries": 6, "max_depth": 2,
         "minors": 0, "minors_possible": 0}),
    ("double point", "hybrid"): (
        "singular", ((2, 1, 0), 0, "jacobian", ()),
        {"charts": 3, "frames": 3, "gb_queries": 4, "max_depth": 0,
         "minors": 1, "minors_possible": 1}),
    ("double point", "hybrid-1"): (
        "singular", ((2, 1, 0, 1, 0, 0), 2, "delta", (0, 2)),
        {"charts": 5, "frames": 4, "gb_queries": 5, "max_depth": 2,
         "minors": 0, "minors_possible": 0}),
    ("double point", "jacobian"): (
        "singular", ((2, 0, 0), 0, "jacobian", ()),
        {"charts": 3, "frames": 1, "gb_queries": 4, "max_depth": 0,
         "minors": 1, "minors_possible": 1}),
    ("point", "hironaka"): (
        "smooth", None,
        {"charts": 7, "frames": 4, "gb_queries": 6, "max_depth": 3,
         "minors": 0, "minors_possible": 0}),
    ("point", "hybrid"): (
        "smooth", None,
        {"charts": 4, "frames": 3, "gb_queries": 4, "max_depth": 0,
         "minors": 1, "minors_possible": 1}),
    ("point", "hybrid-1"): (
        "smooth", None,
        {"charts": 6, "frames": 5, "gb_queries": 6, "max_depth": 2,
         "minors": 1, "minors_possible": 1}),
    ("point", "jacobian"): (
        "smooth", None,
        {"charts": 4, "frames": 1, "gb_queries": 4, "max_depth": 0,
         "minors": 1, "minors_possible": 1}),
    ("nodal cubic", "hironaka"): (
        "singular", ((2, 0), 0, "delta", ()),
        {"charts": 5, "frames": 3, "gb_queries": 9, "max_depth": 1,
         "minors": 0, "minors_possible": 0}),
    ("nodal cubic", "hybrid"): (
        "singular", ((2, 0), 0, "delta", ()),
        {"charts": 3, "frames": 5, "gb_queries": 8, "max_depth": 0,
         "minors": 2, "minors_possible": 4}),
    ("nodal cubic", "hybrid-1"): (
        "singular", ((2, 0), 0, "delta", ()),
        {"charts": 3, "frames": 5, "gb_queries": 8, "max_depth": 0,
         "minors": 2, "minors_possible": 4}),
    ("nodal cubic", "jacobian"): (
        "singular", ((2, 0, 0), 0, "jacobian", ()),
        {"charts": 3, "frames": 3, "gb_queries": 8, "max_depth": 0,
         "minors": 4, "minors_possible": 6}),
}

_EDGE_CONFIGS = {"hironaka": Config(mode="hironaka"),
                 "hybrid": Config(mode="hybrid"),
                 "hybrid-1": Config(mode="hybrid", to_codim=1),
                 "jacobian": Config(mode="jacobian")}


def test_empty_ambient_edge_cases(monkeypatch):
    from varsmooth import driver
    events = []   # ("dimension" | "descend" | "embedded", task path) and
    # ("done", path, kind, passed), in the order they happen

    def recording(name, fn):
        def wrapped(*args, budget=None, **kwargs):
            events.append((name, budget.task_path))
            return fn(*args, budget=budget, **kwargs)
        return wrapped

    class Done(_Log):
        def on_task_done(self, path, kind, passed):
            events.append(("done", path, kind, passed))

    monkeypatch.setattr(driver, "krull_dimension",
                        recording("dimension", driver.krull_dimension))
    monkeypatch.setattr(driver, "descend",
                        recording("descend", driver.descend))
    monkeypatch.setattr(driver, "embedded_frame_tasks",
                        recording("embedded", driver.embedded_frame_tasks))
    inputs = {"double point": _empty_root_ideal(),
              "point": _empty_root_point(),
              "nodal cubic": _nodal_cubic()}
    for (name, label), (status, witness, stats) in _EDGE.items():
        del events[:]
        log = Done()
        v = projective_smoothness(inputs[name], _EDGE_CONFIGS[label],
                                  observer=log)
        assert v.status == status, (name, label)
        w = v.witness
        got = w and (w.path, w.depth, w.kind, w.frame_cols)
        assert got == witness, (name, label)
        assert v.stats == stats, (name, label, v.stats)
        dims = [e[1] for e in events if e[0] == "dimension"]
        # the embedded frames start only in step tasks, and the descent in
        # a step or in the task of a chart whose search found a smooth
        # generator, which then runs no frame and no step of its own
        for e in events:
            if e[0] == "embedded":
                assert log.kinds[e[1]] == ["step"], (name, label, e)
            elif e[0] == "descend" and log.kinds[e[1]] != ["step"]:
                path = e[1]
                assert log.kinds[path] == ["chart"] and path, (name, label, e)
                assert not [p for p in log.kinds if len(p) == len(path) + 1
                            and p[:len(path)] == path], (name, label, e)
        # a root chart has an empty ambient: its one frame runs at (i, 0)
        # before any dimension, which its step at (i, 1) computes; the
        # baseline runs no delta frame, so its step is at (i, 0); a
        # descended chart keeps the variety, and its parent's step hands
        # down the dimension, so no other task computes one
        k = 0 if label == "jacobian" else 1
        steps = [(i, k) for i in range(inputs[name].ring.nvars)
                 if (i, k) in log.kinds]
        assert dims == steps, (name, label, dims)
        for step in steps:
            assert log.kinds[step] == ["step"], (name, label, step)
            if k:
                frame = (step[0], 0)
                assert log.kinds[frame] == ["frame"], (name, label, step)
                at = events.index(("dimension", step))
                assert ("done", frame, "frame", True) in events[:at], (
                    name, label, step)
        # a chart's step reuses the dimension its chart task computed
        assert len(set(dims)) == len(dims), (name, label, dims)
    # hybrid to_codim=1 on a plane curve: codimension 1, so each root chart
    # whose frame passed goes embedded at once, in the step that computed
    # its dimension
    del events[:]
    log = Done()
    projective_smoothness(_nodal_cubic(), _EDGE_CONFIGS["hybrid-1"],
                          observer=log)
    assert log.kinds[(0, 1)] == log.kinds[(1, 1)] == ["step"]
    for path in ((0, 1), (1, 1)):
        at = events.index(("dimension", path))
        assert events[at + 1] == ("embedded", path), path
    assert (2, 1) not in log.kinds   # chart Z = 1 failed its frame first
    # the zero ideal is the whole space: smooth with no basis at all
    ring, x, y = _r2()
    for label, cfg in _EDGE_CONFIGS.items():
        v = smoothness_test(Ideal(ring, []), cfg)
        assert v.status == "smooth", label
        assert v.stats == {"charts": 1, "frames": 0, "gb_queries": 0,
                           "max_depth": 0, "minors": 0,
                           "minors_possible": 0}, label


def test_embedded_step_reuses_the_chart_frames(monkeypatch):
    # the embedded step stacks each frame's relative Jacobian from the rows
    # its chart task kept: no chart is enumerated twice, no generator's row
    # on a frame is formed twice, and each chart reports its cover once
    from varsmooth import charts, driver
    from varsmooth.bench import rational_normal_curve
    enumerated = []   # the chart of every enumerate_frames call
    rebuilt = []      # (chart, frame columns, generators) of every
    # relative_jacobian call
    embedded = []
    real_enum = charts.enumerate_frames
    real_rel = charts.relative_jacobian
    real_embedded = driver.embedded_frame_tasks

    def enum_spy(chart, *args, **kwargs):
        enumerated.append(chart)
        return real_enum(chart, *args, **kwargs)

    def rel_spy(polys, chart, frame):
        rebuilt.append((id(chart), frame.cols, tuple(polys)))
        return real_rel(polys, chart, frame)

    def embedded_spy(chart, enum, *args, **kwargs):
        embedded.append(chart)
        return real_embedded(chart, enum, *args, **kwargs)

    class Covers(Observer):
        def __init__(self):
            self.charts = []

        def on_cover(self, path, chart, enum):
            assert enum.cover_complete
            self.charts.append(chart)

    monkeypatch.setattr(charts, "enumerate_frames", enum_spy)
    monkeypatch.setattr(charts, "relative_jacobian", rel_spy)
    monkeypatch.setattr(driver, "embedded_frame_tasks", embedded_spy)
    for jobs in (1, 2):
        del enumerated[:], rebuilt[:], embedded[:]
        covers = Covers()
        v = projective_smoothness(rational_normal_curve(6).ideal,
                                  Config(mode="hybrid", to_codim=2,
                                         jobs=jobs),
                                  observer=covers)
        assert v.status == "smooth"
        assert embedded, jobs   # the run reaches embedded steps
        assert all(any(c is e for e in enumerated) for c in embedded), jobs
        # once per chart: the charts are kept alive here, so ids are unique
        assert len({id(c) for c in enumerated}) == len(enumerated), jobs
        assert len(enumerated) <= v.stats["charts"], jobs
        assert len({id(c) for c in covers.charts}) == len(covers.charts)
        assert {id(c) for c in covers.charts} == {id(c) for c in enumerated}
        assert len(set(rebuilt)) == len(rebuilt), jobs


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("cfg", [Config(), Config(mode="hybrid", to_codim=2)],
                         ids=["hironaka", "hybrid"])
def test_each_partial_is_formed_once_per_run(monkeypatch, cfg, jobs):
    # every chart of a tree reads its partials from the tree's one table;
    # on the combo input, over QQ and F_32003, the descent takes a random
    # combination, which is differentiated when its rows are first read
    seen = []
    taken = []      # the combinations the descent takes
    derivative, gradient = Polynomial.derivative, matrix._gradient
    smooth_on_frames = charts.smooth_on_frames

    def spy_derivative(f, i):
        seen.append((f, i))
        return derivative(f, i)

    def spy_gradient(f, p):
        seen.extend((f, i) for i in range(f.ring.nvars))
        return gradient(f, p)

    def spy_smooth(chart, enum, f, budget=None):
        smooth = smooth_on_frames(chart, enum, f, budget=budget)
        if smooth and f not in chart.variety.generators:
            taken.append(f)
        return smooth

    monkeypatch.setattr(Polynomial, "derivative", spy_derivative)
    monkeypatch.setattr(matrix, "_gradient", spy_gradient)
    monkeypatch.setattr(charts, "smooth_on_frames", spy_smooth)
    runs = [("rnc6", projective_smoothness, rational_normal_curve(6).ideal,
             Config(mode=cfg.mode, to_codim=cfg.to_codim, jobs=jobs))]
    # the hybrid takes its combination at depth 1, below to_codim=2's switch
    runs += [(f"combo {field}", smoothness_test, _combo_over(field),
              Config(mode=cfg.mode, descent_depth=2, jobs=jobs))
             for field in ("QQ", "F32003")]
    for name, runner, ideal, run_cfg in runs:
        seen.clear()
        taken.clear()
        v = runner(ideal, run_cfg)
        assert v.status == "smooth", name
        assert name != "rnc6" or v.stats["charts"] > 7
        assert seen and bool(taken) == (name != "rnc6"), name
        assert all((f, 0) in seen for f in taken), name
        twice = [key for key, n in Counter(seen).items() if n > 1]
        assert not twice, (name, [(str(f), i) for f, i in twice])


def _combo_over(field_text):
    # no single generator is smooth on the depth-1 chart (see the golden
    # report cases combo/hironaka and combop/hironaka)
    return parse_ideal_file(f"ring {field_text} [x, y, z]\n"
                            "x*y + x\nx*y + y\nz - x\n")[1]


def _rnc_over(field_text, d):
    text = ideal_file_text(rational_normal_curve(d).ideal)
    return parse_ideal_file(text.replace("ring QQ", f"ring {field_text}"))[1]


def _nodal_space_curve():
    ring = Ring(QQ, ("x", "y", "z"))
    x, y, z = variables(ring)
    return Ideal(ring, [z - x * y, y * y - x * x * (x + 1)])


def test_a_smooth_generator_settles_every_delta_check_it_skips(monkeypatch):
    # a chart task whose search finds a generator smooth on every frame
    # runs none of its delta checks; each of them, run here against the
    # eagerly formed delta ideal, must pass
    from varsmooth import charts, driver
    settled = []    # (chart, enumeration) of every chart settled that way
    real = driver.smooth_generator

    def spy(chart, enum, budget=None):
        found = real(chart, enum, budget=budget)
        if found[2] is not None:
            settled.append((chart, enum))
        return found

    monkeypatch.setattr(driver, "smooth_generator", spy)
    runs = []       # (label, verdict status, expected status)
    for field in ("QQ", "F32003"):
        for d in (4, 5, 6):
            for cfg in (Config(), Config(mode="hybrid", to_codim=2)):
                for i, chart in enumerate(chart_ideals(_rnc_over(field, d))):
                    v = smoothness_test(chart, cfg)
                    runs.append((f"rnc{d} {field} {cfg.mode} x{i} = 1",
                                 v.status, "smooth"))
    rnc_settled = len(settled)
    for inst in corpus50():
        for cfg in (Config(), Config(mode="hybrid", to_codim=2)):
            v = smoothness_test(inst.ideal, cfg)
            runs.append((f"{inst.name} {cfg.mode}", v.status, inst.expected))
    # singular inputs whose first failure is a delta frame below the root
    for cfg in (Config(), Config(mode="hybrid", descent_depth=2)):
        v = projective_smoothness(x2_cone_ideal(), cfg)
        runs.append((f"X2 {cfg.mode}", v.status, "singular"))
    v = smoothness_test(_nodal_space_curve())
    runs.append(("nodal space curve", v.status, "singular"))
    assert all(got == want for _, got, want in runs), runs
    assert rnc_settled > 100 and len(settled) > rnc_settled, len(settled)

    checked = 0
    for chart, enum in settled:
        assert chart.ambient.generators
        fs = [f for f in chart.variety.generators
              if f not in chart.ambient.generators]
        for frame in enum.frames:
            assert frame.chart is chart
            rel = charts.relative_jacobian(fs, chart, frame)
            delta = chart.variety.extended(rel.entries)
            assert radical_membership(frame.test, delta), (chart, frame)
            checked += 1
    assert checked >= len(settled)


@pytest.mark.parametrize("cfg", [Config(), Config(mode="hybrid", to_codim=2)],
                         ids=["hironaka", "hybrid"])
def test_each_row_is_formed_once_and_a_constant_row_ends_its_check(
        monkeypatch, cfg):
    # relative_jacobian forms one generator's row per call, each (frame,
    # generator) row at most once per run; a delta check reads its rows in
    # generator order and forms none after the first with a nonzero
    # constant entry, and then asks no radical membership
    from varsmooth import charts
    formed = []     # (frame, generator) of every relative_jacobian call
    frames = []     # keeps every frame alive, so ids stay unique
    in_check = []   # radical memberships asked inside the open check
    stopped = 0     # checks ended by a constant row
    real_rel = charts.relative_jacobian
    real_holds = charts.DeltaCheck.holds
    real_rm = charts.radical_membership

    def rel_spy(polys, chart, frame):
        polys = list(polys)
        frames.append(frame)
        formed.extend((id(frame), f) for f in polys)
        assert len(polys) == 1
        return real_rel(polys, chart, frame)

    def rm_spy(*args, **kwargs):
        in_check.append(args)
        return real_rm(*args, **kwargs)

    def holds_spy(self, budget):
        nonlocal stopped
        at = len(formed)
        del in_check[:]
        answer = real_holds(self, budget)
        mine = [f for key, f in formed[at:] if key == id(self.frame)]
        assert mine == self.fs[:len(mine)]
        constant = [i for i, f in enumerate(mine)
                    if any(e.is_constant() and not e.is_zero()
                           for e in self.frame.row(f))]
        if constant:
            assert constant == [len(mine) - 1] and answer and not in_check
            stopped += 1
        return answer

    monkeypatch.setattr(charts, "relative_jacobian", rel_spy)
    monkeypatch.setattr(charts, "radical_membership", rm_spy)
    monkeypatch.setattr(charts.DeltaCheck, "holds", holds_spy)
    clear_caches()
    v = projective_smoothness(rational_normal_curve(6).ideal, cfg)
    assert v.status == "smooth"
    assert formed and stopped
    twice = [key for key, n in Counter(formed).items() if n > 1]
    assert not twice, twice
