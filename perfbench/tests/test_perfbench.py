"""Tests of the benchmark's own machinery.

Run from the root of the checkout:  python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from varsmooth import bench  # noqa: E402
from varsmooth.groebner import GroebnerBasis  # noqa: E402
from varsmooth.poly import Polynomial  # noqa: E402


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] holds b [1, 5] and d [6, 9]; b holds c [2, 4]
    tracer = spans.Tracer(clock=_fake_clock([0, 1, 2, 4, 5, 6, 9, 10]),
                          hot={"c"})
    a = tracer.enter("a")
    b = tracer.enter("b")
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(b)
    d = tracer.enter("d")
    tracer.exit(d)
    tracer.exit(a)
    calls, self_s, _ = tracer.totals()
    assert calls == {"a": 1, "b": 1, "c": 1, "d": 1}
    assert self_s == {"a": 10 - 4 - 3, "b": 4 - 2, "c": 2, "d": 3}
    recorded = {s[2]: s for s in tracer.spans()}
    assert set(recorded) == {"a", "b", "d"}      # c is hot: counted only
    assert recorded["a"][1] is None
    assert recorded["b"][1] == recorded["a"][0]
    assert recorded["d"][1] == recorded["a"][0]
    assert (recorded["d"][5], recorded["d"][6]) == (6, 9)


def test_worker_thread_spans_parent_to_instance_span():
    tracer = spans.Tracer()
    work = tracer.wrap("work", lambda: None)
    with tracer.instance_span("x"):
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    recorded = {s[2]: s for s in tracer.spans()}
    assert recorded["work"][1] == recorded["instance"][0]
    assert recorded["work"][3] == "x"
    assert recorded["work"][4] != recorded["instance"][4]
    _, self_s, _ = tracer.totals()
    # the other thread's span does not count against the instance span
    inst = recorded["instance"]
    assert self_s["instance"] == pytest.approx(inst[6] - inst[5])


def _snapshot():
    spaces = spans._package_modules() + [Polynomial, GroebnerBasis]
    return {space: dict(vars(space)) for space in spaces}


def test_install_and_remove_leaves_every_attribute_identical():
    import varsmooth
    from varsmooth import charts, driver, groebner, matrix
    before = _snapshot()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert charts.adjugate is not before[charts]["adjugate"]
        assert charts.adjugate is matrix.adjugate is varsmooth.adjugate
        assert driver.radical_membership is groebner.radical_membership
        assert Polynomial.__radd__ is Polynomial.__add__
        assert (Polynomial.__add__
                is not before[Polynomial]["__add__"])
    after = _snapshot()
    assert before.keys() == after.keys()
    for space, attrs in before.items():
        assert attrs.keys() == after[space].keys(), space
        changed = [k for k, v in attrs.items() if after[space][k] is not v]
        assert not changed, (space, changed)


def _item(inst, mode="hironaka", **opts):
    return (f"{inst.name}/{mode}", inst, mode, opts)


def test_traced_pass_counts_every_layer_and_repeats_exactly():
    items = [_item(bench.rational_normal_curve(4)),
             _item(bench.rational_normal_curve(4), "hybrid", to_codim=2)]
    _, first, _ = run.traced_pass(items, seed=0, jobs=1)
    _, second, _ = run.traced_pass(items, seed=0, jobs=1)
    counts = {k: v for k, v in first.items() if v[1] == "count"}
    assert counts == {k: v for k, v in second.items() if v[1] == "count"}
    for name in ("charts.enumerate_frames", "charts.descend",
                 "matrix.adjugate", "groebner.buchberger",
                 "groebner.GroebnerBasis.normal_form", "poly.mul",
                 "poly.add", "kernel.reduce_terms"):
        assert first[f"{name}.calls"][0] > 0, name
    assert first["groebner.lift_power.calls"][0] == 0
    assert 0 < first["charts.frame_yield"][0] <= 1
    assert first["driver.engine_runs"][0] <= \
        first["groebner.buchberger.calls"][0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    items = [_item(bench.rational_normal_curve(3))]
    _, metrics, _ = run.traced_pass(items, seed=0, jobs=1)
    produced = set(metrics) | {"trace.verdict_s", "trace.overhead_frac"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"verdict_s", "verdict_s_max", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_wrong_expected_verdict_counts_as_failed():
    inst = bench.rational_normal_curve(3)
    items = [_item(inst), _item(replace(inst, expected="singular"))]
    recs = run.run_pass(items, seed=0, jobs=1)
    correct, attempted, failed, problems = run.check_passes([recs])
    assert not correct
    assert (attempted, failed) == (2, 1)
    assert failed / attempted == 0.5
    assert "expected singular" in problems[0]


def test_indeterminate_counts_as_failed_but_not_wrong(monkeypatch):
    monkeypatch.setattr(run, "LIMIT_S", 0.0)
    recs = run.run_pass([_item(bench.rational_normal_curve(5))], 0, 1)
    assert recs[0]["status"] == "indeterminate"
    assert "limit" in recs[0]["reason"]
    correct, attempted, failed, _ = run.check_passes([recs])
    assert correct and (attempted, failed) == (1, 1)


def test_reports_that_differ_from_the_reference_make_the_run_incorrect():
    items = [_item(bench.rational_normal_curve(3))]
    reference = run.run_pass(items, 0, 1)
    other = run.run_pass(items, 0, 2)
    assert run.check_passes([other], reference)[0]
    other[0]["report"] = dict(other[0]["report"], stats={})
    assert not run.check_passes([other], reference)[0]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rnc-descent",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
