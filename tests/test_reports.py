"""Golden reports: the JSON report of a fixed set of checks must not change.

tests/data/reports.json holds as_report() of every case below, as the CLI's
``check --json`` prints it.  A change that moves a verdict, a witness or a
stat on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/test_reports.py
"""

import json
from pathlib import Path

import pytest

from varsmooth.bench import (cyclic_polytope_sr, random_coordinate_change,
                             rational_normal_curve, veronese_ci)
from varsmooth.driver import Config, projective_smoothness, smoothness_test
from varsmooth.groebner import clear_caches
from varsmooth.parser import ideal_file_text, parse_ideal_file

DATA = Path(__file__).resolve().parent / "data" / "reports.json"


def _generated(inst):
    # the ideal as `varsmooth gen` writes it and `varsmooth check` reads it
    return parse_ideal_file(ideal_file_text(inst.ideal))[1]


def _rnc(d):
    return _generated(rational_normal_curve(d))


def _cyclic_cc(d, n):
    return _generated(random_coordinate_change(cyclic_polytope_sr(d, n), 0))


def _rnc_cc(d):
    return _generated(random_coordinate_change(rational_normal_curve(d), 0))


_TEXTS = {
    # x*(y+1) = y*(x+1) = 0: two affine points, reaching the covering step
    "points": "ring QQ [x, y]\nx*y + x\nx*y + y\n",
    # the chart X = 1 is empty with no constant generator and is settled
    # by its dimension; the chart Y = 1 is covered by X = 1, with no frame
    "emptyroot": "ring QQ [X, Y, Z, W]\nW - X\nW + X\nX*Z - Y^2\n",
    # singular at the origin, decided from constant terms
    "cone": "ring QQ [x, y, z]\nx^2 + y^2 - z^2\n",
    # a nodal space curve: smooth root frame, singular on a depth-1 chart
    "nodal": "ring QQ [x, y, z]\nz - x*y\ny^2 - x^2*x - x^2\n",
    # no single generator is smooth on the depth-1 chart, so the descent
    # takes a random linear combination of the variety generators there
    "combo": "ring QQ [x, y, z]\nx*y + x\nx*y + y\nz - x\n",
    "combop": "ring F32003 [x, y, z]\nx*y + x\nx*y + y\nz - x\n",
}


def _text(name):
    return parse_ideal_file(_TEXTS[name])[1]


_RNC_MODES = (("hironaka", {}), ("hybrid-codim2", {"mode": "hybrid",
                                                   "to_codim": 2}),
              ("jacobian", {"mode": "jacobian"}))

# name -> (ideal builder, projective, Config options)
CASES = {}
for _d in (4, 5, 6):
    for _label, _opts in _RNC_MODES:
        CASES[f"rnc{_d}/{_label}"] = (lambda d=_d: _rnc(d), True, _opts)
for _d, _n in ((3, 6), (3, 7)):
    for _mode in ("hironaka", "hybrid"):
        CASES[f"cyclic{_d}{_n}cc/{_mode}"] = (
            lambda d=_d, n=_n: _cyclic_cc(d, n), True, {"mode": _mode})
# the Jacobian baseline in general coordinates: integral minors modulo a
# basis whose normal forms carry denominators
CASES["cyclic36cc/jacobian"] = (lambda: _cyclic_cc(3, 6), True,
                                {"mode": "jacobian"})
# a curve in general position: root charts 2 and 3 are covered by 0 and 1
for _mode in ("hironaka", "hybrid"):
    CASES[f"rnc3cc/{_mode}"] = (lambda: _rnc_cc(3), True, {"mode": _mode})
CASES["points/hironaka-nocomb"] = (lambda: _text("points"), False,
                                   {"combinations": False})
for _mode in ("hironaka", "hybrid"):
    CASES[f"emptyroot/{_mode}"] = (lambda: _text("emptyroot"), True,
                                   {"mode": _mode})
# X2 and the nodal curve first fail on a delta frame below the root
CASES["x2/hironaka"] = (lambda: _generated(veronese_ci()), True, {})
CASES["x2/hybrid-descents2"] = (lambda: _generated(veronese_ci()), True,
                                {"mode": "hybrid", "descent_depth": 2})
CASES["nodal/hironaka"] = (lambda: _text("nodal"), False, {})
CASES["combo/hironaka"] = (lambda: _text("combo"), False, {})
CASES["combo/hybrid-descents2"] = (lambda: _text("combo"), False,
                                   {"mode": "hybrid", "descent_depth": 2})
CASES["combop/hironaka"] = (lambda: _text("combop"), False, {})
for _mode in ("hironaka", "hybrid", "jacobian"):
    CASES[f"cone/{_mode}"] = (lambda: _text("cone"), False, {"mode": _mode})


def report(name):
    build, projective, opts = CASES[name]
    clear_caches()
    runner = projective_smoothness if projective else smoothness_test
    verdict = runner(build(), Config(**opts))
    return json.dumps(verdict.as_report(include_timing=False),
                      sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(golden, name):
    assert report(name) == golden[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({name: report(name) for name in sorted(CASES)},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} reports to {DATA}")
