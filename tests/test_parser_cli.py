import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from varsmooth.bench import (cyclic_polytope_sr, random_coordinate_change,
                             rational_normal_curve, veronese_ci)
from varsmooth.cli import main
from varsmooth.errors import ParseError
from varsmooth.fields import QQ
from varsmooth.groebner import Ideal
from varsmooth.parser import ideal_file_text, parse_ideal_file
from varsmooth.poly import Polynomial
from varsmooth.ring import Ring


def test_parse_basic_and_field_reduction():
    ring, ideal = parse_ideal_file("ring QQ [x,y]\ny^2-x^3\n")
    assert ring.variables == ("x", "y")
    assert ring.field is QQ
    x = Polynomial.variable(ring, 0)
    y = Polynomial.variable(ring, 1)
    assert ideal.generators[0] == y * y - x ** 3
    ring2, ideal2 = parse_ideal_file("ring F103 [x,y]\nx+104*y\n")
    assert str(ideal2.generators[0]) == "x + y"


def test_parse_comments_whitespace_precedence():
    ring, ideal = parse_ideal_file(
        "# a comment\nring QQ [x, y]\n\n( x + y ) ^ 2 - 4 * x * y\n"
        "- x - - y\nx - 2 ^ 3\n")
    x = Polynomial.variable(ring, 0)
    y = Polynomial.variable(ring, 1)
    assert ideal.generators[0] == (x - y) ** 2
    assert ideal.generators[1] == -x + y
    assert ideal.generators[2] == x - 8


@pytest.mark.parametrize("bad,line,col", [
    ("ring QQ [x]\nx^(-1)\n", 2, 3),
    ("ring QQ [x]\n2x\n", 2, 2),
    ("ring QQ [x]\nx+\n", 2, 3),
    ("ring QQ [x,x]\nx\n", 1, 12),
    ("ring F4 [x]\nx\n", 1, 6),
    ("ring QQ [x]\ny+1\n", 2, 1),
    ("ring QQ [x]\n", 1, 1),
    ("x+1\n", 1, 1),
    ("ring QQ [x]\nx^99999\n", 2, 3),
    ("ring QQ [x]\nx$y\n", 2, 2),
])
def test_parse_errors_carry_position(bad, line, col):
    with pytest.raises(ParseError) as exc:
        parse_ideal_file(bad)
    assert exc.value.line == line, exc.value
    assert exc.value.column == col, exc.value


def test_juxtaposition_hint():
    with pytest.raises(ParseError) as exc:
        parse_ideal_file("ring QQ [x]\n2x\n")
    assert "*" in exc.value.message


def test_round_trip_bit_exact_on_suite_ideals():
    for inst in (rational_normal_curve(2), rational_normal_curve(6),
                 cyclic_polytope_sr(2, 4), cyclic_polytope_sr(3, 6),
                 veronese_ci(),
                 random_coordinate_change(cyclic_polytope_sr(3, 6), 0)):
        text = ideal_file_text(inst.ideal, comments=[inst.name])
        assert text.splitlines()[0] == f"# {inst.name}"
        ring2, ideal2 = parse_ideal_file(text)
        assert ring2 == inst.ideal.ring
        assert ideal2.generators == inst.ideal.generators, inst.name
        # printing again gives identical bytes
        assert ideal_file_text(ideal2, comments=[inst.name]) == text


def test_printer_clears_denominators():
    ring = Ring(QQ, ("x", "y"))
    x = Polynomial.variable(ring, 0)
    y = Polynomial.variable(ring, 1)
    f = Fraction(1, 2) * x + Fraction(1, 3) * y
    text = ideal_file_text(Ideal(ring, [f]))
    _, back = parse_ideal_file(text)
    assert back.generators[0] == 3 * x + 2 * y


def test_zero_ideal_round_trip():
    ring = Ring(QQ, ("x",))
    text = ideal_file_text(Ideal(ring, []))
    assert text.endswith("\n0\n")
    ring2, ideal2 = parse_ideal_file(text)
    assert ring2 == ring
    assert ideal2.generators == ()  # the zero generator is dropped


def test_known_suite_texts():
    quad = cyclic_polytope_sr(2, 4)
    assert sorted(str(g) for g in quad.ideal.generators) == \
        ["x1*x3", "x2*x4"]
    assert len(rational_normal_curve(6).ideal.generators) == 15


# -- CLI ----------------------------------------------------------------------

def run_cli(args, stdin_text=None):
    return subprocess.run([sys.executable, "-m", "varsmooth"] + args,
                          input=stdin_text, capture_output=True, text=True,
                          timeout=300)


def test_cli_gen_check_pipeline_smooth():
    gen = run_cli(["gen", "rnc", "2"])
    assert gen.returncode == 0, gen.stderr
    chk = run_cli(["check", "--projective", "--assume-radical", "-"],
                  stdin_text=gen.stdout)
    assert chk.returncode == 0, (chk.stdout, chk.stderr)
    assert "verdict: smooth" in chk.stdout
    assert "assume" not in chk.stderr


def test_readme_quick_start_matches_the_cli():
    # the verdict and stats lines the README shows for its first command;
    # the timing line after them depends on the cache, so it is left out
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    cmd = ("$ varsmooth gen rnc 4 | varsmooth check --projective "
           "--assume-radical -")
    at = lines.index(cmd)
    shown = lines[at + 1:at + 3]
    assert shown[0].startswith("verdict: ")
    assert shown[1].startswith("charts: ")
    gen = run_cli(["gen", "rnc", "4"])
    chk = run_cli(["check", "--projective", "--assume-radical", "-"],
                  stdin_text=gen.stdout)
    assert chk.returncode == 0, chk.stderr
    assert chk.stdout.splitlines()[:2] == shown


def test_cli_gen_check_pipeline_singular():
    gen = run_cli(["gen", "x2"])
    chk = run_cli(["check", "--projective", "--mode", "jacobian", "-"],
                  stdin_text=gen.stdout)
    assert chk.returncode == 1, (chk.returncode, chk.stderr)
    assert "verdict: singular" in chk.stdout
    assert "assume" in chk.stderr  # radicality reminder without the flag


def test_cli_gen_cyclic_coordchange_deterministic():
    a = run_cli(["gen", "cyclic", "3", "6", "--coordchange", "--bitlength",
                 "4", "--seed", "0"])
    b = run_cli(["gen", "cyclic", "3", "6", "--coordchange", "--bitlength",
                 "4", "--seed", "0"])
    assert a.returncode == 0 and a.stdout == b.stdout
    c = run_cli(["gen", "cyclic", "3", "6", "--coordchange", "--bitlength",
                 "4", "--seed", "1"])
    assert c.stdout != a.stdout


def test_cli_check_file_and_hybrid_flags(tmp_path):
    f = tmp_path / "cusp.ideal"
    f.write_text("ring QQ [x,y]\ny^2-x^3\n")
    p = run_cli(["check", str(f), "--mode", "hybrid", "--descents", "0",
                 "--assume-radical"])
    assert p.returncode == 1
    assert "witness" in p.stdout
    # --descents implies hybrid when no mode is given
    q = run_cli(["check", str(f), "--descents", "0", "--assume-radical"])
    assert q.returncode == 1
    # and clashes with an explicit non-hybrid mode
    r = run_cli(["check", str(f), "--mode", "jacobian", "--descents", "1"])
    assert r.returncode == 2


def test_cli_parse_error_position_exit_2():
    p = run_cli(["check", "-"], stdin_text="ring QQ [x]\nx^(-1)\n")
    assert p.returncode == 2
    assert "<stdin>:2:3:" in p.stderr


def test_cli_missing_file_exit_2(tmp_path):
    p = run_cli(["check", str(tmp_path / "absent.ideal")])
    assert p.returncode == 2
    assert p.stderr


def test_cli_json_byte_stable_across_jobs():
    text = "ring QQ [x,y]\nx*(y+1)\ny*(x+1)\n"
    outs = []
    for jobs in ("1", "8"):
        p = run_cli(["check", "--json", "--assume-radical", "--jobs", jobs,
                     "-"], stdin_text=text)
        assert p.returncode == 0, p.stderr
        outs.append(p.stdout)
    assert outs[0] == outs[1]
    rep = json.loads(outs[0])
    assert rep["status"] == "smooth"
    assert "timing" not in rep


def test_cli_indeterminate_exit_3():
    # the Jacobian baseline on a cyclic-polytope ideal under a coordinate
    # change spends far longer than 0.2 s reducing its minors
    gen = run_cli(["gen", "cyclic", "3", "7", "--coordchange"])
    p = run_cli(["check", "--projective", "--assume-radical", "--mode",
                 "jacobian", "--time-limit", "0.2", "-"],
                stdin_text=gen.stdout)
    assert p.returncode == 3, (p.returncode, p.stdout)
    assert "indeterminate" in p.stdout


def test_cli_main_inprocess_exit_codes(capsys, monkeypatch, tmp_path):
    f = tmp_path / "circle.ideal"
    f.write_text("ring QQ [x,y]\nx^2+y^2-1\n")
    assert main(["check", str(f), "--assume-radical"]) == 0
    out = capsys.readouterr()
    assert "verdict: smooth" in out.out
    # the engine runs, and those started from a cached basis, are printed
    # beside the wall time, never in the JSON report
    timing = out.out.splitlines()[-1].split()
    assert timing[0] == "wall_s:" and timing[-4::2] == ["gb_runs:",
                                                        "gb_runs_seeded:"]
    assert int(timing[-3]) >= int(timing[-1]) >= 0
    f2 = tmp_path / "cusp.ideal"
    f2.write_text("ring QQ [x,y]\ny^2-x^3\n")
    assert main(["check", str(f2), "--assume-radical"]) == 1
    capsys.readouterr()
    assert main(["check", str(f2), "--mode", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", "--time-limit", "nan"], ["check", "--time-limit", "-1"],
    ["bench", "quick", "--jobs", "0"],
    ["bench", "quick", "--time-limit", "-1"],
], ids=["check-nan", "check-negative", "bench-jobs-0", "bench-negative"])
def test_cli_bad_limits_and_jobs_exit_2(capsys, tmp_path, argv):
    f = tmp_path / "circle.ideal"
    f.write_text("ring QQ [x,y]\nx^2+y^2-1\n")
    if argv[0] == "check":
        argv = argv + [str(f)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_gen_unknown_family_exit_2():
    p = run_cli(["gen", "klein"])
    assert p.returncode == 2


def test_cli_bench_quick_json():
    p = run_cli(["bench", "quick", "--modes", "jacobian", "--json",
                 "--time-limit", "120"])
    assert p.returncode == 0, p.stderr
    rows = [json.loads(line) for line in p.stdout.strip().splitlines()]
    got = {r["name"]: r["verdict"] for r in rows}
    assert got == {"I1-2": "smooth", "I1-3": "smooth",
                   "I4-4-2-cc": "singular", "X2": "singular"}
