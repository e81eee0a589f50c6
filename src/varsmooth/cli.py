"""Command line surface: check, gen, bench.

check reads an ideal file (or standard input for -), runs the selected
smoothness test, and exits 0 for smooth, 1 for singular, 2 for usage or
parse problems, 3 for an indeterminate outcome.  gen writes generator
families in the ideal file format.  bench runs a named suite and prints a
table or JSON rows.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import SUITE_NAMES, format_rows, get_suite, rows_as_json, run_suite
from .driver import MODES, Config, projective_smoothness, smoothness_test
from .errors import ContractError, NonHomogeneousError, ParseError
from .limits import Limits
from .parser import ideal_file_text, parse_ideal_file

EXIT_SMOOTH = 0
EXIT_SINGULAR = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

_STATUS_CODES = {"smooth": EXIT_SMOOTH, "singular": EXIT_SINGULAR,
                 "indeterminate": EXIT_INDETERMINATE}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="varsmooth",
        description="Smoothness tests for affine and projective varieties.")
    sub = ap.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="decide smoothness of an ideal file")
    chk.add_argument("file", metavar="FILE",
                     help="ideal file path, or - for standard input")
    chk.add_argument("--mode", choices=MODES, default=None)
    depth = chk.add_mutually_exclusive_group()
    depth.add_argument("--descents", type=int, metavar="K",
                       help="hybrid: descents before the Jacobian switch")
    depth.add_argument("--to-codim", type=int, metavar="C", dest="to_codim",
                       help="hybrid: descend until the relative codimension "
                            "is C")
    chk.add_argument("--projective", action="store_true",
                     help="treat the input as homogeneous and test the "
                          "projective variety chart by chart")
    chk.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="job count (>= 1); runs are sequential and the "
                          "report does not depend on N")
    chk.add_argument("--seed", type=int, default=0, metavar="S")
    chk.add_argument("--json", action="store_true",
                     help="machine-readable report on standard output")
    chk.add_argument("--assume-radical", action="store_true",
                     help="acknowledge that the input is radical and "
                          "equidimensional (silences the reminder)")
    chk.add_argument("--no-combinations", action="store_true",
                     help="skip random linear combinations during descent")
    chk.add_argument("--time-limit", type=float, metavar="SECS", default=None)

    gen = sub.add_parser("gen", help="write a generator family as an "
                                     "ideal file")
    gsub = gen.add_subparsers(dest="family", required=True)
    grnc = gsub.add_parser("rnc", help="rational normal curve of degree D")
    grnc.add_argument("degree", type=int, metavar="D")
    gcyc = gsub.add_parser("cyclic",
                           help="Stanley-Reisner ideal of the boundary of "
                                "the cyclic polytope C(D, N)")
    gcyc.add_argument("dim", type=int, metavar="D")
    gcyc.add_argument("vertices", type=int, metavar="N")
    gcyc.add_argument("--coordchange", action="store_true",
                      help="apply a seeded random linear coordinate change")
    gcyc.add_argument("--bitlength", type=int, default=4, metavar="B")
    gcyc.add_argument("--seed", type=int, default=0, metavar="S")
    gsub.add_parser("x2", help="the fixed singular pair of quadrics in "
                               "six variables")

    ben = sub.add_parser("bench", help="run a benchmark suite")
    ben.add_argument("suite", choices=SUITE_NAMES, metavar="SUITE")
    ben.add_argument("--modes", nargs="+", choices=MODES,
                     default=list(MODES))
    ben.add_argument("--json", action="store_true",
                     help="one JSON row per line instead of a table")
    ben.add_argument("--seed", type=int, default=0, metavar="S")
    ben.add_argument("--jobs", type=int, default=1, metavar="N")
    ben.add_argument("--time-limit", type=float, metavar="SECS",
                     default=300.0)
    return ap


def _cmd_check(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
    try:
        _, ideal = parse_ideal_file(text)
    except ParseError as e:
        name = "<stdin>" if args.file == "-" else args.file
        print(f"{name}:{e.line}:{e.column}: {e.message}", file=sys.stderr)
        return EXIT_USAGE

    mode = args.mode
    if args.descents is not None or args.to_codim is not None:
        if mode is None:
            mode = "hybrid"
        elif mode != "hybrid":
            print("error: --descents/--to-codim apply to hybrid mode only",
                  file=sys.stderr)
            return EXIT_USAGE
    if mode is None:
        mode = "hironaka"
    try:
        cfg = Config(
            mode=mode,
            descent_depth=args.descents if args.descents is not None else 0,
            to_codim=args.to_codim,
            jobs=args.jobs,
            seed=args.seed,
            limits=Limits(time_s=args.time_limit),
            combinations=not args.no_combinations,
        )
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    if not args.assume_radical:
        print("note: the verdict assumes the input ideal is radical and "
              "equidimensional (pass --assume-radical to silence)",
              file=sys.stderr)

    try:
        if args.projective:
            verdict = projective_smoothness(ideal, cfg)
        else:
            verdict = smoothness_test(ideal, cfg)
    except NonHomogeneousError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    if args.json:
        print(json.dumps(verdict.as_report(include_timing=False),
                         sort_keys=True))
    else:
        print(f"verdict: {verdict.status}")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
        if verdict.witness is not None:
            w = verdict.witness
            print(f"witness: path={'/'.join(map(str, w.path))} "
                  f"depth={w.depth} check={w.kind} "
                  f"frame_cols={','.join(map(str, w.frame_cols))}")
        s = verdict.stats
        print(f"charts: {s['charts']}  frames: {s['frames']}  "
              f"groebner_queries: {s['gb_queries']}  "
              f"max_depth: {s['max_depth']}  "
              f"minors: {s['minors']} of {s['minors_possible']}")
        t = verdict.timing
        print(f"wall_s: {t['wall_s']:.3f}  "
              f"sim_parallel_s: {t['sim_parallel_s']:.3f}  "
              f"gb_runs: {t['gb_runs']}  "
              f"gb_runs_seeded: {t['gb_runs_seeded']}")
    return _STATUS_CODES[verdict.status]


def _cmd_gen(args) -> int:
    from .bench import (cyclic_polytope_sr, random_coordinate_change,
                        rational_normal_curve, veronese_ci)
    try:
        if args.family == "rnc":
            inst = rational_normal_curve(args.degree)
        elif args.family == "cyclic":
            inst = cyclic_polytope_sr(args.dim, args.vertices)
            if args.coordchange:
                inst = random_coordinate_change(inst, args.seed,
                                                args.bitlength)
        else:
            inst = veronese_ci()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    prov = ", ".join(f"{k}={v}" for k, v in sorted(inst.provenance.items()))
    comments = [f"{inst.name}: {prov}" if prov else inst.name]
    sys.stdout.write(ideal_file_text(inst.ideal, comments=comments))
    return EXIT_SMOOTH


def _cmd_bench(args) -> int:
    try:
        instances = get_suite(args.suite, seed=args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = Config(jobs=args.jobs, seed=args.seed,
                     limits=Limits(time_s=args.time_limit), to_codim=2,
                     mode="hybrid")
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # to_codim only matters for hybrid rows; other modes ignore it
    rows = run_suite(instances, args.modes, cfg)
    if args.json:
        sys.stdout.write(rows_as_json(rows))
    else:
        sys.stdout.write(format_rows(rows))
    return EXIT_SMOOTH


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_bench(args)


def entry():
    sys.exit(main())
