"""Benchmark ideal families and the timing harness.

The families are the rational normal curves (2x2 minors of the moment
matrix), the Stanley-Reisner ideals of boundary complexes of cyclic
polytopes (facets by Gale's evenness condition, generators the minimal
non-faces), and the fixed six-variable pair of quadrics whose cone is
singular at the origin.  A seeded random linear coordinate change with
small integer entries puts instances into general position without
touching the verdict.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Optional

from .driver import Config, Verdict, projective_smoothness, smoothness_test
from .errors import SingularMatrixError
from .fields import QQ
from .groebner import Ideal, clear_caches
from .poly import Polynomial, apply_linear_change
from .ring import Ring

try:
    import resource
except ImportError:  # non-POSIX platform, memory column goes missing
    resource = None


@dataclass(frozen=True)
class BenchInstance:
    name: str
    ideal: Ideal
    projective: bool
    expected: Optional[str] = None
    provenance: dict = field(default_factory=dict)


def rational_normal_curve(d: int) -> BenchInstance:
    """All 2x2 minors of the 2 x d matrix with rows (x0..x_{d-1}) and
    (x1..x_d): the degree-d rational normal curve, smooth in P^d.
    d = 1 has no minors and leaves the zero ideal (all of P^1)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    ring = Ring(QQ, tuple(f"x{i}" for i in range(d + 1)))
    xs = [Polynomial.variable(ring, i) for i in range(d + 1)]
    gens = []
    for i in range(d - 1):
        for j in range(i + 1, d):
            gens.append(xs[i] * xs[j + 1] - xs[i + 1] * xs[j])
    return BenchInstance(f"I1-{d}", Ideal(ring, gens), True, "smooth",
                         {"family": "rnc", "d": d})


def _gale_facets(d: int, n: int):
    """Facets of the cyclic polytope C(d, n) on vertices 0..n-1: the
    d-subsets S such that any two elements outside S have an even number
    of S-elements strictly between them."""
    facets = []
    for s in combinations(range(n), d):
        sset = set(s)
        ok = True
        outside = [v for v in range(n) if v not in sset]
        for a_i in range(len(outside)):
            if not ok:
                break
            for b_i in range(a_i + 1, len(outside)):
                a, b = outside[a_i], outside[b_i]
                between = sum(1 for v in s if a < v < b)
                if between % 2:
                    ok = False
                    break
        if ok:
            facets.append(frozenset(s))
    return facets


def _minimal_nonfaces(d: int, n: int, facets):
    """Minimal subsets contained in no facet; sizes never exceed d + 1."""
    def is_face(t):
        return any(t <= f for f in facets)

    nonfaces = []
    for k in range(1, d + 2):
        for t in combinations(range(n), k):
            ts = frozenset(t)
            if is_face(ts):
                continue
            if any(ts > nf for nf in nonfaces):
                continue  # a proper subset already fails
            nonfaces.append(ts)
    return nonfaces


def cyclic_polytope_sr(d: int, n: int) -> BenchInstance:
    """Stanley-Reisner ideal of the boundary complex of the cyclic
    polytope C(d, n): squarefree monomials of the minimal non-faces, in
    variables x1..xn.  The cone is a union of coordinate d-planes and is
    never smooth for n >= d + 2."""
    if not (n >= d + 2 >= 3):
        raise ValueError("need n >= d + 2 >= 3")
    ring = Ring(QQ, tuple(f"x{i}" for i in range(1, n + 1)))
    xs = [Polynomial.variable(ring, i) for i in range(n)]
    facets = _gale_facets(d, n)
    gens = []
    for nf in _minimal_nonfaces(d, n, facets):
        m = Polynomial.constant(ring, 1)
        for v in sorted(nf):
            m = m * xs[v]
        gens.append(m)
    return BenchInstance(f"I4-{n}-{d}", Ideal(ring, gens), True, "singular",
                         {"family": "cyclic", "d": d, "n": n})


def veronese_ci() -> BenchInstance:
    """The fixed pair of quadrics in six variables whose projective
    variety is singular."""
    ring = Ring(QQ, ("x1", "x2", "x3", "x4", "y1", "y2"))
    x1, x2, x3, x4, y1, y2 = (Polynomial.variable(ring, i)
                              for i in range(6))
    gens = [x1 * x3 - y1 * y2, x2 * x4 - y1 * y2]
    return BenchInstance("X2", Ideal(ring, gens), True, "singular",
                         {"family": "x2"})


def random_coordinate_change(inst: BenchInstance, seed: int,
                             bitlength: int = 4) -> BenchInstance:
    """Applies a seeded invertible matrix with nonzero integer entries of
    absolute value below 2^bitlength to every generator.  A linear
    automorphism, so the verdict carries over."""
    ring = inst.ideal.ring
    if ring.field.characteristic:
        raise ValueError("coordinate changes are generated over QQ only")
    if bitlength < 1:
        raise ValueError("bitlength must be >= 1")
    rng = random.Random(f"coordchange|{seed}|{bitlength}|{inst.name}")
    n = ring.nvars
    hi = 2 ** bitlength - 1
    while True:
        matrix = [[rng.randint(1, hi) * (1 if rng.random() < 0.5 else -1)
                   for _ in range(n)] for _ in range(n)]
        try:
            gens = [apply_linear_change(f, matrix)
                    for f in inst.ideal.generators]
            break
        except SingularMatrixError:
            continue
    prov = dict(inst.provenance)
    prov.update({"coordchange_seed": seed, "bitlength": bitlength})
    return BenchInstance(inst.name + "-cc", Ideal(ring, gens),
                         inst.projective, inst.expected, prov)


SUITE_NAMES = ("rnc", "cyclic", "x2", "quick", "all")


def get_suite(name: str, seed: int = 0, bitlength: int = 4):
    """Named instance lists; the cyclic family carries the coordinate
    change it is benchmarked with."""
    if name == "rnc":
        return [rational_normal_curve(d) for d in (6, 7, 8)]
    if name == "cyclic":
        return [random_coordinate_change(cyclic_polytope_sr(d, n), seed,
                                         bitlength)
                for n, d in ((6, 3), (7, 3), (7, 4))]
    if name == "x2":
        return [veronese_ci()]
    if name == "quick":
        return [rational_normal_curve(2), rational_normal_curve(3),
                random_coordinate_change(cyclic_polytope_sr(2, 4), seed,
                                         bitlength),
                veronese_ci()]
    if name == "all":
        return get_suite("rnc", seed, bitlength) + \
            get_suite("cyclic", seed, bitlength) + get_suite("x2")
    raise ValueError(f"unknown suite {name!r}; "
                     f"choose from {', '.join(SUITE_NAMES)}")


def _peak_mem_bytes():
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage * 1024  # Linux reports kilobytes


def run_instance(inst: BenchInstance, mode: str, cfg: Config) -> dict:
    """One report row; limit hits show up as the indeterminate verdict.
    The Groebner caches are cleared first, so every row starts cold.
    peak_mem_bytes is the process high-water mark so far, not the row's."""
    cfg = replace(cfg, mode=mode)
    clear_caches()
    t0 = time.monotonic()
    if inst.projective:
        verdict = projective_smoothness(inst.ideal, cfg)
    else:
        verdict = smoothness_test(inst.ideal, cfg)
    wall_ms = (time.monotonic() - t0) * 1000.0
    row = {
        "name": inst.name,
        "mode": mode,
        "verdict": verdict.status,
        "wall_ms": round(wall_ms, 3),
        "sim_parallel_ms": round(
            verdict.timing.get("sim_parallel_s", 0.0) * 1000.0, 3),
        "charts": verdict.stats["charts"],
        "frames": verdict.stats["frames"],
    }
    mem = _peak_mem_bytes()
    if mem is not None:
        row["peak_mem_bytes"] = mem
    return row


def run_suite(instances, modes, cfg: Optional[Config] = None):
    """Rows for every instance x mode, instances run one after another so
    wall times stay clean."""
    cfg = cfg if cfg is not None else Config()
    rows = []
    for inst in instances:
        for mode in modes:
            rows.append(run_instance(inst, mode, cfg))
    return rows


def format_rows(rows) -> str:
    headers = ["name", "mode", "verdict", "wall_ms", "sim_parallel_ms",
               "charts", "frames", "peak_mem_bytes"]
    present = [h for h in headers if any(h in r for r in rows)]
    table = [present] + [
        [("-" if r.get(h) is None else str(r.get(h, ""))) for h in present]
        for r in rows
    ]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(present))]
    out = []
    for idx, line in enumerate(table):
        out.append("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip())
        if idx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def rows_as_json(rows) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"
