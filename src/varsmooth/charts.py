"""Charts, frames, and the descent-based smoothness machinery.

A Chart is a pair of ideals I_W (ambient, a smooth complete intersection on
the open set where the localizer g is invertible) and I_X (the variety),
with I_W contained in I_X.  Frames are invertible square submatrices of the
ambient Jacobian; each frame supplies a local regular system of parameters
through its adjugate, and the delta test asks whether the variety's
relative first-order behaviour already cuts it out where g*q is invertible.

The functions here are chart-local and sequential; the driver composes them
into the recursive test and supplies parallel scheduling.
"""

from __future__ import annotations

from itertools import combinations as _combinations
from typing import Optional

from .errors import ContractError, DegenerateGeneratorError, DescentError
from .groebner import (GroebnerBasis, Ideal, buchberger, equal_on_chart,
                       ideal_membership, krull_dimension, lift_power,
                       radical_membership)
from .limits import Budget, ensure_budget
from .matrix import PolyMatrix, adjugate, determinant, jacobian, minors
from .poly import Polynomial
from .ring import Ring


class Chart:
    """Ambient/variety ideal pair on the open set D(localizer)."""

    __slots__ = ("ambient", "variety", "localizer", "depth")

    def __init__(self, ambient: Ideal, variety: Ideal, localizer: Polynomial,
                 depth: int = 0, budget: Optional[Budget] = None,
                 check: bool = True):
        if ambient.ring != variety.ring or localizer.ring != variety.ring:
            raise ContractError("chart pieces live in different rings")
        if localizer.is_zero():
            raise ContractError("chart localizer is zero")
        if depth < 0:
            raise ContractError("negative chart depth")
        if check and ambient.generators:
            gb_x = buchberger(variety, budget=ensure_budget(budget))
            for g in ambient.generators:
                if not gb_x.contains(g):
                    raise ContractError(
                        "ambient ideal is not contained in the variety ideal")
        self.ambient = ambient
        self.variety = variety
        self.localizer = localizer
        self.depth = depth

    @classmethod
    def root(cls, variety: Ideal) -> "Chart":
        one = Polynomial.constant(variety.ring, 1)
        return cls(Ideal(variety.ring, []), variety, one, depth=0, check=False)

    @property
    def ring(self) -> Ring:
        return self.variety.ring

    def __repr__(self):
        return (f"<chart depth={self.depth} ambient={len(self.ambient)} gens "
                f"localizer={self.localizer}>")


class FrameData:
    """One invertible submatrix of the ambient Jacobian.

    rows/cols are the selected row and column index tuples, m the square
    submatrix, q its determinant, and adj the cofactor matrix normalized so
    that sum_k adj[l][k] * m[l'][k] == q * delta(l, l').  jac is the whole
    ambient Jacobian the frame was cut from, shared by the chart's frames."""

    __slots__ = ("rows", "cols", "m", "q", "adj", "jac")

    def __init__(self, rows, cols, m, q, adj, jac):
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.m = m
        self.q = q
        self.adj = adj
        self.jac = jac

    def __repr__(self):
        return f"<frame cols={self.cols} q={self.q}>"


class FrameEnumeration:
    """Materialized frame sequence with the covering exit applied.

    frames: the FrameData list, in deterministic (lexicographic column
    subset) order, truncated as soon as the covering test succeeded.
    cover_complete: whether the exit test fired (exhausting all candidate
    subsets without it is not an error).
    determinants: the q_i of the yielded frames, for post-hoc auditing.
    """

    __slots__ = ("frames", "cover_complete", "determinants")

    def __init__(self, frames, cover_complete, determinants):
        self.frames = frames
        self.cover_complete = cover_complete
        self.determinants = determinants


def enumerate_frames(chart: Chart, strict: bool = False,
                     budget: Optional[Budget] = None) -> FrameEnumeration:
    """Frames of the chart's ambient Jacobian in lexicographic column order.

    Each candidate submatrix gets its determinant first; zero ones are
    skipped, and only the frames kept get an adjugate.  Enumeration stops as
    soon as the yielded determinants q_1..q_t cover the chart: by default
    when g lies in the radical of I_W + (q_1..q_t), in strict mode when g
    lies in the plain ideal (q_1..q_t).  A constant determinant covers
    immediately, so a frameless chart yields the single empty frame.
    """
    budget = ensure_budget(budget)
    ring = chart.ring
    r = len(chart.ambient.generators)
    n = ring.nvars
    g = chart.localizer
    if r > n:
        raise ContractError(f"{r} ambient generators in {n} variables")

    jac = jacobian(ring, chart.ambient.generators)
    rows = tuple(range(r))
    frames = []
    dets = []
    for cols in _combinations(range(n), r):
        budget.checkpoint()
        m = jac.submatrix(rows, cols)
        q = determinant(m)
        if q.is_zero():
            continue
        adj, _ = adjugate(m)
        frames.append(FrameData(rows, cols, m, q, adj, jac))
        dets.append(q)
        if q.is_constant():
            return FrameEnumeration(frames, True, dets)
        if strict:
            covered = ideal_membership(g, Ideal(ring, dets), budget=budget)
        else:
            probe = Ideal(ring, list(chart.ambient.generators) + dets)
            covered = radical_membership(g, probe, budget=budget)
        if covered:
            return FrameEnumeration(frames, True, dets)
    return FrameEnumeration(frames, False, dets)


def relative_jacobian(polys, chart: Chart, frame: FrameData) -> PolyMatrix:
    """Derivatives of polys transverse to the ambient frame.

    Columns run over the free variables (those outside frame.cols, ascending)
    and entry (i, j) is

        q * d f_i / d x_j  -  sum_l d g_l / d x_j * sum_k adj[l][k] * d f_i / d x_{c_k}

    where g_l are the ambient generators and c_k the frame columns.  For a
    frameless chart (no ambient generators) this is the plain Jacobian.
    """
    ring = chart.ring
    n = ring.nvars
    r = len(chart.ambient.generators)
    polys = list(polys)
    if r == 0:
        return jacobian(ring, polys)
    cols = frame.cols
    free = [j for j in range(n) if j
            not in set(cols)]
    jac_w = frame.jac
    q = frame.q
    adj = frame.adj
    zero = Polynomial.zero(ring)

    partials = [[f.derivative(j) for j in range(n)] for f in polys]
    # b[l][i] = sum_k adj[l][k] * d f_i / d x_{cols[k]}
    b = []
    for l in range(r):
        row = []
        for i in range(len(polys)):
            acc = zero
            for k, c in enumerate(cols):
                a = adj.get(l, k)
                d = partials[i][c]
                if not a.is_zero() and not d.is_zero():
                    acc = acc + a * d
            row.append(acc)
        b.append(row)

    entries = []
    for i in range(len(polys)):
        for j in free:
            acc = q * partials[i][j]
            for l in range(r):
                dg = jac_w.get(l, j)
                if not dg.is_zero() and not b[l][i].is_zero():
                    acc = acc - dg * b[l][i]
            entries.append(acc)
    return PolyMatrix(ring, len(polys), len(free), entries)


def _delta_ideal(chart: Chart, frame: FrameData) -> Ideal:
    """I_X plus the relative Jacobian entries of the variety generators.
    Generators syntactically in the ambient set contribute identically zero
    rows (the frame identity) and are skipped."""
    ring = chart.ring
    ambient_set = set(chart.ambient.generators)
    fs = [f for f in chart.variety.generators if f not in ambient_set]
    gens = list(chart.variety.generators)
    if fs:
        rel = relative_jacobian(fs, chart, frame)
        gens.extend(e for e in rel.entries if not e.is_zero())
    return Ideal(ring, gens)


def delta_frame_tasks(chart: Chart, strict: bool = False,
                      budget: Optional[Budget] = None):
    """(enumeration, checks): checks[i] = (frame, ideal, test polynomial);
    the frame check passes when the test polynomial lies in the radical of
    the ideal.  Used by both the sequential wrapper and the scheduler."""
    budget = ensure_budget(budget)
    enum = enumerate_frames(chart, strict=strict, budget=budget)
    checks = []
    for frame in enum.frames:
        cm = _delta_ideal(chart, frame)
        checks.append((frame, cm, frame.q * chart.localizer))
    return enum, checks


def delta_check(chart: Chart, strict: bool = False,
                budget: Optional[Budget] = None) -> bool:
    """Order-one test: for every frame, q*g must vanish on the locus where
    the variety's relative derivatives and I_X vanish.  False exhibits a
    point of order at least two on the variety."""
    budget = ensure_budget(budget)
    _, checks = delta_frame_tasks(chart, strict=strict, budget=budget)
    for _, cm, test in checks:
        budget.frames += 1
        if not radical_membership(test, cm, budget=budget):
            return False
    return True


def singular_locus_ideal(chart: Chart, f: Polynomial,
                         budget: Optional[Budget] = None) -> Ideal:
    """Ideal of the singular points of V(I_W + f) as a hypersurface in W:
    I_W generators, then f, then the (r+1)-minors of the stacked Jacobian.
    Rejects f already in I_W."""
    budget = ensure_budget(budget)
    ring = chart.ring
    if ideal_membership(f, chart.ambient, budget=budget):
        raise DegenerateGeneratorError(f"{f} lies in the ambient ideal")
    r = len(chart.ambient.generators)
    stacked_polys = list(chart.ambient.generators) + [f]
    jac = jacobian(ring, stacked_polys)
    mins = minors(jac, r + 1, checkpoint=budget.checkpoint)
    gens = list(chart.ambient.generators) + [f] + mins
    return Ideal(ring, gens)


def descend(chart: Chart, rng, combinations: bool = True,
            lift_cap: Optional[int] = None,
            budget: Optional[Budget] = None) -> list:
    """Charts one level deeper: the ambient gains one variety generator.

    First tries single generators in order (the new hypersurface must be
    smooth where g is invertible), then up to three random linear
    combinations, and finally builds a covering: g is lifted through the sum
    of the singular-locus ideals, and each lift term h_j spawns a chart on
    D(g * h_j) whose ambient uses the owning generator.
    """
    budget = ensure_budget(budget)
    ring = chart.ring
    g = chart.localizer
    w_gens = chart.ambient.generators
    gb_w = buchberger(chart.ambient, budget=budget)

    for f in chart.variety.generators:
        if f.is_constant():
            return []  # unit ideal: nothing on this chart

    usable = [f for f in chart.variety.generators if not gb_w.contains(f)]
    if not usable:
        raise ContractError(
            "descend called although the chart is already settled")

    def vacuous(amb, loc):
        # localizer vanishing on the new ambient means the chart is empty
        return radical_membership(loc, amb, budget=budget)

    def child_single(f):
        amb = Ideal(ring, list(w_gens) + [f])
        if vacuous(amb, g):
            return []
        return [Chart(amb, chart.variety, g, chart.depth + 1, budget=budget)]

    loci = []
    for f in usable:
        budget.checkpoint()
        s = singular_locus_ideal(chart, f, budget=budget)
        if radical_membership(g, s, budget=budget):
            return child_single(f)
        loci.append(s)

    if combinations and len(usable) >= 2:
        p = ring.field.characteristic
        hi = p - 1 if p else 2039
        for _ in range(3):
            budget.checkpoint()
            lams = [rng.randint(1, hi) for _ in usable]
            f = Polynomial.zero(ring)
            for lam, u in zip(lams, usable):
                f = f + lam * u
            if f.is_zero() or gb_w.contains(f):
                continue
            s = singular_locus_ideal(chart, f, budget=budget)
            if radical_membership(g, s, budget=budget):
                return child_single(f)

    combined = []
    owner = []
    for i, s in enumerate(loci):
        for h in s.generators:
            combined.append(h)
            owner.append(i)
    lifted = lift_power(g, Ideal(ring, combined), cap=lift_cap, budget=budget)
    if lifted is None:
        raise DescentError(
            "no power of the localizer lies in the singular-locus sum")
    _, coeffs = lifted
    children = []
    seen = set()
    for j, c in enumerate(coeffs):
        if c.is_zero():
            continue
        h = combined[j]
        f = usable[owner[j]]
        key = (owner[j], h)
        if key in seen:
            continue
        seen.add(key)
        amb = Ideal(ring, list(w_gens) + [f])
        if vacuous(amb, g * h):
            continue  # empty chart, covers no point of the variety
        children.append(Chart(amb, chart.variety, g * h, chart.depth + 1,
                              budget=budget))
    if not children and not seen:
        raise DescentError("covering produced no charts")
    return children


def embedded_frame_tasks(chart: Chart, strict: bool = False,
                         budget: Optional[Budget] = None):
    """Frame tasks for the relative Jacobian criterion at this chart:
    (enumeration, checks) like delta_frame_tasks, or (None, None) when the
    chart is already at the variety's dimension (trivially smooth here)."""
    budget = ensure_budget(budget)
    ring = chart.ring
    n = ring.nvars
    r = len(chart.ambient.generators)
    d_x = krull_dimension(chart.variety, budget=budget)
    c_rel = (n - r) - d_x
    if c_rel < 0:
        raise ContractError("ambient dimension fell below the variety's")
    if c_rel == 0:
        return None, None
    gb_x = buchberger(chart.variety, budget=budget)
    enum = enumerate_frames(chart, strict=strict, budget=budget)
    ambient_set = set(chart.ambient.generators)
    # generators repeated from the ambient list have exactly zero rows
    fs = [f for f in chart.variety.generators if f not in ambient_set]
    checks = []
    for frame in enum.frames:
        rel = relative_jacobian(fs, chart, frame)
        mins = minors(rel, c_rel, reducer=gb_x.normal_form,
                      checkpoint=budget.checkpoint)
        j_ideal = Ideal(ring, list(dict.fromkeys(
            list(chart.variety.generators) + mins)))
        checks.append((frame, j_ideal, frame.q * chart.localizer))
    return enum, checks


def embedded_jacobian(chart: Chart, strict: bool = False,
                      budget: Optional[Budget] = None) -> bool:
    """Relative Jacobian criterion: on every frame, q*g must lie in the
    radical of I_X plus the ((dim W - dim X)-size) minors of the relative
    Jacobian, the minors being reduced modulo I_X as they are formed."""
    budget = ensure_budget(budget)
    _, checks = embedded_frame_tasks(chart, strict=strict, budget=budget)
    if checks is None:
        return True
    for _, j_ideal, test in checks:
        budget.frames += 1
        if not radical_membership(test, j_ideal, budget=budget):
            return False
    return True


def affine_jacobian_criterion(ideal: Ideal,
                              budget: Optional[Budget] = None) -> bool:
    """Classical criterion for an equidimensional radical ideal: smooth iff
    1 lies in I plus the codimension-size minors of the Jacobian, the minors
    reduced modulo I as they are formed."""
    budget = ensure_budget(budget)
    ring = ideal.ring
    if not ideal.generators:
        return True
    gb = buchberger(ideal, budget=budget)
    if gb.is_unit():
        return True
    d = krull_dimension(ideal, budget=budget)
    c = ring.nvars - d
    if c == 0:
        return True
    jac = jacobian(ring, ideal.generators)
    mins = minors(jac, c, reducer=gb.normal_form,
                  checkpoint=budget.checkpoint)
    total = Ideal(ring, list(dict.fromkeys(list(ideal.generators) + mins)))
    return buchberger(total, budget=budget).is_unit()
