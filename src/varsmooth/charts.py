"""Charts, frames, and the descent-based smoothness machinery.

A Chart is a pair of ideals I_W (ambient, a smooth complete intersection on
the open set where the localizer g is invertible) and I_X (the variety),
with I_W contained in I_X.  Frames are invertible square submatrices of the
ambient Jacobian; each frame supplies a local regular system of parameters
through its adjugate, and the delta test asks whether the variety's
relative first-order behaviour already cuts it out where g*q is invertible.

The functions here work on one chart; the driver composes them into the
recursive test as a tree of tasks and walks it.  A frame keeps its chart,
its test polynomial q*g and the relative Jacobian rows read on it, so a
frame check (a DeltaCheck, or a MinorCheck of the relative criterion)
holds its frame and nothing of the enumeration.
What a chart tree shares is its variety and one Partials table: every
partial derivative the tree reads (ambient Jacobians, relative Jacobians,
singular-locus minors) comes from that table, so each polynomial is
differentiated at most once per tree.
"""

from __future__ import annotations

from itertools import combinations as _combinations
from math import comb
from typing import NamedTuple, Optional

from .errors import ContractError, DegenerateGeneratorError, DescentError
from .groebner import Ideal, buchberger, ideal_membership, radical_membership
from .limits import Budget, ensure_budget
from .matrix import (Partials, PolyMatrix, _check_degree, _top_degree,
                     adjugate, determinant, iter_minors)
from .poly import Polynomial, _mac, _poly, _settle
from .ring import Ring


class Chart:
    """Ambient/variety ideal pair on the open set D(localizer).

    check verifies I_W inside I_X; descend passes check=False, since a
    child's ambient adds a variety generator or a combination of them.
    partials is the Partials table of the chart's tree.  A chart made
    without one starts a new tree and a new table; descend hands the
    parent's table to every child, which keeps the parent's variety and
    whose new ambient generator the table already holds."""

    __slots__ = ("ambient", "variety", "localizer", "depth", "partials")

    def __init__(self, ambient: Ideal, variety: Ideal, localizer: Polynomial,
                 depth: int = 0, check: bool = True,
                 partials: Optional[Partials] = None):
        if ambient.ring != variety.ring or localizer.ring != variety.ring:
            raise ContractError("chart pieces live in different rings")
        if localizer.is_zero():
            raise ContractError("chart localizer is zero")
        if depth < 0:
            raise ContractError("negative chart depth")
        if check and ambient.generators and not all(
                map(buchberger(variety).contains, ambient.generators)):
            raise ContractError(
                "ambient ideal is not contained in the variety ideal")
        self.ambient = ambient
        self.variety = variety
        self.localizer = localizer
        self.depth = depth
        self.partials = (partials if partials is not None
                         else Partials(variety.ring))

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
    """One invertible submatrix of the ambient Jacobian of chart.

    cols are the selected column indices of the ambient Jacobian jac (all
    of its rows are selected; jac is shared by the chart's frames, read
    from the chart's Partials table), q the determinant of that square
    submatrix m, and adj its cofactor matrix normalized so that
    sum_k adj[l][k] * m[l'][k] == q * delta(l, l').  test is q * g, g the
    chart's localizer: the test polynomial of every check on the frame.
    proj is the frame's projection, which relative_jacobian forms on its
    first call and keeps here (None before)."""

    __slots__ = ("chart", "cols", "q", "adj", "jac", "test", "proj", "_rows")

    def __init__(self, chart: Chart, cols, q, adj, jac):
        self.chart = chart
        self.cols = tuple(cols)
        self.q = q
        self.adj = adj
        self.jac = jac
        self.test = q * chart.localizer
        self.proj = None
        self._rows = {}

    def row(self, f: Polynomial):
        """f's relative Jacobian row on this frame, formed by
        relative_jacobian when first read and kept."""
        row = self._rows.get(f)
        if row is None:
            row = self._rows[f] = relative_jacobian([f], self.chart,
                                                    self).row(0)
        return row

    def __repr__(self):
        return f"<frame cols={self.cols} q={self.q}>"


class FrameEnumeration(NamedTuple):
    """Materialized frame sequence with the covering exit applied.

    frames: the FrameData list, in deterministic (lexicographic column
    subset) order, truncated as soon as the frames cover the chart.
    cover_complete: whether they do, i.e. the localizer g lies in the
    radical of I_W + (q_1..q_t).  Exhausting every candidate subset
    without it is not an error here (the ambient is then singular where g
    is invertible); the checks, the descent and the embedded step refuse
    such an enumeration (_require_cover).
    """

    frames: list
    cover_complete: bool


def _require_cover(enum: FrameEnumeration) -> None:
    """Raise ContractError unless enum's frames cover its chart: every
    reader of frame checks assumes they do."""
    if not enum.cover_complete:
        raise ContractError(
            "the frames do not cover the chart: its ambient is singular "
            "where the localizer is invertible")


def enumerate_frames(chart: Chart,
                     budget: Optional[Budget] = None) -> FrameEnumeration:
    """Frames of the chart's ambient Jacobian in lexicographic column order.

    Each candidate submatrix gets its determinant first; zero ones are
    skipped, and only the frames kept get an adjugate.  Enumeration stops as
    soon as the kept determinants q_1..q_t cover the chart, when g lies in
    the radical of I_W + (q_1..q_t).  A constant determinant covers
    immediately, so a frameless chart yields the single empty frame.
    """
    budget = ensure_budget(budget)
    r = len(chart.ambient.generators)
    n = chart.ring.nvars
    g = chart.localizer
    if r > n:
        raise ContractError(f"{r} ambient generators in {n} variables")

    jac = chart.partials.jacobian(chart.ambient.generators)
    rows = tuple(range(r))
    frames = []
    for cols in _combinations(range(n), r):
        budget.checkpoint()
        m = jac.submatrix(rows, cols)
        q = determinant(m)
        if q.is_zero():
            continue
        adj, _ = adjugate(m)
        frames.append(FrameData(chart, cols, q, adj, jac))
        if q.is_constant() or radical_membership(
                g, chart.ambient.extended([fr.q for fr in frames]),
                budget=budget):
            return FrameEnumeration(frames, True)
    return FrameEnumeration(frames, False)


def relative_jacobian(polys, chart: Chart, frame: FrameData) -> PolyMatrix:
    """Derivatives of polys transverse to the ambient frame.

    Columns run over the free variables (those outside frame.cols, ascending)
    and entry (i, j) is

        q * d f_i / d x_j  +  sum_k P[j][k] * d f_i / d x_{c_k},
        P[j][k] = - sum_l d g_l / d x_j * adj[l][k],

    where g_l are the ambient generators and c_k the frame columns; up to
    sign it is the determinant of the ambient Jacobian's rows stacked on the
    gradient of f_i, on the columns c_1..c_r and j.  The projection P
    depends on the frame only, so it is formed on the frame's first call
    and kept on the frame, and each polynomial then costs r + 1 products
    per free column.  Every partial comes from the chart's Partials table.
    The sums are formed on term dicts with the matrix kernel's
    multiply-accumulate step, products with an empty factor are skipped,
    and each nonzero entry becomes a Polynomial once; the zero entries
    share one zero.  For a frameless chart (no ambient generators) this is
    the plain Jacobian.
    """
    ring = chart.ring
    table = chart.partials
    polys = list(polys)
    if not chart.ambient.generators:
        return table.jacobian(polys)
    free, q, proj, frame_deg = _projection(chart, frame)
    # a partial derivative of f has degree below deg f
    _check_degree(_top_degree(polys) - 1 + frame_deg)

    p = ring.field.characteristic
    off = ring.mul_off
    cols = frame.cols
    zero = Polynomial.zero(ring)
    entries = []
    for f in polys:
        df = table.gradient(f)
        df_cols = [df[c] for c in cols]
        for j, pj in zip(free, proj):
            acc = {}
            if df[j]:
                _mac(acc, df[j], q, off)
            for d, pk in zip(df_cols, pj):
                if d and pk:
                    _mac(acc, d, pk, off)
            acc = _settle(acc, p)
            entries.append(_poly(ring, acc) if acc else zero)
    return PolyMatrix(ring, len(polys), len(free), entries)


def _projection(chart: Chart, frame: FrameData):
    """frame.proj, formed on first request: (free, q, proj, degree), the
    free columns, q's terms, proj[i][k] = P[free[i]][k] of
    relative_jacobian in term form, and the top degree of q and of the
    products d g_l * adj[l][k]."""
    if frame.proj is not None:
        return frame.proj
    ring = chart.ring
    r = len(chart.ambient.generators)
    colset = set(frame.cols)
    free = [j for j in range(ring.nvars) if j not in colset]
    adj = frame.adj.entries
    degree = max(frame.q.total_degree(),
                 _top_degree(frame.jac.entries) + _top_degree(adj))
    _check_degree(degree)
    p = ring.field.characteristic
    off = ring.mul_off
    adj = [tuple(zip(a.keys, a.coeffs)) for a in adj]
    dg = [chart.partials.gradient(g) for g in chart.ambient.generators]
    proj = []
    for j in free:
        row = []
        for k in range(r):
            acc = {}
            for l in range(r):
                if dg[l][j] and adj[l * r + k]:
                    _mac(acc, dg[l][j], adj[l * r + k], off)
            row.append(tuple((key, -c) for key, c in _settle(acc, p).items()))
        proj.append(row)
    frame.proj = (free, tuple(zip(frame.q.keys, frame.q.coeffs)), proj, degree)
    return frame.proj


def _transverse(chart: Chart) -> list:
    """The variety generators outside the ambient list, in order: those
    inside it have identically zero rows, which no check reads."""
    ambient_set = set(chart.ambient.generators)
    return [f for f in chart.variety.generators if f not in ambient_set]


class DeltaCheck:
    """A delta frame check, whose rows are formed when its frame task runs
    it: the frame's test polynomial must lie in the radical of I_X plus the
    relative Jacobian rows of the generators fs on the frame, read in that
    order.  A row with a nonzero constant entry ends the check: the ideal
    is then the unit ideal, which radical_membership answers from that
    entry alone, with no basis, so no later row is formed."""

    kind = "delta"
    __slots__ = ("frame", "fs")

    def __init__(self, frame: FrameData, fs):
        self.frame = frame
        self.fs = fs

    def holds(self, budget: Budget) -> bool:
        frame = self.frame
        entries = []
        for f in self.fs:
            row = frame.row(f)
            if any(e.is_constant() and not e.is_zero() for e in row):
                return True
            entries.extend(row)
        # Ideal drops the zero entries
        return radical_membership(
            frame.test, frame.chart.variety.extended(entries), budget=budget)


def delta_frame_tasks(chart: Chart, budget: Optional[Budget] = None):
    """(enumeration, checks): one DeltaCheck per frame, in frame order.
    Each frame keeps its relative Jacobian rows, formed when first read,
    for the checks, the descent and the embedded step.  Frames that do not
    cover the chart (its ambient is singular where the localizer is
    invertible) raise ContractError."""
    budget = ensure_budget(budget)
    enum = enumerate_frames(chart, budget=budget)
    _require_cover(enum)
    fs = _transverse(chart)
    return enum, [DeltaCheck(frame, fs) for frame in enum.frames]


def _counted_minors(m: PolyMatrix, size: int, budget: Budget, reducer=None):
    """iter_minors(m, size, reducer) counted on budget: it gains the number
    of size-minors, C(rows, size) * C(cols, size), at once, and one minor
    per size-minor the walk forms.  Every minor formed, those of the
    prefixes the walk tests to prune row sets too, runs the budget's
    checkpoint, but only the size-minors count."""
    budget.minors_possible += comb(m.rows, size) * comb(m.cols, size)

    def checkpoint():
        budget.minors += 1
        budget.checkpoint()

    return iter_minors(m, size, reducer=reducer, checkpoint=checkpoint,
                       prefix_checkpoint=budget.checkpoint)


def singular_locus_ideal(chart: Chart, f: Polynomial,
                         budget: Optional[Budget] = None) -> Ideal:
    """Ideal of the singular points of V(I_W + f) as a hypersurface in W:
    I_W generators, then f, then the distinct nonzero (r+1)-minors of the
    stacked Jacobian in the order iter_minors yields them.  Rejects f
    already in I_W.  The descent builds it only for its covering step,
    whose charts D(g*h) come from these generators; whether the
    hypersurface is smooth is read from the frames (smooth_on_frames)."""
    budget = ensure_budget(budget)
    ring = chart.ring
    if ideal_membership(f, chart.ambient, budget=budget):
        raise DegenerateGeneratorError(f"{f} lies in the ambient ideal")
    r = len(chart.ambient.generators)
    stacked_polys = list(chart.ambient.generators) + [f]
    jac = chart.partials.jacobian(stacked_polys)
    mins = _counted_minors(jac, r + 1, budget)
    return Ideal(ring, [*stacked_polys, *mins])


def _covering_subset(g: Polynomial, hs, budget: Budget) -> Optional[list]:
    """Indices of a minimal S with g in the radical of (h_j : j in S), or
    None when g is not in the radical of all of hs.  S is the shortest
    prefix of hs that works, pruned in order: a member goes when g stays in
    the radical without it."""
    ring = g.ring

    def covers(picked):
        return radical_membership(g, Ideal(ring, [hs[j] for j in picked]),
                                  budget=budget)

    chosen = []
    for j in range(len(hs)):
        budget.checkpoint()
        chosen.append(j)
        if covers(chosen):
            break
    else:
        return None
    # the last member stays: without it a shorter prefix would have worked
    for j in chosen[:-1]:
        rest = [k for k in chosen if k != j]
        if covers(rest):
            chosen = rest
    return chosen


def smooth_on_frames(chart: Chart, enum: FrameEnumeration, f: Polynomial,
                     budget: Optional[Budget] = None) -> bool:
    """Whether V(I_W + f) is smooth where the localizer g is invertible,
    read frame by frame: g*q_i must lie in the radical of I_W + f + row_i
    for every frame i, where row_i = frames[i].row(f) is f's relative
    Jacobian row on that frame.  Rows are read only up to the first frame
    that fails, so no row is formed past it.

    Where q_i is nonzero the ambient rows are independent, so the stacked
    Jacobian (I_W; f) has rank r+1 exactly where some entry of row_i is
    nonzero; those entries are its (r+1)-minors through the frame columns.
    As the frames cover W on D(g), the answer equals g in the radical of
    singular_locus_ideal(chart, f), from n-r row entries per frame instead
    of every minor."""
    budget = ensure_budget(budget)
    for frame in enum.frames:
        budget.checkpoint()
        # Ideal drops the zero entries
        if not radical_membership(frame.test,
                                  chart.ambient.extended([f, *frame.row(f)]),
                                  budget=budget):
            return False
    return True


def smooth_generator(chart: Chart, enum: FrameEnumeration,
                     budget: Optional[Budget] = None):
    """The descent's first search: (gb_w, usable, f), the basis of the
    ambient I_W, the variety generators outside I_W, and the first of them
    whose hypersurface V(I_W + f) is smooth where the localizer is
    invertible (smooth_on_frames), or None when none is.

    Such an f also settles every delta check of the chart: smooth on frame
    i puts g*q_i in the radical of I_W + f + row_i(f), an ideal inside
    frame i's delta ideal, which is I_X plus every generator's row.  enum
    is the chart's frame enumeration; frames that do not cover the chart
    raise ContractError."""
    budget = ensure_budget(budget)
    _require_cover(enum)
    gb_w = buchberger(chart.ambient, budget=budget)
    usable = [f for f in chart.variety.generators if not gb_w.contains(f)]
    if not usable:
        raise ContractError(
            "descend called although the chart is already settled")
    for f in usable:
        budget.checkpoint()
        if smooth_on_frames(chart, enum, f, budget=budget):
            return gb_w, usable, f
    return gb_w, usable, None


def descend(chart: Chart, enum: FrameEnumeration, rng,
            combinations: bool = True,
            budget: Optional[Budget] = None, search=None) -> list:
    """Charts one level deeper: the ambient gains one variety generator.

    enum is the chart's frame enumeration, whose frames must cover the
    chart.  The new hypersurface must be smooth where g is invertible,
    which smooth_on_frames reads from its relative Jacobian rows, frame by
    frame.  Single generators are tried in order (smooth_generator, whose
    answer for this chart and enum the caller may pass as search, so it is
    not asked again), then up to three random linear combinations drawn
    from rng.  A combination is differentiated like any polynomial, when
    smooth_on_frames first reads its rows, and the chart's Partials table
    keeps its gradient.
    When none is smooth, the singular-locus ideals (with their minors) are
    built for a covering: from their generators h_j it picks a minimal set
    with g in the radical of (h_j), so the sets D(g * h_j) cover D(g), and
    each picked h_j spawns a chart on D(g * h_j) whose ambient uses the
    owning generator.  Every child shares the chart's Partials table, which
    already holds its new ambient generator's gradient.  Every child's
    ambient extends the chart's (Ideal.extended), so its basis is computed
    from the chart's ambient basis.
    """
    budget = ensure_budget(budget)
    ring = chart.ring
    g = chart.localizer

    for f in chart.variety.generators:
        if f.is_constant():
            return []  # unit ideal: nothing on this chart

    if search is None:
        search = smooth_generator(chart, enum, budget=budget)
    gb_w, usable, smooth = search

    def vacuous(amb, loc):
        # localizer vanishing on the new ambient means the chart is empty
        return radical_membership(loc, amb, budget=budget)

    def child_single(f):
        amb = chart.ambient.extended([f])
        if vacuous(amb, g):
            return []
        return [Chart(amb, chart.variety, g, chart.depth + 1, check=False,
                      partials=chart.partials)]

    if smooth is not None:
        return child_single(smooth)

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
            if smooth_on_frames(chart, enum, f, budget=budget):
                return child_single(f)

    combined = []
    owner = []
    for i, f in enumerate(usable):
        for h in singular_locus_ideal(chart, f, budget=budget).generators:
            combined.append(h)
            owner.append(i)
    chosen = _covering_subset(g, combined, budget)
    if chosen is None:
        raise DescentError(
            "no power of the localizer lies in the singular-locus sum")
    # a minimal set holds no generator twice, so no chart repeats
    children = []
    for j in chosen:
        h = combined[j]
        amb = chart.ambient.extended([usable[owner[j]]])
        if vacuous(amb, g * h):
            continue  # empty chart, covers no point of the variety
        children.append(Chart(amb, chart.variety, g * h, chart.depth + 1,
                              check=False, partials=chart.partials))
    return children


class MinorCheck:
    """A relative-criterion frame check, of the hybrid past its switch and
    of the Jacobian baseline, walked when its frame task runs: the frame's
    test polynomial must lie in the radical of the variety generators
    `head` plus the distinct `size`-minors of the relative Jacobian `rel`,
    each reduced by `reducer` (the normal form modulo I_X) as it is formed.
    Nothing is expanded until holds() runs, so a pending check keeps no
    minor memo, and the minors it forms count on the budget it runs on."""

    kind = "jacobian"
    __slots__ = ("frame", "head", "rel", "size", "reducer")

    def __init__(self, frame: FrameData, head, rel: PolyMatrix, size: int,
                 reducer):
        self.frame = frame
        self.head = head
        self.rel = rel
        self.size = size
        self.reducer = reducer

    def holds(self, budget: Budget) -> bool:
        mins = _counted_minors(self.rel, self.size, budget, self.reducer)
        return proved_by_minors(self.frame.test, self.head, mins, budget)


def proved_by_minors(test: Polynomial, head, minors, budget: Budget) -> bool:
    """Whether test lies in the radical of (head) plus the stream `minors`
    of distinct polynomials, none in (head): the criterion loop of every
    MinorCheck, test q*g on a frame of the hybrid or of the Jacobian
    baseline, whose root charts have one frame with test 1.

    The head plus the minors so far is tested after the 1st, 2nd, 4th, 8th,
    ... new minor and at once after a constant one.  A yes on a prefix
    proves the answer, since that ideal lies in the full one; only a no
    walks the whole stream, and the full ideal is then tested once, unless
    the last prefix tested was already all of it.  Every ideal tested
    extends the head's, so its run starts from the head's basis."""
    base = Ideal(test.ring, dict.fromkeys(head))
    mins = []
    new = tested = 0  # minors in the ideal, and in the last one tested
    for new, f in enumerate(minors, 1):
        mins.append(f)
        if f.is_constant() or not new & (new - 1):
            tested = new
            if radical_membership(test, base.extended(mins), budget=budget):
                return True
    if new and tested == new:
        return False
    return radical_membership(test, base.extended(mins), budget=budget)


def embedded_frame_tasks(chart: Chart, enum: FrameEnumeration, d_x: int,
                         budget: Optional[Budget] = None):
    """The relative Jacobian criterion at this chart, whose variety has
    dimension d_x below the ambient's: one MinorCheck per frame of enum,
    the enumeration delta_frame_tasks built for it, in frame order.  Each
    frame's relative Jacobian is stacked from the rows the frame keeps, so
    the frames are not enumerated again and no row is formed twice.  A
    relative codimension of 0 or less raises ContractError (the dimension
    exits settle that chart before any step), and so do frames that do not
    cover the chart."""
    budget = ensure_budget(budget)
    n = chart.ring.nvars
    r = len(chart.ambient.generators)
    c_rel = (n - r) - d_x
    if c_rel <= 0:
        raise ContractError(
            "the embedded step needs the ambient above the variety's "
            "dimension")
    _require_cover(enum)
    gb_x = buchberger(chart.variety, budget=budget)
    fs = _transverse(chart)
    return [MinorCheck(frame, chart.variety.generators,
                       PolyMatrix(chart.ring, len(fs), n - r,
                                  [e for f in fs for e in frame.row(f)]),
                       c_rel, gb_x.normal_form)
            for frame in enum.frames]
