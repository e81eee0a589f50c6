"""Top-level smoothness verdicts and the walk over the chart task tree.

The recursive test is broken into small tasks of three kinds, addressed by
tuple paths: a chart task runs one chart's structural checks, a frame task
one of its independent frame checks, and a step task, joined after the
chart's delta frames, descends or spawns relative Jacobian frame checks.
Which of the two a chart does is read off the chart itself (_descends).
The Jacobian baseline is the relative criterion with no delta frame: a
root chart has one frame, and its step spawns that frame's minor check.
A chart whose descent search finds a hypersurface smooth on every frame
descends in its own task, since that settles its delta frames too.
Tasks run depth first in path order, one at a time on the calling thread,
and the first failure ends the run: it commits at once, so the witness is
the minimal failing path in the whole tree, no task starts after the
commit, and the verdict, witness and statistics are identical for every
job count.  Each task also gets a finish time on the critical path, the
time it would end if every task started as soon as those it waits on had
finished.  A projective run's roots are the standard charts x_i = 1; one
that the charts before it cover passes in its chart task, with one exact
query and no frame, since a singular point on it lies on an earlier chart,
which fails first.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .charts import (Chart, delta_frame_tasks, descend, embedded_frame_tasks,
                     smooth_generator)
from .errors import (ContractError, LimitExceededError,
                     NonHomogeneousError, VarsmoothError)
from .groebner import Ideal, krull_dimension, radical_membership
from .limits import Budget, Limits
from .poly import Polynomial, dehomogenize

MODES = ("hironaka", "hybrid", "jacobian")


@dataclass(frozen=True)
class Config:
    """Run parameters.

    mode selects the descent test, the hybrid variant, or the classical
    Jacobian criterion as a baseline, which each chart runs as the
    relative criterion on its frames (a root chart has one), with no delta
    frame and no descent.  descent_depth applies to hybrid mode: a chart
    descends while its depth is below it, and then switches to the
    relative Jacobian criterion.  to_codim, when set, replaces it: a chart
    descends while its relative codimension is above to_codim.
    combinations toggles the random-linear-combination shortcut during
    descent.  jobs must be >= 1; runs are sequential, and no report
    depends on it.
    """

    mode: str = "hironaka"
    descent_depth: int = 0
    to_codim: Optional[int] = None
    jobs: int = 1
    seed: int = 0
    limits: Limits = field(default_factory=Limits)
    combinations: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.descent_depth < 0:
            raise ContractError("descent_depth must be >= 0")
        if self.to_codim is not None and self.to_codim < 0:
            raise ContractError("to_codim must be >= 0")
        if self.jobs < 1:
            raise ContractError("jobs must be >= 1")


class Observer:
    """No-op hooks; subclass to instrument a run.

    Callbacks fire on the calling thread, in the order the events happen,
    and must be quick.  on_gb_start fires when a Groebner engine run
    actually starts (cache misses only); on_commit fires exactly once when
    a verdict commits; on_task_start / on_task_done bracket every task
    execution and name its kind (chart, frame or step); on_cover reports
    each chart's frame enumeration once per chart, its frames with their
    determinants q and test polynomials q*g, so covers can be re-verified
    after the run; in every mode, the Jacobian baseline's one frame per
    root chart included.  Only enumerations whose frames cover the chart
    are reported: a chart whose frames do not ends the run as a broken
    precondition.  A projective root chart that the root charts before it
    cover enumerates no frame and is not reported.
    """

    def on_gb_start(self, task_path):
        pass

    def on_task_start(self, path, kind):
        pass

    def on_task_done(self, path, kind, passed):
        pass

    def on_commit(self, path):
        pass

    def on_cover(self, path, chart, enumeration):
        pass


@dataclass(frozen=True)
class Witness:
    """Locates a failed frame check: the frame task's path, the chart
    depth, the kind of check (delta or jacobian), the frame's columns, and
    fingerprints of the chart data."""

    path: tuple
    depth: int
    kind: str
    frame_cols: tuple
    ambient: str
    variety: str
    localizer: str

    def as_dict(self):
        return {
            "path": list(self.path),
            "depth": self.depth,
            "kind": self.kind,
            "frame_cols": list(self.frame_cols),
            "ambient": self.ambient,
            "variety": self.variety,
            "localizer": self.localizer,
        }


@dataclass
class Verdict:
    status: str                     # smooth | singular | indeterminate
    mode: str
    witness: Optional[Witness]
    stats: dict
    # wall_s; sequential_s, the sum of the task times; sim_parallel_s, the
    # critical path of the tasks run, in which a frame waits on its chart,
    # a step on its chart and frames, and a child chart on its step;
    # gb_runs, gb_runs_seeded
    timing: dict
    reason: Optional[str] = None
    # indeterminate only: limit | precondition | internal
    reason_kind: Optional[str] = None

    def as_report(self, include_timing: bool = False) -> dict:
        rep = {
            "status": self.status,
            "mode": self.mode,
            "witness": self.witness.as_dict() if self.witness else None,
            "stats": dict(self.stats),
            "reason": self.reason,
            "reason_kind": self.reason_kind,
        }
        if include_timing:
            rep["timing"] = dict(self.timing)
        return rep


class _RunContext:
    __slots__ = ("config", "observer", "root_budget")

    def __init__(self, config: Config, observer: Observer):
        self.config = config
        self.observer = observer
        self.root_budget = Budget(limits=config.limits, observer=observer)

    def rng_for(self, path) -> random.Random:
        return random.Random(f"{self.config.seed}|{path}")


class _Outcome:
    __slots__ = ("fail", "spawn", "joined")

    def __init__(self, fail=None, spawn=(), joined=None):
        self.fail = fail
        self.spawn = list(spawn)
        self.joined = joined


class _Task:
    kind = "task"
    __slots__ = ("path", "depth")

    def __init__(self, path, depth):
        self.path = tuple(path)
        self.depth = depth

    def run(self, ctx: _RunContext, budget: Budget) -> _Outcome:
        raise NotImplementedError


def _dimension_exits(chart: Chart, budget,
                     d_x: Optional[int] = None) -> Optional[int]:
    """The exits that read the variety's dimension d_x: an empty variety,
    or one of the smooth ambient's dimension, which includes X = W on D(g)
    (descend keeps no chart with W off D(g)).  d_x is computed unless the
    caller knows it already.  Returns d_x, or None when one settles it."""
    if d_x is None:
        d_x = krull_dimension(chart.variety, budget=budget)
    if d_x < 0:
        return None  # empty variety

    r = len(chart.ambient.generators)
    n = chart.ring.nvars
    if n - r < d_x:
        raise ContractError(
            "ambient dimension fell below the variety's; the input is "
            "likely not equidimensional or not radical")
    if n - r == d_x:
        # the ambient is smooth of the variety's dimension, so the
        # variety is a union of its connected components here
        return None
    return d_x


def _descends(cfg: Config, chart: Chart, d_x: int) -> bool:
    """Whether a chart whose variety has dimension d_x descends, rather
    than take the relative Jacobian criterion: always in hironaka mode,
    never in jacobian mode, and in hybrid mode while its depth is below
    descent_depth, or, with to_codim set, while its relative codimension
    n - r - d_x is above to_codim.  A descent adds one ambient generator
    and keeps the variety, so the relative codimension falls by one per
    level."""
    if cfg.mode != "hybrid":
        return cfg.mode == "hironaka"
    if cfg.to_codim is None:
        return chart.depth < cfg.descent_depth
    n, r = chart.ring.nvars, len(chart.ambient.generators)
    return n - r - d_x > cfg.to_codim


class _ChartTask(_Task):
    """Structural checks for one chart, then either a settled answer or
    delta frame subtasks joined by the chart's step.  In jacobian mode the
    chart spawns no delta frame and goes straight to its step.

    The exits that read the variety's dimension d_x run first only on a
    chart with ambient generators, which descend made: it keeps its
    parent's variety, so the parent's step hands down d_x, the exits ask
    for no basis, and a chart they settle spawns no frames.  With an empty
    ambient the delta frames do not depend on d_x and a failing one is a
    witness by itself, so only the syntactic exits run first (a constant
    generator, the zero ideal) and the step runs the rest once the frames
    all passed.

    A chart with ambient generators that will descend (_descends) runs the
    descent's single-generator search (smooth_generator) before any frame.
    A generator smooth on every frame settles every delta check too, so
    the chart spawns no frame task and no step: it counts its frames as
    passed and spawns the child at the path the step would have given it.
    Otherwise the frames and the step run as on any chart, and the step
    takes the search's answer instead of asking again."""

    kind = "chart"
    __slots__ = ("chart", "d_x")

    def __init__(self, path, chart: Optional[Chart], d_x=None):
        super().__init__(path, chart.depth if chart is not None else 0)
        self.chart = chart
        self.d_x = d_x

    def run(self, ctx, budget):
        return self._check(ctx, budget, self.chart)

    def _check(self, ctx, budget, chart):
        cfg = ctx.config

        for f in chart.variety.generators:
            if f.is_constant():
                return _Outcome()  # unit ideal, nothing to check

        d_x = None
        if chart.ambient.generators:
            d_x = _dimension_exits(chart, budget, self.d_x)
            if d_x is None:
                return _Outcome()
        elif not chart.variety.generators:
            return _Outcome()  # the zero ideal: the whole space, smooth

        enum, checks = delta_frame_tasks(chart, budget=budget)
        ctx.observer.on_cover(self.path, chart, enum)
        if cfg.mode == "jacobian":
            checks = []  # the baseline runs no delta frame
        step_path = self.path + (len(checks),)
        search = None
        if chart.ambient.generators and _descends(cfg, chart, d_x):
            search = smooth_generator(chart, enum, budget=budget)
            if search[2] is not None:
                budget.frames += len(checks)  # settled by the search
                children = descend(chart, enum, ctx.rng_for(step_path),
                                   combinations=cfg.combinations,
                                   budget=budget, search=search)
                return _Outcome(spawn=[
                    _ChartTask(step_path + (j,), child, d_x)
                    for j, child in enumerate(children)])
        frame_tasks = [_FrameTask(self.path + (i,), check)
                       for i, check in enumerate(checks)]
        step = _StepTask(step_path, chart, enum, d_x, search)
        return _Outcome(spawn=frame_tasks, joined=step)


class _RootChartTask(_ChartTask):
    """The standard affine chart x_i = 1 of a projective variety.  Its ideal
    is dehomogenized when the task runs, so a root chart after the first
    failure is never built, and the task keeps no chart: the tree holds it
    only while its tasks are walked.

    Chart i > 0 is covered by the charts before it when 1 lies in
    I_i + (x_0, ..., x_{i-1}), I_i the ideal dehomogenized at x_i (x_j
    keeps its index for j < i): every point with x_i != 0 then has an
    earlier x_j != 0.  Such a chart passes without a frame: a singular
    point on it lies on an earlier chart, which fails first."""

    __slots__ = ("ideal", "var")

    def __init__(self, path, ideal: Ideal, var: int):
        super().__init__(path, None)
        self.ideal = ideal
        self.var = var

    def run(self, ctx, budget):
        i = self.var
        ring = self.ideal.ring.drop(i)
        gens = [dehomogenize(f, i) for f in self.ideal.generators]
        if i and radical_membership(
                Polynomial.constant(ring, 1),
                Ideal(ring, gens + [Polynomial.variable(ring, j)
                                    for j in range(i)]),
                budget=budget):
            return _Outcome()  # covered by root charts 0 .. i-1
        return self._check(ctx, budget, Chart.root(Ideal(ring, gens)))


class _FrameTask(_Task):
    """One frame check, a DeltaCheck (radical membership in the frame's
    delta ideal) or a MinorCheck (the relative criterion's minor stream):
    the frame passes when check.holds(budget) says its test polynomial
    vanishes where the check requires, and fails with a witness
    otherwise."""

    kind = "frame"
    __slots__ = ("check",)

    def __init__(self, path, check):
        super().__init__(path, check.frame.chart.depth)
        self.check = check

    def run(self, ctx, budget):
        budget.frames += 1
        check = self.check
        if check.holds(budget):
            return _Outcome()
        frame = check.frame
        chart = frame.chart
        return _Outcome(fail=Witness(
            self.path, chart.depth, check.kind, frame.cols,
            chart.ambient.fingerprint(), chart.variety.fingerprint(),
            str(chart.localizer)))


class _StepTask(_Task):
    """Joined after a chart's delta frames, at the chart's path plus (number
    of frames,).  It runs the dimension exits when the chart task did not
    (d_x is None, an empty ambient), then either descends (_descends) or,
    in jacobian mode and in hybrid mode past the switch, spawns the
    relative Jacobian frame checks.  Both read the frame enumeration enum
    that the chart task built, with its frames' relative Jacobian rows,
    and the descent takes the chart task's failed single-generator search
    when it ran one.  A child chart keeps this chart's variety, so it is
    handed d_x."""

    kind = "step"
    __slots__ = ("chart", "enum", "d_x", "search")

    def __init__(self, path, chart, enum, d_x, search=None):
        super().__init__(path, chart.depth)
        self.chart = chart
        self.enum = enum
        self.d_x = d_x
        self.search = search

    def run(self, ctx, budget):
        chart = self.chart
        cfg = ctx.config
        d_x = self.d_x
        if d_x is None:
            d_x = _dimension_exits(chart, budget)
            if d_x is None:
                return _Outcome()

        if not _descends(cfg, chart, d_x):
            checks = embedded_frame_tasks(chart, self.enum, d_x,
                                          budget=budget)
            return _Outcome(spawn=[_FrameTask(self.path + (i,), check)
                                   for i, check in enumerate(checks)])

        children = descend(chart, self.enum, ctx.rng_for(self.path),
                           combinations=cfg.combinations, budget=budget,
                           search=self.search)
        return _Outcome(spawn=[
            _ChartTask(self.path + (j,), child, d_x)
            for j, child in enumerate(children)])


class _TaskRecord:
    __slots__ = ("path", "kind", "depth", "gb_queries", "frames", "minors",
                 "minors_possible", "dur", "finish")

    def __init__(self, path, kind, depth, budget: Budget, dur, finish):
        self.path = path
        self.kind = kind
        self.depth = depth
        self.gb_queries = budget.gb_queries
        self.frames = budget.frames
        self.minors = budget.minors
        self.minors_possible = budget.minors_possible
        self.dur = dur
        self.finish = finish


def _execute(ctx: _RunContext, task):
    """Run one task under its own budget; a raised error becomes an event
    (reason_kind, reason) in place of the outcome."""
    budget = ctx.root_budget.child(task.path)
    ctx.observer.on_task_start(task.path, task.kind)
    t0 = time.monotonic()
    passed = False
    try:
        outcome = task.run(ctx, budget)
        passed = outcome.fail is None
    except LimitExceededError as e:
        outcome = ("limit", f"limit: {e}")
    except MemoryError:
        outcome = ("limit", "memory exhausted")
    except VarsmoothError as e:
        outcome = ("precondition", f"{type(e).__name__}: {e}")
    except Exception as e:  # a task panic surfaces as indeterminate
        outcome = ("internal", f"internal {type(e).__name__}: {e}")
    dur = time.monotonic() - t0
    ctx.observer.on_task_done(task.path, task.kind, passed)
    return outcome, dur, budget


def _walk(ctx: _RunContext, task, ready, records):
    """Run task, ready at time ready on the critical path, then the tasks
    it spawns in order, each ready at its finish, then its joined step,
    ready at the latest finish among the task and its frames.  Every path
    a task spawns extends its own, and a step's path follows its chart's
    last frame, so this depth-first walk runs paths in increasing order.
    Appends one record per task and returns the first event, (path,
    ("fail", witness)) or (path, (reason_kind, reason)), or None."""
    outcome, dur, budget = _execute(ctx, task)
    finish = ready + dur
    mark = len(records)
    records.append(_TaskRecord(task.path, task.kind, task.depth, budget,
                               dur, finish))
    if not isinstance(outcome, _Outcome):
        return task.path, outcome
    if outcome.fail is not None:
        return task.path, ("fail", outcome.fail)
    for sub in outcome.spawn:
        event = _walk(ctx, sub, finish, records)
        if event is not None:
            return event
    if outcome.joined is None:
        return None
    joined_ready = max(r.finish for r in records[mark:])
    return _walk(ctx, outcome.joined, joined_ready, records)


def _verdict(ctx: _RunContext, event, records) -> Verdict:
    cfg = ctx.config
    stats = {
        "charts": sum(1 for r in records if r.kind == "chart"),
        "frames": sum(r.frames for r in records),
        "gb_queries": sum(r.gb_queries for r in records),
        "max_depth": max((r.depth for r in records if r.kind == "chart"),
                         default=0),
        "minors": sum(r.minors for r in records),
        "minors_possible": sum(r.minors_possible for r in records),
    }
    budget = ctx.root_budget
    # engine runs depend on cache warmth, so they are timing, not stats
    timing = {"sim_parallel_s": max(r.finish for r in records),
              "sequential_s": sum(r.dur for r in records),
              "gb_runs": budget.runs_started,
              "gb_runs_seeded": budget.runs_seeded}
    if event is None:
        return Verdict("smooth", cfg.mode, None, stats, timing)
    kind, info = event[1]
    if kind == "fail":
        return Verdict("singular", cfg.mode, info, stats, timing)
    return Verdict("indeterminate", cfg.mode, None, stats, timing,
                   reason=info, reason_kind=kind)


def _run(roots, config: Optional[Config],
         observer: Optional[Observer]) -> Verdict:
    """Walk the roots, a non-empty list, in order until the first event,
    which commits."""
    config = config if config is not None else Config()
    observer = observer if observer is not None else Observer()
    ctx = _RunContext(config, observer)
    records = []
    t0 = time.monotonic()
    for root in roots:
        event = _walk(ctx, root, 0.0, records)
        if event is not None:
            observer.on_commit(event[0])
            break
    verdict = _verdict(ctx, event, records)
    verdict.timing["wall_s"] = time.monotonic() - t0
    return verdict


def run_parallel(charts, config: Optional[Config] = None,
                 observer: Optional[Observer] = None) -> Verdict:
    """Run the task tree rooted at the given charts, at least one.  Tasks
    run depth first in path order and the first failure ends the run, so
    the verdict, witness and statistics are the same for every job
    count."""
    if not charts:
        raise ContractError("run_parallel needs at least one chart")
    roots = [_ChartTask((i,) if len(charts) > 1 else (), chart)
             for i, chart in enumerate(charts)]
    return _run(roots, config, observer)


def smoothness_test(ideal: Ideal, config: Optional[Config] = None,
                    observer: Optional[Observer] = None) -> Verdict:
    """Decide smoothness of the affine variety cut out by the ideal.

    The ideal must be radical and equidimensional; this is a documented
    precondition, not something the test verifies.  Tasks run depth first
    in path order and the first failure ends the run.  Returns a Verdict
    with status smooth, singular (with the first failing check as its
    witness), or indeterminate (limits or input-contract violations, with a
    reason)."""
    return _run([_ChartTask((), Chart.root(ideal))], config, observer)


def projective_smoothness(ideal: Ideal, config: Optional[Config] = None,
                          observer: Optional[Observer] = None) -> Verdict:
    """Decide smoothness of the projective variety of a homogeneous ideal
    by testing the standard affine charts x_i = 1 in ascending variable
    order; each chart is built only when its task runs, so no chart after
    the first failure is built.  A chart that the charts before it cover
    passes without a frame (_RootChartTask); the verdict, witness and
    reason are those of a walk over every chart."""
    ring = ideal.ring
    if ring.nvars < 2:
        raise ContractError("projective input needs at least two variables")
    for f in ideal.generators:
        if not f.is_homogeneous():
            raise NonHomogeneousError(f"{f} is not homogeneous")
    roots = [_RootChartTask((i,), ideal, i) for i in range(ring.nvars)]
    return _run(roots, config, observer)
