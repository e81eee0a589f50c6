"""Resource limits and work accounting.

A Budget is handed down into every Groebner computation.  It carries the
shared wall-clock deadline and basis-size cap, and two kinds of counters:
per-task counters (deterministic, aggregated into reports) and shared
instrumentation counters (engine runs actually started, reported to the
observer, and how many of them started from a cached basis).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .errors import ContractError, LimitExceededError


@dataclass(frozen=True)
class Limits:
    """User-facing resource caps; None disables a cap, and a cap must be a
    number >= 0.

    max_basis caps the working basis of every Groebner engine run.  A run
    that starts from the cached basis of an ideal it extends counts those
    seed rows too: the cap is checked once the seed is in place, and again
    at every insertion."""
    time_s: Optional[float] = None
    max_basis: Optional[int] = None

    def __post_init__(self):
        if self.time_s is not None and (math.isnan(self.time_s)
                                        or self.time_s < 0):
            raise ContractError("time limit must be a number >= 0")
        if self.max_basis is not None and self.max_basis < 0:
            raise ContractError("max_basis must be >= 0")


class _SharedState:
    __slots__ = ("deadline", "max_basis", "gb_runs_started",
                 "gb_runs_seeded", "observer")

    def __init__(self, limits: Optional[Limits], observer=None):
        now = time.monotonic()
        self.deadline = (now + limits.time_s
                         if limits and limits.time_s is not None else None)
        self.max_basis = limits.max_basis if limits else None
        self.gb_runs_started = 0
        self.gb_runs_seeded = 0
        self.observer = observer


class Budget:
    """Per-task view onto the shared limit state.

    checkpoint() raises LimitExceededError past the deadline; engines call
    it at loop heads.
    """

    __slots__ = ("shared", "task_path", "gb_queries", "frames", "minors",
                 "minors_possible")

    def __init__(self, limits: Optional[Limits] = None, observer=None,
                 shared: Optional[_SharedState] = None,
                 task_path: tuple = ()):
        self.shared = shared if shared is not None else _SharedState(
            limits, observer)
        self.task_path = task_path
        self.gb_queries = 0
        self.frames = 0
        # size-minors formed: determinants of the size a walk asks for; the
        # smaller minors it forms to prune row sets are not counted
        self.minors = 0
        self.minors_possible = 0  # C(rows, size) * C(cols, size) per walk

    def child(self, task_path: tuple) -> "Budget":
        return Budget(shared=self.shared, task_path=task_path)

    def checkpoint(self):
        dl = self.shared.deadline
        if dl is not None and time.monotonic() > dl:
            raise LimitExceededError("time")

    def basis_guard(self, size: int):
        cap = self.shared.max_basis
        if cap is not None and size > cap:
            raise LimitExceededError("basis", f"{size} elements")

    def record_query(self):
        self.gb_queries += 1

    def record_run_start(self, seeded: bool = False):
        sh = self.shared
        sh.gb_runs_started += 1
        sh.gb_runs_seeded += seeded
        if sh.observer is not None:
            sh.observer.on_gb_start(self.task_path)

    @property
    def runs_started(self) -> int:
        return self.shared.gb_runs_started

    @property
    def runs_seeded(self) -> int:
        """Engine runs started from a cached basis; depends on cache
        warmth, so it is timing, never a stat."""
        return self.shared.gb_runs_seeded


def ensure_budget(budget: Optional[Budget]) -> Budget:
    return budget if budget is not None else Budget()
