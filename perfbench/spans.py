"""Span tracing around varsmooth's public functions, from outside the package.

A Tracer wraps functions and methods so that every call records a span:
its name, start, end, the span that caused it and the instance being
solved.  The wrappers go on the defining module and on every other binding
of the same function object (modules that imported it by name, the
package's re-exports, class aliases such as ``Polynomial.__radd__``), so
calls made through any of them are seen.  ``installed`` puts them in place
and restores every original attribute afterwards.

Each thread keeps its own span stack, so spans of a worker thread nest
under that thread's open span, or under the instance span when the thread
has none open.  A span's self time is its duration minus the time of its
children on the same thread, which never overlap each other.  Calls and
self times are summed per name as spans close; full span records are kept
in memory for every name except the ones marked hot (called so often that
keeping each record would cost more than the work), and written out by the
caller when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

# (metric prefix, module, attribute path, report self time)
LAYERS = (
    ("charts.enumerate_frames", "varsmooth.charts", "enumerate_frames", True),
    ("charts.descend", "varsmooth.charts", "descend", True),
    ("charts.relative_jacobian", "varsmooth.charts", "relative_jacobian", True),
    ("charts.singular_locus_ideal", "varsmooth.charts",
     "singular_locus_ideal", True),
    ("charts.delta_frame_tasks", "varsmooth.charts", "delta_frame_tasks",
     True),
    ("charts.embedded_frame_tasks", "varsmooth.charts",
     "embedded_frame_tasks", True),
    ("charts.affine_jacobian_criterion", "varsmooth.charts",
     "affine_jacobian_criterion", True),
    ("matrix.adjugate", "varsmooth.matrix", "adjugate", True),
    ("matrix.determinant", "varsmooth.matrix", "determinant", True),
    ("matrix.minors", "varsmooth.matrix", "minors", True),
    ("matrix.jacobian", "varsmooth.matrix", "jacobian", True),
    ("groebner.buchberger", "varsmooth.groebner", "buchberger", True),
    ("groebner.radical_membership", "varsmooth.groebner",
     "radical_membership", True),
    ("groebner.krull_dimension", "varsmooth.groebner", "krull_dimension",
     True),
    ("groebner.equal_on_chart", "varsmooth.groebner", "equal_on_chart", True),
    ("groebner.GroebnerBasis.normal_form", "varsmooth.groebner",
     "GroebnerBasis.normal_form", True),
    ("groebner.lift_power", "varsmooth.groebner", "lift_power", True),
    ("poly.mul", "varsmooth.poly", "Polynomial.__mul__", True),
    ("poly.add", "varsmooth.poly", "Polynomial.__add__", False),
    ("kernel.reduce_terms", None, "reduce_terms", True),
)

HOT = frozenset({"poly.mul", "poly.add", "kernel.reduce_terms",
                 "groebner.GroebnerBasis.normal_form", "matrix.determinant"})


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "spans", "counters", "bases")

    def __init__(self):
        self.stack = []      # open frames: [name, t0, child_s, id, parent]
        self.calls = {}
        self.self_s = {}
        self.spans = []      # (id, parent, name, instance, thread, t0, t1)
        self.counters = {}
        self.bases = {}      # id -> Groebner basis returned by buchberger


class Tracer:
    """Span recorder.  ``clock`` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter, hot=HOT):
        self.clock = clock
        self.hot = frozenset(hot)
        self.instance = None
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    # span primitives ------------------------------------------------------

    def enter(self, name):
        st = self._state()
        stack = st.stack
        parent = stack[-1][3] if stack else self.root
        frame = [name, 0.0, 0.0, next(self._ids), parent]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame):
        t1 = self.clock()
        st = self._state()
        st.stack.pop()
        name, t0, child_s, sid, parent = frame
        dur = t1 - t0
        if st.stack:
            st.stack[-1][2] += dur
        st.calls[name] = st.calls.get(name, 0) + 1
        st.self_s[name] = st.self_s.get(name, 0.0) + dur - child_s
        if name not in self.hot:
            st.spans.append((sid, parent, name, self.instance,
                             threading.get_ident(), t0, t1))

    @contextmanager
    def instance_span(self, label):
        """Root span of one instance; worker-thread spans parent to it."""
        self.instance = label
        frame = self.enter("instance")
        self.root = frame[3]
        try:
            yield
        finally:
            self.exit(frame)
            self.root = None
            self.instance = None

    def wrap(self, name, fn, post=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if post is not None:
                post(self._state(), result)
            return result
        return wrapper

    # results --------------------------------------------------------------

    def totals(self):
        """(calls, self_s, counters) summed over all threads."""
        calls, self_s, counters = {}, {}, {}
        for st in self._states:
            for src, dst in ((st.calls, calls), (st.self_s, self_s),
                             (st.counters, counters)):
                for k, v in src.items():
                    if k.startswith("max_"):
                        dst[k] = max(dst.get(k, 0), v)
                    else:
                        dst[k] = dst.get(k, 0) + v
        return calls, self_s, counters

    def spans(self):
        out = [s for st in self._states for s in st.spans]
        out.sort(key=lambda s: s[0])
        return out

    def bases(self):
        return [b for st in self._states for b in st.bases.values()]

    def forget_bases(self):
        for st in self._states:
            st.bases.clear()


def _count(st, key, n=1):
    st.counters[key] = st.counters.get(key, 0) + n


def _post_enumerate(st, enum):
    _count(st, "frames_kept", len(enum.frames))


def _post_adjugate(st, _):
    if any(f[0] == "charts.enumerate_frames" for f in st.stack):
        _count(st, "adjugate_in_enumerate")


def _post_minors(st, out):
    _count(st, "minors_out", len(out))


def _post_buchberger(st, gb):
    st.bases[id(gb)] = gb
    n = len(gb.elements)
    if n > st.counters.get("max_basis", 0):
        st.counters["max_basis"] = n


POSTS = {
    "charts.enumerate_frames": _post_enumerate,
    "matrix.adjugate": _post_adjugate,
    "matrix.minors": _post_minors,
    "groebner.buchberger": _post_buchberger,
}


def coeff_bits(bases) -> int:
    """Largest numerator or denominator bit length over the bases."""
    best = 0
    for gb in bases:
        for e in gb.elements:
            for c in e.coeffs:
                best = max(best, int(c.numerator).bit_length(),
                           int(c.denominator).bit_length())
    return best


def kernel_module_name():
    """Module holding the active reduce_terms: the kernel shim's choice
    while it exists, the Groebner module once the kernel is folded in."""
    kernel = sys.modules.get("varsmooth.kernel")
    if kernel is not None and hasattr(kernel, "active"):
        return kernel.active.__name__
    return "varsmooth.groebner"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "varsmooth"
                                  or name.startswith("varsmooth."))]


def _bindings(owner, original):
    """Every (namespace, name) bound to the original object: the owner
    itself, and for module functions every package module importing it."""
    if isinstance(owner, type):
        spaces = [owner]
    else:
        spaces = _package_modules()
    found = []
    for space in spaces:
        for name, value in list(vars(space).items()):
            if value is original:
                found.append((space, name))
    return found


def _resolve(module_name, path):
    """(owner, object) for a dotted path in a loaded module, or Nones."""
    obj = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part, None)
    original = vars(obj).get(attr) if obj is not None else None
    if original is None:
        return None, None
    return obj, original


@contextmanager
def installed(tracer: Tracer):
    """Install a wrapper for every layer that exists in the loaded package;
    restore every replaced attribute on exit.  Missing layers are skipped,
    so their counts read zero."""
    replaced = []
    try:
        for name, module_name, path, _ in LAYERS:
            owner, original = _resolve(module_name or kernel_module_name(),
                                       path)
            if owner is None:
                continue
            wrapper = tracer.wrap(name, original, POSTS.get(name))
            for space, bound in _bindings(owner, original):
                replaced.append((space, bound, original))
                setattr(space, bound, wrapper)
        yield
    finally:
        for space, bound, original in reversed(replaced):
            setattr(space, bound, original)
