"""Groebner bases under degrevlex, with the derived ideal predicates.

One Buchberger engine runs with normal-strategy pair selection, reducing
over the integers (pseudo-division on primitive polynomials) for rational
input and over F_p directly.  It takes the generators in ascending
leading-key order, whatever order the caller gave, so low-degree
generators enter first and reduce the later ones.  Its pair queue works on
the exponent lanes of packed keys: a new element's candidate pairs are
pruned by proper lcm divisibility, then to the lowest index per lcm, then
by coprime leads, and the chain criterion deletes queued pairs (see
_PairQueue for the exact rules, which differ from Gebauer-Moeller in the
coprime step).  On those lanes a proper divisor of an lcm is a smaller
integer, so the divisibility test needs no degree ranking: the distinct
lcms are sorted as plain ints and each is tested against the smaller
ones.

Before the first S-pair, each generator row has its tail (every term after
its lead) reduced by the other rows: a generator is reduced only by the
rows inserted before it, and a later lead may divide its tail.  A row whose
lead is below every later lead is skipped, since no later lead can divide a
term below it.  The pass is exact.  A rewritten row is mult*r minus
multiples of the other rows, each below r's lead, so the ideal and every
lead stay as they were, and the pair queue reads only leads.  The reduced
basis is unique, so the run returns the rows it would without the pass;
the S-pairs, of which most reduce to zero on singular inputs in general
coordinates, meet shorter rows.  Over QQ a rewritten row can carry larger
integers (each reduction step scales it), which is what the pass costs.

Most ideals asked about are a known ideal plus a few polynomials, built by
Ideal.extended, which keeps a link to that base.  On a cache miss the
engine starts from the base's cached basis, when there is one; the cache
is the only place a run finds a seed.  The seed's rows become the initial
basis and their leads enter the pair queue with no pair formed among them,
since a Groebner basis's own S-pairs all reduce to zero by it (Gebauer and
Moeller, "On an installation of Buchberger's algorithm", J. Symbolic
Comput. 6, 1988).  Only the new generators are then reduced and inserted.
Looking up the base is a peek, not a query.  A reduced basis is unique, so
a seeded run returns the rows a cold one would, and no verdict, witness or
stat depends on whether a run was seeded.

Radical membership first tries two exact certificates, read from the
constant terms alone (the last packed key of a polynomial, since the
constant monomial is the smallest): a nonzero constant generator makes I
the unit ideal, so every f is in its radical; and when every generator
vanishes at the origin but f does not, the origin is a zero of I off the
zero set of f, so f is not.  Both hold over QQ and F_p alike, and an answer
they give builds no basis and is not counted as a Groebner query.  Other
questions use the extra-variable trick: f lies in the radical of I exactly
when I together with 1 - t*f generates the unit ideal in the extended
ring.  The cached basis of I, or else of the ideal I extends, is lifted
into the extended ring and cached under the lifted ideal the first time,
so that run's peek at its base starts from it.  Every predicate takes an
Ideal, and raises RingMismatchError for a polynomial of another ring.  No
elimination orders are used anywhere.
"""

from __future__ import annotations

import hashlib
import heapq
from itertools import combinations
from math import gcd
from typing import Optional

from .errors import RingMismatchError
from .fields import mpq
from .limits import Budget, ensure_budget
from .poly import Polynomial, _content, _mac, _settle
from .ring import Ring


def _check_ring(f: Polynomial, ring: Ring):
    if f.ring is not ring and f.ring != ring:
        raise RingMismatchError(f"polynomial in {f.ring!r}, ideal in {ring!r}")


class Ideal:
    """A finite generating set in a fixed ring; zero generators are
    dropped, so the empty tuple is the zero ideal.  The hash is computed
    when first asked for, so an ideal never used as a cache key is never
    hashed.

    base is the ideal this one extends when it was made by extended(): its
    generators are then the first len(base) generators here.  The link only
    lets a Groebner run start from the base's basis; it takes no part in
    ==, the hash or the fingerprint, and neither does the memo _lifted."""

    __slots__ = ("ring", "generators", "_hash", "base", "_lifted")

    def __init__(self, ring: Ring, generators):
        gens = []
        for g in generators:
            _check_ring(g, ring)
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._hash = None
        self.base = None
        self._lifted = None

    def extended(self, more) -> "Ideal":
        """This ideal's generators followed by more, linked to this ideal as
        its base."""
        ideal = Ideal(self.ring, more)
        ideal.generators = self.generators + ideal.generators
        ideal.base = self
        return ideal

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring == other.ring
                and self.generators == other.generators)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ring, self.generators))
        return h

    def __len__(self):
        return len(self.generators)

    def fingerprint(self) -> str:
        h = hashlib.blake2s(digest_size=8)
        h.update(repr(self.ring).encode())
        for g in self.generators:
            h.update(b"|")
            for k, c in zip(g.keys, g.coeffs):
                h.update(f"{k}:{c};".encode())
        return h.hexdigest()

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"<ideal ({inner})>"


class GroebnerBasis:
    """Reduced basis: monic elements, ascending leading keys, pairwise
    non-divisible leads.

    It is built from the engine's rows (keys, coeffs): primitive with
    positive leading coefficient over QQ, monic residues over F_p, in
    ascending leading-key order.  Reduction runs on those rows, kept as
    prepared divisors; the monic Polynomial elements are built only when
    first read, and the ideal's dimension when krull_dimension first asks."""

    __slots__ = ("ideal", "_elements", "_divisors", "_lead_keys", "_dim")

    def __init__(self, ideal: Ideal, rows):
        p = ideal.ring.field.characteristic
        self.ideal = ideal
        self._elements = None
        self._dim = None
        self._divisors = [prepare_divisor(k, c, p) for k, c in rows]
        self._lead_keys = tuple(k[0] for k, _ in rows)

    @property
    def elements(self):
        els = self._elements
        if els is None:
            ring = self.ideal.ring
            p = ring.field.characteristic
            els = []
            for lead, lc, tkeys, tcoeffs, _ in self._divisors:
                coeffs = (lc,) + tcoeffs
                if not p:
                    lc = mpq(lc)
                    coeffs = [mpq(c) / lc for c in coeffs]
                els.append(Polynomial(ring, (lead,) + tkeys, coeffs))
            els = self._elements = tuple(els)
        return els

    def is_unit(self) -> bool:
        return self._lead_keys == (self.ideal.ring.one_key,)

    def is_zero_ideal(self) -> bool:
        return not self._lead_keys

    def _reduce_raw(self, f: Polynomial):
        zk, zc, scale = f.zform()
        ring = self.ideal.ring
        rk, rc, mult = reduce_terms(
            dict(zip(zk, zc)), self._divisors, ring.guards,
            ring.field.characteristic)
        return rk, rc, mult, scale

    def contains(self, f: Polynomial) -> bool:
        _check_ring(f, self.ideal.ring)
        if f.is_zero():
            return True
        rk, _, _, _ = self._reduce_raw(f)
        return not rk

    def normal_form(self, f: Polynomial) -> Polynomial:
        ring = self.ideal.ring
        _check_ring(f, ring)
        if f.is_zero():
            return f
        rk, rc, mult, scale = self._reduce_raw(f)
        p = ring.field.characteristic
        if p:
            return Polynomial(ring, rk, rc)
        factor = scale / mult
        return Polynomial(ring, rk, [c * factor for c in rc])

    def __repr__(self):
        return f"<groebner basis, {len(self._lead_keys)} elements>"


# -- cache -------------------------------------------------------------------


# ideal -> GroebnerBasis, evicted first in, first out past _CACHE_MAX
_cache: dict = {}
_CACHE_MAX = 4096


def clear_caches():
    _cache.clear()


def _store(ideal: Ideal, gb: GroebnerBasis):
    if len(_cache) >= _CACHE_MAX:
        del _cache[next(iter(_cache))]
    _cache[ideal] = gb


# -- reduction kernel ----------------------------------------------------------
#
# A polynomial enters as a term dict {packed key: integer coeff} and its
# remainder leaves as parallel lists, keys descending.  Over the
# rationals the engine works with primitive integer polynomials and
# pseudo-division: reduce_terms returns a remainder equal to mult * NF(f)
# for a positive integer mult, which callers divide out when they need the
# exact field normal form.  Over F_p coefficients are residues and mult is
# always 1.


def prepare_divisor(keys, coeffs, p):
    """Precompute the tuple shape reduce_terms expects for one divisor."""
    lead = keys[0]
    lc = coeffs[0]
    inv = pow(lc, -1, p) if p else None
    return (lead, lc, tuple(keys[1:]), tuple(coeffs[1:]), inv)


def reduce_terms(work, divisors, guards, p):
    """Fully reduce f by the divisor list (first matching divisor wins).

    work: f as a term dict, which the reduction consumes; its keys are
    heapified, so their order does not matter, and zero coefficients are
    skipped.  Over F_p the coefficients must be residues.
    divisors: sequence of prepare_divisor tuples, order fixed by the caller.
    Returns (keys, coeffs, mult) with keys descending.  Over F_p the
    reduction is exact and mult == 1; over the integers the remainder is
    mult * NF(f) with mult a positive integer.
    """
    heap = [-k for k in work]
    heapq.heapify(heap)
    rem_keys = []
    rem_coeffs = []
    mult = 1
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        mg = m | guards
        hit = None
        for d in divisors:
            if ((mg - d[0]) & guards) == guards:
                hit = d
                break
        if hit is None:
            rem_keys.append(m)
            rem_coeffs.append(c)
            continue
        lead, lc, tkeys, tcoeffs, inv = hit
        qadd = m - lead
        if p:
            t = c * inv % p
            for tk, tc in zip(tkeys, tcoeffs):
                kk = tk + qadd
                v = work.get(kk)
                if v is None:
                    work[kk] = -t * tc % p
                    heapq.heappush(heap, -kk)
                else:
                    work[kk] = (v - t * tc) % p
            continue
        g = gcd(c, lc)
        beta = lc // g
        alpha = c // g
        if beta != 1:
            for k in work:
                work[k] *= beta
            if rem_coeffs:
                rem_coeffs = [v * beta for v in rem_coeffs]
            mult *= beta
        for tk, tc in zip(tkeys, tcoeffs):
            kk = tk + qadd
            v = work.get(kk)
            if v is None:
                work[kk] = -alpha * tc
                heapq.heappush(heap, -kk)
            else:
                work[kk] = v - alpha * tc
    return rem_keys, rem_coeffs, mult


# -- shared engine helpers -----------------------------------------------------


class _PairQueue:
    """Normal-strategy pair queue, keyed on packed monomials.

    Leads are kept as the low halves of their keys (raw exponent lanes), so
    an lcm is a lane-wise max and divisibility the guard-bit test.  Adding
    element t forms the candidates (i, t) for every i < t and keeps a pair
    unless one of these rules drops it, applied in this order:

    - another candidate's lcm properly divides its lcm;
    - a candidate of lower index has the same lcm;
    - its leads are coprime (tested after the previous rule, so an
      equal-lcm class goes only when its lowest-index member is coprime).

    Then every queued pair (i, j) whose lcm is divisible by the new lead,
    and differs from both lcm(lead_i, lead_t) and lcm(lead_j, lead_t), is
    deleted (chain criterion).  Pairs pop by ascending lcm key, then by
    index, which is degree first under degrevlex.

    One pass forms the lcms and the lowest index per lcm; the chain scan
    runs only when pairs are queued.  A proper divisor of an lcm is lane-
    wise no larger and differs in some lane, so as a low half it is a
    smaller integer: the distinct lcms are taken in ascending integer order
    and each is tested against the minimal ones before it.  The lane-sum
    degree of the packed key is computed only for the pairs kept."""

    def __init__(self, ring: Ring):
        n = ring.nvars
        self.guards = ring.guards
        self.low = (1 << (16 * n)) - 1
        # a packed key is deg << 32n | (mul_off - (low << 16n)) | low
        self.deg_shift = 32 * n
        self.mul_off = ring.mul_off
        # lane sums: even and odd lanes are folded into 32-bit slots, which
        # one multiply then sums exactly into the top slot
        half = (n + 1) // 2
        self.even = sum(0xFFFF << (32 * i) for i in range(half))
        self.fold = sum(1 << (32 * i) for i in range(half))
        self.top = 32 * (half - 1)
        self.leads: list = []   # low halves of the lead keys
        self.alive: dict = {}   # (i, j) -> packed lcm key
        self.heap: list = []

    def add_treated(self, lead_key: int):
        """Register an element whose pairs with the elements before it are
        already treated: it takes the next index and meets later elements'
        candidates, but no pair is formed for it."""
        self.leads.append(lead_key & self.low)

    def add_element(self, lead_key: int):
        G = self.guards
        LOW = self.low
        leads = self.leads
        alive = self.alive
        b = lead_key & LOW
        t = len(leads)
        cand = []
        first = {}              # distinct lcm -> lowest index having it
        for i, a in enumerate(leads):
            # guard bit of each lane where b >= a, widened to the lane
            m = ((b | G) - a) & G
            mask = m | (m - (m >> 15))
            L = (b & mask) | (a & (LOW ^ mask))
            cand.append(L)
            if L not in first:
                first[L] = i
        leads.append(b)
        if alive:
            for (i, j), key in list(alive.items()):
                L = key & LOW
                if ((L | G) - b) & G == G and cand[i] != L and cand[j] != L:
                    del alive[(i, j)]
        # ascending ints put every proper divisor first; a dropped lcm is a
        # multiple of a minimal one, so the minimal ones are enough to test
        minimal = []
        for L in sorted(first):
            LG = L | G
            for M in minimal:
                if (LG - M) & G == G:
                    break
            else:
                minimal.append(L)
        EVEN, FOLD, TOP = self.even, self.fold, self.top
        shift, off = self.deg_shift, self.mul_off
        high = shift >> 1
        heap = self.heap
        for L in minimal:
            i = first[L]
            # equal to a + b exactly when the leads are coprime
            if L != leads[i] + b:
                d = (((L & EVEN) + ((L >> 16) & EVEN)) * FOLD >> TOP) \
                    & 0xFFFFFFFF
                key = (d << shift) + off - (L << high) + L
                alive[(i, t)] = key
                heapq.heappush(heap, (key, i, t))

    def pop(self):
        """(i, j, packed lcm key) of the next live pair, or None."""
        while self.heap:
            key, i, j = heapq.heappop(self.heap)
            if self.alive.pop((i, j), None) is not None:
                return i, j, key
        return None


# -- engine --------------------------------------------------------------------


def _engine(ring: Ring, gens_raw, budget: Budget, seed=()):
    """Raw Buchberger; gens_raw are (keys, coeffs) primitive/residue lists.
    seed holds the prepared rows of a reduced basis of an ideal that the
    generators extend, if there is one.  The run starts with those rows as
    its basis and their leads registered in the pair queue, but forms no
    pair among them: each reduces to zero by the seed itself, so all of them
    are already treated (Gebauer-Moeller).

    Before the first pair, the tail of each generator row is reduced by
    the other rows, the last inserted first; the seed rows are left alone.
    A row was reduced by the rows before it when it was inserted, so only a
    later lead can divide its tail, and none can when its own lead is below
    every later lead: such a row is skipped.  A rewritten row is
    mult*r - sum q_i*d_i with every q_i*d_i below r's lead, so the ideal and
    the leads, which are all the pair queue reads, are unchanged; the
    reduced basis is unique, so the result is too.  Returns the raw reduced
    basis as a list of (keys, coeffs) in ascending leading-key order."""
    p = ring.field.characteristic
    one_key = ring.one_key
    guards = ring.guards
    off = ring.mul_off

    basis = [((d[0],) + d[2], (d[1],) + d[3]) for d in seed]
    divisors = list(seed)
    queue = _PairQueue(ring)
    for d in seed:
        queue.add_treated(d[0])
    budget.basis_guard(len(basis))

    def normalize(keys, coeffs):
        if p:
            inv = pow(coeffs[0], -1, p)
            if inv != 1:
                coeffs = [c * inv % p for c in coeffs]
            return keys, coeffs
        g = _content(coeffs)
        if g not in (0, 1):
            coeffs = [c // g for c in coeffs]
        return keys, coeffs

    def insert(keys, coeffs) -> bool:
        """Returns True when a constant entered the basis (unit ideal)."""
        keys, coeffs = normalize(keys, coeffs)
        if keys[0] == one_key:
            basis.clear()
            basis.append(([one_key], [1]))
            return True
        basis.append((keys, coeffs))
        divisors.append(prepare_divisor(keys, coeffs, p))
        queue.add_element(keys[0])
        budget.basis_guard(len(basis))
        return False

    for keys, coeffs in sorted(gens_raw, key=lambda g: g[0][0]):
        budget.checkpoint()
        rk, rc, _ = reduce_terms(dict(zip(keys, coeffs)), divisors, guards, p)
        if rk:
            if insert(rk, rc):
                return basis

    later = None    # the smallest lead inserted after the current row
    for idx in range(len(basis) - 1, len(seed) - 1, -1):
        budget.checkpoint()
        keys, coeffs = basis[idx]
        lead = keys[0]
        if later is None or lead < later:
            later = lead
            continue
        rk, rc, mult = reduce_terms(dict(zip(keys[1:], coeffs[1:])),
                                    divisors, guards, p)
        basis[idx] = normalize([lead, *rk], [coeffs[0] * mult, *rc])
        divisors[idx] = prepare_divisor(*basis[idx], p)

    while True:
        budget.checkpoint()
        item = queue.pop()
        if item is None:
            break
        i, j, Lkey = item
        ki, ci = basis[i]
        kj, cj = basis[j]
        if p:
            fa, fb = 1, p - 1
        else:
            a, b = ci[0], cj[0]
            g = gcd(a, b)
            fa, fb = b // g, -(a // g)
        # fa * x^a * f_i + fb * x^b * f_j, x^a the key lcm - lead_i + off;
        # the leads cancel, and reduce_terms skips zero coefficients
        acc = {}
        _mac(acc, ((Lkey - ki[0] + off, fa),), zip(ki, ci), off)
        _mac(acc, ((Lkey - kj[0] + off, fb),), zip(kj, cj), off)
        rk, rc, _ = reduce_terms(_settle(acc, p) if p else acc, divisors,
                                 guards, p)
        if rk:
            if insert(rk, rc):
                return basis

    # minimalize: drop elements whose lead is divisible by another lead
    order = sorted(range(len(basis)), key=lambda t: basis[t][0][0])
    lead_keys = [basis[t][0][0] for t in order]
    kept = []
    kept_leads = []
    for pos, t in enumerate(order):
        lk = lead_keys[pos]
        if any(ring.divides(other, lk) for other in kept_leads):
            continue
        kept.append(t)
        kept_leads.append(lk)
    reduced = [basis[t] for t in kept]

    # interreduce tails (leads are pairwise non-divisible, so one pass is
    # exact and each element keeps its lead; the reduced tail is unique, so
    # the rows can reduce by the unreduced others)
    divs = [prepare_divisor(k, c, p) for k, c in reduced]
    for idx, (k, c) in enumerate(reduced):
        budget.checkpoint()
        rk, rc, _ = reduce_terms(dict(zip(k, c)),
                                 divs[:idx] + divs[idx + 1:], guards, p)
        reduced[idx] = normalize(rk, rc)
    return reduced


# -- public API -----------------------------------------------------------------


def buchberger(ideal: Ideal, budget: Optional[Budget] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal (degrevlex).

    On a cache miss for an ideal made by Ideal.extended, the engine starts
    from the base's cached basis, when there is one; looking for it is a
    peek, not a query, and the cache is the only place a seed comes from.
    Only the generators after the base's are then reduced and inserted.
    The reduced basis is unique, so a seeded run returns the rows a cold
    one would."""
    budget = ensure_budget(budget)
    got = _cache.get(ideal)
    budget.record_query()
    if got is not None:
        return got
    budget.checkpoint()
    base = ideal.base
    gens = ideal.generators
    seed = ()
    if base is not None:
        got = _cache.get(base)  # a peek: no query is counted
        if got is not None:
            seed = got._divisors
            gens = gens[len(base):]
    budget.record_run_start(seeded=bool(seed))
    gens_raw = [g.zform()[:2] for g in gens]
    gb = GroebnerBasis(ideal, _engine(ideal.ring, gens_raw, budget, seed))
    _store(ideal, gb)
    return gb


def ideal_membership(f: Polynomial, ideal: Ideal,
                     budget: Optional[Budget] = None) -> bool:
    return buchberger(ideal, budget=budget).contains(f)


def radical_membership(f: Polynomial, ideal: Ideal,
                       budget: Optional[Budget] = None) -> bool:
    """Whether f vanishes on the zero set of the ideal (over the closure).

    Two exact certificates answer first, from constant terms alone: a
    nonzero constant generator gives True, and generators that all vanish
    at the origin, with f nonzero there, give False.  Such an answer runs
    no engine and is not a Groebner query on the budget.  Any other
    question asks for one basis, of I itself when f is a constant, else of
    I + (1 - t*f) in the ring extended by t.  When the basis of I, or else
    of the ideal I extends, is cached, it is lifted into the extended ring
    and cached under that ideal's lift the first time, so the run's peek at
    its base seeds from it: lifted, it stays a reduced basis, since
    degrevlex orders the monomials free of t as before.  That ideal's
    generators are lifted once."""
    _check_ring(f, ideal.ring)
    if f.is_zero():
        return True
    one = ideal.ring.one_key
    at_origin = True    # every generator vanishes at the origin
    for g in ideal.generators:
        keys = g.keys
        if keys[-1] == one:
            if len(keys) == 1:
                return True     # the unit ideal
            at_origin = False
    if at_origin and f.keys[-1] == one:
        return False
    budget = ensure_budget(budget)
    if f.is_constant():
        return buchberger(ideal, budget=budget).is_unit()
    src = _cache.get(ideal)
    if src is None and ideal.base is not None:
        src = _cache.get(ideal.base)  # a peek: no query is counted
    base = src.ideal if src is not None else ideal.base
    lifted = _lifted(base if base is not None else Ideal(ideal.ring, ()))
    if src is not None and lifted not in _cache:
        n = base.ring.nvars
        _store(lifted, GroebnerBasis(lifted, [
            (_lift_keys((d[0], *d[2]), n), (d[1], *d[3]))
            for d in src._divisors]))
    ext = lifted.ring
    more = [_lift(g, ext) for g in ideal.generators[len(lifted):]]
    t = Polynomial.variable(ext, ext.nvars - 1)
    rab = Polynomial.constant(ext, 1) - t * _lift(f, ext)
    return buchberger(lifted.extended([*more, rab]), budget=budget).is_unit()


def _lift_keys(keys, n: int) -> list:
    """Packed keys of n variables as keys of n + 1, the last exponent 0:
    deg << 32n | high << 16n | low becomes
    deg << 32(n+1) | CAP << (32n + 16) | high << (16n + 16) | low."""
    low = (1 << (16 * n)) - 1
    high = ((1 << (32 * n)) - 1) ^ low
    top = 0xFFFF << (32 * n + 16)
    return [(k >> (32 * n) << (32 * n + 32)) | top | ((k & high) << 16)
            | (k & low) for k in keys]


def _lifted(ideal: Ideal) -> Ideal:
    """The ideal lifted by _lift into its ring and a fresh t, kept."""
    if ideal._lifted is None:
        ext = ideal.ring.extend(ideal.ring.fresh_name("t"))
        ideal._lifted = Ideal(ext, [_lift(g, ext) for g in ideal.generators])
    return ideal._lifted


def _lift(f: Polynomial, ext: Ring) -> Polynomial:
    """f in ext, the ring of f with one more variable appended, at exponent
    0, by _lift_keys: the same as f.map_exponents(ext, lambda e: e + (0,));
    a zform already computed for f is carried over."""
    keys = _lift_keys(f.keys, f.ring.nvars)
    g = Polynomial(ext, keys, f.coeffs)
    zf = f._zform
    if zf is not None:
        g._zform = (keys, zf[1], zf[2])
    return g


def krull_dimension(ideal: Ideal, budget: Optional[Budget] = None) -> int:
    """Dimension via maximal independent variable sets modulo the leading
    term ideal; the unit ideal reports -1, the zero ideal reports n.  The
    answer is kept on the cached basis, so asking again costs one basis
    query and no engine run."""
    gb = buchberger(ideal, budget=budget)
    if gb._dim is not None:
        return gb._dim
    ring = ideal.ring
    n = ring.nvars
    if gb.is_zero_ideal():
        dim = n
    elif gb.is_unit():
        dim = -1
    else:
        supports = set()
        for lk in gb._lead_keys:
            exps = ring.unpack(lk)
            supports.add(frozenset(i for i, e in enumerate(exps) if e))
        supports = sorted(supports, key=len)
        dim = 0
        for k in range(n, 0, -1):
            found = False
            for S in combinations(range(n), k):
                Sset = frozenset(S)
                if not any(sup <= Sset for sup in supports):
                    found = True
                    break
            if found:
                dim = k
                break
    gb._dim = dim
    return dim
