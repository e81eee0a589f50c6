"""Polynomial rings with packed-integer monomials under degrevlex.

A monomial with exponents (e_1, ..., e_n) is encoded in a single Python int:

    key = deg << 32n  |  sum (CAP - e_i) << (16n + 16i)  |  sum e_i << 16i

with CAP = 2^16 - 1 and deg the total degree.  The high half (degree, then
complemented exponents with the last variable most significant) makes plain
integer comparison coincide with degrevlex.  The low half keeps the raw
exponents in 16-bit lanes whose top bit is a guard, so that

    a divides b   <=>   ((b | GUARDS) - a) & GUARDS == GUARDS

and multiplication is key(a) + key(b) - MUL_OFF.  Exponents are capped at
2^15 - 1 per variable; products guard the cap through the degree field.
"""

from __future__ import annotations

import re

from .errors import DegreeOverflowError
from .fields import FieldSpec

FIELD_BITS = 16
CAP = (1 << FIELD_BITS) - 1
GUARD = 1 << (FIELD_BITS - 1)
EXP_LIMIT = GUARD  # per-variable exponents must stay below 2^15

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Ring:
    """Commutative polynomial ring k[x_1..x_n] with the degrevlex order.

    Instances are immutable and compare by (field, variables); two rings
    with the same field and variable names are interchangeable.
    """

    __slots__ = ("field", "variables", "nvars", "mul_off", "guards",
                 "_deg_shift", "_var_keys", "_var_steps", "one_key", "_hash",
                 "_derived")

    def __init__(self, field: FieldSpec, variables):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not _IDENT.match(v):
                raise ValueError(f"invalid variable name {v!r}")
        self.field = field
        self.variables = variables
        n = len(variables)
        self.nvars = n
        self._deg_shift = 32 * n
        self.mul_off = sum(CAP << (16 * n + 16 * i) for i in range(n))
        self.guards = sum(GUARD << (16 * i) for i in range(n))
        self.one_key = self.mul_off
        self._var_keys = tuple(self._pack_one(i) for i in range(n))
        # key(m) - step_i == key(m / x_i); valid when x_i divides m
        self._var_steps = tuple(k - self.mul_off for k in self._var_keys)
        self._hash = hash((field, variables))
        self._derived = {}   # variables -> the ring extend/drop made

    def _pack_one(self, i: int) -> int:
        n = self.nvars
        key = 1 << self._deg_shift
        for j in range(n):
            e = 1 if j == i else 0
            key |= (CAP - e) << (16 * n + 16 * j)
            key |= e << (16 * j)
        return key

    # -- monomial accessors -------------------------------------------------

    def pack(self, exponents) -> int:
        """Exponent tuple -> packed key.  Validates the per-variable cap."""
        n = self.nvars
        exponents = tuple(exponents)
        if len(exponents) != n:
            raise ValueError(f"expected {n} exponents, got {len(exponents)}")
        key = 0
        deg = 0
        for i, e in enumerate(exponents):
            if not 0 <= e < EXP_LIMIT:
                raise DegreeOverflowError(
                    f"exponent {e} outside [0, {EXP_LIMIT})")
            deg += e
            key |= (CAP - e) << (16 * n + 16 * i)
            key |= e << (16 * i)
        return key | (deg << self._deg_shift)

    def unpack(self, key: int) -> tuple:
        return tuple((key >> (16 * i)) & CAP for i in range(self.nvars))

    def key_degree(self, key: int) -> int:
        return key >> self._deg_shift

    def var_key(self, i: int) -> int:
        return self._var_keys[i]

    def divides(self, ka: int, kb: int) -> bool:
        """Whether monomial a divides monomial b."""
        g = self.guards
        return ((kb | g) - ka) & g == g

    def mul_key(self, ka: int, kb: int) -> int:
        return ka + kb - self.mul_off

    def monomial_str(self, key: int) -> str:
        parts = []
        for name, e in zip(self.variables, self.unpack(key)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- derived rings ------------------------------------------------------

    def _with_variables(self, variables) -> "Ring":
        """The ring over this field on variables, built once per tuple and
        kept: rings are immutable, so it equals a fresh one, and the
        polynomials built in it share one ring object."""
        ring = self._derived.get(variables)
        if ring is None:
            ring = self._derived[variables] = Ring(self.field, variables)
        return ring

    def extend(self, name: str) -> "Ring":
        """This ring with the variable name appended."""
        return self._with_variables(self.variables + (name,))

    def drop(self, i: int) -> "Ring":
        """This ring without its i-th variable."""
        return self._with_variables(self.variables[:i]
                                    + self.variables[i + 1:])

    def fresh_name(self, base: str = "t") -> str:
        if base not in self.variables:
            return base
        k = 0
        while f"{base}{k}" in self.variables:
            k += 1
        return f"{base}{k}"

    # -- value identity -----------------------------------------------------

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring)
                                 and self.field == other.field
                                 and self.variables == other.variables)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}]"
