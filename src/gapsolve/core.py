"""Exact integer-set arithmetic: sumsets, doubling, progressions.

Foundational value types shared by the solver stack. Everything here is
immutable and pure; operations never mutate their inputs, so concurrent use
needs no locking. Lookup tables attached to progressions are built once per
object and are read-only afterwards.

Width discipline: operation results are checked against a configurable signed
bit width (default 64) and rejected with BitWidthError instead of wrapping.
Passing bits=None switches an operation to arbitrary precision; the group
modeling path uses that switch because its intermediate values can grow far
past 64 bits.

GAP convention: coefficient boxes are zero-based and half-open, so a
generalized arithmetic progression is {base + sum(l_i * y_i) : 0 <= l_i < L_i}.
Presentations with one-based coefficient boxes are absorbed by shifting
`base`. A GAP is proper when the box-to-value map is injective (its element
count equals its volume).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

DEFAULT_BIT_WIDTH = 64
DEFAULT_ENUM_CAP = 4_000_000
DEFAULT_TABLE_CAP = 2_000_000

# the numpy sumset path needs its inputs and both sum extremes strictly
# inside int64, so no outer sum can wrap
_INT64_BOUND = 1 << 63


class BitWidthError(OverflowError):
    """A result left the configured signed integer width."""


class EnumerationCapError(RuntimeError):
    """An enumeration would exceed the configured cap."""


class TableCapError(RuntimeError):
    """A dynamic-programming table would exceed the configured cap."""


class DuplicateColumnError(ValueError):
    """A constraint matrix has two identical columns."""


class PipelineFailureError(RuntimeError):
    """Every randomized retry of a pipeline stage failed."""


class InvariantError(AssertionError):
    """A runtime invariant that the mathematics guarantees was violated."""


def check_width(value: int, bits: Optional[int] = DEFAULT_BIT_WIDTH) -> int:
    """Return `value` unchanged, or raise BitWidthError if it does not fit
    in a signed `bits`-bit integer. bits=None disables the check."""
    if bits is None:
        return value
    bound = 1 << (bits - 1)
    if not -bound <= value < bound:
        raise BitWidthError(f"value {value} exceeds signed {bits}-bit range")
    return value


def floor_root(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x, computed exactly on integers."""
    if x < 0 or k < 1:
        raise ValueError("floor_root requires x >= 0, k >= 1")
    if k == 1 or x in (0, 1):
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def ceil_root(x: int, k: int) -> int:
    r = floor_root(x, k)
    return r if r ** k == x else r + 1


# ---------------------------------------------------------------------------
# integer sets


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of integers stored as a strictly increasing tuple."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("IntegerSet must be nonempty")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def from_iterable(cls, xs: Iterable[int]) -> "IntegerSet":
        return cls(tuple(sorted(set(int(x) for x in xs))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        i = bisect.bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def min(self) -> int:
        return self.elements[0]

    def max(self) -> int:
        return self.elements[-1]

    def diameter(self) -> int:
        return self.elements[-1] - self.elements[0]

    def to_json_dict(self) -> dict:
        return {"elements": list(self.elements)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IntegerSet":
        return cls.from_iterable(d["elements"])


def _check_extremes(lo: int, hi: int, bits: Optional[int]) -> None:
    check_width(lo, bits)
    check_width(hi, bits)


def sumset(
    a: IntegerSet,
    b: IntegerSet,
    *,
    bits: Optional[int] = DEFAULT_BIT_WIDTH,
    cap: Optional[int] = None,
) -> IntegerSet:
    """A + B = {x + y : x in A, y in B}.

    Sum extremes are width-checked; checking only the extremes suffices
    because addition is monotone. The dense numpy path engages when the
    inputs and both sum extremes fit in int64.
    """
    ea, eb = a.elements, b.elements
    lo, hi = ea[0] + eb[0], ea[-1] + eb[-1]
    _check_extremes(lo, hi, bits)
    if len(ea) * len(eb) >= 4096 and all(
        -_INT64_BOUND < v < _INT64_BOUND for v in (ea[0], eb[0], lo, ea[-1], eb[-1], hi)
    ):
        arr = np.unique(
            np.add.outer(
                np.asarray(ea, dtype=np.int64), np.asarray(eb, dtype=np.int64)
            ).ravel()
        )
        if cap is not None and arr.size > cap:
            raise EnumerationCapError(f"sumset size {arr.size} exceeds cap {cap}")
        return IntegerSet(tuple(int(v) for v in arr))
    out = {x + y for x in ea for y in eb}
    if cap is not None and len(out) > cap:
        raise EnumerationCapError(f"sumset size {len(out)} exceeds cap {cap}")
    return IntegerSet(tuple(sorted(out)))


def negate(a: IntegerSet, *, bits: Optional[int] = DEFAULT_BIT_WIDTH) -> IntegerSet:
    _check_extremes(-a.elements[-1], -a.elements[0], bits)
    return IntegerSet(tuple(-x for x in reversed(a.elements)))


def iterated_sumset(
    a: IntegerSet,
    plus_count: int,
    minus_count: int = 0,
    *,
    bits: Optional[int] = DEFAULT_BIT_WIDTH,
    cap: Optional[int] = None,
) -> IntegerSet:
    """The signed iterated sumset sA - tA with s = plus_count >= 1 and
    t = minus_count >= 0: all sums of s elements minus t elements, with
    repetition allowed."""
    if plus_count < 1 or minus_count < 0:
        raise ValueError("iterated_sumset needs plus_count >= 1, minus_count >= 0")
    acc = a
    for _ in range(plus_count - 1):
        acc = sumset(acc, a, bits=bits, cap=cap)
    if minus_count:
        neg = negate(a, bits=bits)
        for _ in range(minus_count):
            acc = sumset(acc, neg, bits=bits, cap=cap)
    return acc


def doubling_constant(a: IntegerSet, *, bits: Optional[int] = DEFAULT_BIT_WIDTH) -> Fraction:
    """|A+A| / |A| as an exact fraction."""
    return Fraction(len(sumset(a, a, bits=bits)), len(a))


def lex_min(vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Lexicographically least vector of a nonempty collection."""
    if not vectors:
        raise ValueError("lex_min of empty collection")
    return tuple(min(tuple(v) for v in vectors))


# ---------------------------------------------------------------------------
# generalized arithmetic progressions

Element = Union[int, tuple[int, ...]]


def _elem_zero_like(x: Element) -> Element:
    return 0 if isinstance(x, int) else (0,) * len(x)


def _elem_add(x: Element, y: Element) -> Element:
    if isinstance(x, int):
        return x + y
    return tuple(u + v for u, v in zip(x, y))


def _elem_scale(c: int, x: Element) -> Element:
    if isinstance(x, int):
        return c * x
    return tuple(c * u for u in x)


@dataclass(frozen=True)
class Gap:
    """A generalized arithmetic progression with zero-based coefficients.

    `generators` are integers, or integer tuples for the vector-valued case.
    `modulus` marks a progression living in Z_m (scalar generators only);
    its elements are reduced to the residues [0, m).
    """

    base: Element
    generators: tuple[Element, ...]
    lengths: tuple[int, ...]
    modulus: Optional[int] = None

    def __post_init__(self):
        # zero dimensions is legal: the progression is the single point {base}
        if len(self.generators) != len(self.lengths):
            raise ValueError("generators and lengths must match")
        if any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be >= 1")
        if self.modulus is not None:
            if self.modulus < 2 or not isinstance(self.base, int):
                raise ValueError("modulus requires scalar generators and m >= 2")

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def volume(self) -> int:
        v = 1
        for l in self.lengths:
            v *= l
        return v

    def element_at(self, coords: Sequence[int]) -> Element:
        x = self.base
        for c, y in zip(coords, self.generators):
            x = _elem_add(x, _elem_scale(c, y))
        if self.modulus is not None:
            x = x % self.modulus
        return x

    def coordinate_boxes(self) -> Iterator[tuple[int, ...]]:
        """All coefficient vectors in lexicographic order."""
        return itertools.product(*(range(l) for l in self.lengths))

    def enumerate_elements(self, cap: Optional[int] = DEFAULT_ENUM_CAP) -> tuple:
        if cap is not None and self.volume() > cap:
            raise EnumerationCapError(
                f"gap volume {self.volume()} exceeds enumeration cap {cap}"
            )
        return tuple(sorted({self.element_at(c) for c in self.coordinate_boxes()}))

    def is_proper(self, cap: Optional[int] = DEFAULT_ENUM_CAP) -> bool:
        return len(self.enumerate_elements(cap)) == self.volume()

    def to_json_dict(self) -> dict:
        d = {
            "base": self.base,
            "generators": [list(g) if isinstance(g, tuple) else g for g in self.generators],
            "lengths": list(self.lengths),
        }
        if self.modulus is not None:
            d["modulus"] = self.modulus
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Gap":
        gens = tuple(
            tuple(g) if isinstance(g, list) else int(g) for g in d["generators"]
        )
        base = tuple(d["base"]) if isinstance(d["base"], list) else int(d["base"])
        return cls(base, gens, tuple(int(l) for l in d["lengths"]), d.get("modulus"))


@functools.lru_cache(maxsize=32)
def _gap_value_table(gap: Gap) -> dict:
    """value -> lexicographically least coefficient vector. Built once per
    Gap; first write wins while walking coefficient boxes in lex order."""
    table: dict = {}
    for coords in gap.coordinate_boxes():
        v = gap.element_at(coords)
        if v not in table:
            table[v] = coords
    return table


def gap_enumerate(
    gap: Gap, cap: Optional[int] = DEFAULT_ENUM_CAP
) -> tuple[IntegerSet, bool]:
    """All elements of a scalar GAP plus a properness flag."""
    elems = gap.enumerate_elements(cap)
    if elems and not isinstance(elems[0], int):
        raise TypeError("gap_enumerate expects scalar generators")
    return IntegerSet(elems), len(elems) == gap.volume()


def gap_membership(
    gap: Gap, x: Element, cap: Optional[int] = DEFAULT_ENUM_CAP
) -> Optional[tuple[int, ...]]:
    """Lexicographically least coefficient vector representing x, or None."""
    if cap is not None and gap.volume() > cap:
        raise EnumerationCapError(
            f"gap volume {gap.volume()} exceeds membership cap {cap}"
        )
    if gap.modulus is not None and isinstance(x, int):
        x = x % gap.modulus
    return _gap_value_table(gap).get(x)


# ---------------------------------------------------------------------------
# vector sets and matrices


@dataclass(frozen=True)
class VectorSet:
    """A finite set of equal-length integer vectors, sorted and duplicate free."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("VectorSet must be nonempty")
        width = len(self.vectors[0])
        if any(len(v) != width for v in self.vectors):
            raise ValueError("vectors must share one length")
        if any(a >= b for a, b in zip(self.vectors, self.vectors[1:])):
            raise ValueError("vectors must be strictly increasing")

    @classmethod
    def from_iterable(cls, vs: Iterable[Sequence[int]]) -> "VectorSet":
        return cls(tuple(sorted({tuple(int(x) for x in v) for v in vs})))

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


def vector_sumset(a: VectorSet, b: VectorSet) -> VectorSet:
    return VectorSet.from_iterable(
        tuple(x + y for x, y in zip(u, v)) for u in a for v in b
    )


def vector_doubling_constant(a: VectorSet) -> Fraction:
    return Fraction(len(vector_sumset(a, a)), len(a))


@dataclass(frozen=True)
class Matrix:
    """A dense integer matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("Matrix needs at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "Matrix":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.num_cols))

    def infinity_norm(self) -> int:
        return max((abs(x) for r in self.rows for x in r), default=0)

    def matvec(self, x: Sequence[int]) -> tuple[int, ...]:
        if len(x) != self.num_cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(c * xi for c, xi in zip(r, x)) for r in self.rows)

    def to_json_rows(self) -> list:
        return [list(r) for r in self.rows]


# ---------------------------------------------------------------------------
# witnesses

WITNESS_KINDS = ("subset-of-indices", "multiplicity-vector", "binary-vector")


@dataclass(frozen=True)
class SolveWitness:
    """A solver's certificate. `payload` is a tuple of indices for
    subset-of-indices, otherwise one integer per variable."""

    kind: str
    payload: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        if self.kind == "subset-of-indices":
            if any(i < 0 for i in self.payload):
                raise ValueError("indices must be nonnegative")
            if len(set(self.payload)) != len(self.payload):
                raise ValueError("indices must be distinct")
        if self.kind == "binary-vector" and any(v not in (0, 1) for v in self.payload):
            raise ValueError("binary witness entries must be 0 or 1")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "payload": list(self.payload)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SolveWitness":
        return cls(d["kind"], tuple(int(x) for x in d["payload"]))
