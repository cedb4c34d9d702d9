"""Exact integer-set arithmetic: sumsets, doubling, progressions.

Foundational value types shared by the solver stack. Everything here is
immutable and pure, apart from the sumset kernel's per-thread scratch
(below), which no result ever shares memory with; operations never mutate
their inputs, so concurrent use needs no locking. Lookup tables attached to
progressions are built once per object and are read-only afterwards.

Scratch: the uint32 pair path takes its outer sum, mask and distinct
offsets from one private scratch set per thread, `_SCRATCH`, kept mapped
between folds so that repeated heavy folds do not fault their pages in
afresh each time, and returns a fresh int64 array. Nothing past
_KEEP_ITEMS entries is kept, and every other path allocates.

Integer discipline: values are exact Python ints everywhere, of any size.
numpy int64 appears only where the one guard `_int64_safe` admits it, and
every other array holds Python ints, so no result wraps and none is refused
for its size.

Set arithmetic: one private sumset kernel serves `sumset`, the k-SUM folds
and the Freiman supports. Its single int64 guard admits numpy int64 only when
every operand lies strictly inside +-2^62, read off the extremes of sorted
inputs, so no pairwise sum or difference can wrap. The pairwise kernel
returns its sorted distinct sums as one array: an int64 numpy outer sum,
deduplicated by sort plus an adjacent-difference mask, when the guard admits
both operands, and an object array of exact Python ints from a Python set
otherwise. When at least 2,048 pairs have sums spanning less than 2^32,
the outer sum, sort and mask run on uint32 offsets from the least sum,
and the result is the same int64 array. `sumset` and `iterated_sumset` run
on the pairwise kernel alone, the reference for the other paths, and turn
its array into Python ints at their boundary. `_fft_sumset`, sorted arrays
in and a sorted int64 array out, convolves indicator vectors (exact: counts
stay far inside float64's integer range); its cost is the transform length
over the span of the sums.

One fold rule, `_fold_plan`, serves the k-SUM folds and the Freiman supports
through `_fold`: the FFT when its transform length is below the pair count,
pairs otherwise, at the smaller work, which one cap, `DEFAULT_FOLD_CAP`,
bounds. k-SUM's head scan asks the same rule whether a fold it may skip
would enumerate pairs.

GAP convention: coefficient boxes are zero-based and half-open, so a
generalized arithmetic progression is {base + sum(l_i * y_i) : 0 <= l_i < L_i}.
Presentations with one-based coefficient boxes are absorbed by shifting
`base`. A GAP is proper when the box-to-value map is injective (its element
count equals its volume). One kernel, `_gap_values`, enumerates a box: each
point's value in one flat array, in the lex order of itertools.product, by a
numpy outer sum per axis (reduced mod m after each axis for a modular GAP);
int64 when the guard admits base +- sum((L_i - 1) * |y_i|), or [0, 2m) for a
modular GAP, and an object array of Python ints otherwise. Elements and
properness (`gap_enumerate`, one enumeration for both), membership, the Q - Q
table and the Bohr-fit check all read it; membership gives the
lexicographically least coefficient vector of a value. The one enumeration
cap, `DEFAULT_ENUM_CAP`, is checked there and nowhere else, so no caller
sets or skips it.

Witnesses: `SolveWitness` is every solver's certificate. The subset-sum
rule sits beside it, `SubsetSumInstance.violation`, which names the first
condition a witness fails; k-SUM, the subset-sum solvers, the `ilp` subset
decoders and `verify witness` all ask it.
"""

from __future__ import annotations

import bisect
import functools
import math
import mmap
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

DEFAULT_ENUM_CAP = 4_000_000
DEFAULT_TABLE_CAP = 2_000_000
# the work of one fold: its pair count or its transform length
DEFAULT_FOLD_CAP = 50_000_000


class BitWidthError(OverflowError):
    """A value left the signed 64-bit range of an int64-only routine. No
    gapsolve routine raises it any more; it stays for callers that catch it."""


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


def _exact_int(v) -> int:
    """v as a Python int; JSON readers refuse a bool, float or string here."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


# ---------------------------------------------------------------------------
# integer sets


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of integers stored as a strictly increasing tuple."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("IntegerSet must be nonempty")
        if not all(map(operator.lt, self.elements, self.elements[1:])):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def from_iterable(cls, xs: Iterable[int]) -> "IntegerSet":
        return cls(tuple(sorted(set(map(_exact_int, xs)))))

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
        """The set as written: a list that is not strictly increasing is
        refused, never sorted, so an index names a position in the file."""
        return cls(tuple(map(_exact_int, d["elements"])))


# ---------------------------------------------------------------------------
# the sumset kernel

# operands strictly inside +-2^62 keep every pairwise sum or difference
# strictly inside int64
_INT64_SAFE = 1 << 62


# pairwise sums whose span is below this fit uint32 offsets from the least sum
_OFFSET_SPAN = 1 << 32
# below about this many pairs the offsets' extra casts cost more than the
# narrower sort saves (crossover near 2,000 pairs on a 2-vCPU VM, numpy 2.4)
_OFFSET_MIN_PAIRS = 2048


def _int64_safe(lo: int, hi: int) -> bool:
    """The one int64 guard: may operands in [lo, hi] enter numpy?"""
    return -_INT64_SAFE < lo and hi < _INT64_SAFE


# A scratch buffer of more than this many entries is allocated for its fold
# alone and not kept: a kept buffer's touched pages stay resident for the
# life of its thread, so keeping the buffers of one huge fold would pin its
# memory for good, while at that size the fold's sort costs far more than
# faulting the pages in afresh. The k-SUM workload's heavy folds have about
# 2^18 pairs.
_KEEP_ITEMS = 1 << 19


class _Scratch(threading.local):
    """One thread's kept scratch buffers, by name.

    Each buffer is an anonymous mmap viewed with np.frombuffer, private so
    that a forked child never writes into its parent's buffers. It grows
    geometrically and never shrinks; growth drops the old map, whose
    pages go back to the OS as soon as no array views them, whatever
    malloc's trim and mmap thresholds are. Pages are resident only once
    touched, so unused capacity costs no memory."""

    def __init__(self):
        self.maps: dict = {}

    def view(self, name: str, dtype, n: int) -> np.ndarray:
        """n entries of dtype at the head of the buffer `name`, which grows
        to hold them; a fresh array past _KEEP_ITEMS entries."""
        dtype = np.dtype(dtype)
        if n > _KEEP_ITEMS:
            return np.empty(n, dtype)
        buf = self.maps.get(name)
        need, held = n * dtype.itemsize, 0 if buf is None else len(buf)
        if held < need:
            size = -(-max(need, 2 * held) // mmap.PAGESIZE) * mmap.PAGESIZE
            size = min(size, _KEEP_ITEMS * dtype.itemsize)
            buf = self.maps[name] = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        return np.frombuffer(buf, dtype, n)


_SCRATCH = _Scratch()


def _sorted_distinct(arr: np.ndarray, keep=None, out=None) -> np.ndarray:
    """Sorted distinct entries of an array in its own dtype, by a sort and an
    adjacent-difference mask, which on int64 and uint32 is far cheaper than
    numpy's unique. The operand is consumed: a contiguous one is sorted in
    place rather than copied, so callers pass an array of their own. Given
    `keep`, a bool array of arr.size entries, the mask is written there;
    given `out`, of arr's dtype and at least that many entries, the distinct
    entries are written to its head, which is returned."""
    arr = arr.ravel()
    arr.sort()
    if keep is None:
        keep = np.empty(arr.size, dtype=bool)
    keep[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    if out is None:
        return arr[keep]
    return np.compress(keep, arr, out=out[: np.count_nonzero(keep)])


def _in_sorted(level: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the keys that occur in a sorted nonempty array."""
    return level.take(np.searchsorted(level, keys), mode="clip") == keys


def _pair_sumset(a: Sequence[int], b: Sequence[int]) -> np.ndarray:
    """Sorted distinct {x + y} of two sorted nonempty sequences or arrays: an
    int64 array from a numpy outer sum when the guard admits both inputs, an
    object array of exact Python ints otherwise.

    On the int64 path, at least _OFFSET_MIN_PAIRS pairs whose sums span
    less than 2^32 are summed, sorted and deduplicated as uint32 offsets from
    a[0] + b[0] in this thread's "outer", "keep" and "offsets" scratch
    buffers, which sorts about twice as fast as int64, and one fused pass
    casts the distinct offsets to a fresh int64 array and adds the base
    back; the output is the same either way."""
    if _int64_safe(a[0], a[-1]) and _int64_safe(b[0], b[-1]):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        pairs = len(a) * len(b)
        if pairs >= _OFFSET_MIN_PAIRS:
            base = int(a[0]) + int(b[0])
            if int(a[-1]) + int(b[-1]) - base < _OFFSET_SPAN:
                ao, bo = (a - a[0]).astype(np.uint32), (b - b[0]).astype(np.uint32)
                outer = _SCRATCH.view("outer", np.uint32, pairs).reshape(len(a), len(b))
                np.add.outer(ao, bo, out=outer)
                keep = _SCRATCH.view("keep", np.bool_, pairs)
                offsets = _sorted_distinct(outer, keep, _SCRATCH.view("offsets", np.uint32, pairs))
                return np.add(offsets, np.int64(base), dtype=np.int64)
        return _sorted_distinct(np.add.outer(a, b))
    # object arrays iterate as Python ints, so no sum can wrap
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    return np.array(sorted({x + y for x in a for y in b}), dtype=object)


def _indicator(values: np.ndarray) -> np.ndarray:
    """0/1 float64 vector over [values[0], values[-1]] marking a sorted array.
    Only offsets from the minimum enter int64, so an object array of Python
    ints works too."""
    offsets = (values - values[0]).astype(np.int64)
    out = np.zeros(int(offsets[-1]) + 1, dtype=np.float64)
    out[offsets] = 1.0
    return out


def _transform_size(n: int) -> int:
    """FFT length for a linear convolution of output length n."""
    return 1 << (n - 1).bit_length()


def _conv_support(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean support of the sumset given two indicator vectors.

    Counts in the raw convolution never exceed min(len(x), len(y)), far
    inside float64's exact-integer range, so thresholding at 0.5 is exact.
    Squaring (y is x) transforms its operand once; the spectra are multiplied
    in place, so only one is alive during the inverse transform.
    """
    n = len(x) + len(y) - 1
    size = _transform_size(n)
    spec = np.fft.rfft(x, size)
    spec *= spec if y is x else np.fft.rfft(y, size)
    return np.fft.irfft(spec, size)[:n] > 0.5


def _fft_sumset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct {x + y} of two sorted nonempty arrays whose combined
    range the int64 guard admits, as an int64 array, by convolving their
    indicator vectors; cost is the transform length over that range.
    Squaring (b is a) builds one indicator and one transform."""
    x = _indicator(a)
    hit = np.flatnonzero(_conv_support(x, x if b is a else _indicator(b)))
    return np.add(hit, a[0] + b[0])


def _fold_plan(a: np.ndarray, b: np.ndarray) -> tuple[str, int]:
    """The one fold rule for two sorted nonempty arrays: (backend, work).
    "fft" exactly when both operands pass the int64 guard and the transform
    length over the span of the sums is below the pair count, "hash" (the
    pairwise kernel) otherwise; the work is the smaller of the two, and a
    fold whose work exceeds DEFAULT_FOLD_CAP, read at call time, is refused."""
    backend, work = "hash", len(a) * len(b)
    if _int64_safe(a[0], a[-1]) and _int64_safe(b[0], b[-1]):
        size = _transform_size(int(a[-1]) + int(b[-1]) - int(a[0]) - int(b[0]) + 1)
        if size < work:
            backend, work = "fft", size
    if work > DEFAULT_FOLD_CAP:
        raise EnumerationCapError(f"{backend} fold work {work} above cap {DEFAULT_FOLD_CAP}")
    return backend, work


def _fold(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, str, int]:
    """Sorted distinct {x + y} of two sorted nonempty arrays, the backend
    that ran and its work, as `_fold_plan` chooses them."""
    backend, work = _fold_plan(a, b)
    return (_fft_sumset if backend == "fft" else _pair_sumset)(a, b), backend, work


def sumset(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """A + B = {x + y : x in A, y in B}, exact at any size."""
    return IntegerSet(tuple(_pair_sumset(a.elements, b.elements).tolist()))


def negate(a: IntegerSet) -> IntegerSet:
    return IntegerSet(tuple(-x for x in reversed(a.elements)))


def iterated_sumset(a: IntegerSet, plus_count: int, minus_count: int = 0) -> IntegerSet:
    """The signed iterated sumset sA - tA with s = plus_count >= 1 and
    t = minus_count >= 0: all sums of s elements minus t elements, with
    repetition allowed."""
    if plus_count < 1 or minus_count < 0:
        raise ValueError("iterated_sumset needs plus_count >= 1, minus_count >= 0")
    acc = a
    for _ in range(plus_count - 1):
        acc = sumset(acc, a)
    if minus_count:
        neg = negate(a)
        for _ in range(minus_count):
            acc = sumset(acc, neg)
    return acc


def doubling_constant(a: IntegerSet) -> Fraction:
    """|A+A| / |A| as an exact fraction."""
    return Fraction(len(sumset(a, a)), len(a))


# ---------------------------------------------------------------------------
# generalized arithmetic progressions

@dataclass(frozen=True)
class Gap:
    """A generalized arithmetic progression with zero-based coefficients.

    `modulus` marks a progression living in Z_m; its elements are reduced to
    the residues [0, m).
    """

    base: int
    generators: tuple[int, ...]
    lengths: tuple[int, ...]
    modulus: Optional[int] = None

    def __post_init__(self):
        # zero dimensions is legal: the progression is the single point {base}
        if len(self.generators) != len(self.lengths):
            raise ValueError("generators and lengths must match")
        if any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be >= 1")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def volume(self) -> int:
        return math.prod(self.lengths)

    def element_at(self, coords: Sequence[int]) -> int:
        x = self.base + sum(map(operator.mul, coords, self.generators))
        return x if self.modulus is None else x % self.modulus

    def to_json_dict(self) -> dict:
        d = {"base": self.base, "generators": list(self.generators), "lengths": list(self.lengths)}
        if self.modulus is not None:
            d["modulus"] = self.modulus
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Gap":
        m = d.get("modulus")
        gens, lengths = (tuple(map(_exact_int, d[k])) for k in ("generators", "lengths"))
        return cls(_exact_int(d["base"]), gens, lengths, None if m is None else _exact_int(m))


def _gap_values(gap: Gap) -> np.ndarray:
    """The value of every point of the coefficient box as one flat array, in
    the lexicographic order of itertools.product: one outer sum per axis,
    reduced mod m after each axis for a modular GAP. int64 when the guard
    admits the value range, object (exact Python ints) otherwise. A box of
    volume above DEFAULT_ENUM_CAP, read at call time, is refused."""
    if gap.volume() > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"gap volume {gap.volume()} exceeds enumeration cap {DEFAULT_ENUM_CAP}"
        )
    m = gap.modulus
    # a length-1 axis adds only 0, however large its generator; a modular
    # GAP reduces its generators into [0, m) first
    axes = [(y if m is None else y % m, l) for y, l in zip(gap.generators, gap.lengths) if l > 1]
    if m is None:
        reach = sum((l - 1) * abs(y) for y, l in axes)
        safe = _int64_safe(gap.base - reach, gap.base + reach)
    else:
        safe = _int64_safe(0, 2 * m)
    dtype = np.int64 if safe else object
    vals = np.array([gap.base if m is None else gap.base % m], dtype=dtype)
    for y, l in axes:
        # multiples past the guard (on a modular axis only) are reduced exactly
        step = np.arange(l, dtype=dtype if _int64_safe(0, (l - 1) * abs(y)) else object) * y
        if m is None:
            vals = np.add.outer(vals, step).ravel()
        else:
            vals = np.add.outer(vals, (step % m).astype(dtype)).ravel() % m
    return vals


@functools.lru_cache(maxsize=32)
def _gap_value_table(gap: Gap) -> dict:
    """value -> lexicographically least coefficient vector, built once per
    Gap: np.unique's return_index is the first point reaching each value
    (it sorts stably), and box points come in lex order."""
    vals, first = np.unique(_gap_values(gap), return_index=True)
    cols = np.unravel_index(first, gap.lengths) if gap.lengths else ()
    vectors = zip(*(c.tolist() for c in cols)) if cols else [()]
    return dict(zip(vals.tolist(), vectors))


def gap_enumerate(gap: Gap) -> tuple[IntegerSet, bool]:
    """All elements of a GAP plus a properness flag, from one enumeration."""
    elems = IntegerSet(tuple(_sorted_distinct(_gap_values(gap)).tolist()))
    return elems, len(elems) == gap.volume()


def gap_membership(gap: Gap, x: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least coefficient vector representing x, or None."""
    if gap.modulus is not None:
        x = x % gap.modulus
    return _gap_value_table(gap).get(x)


# ---------------------------------------------------------------------------
# matrices


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
        return cls(tuple(tuple(map(_exact_int, r)) for r in rows))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.rows[0])

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.rows))

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
            raise ValueError("assignment entries must be 0 or 1")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "values": list(self.payload)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SolveWitness":
        return cls(d["kind"], tuple(map(_exact_int, d["values"])))


SS_MODES = ("binary", "unbounded")


@dataclass(frozen=True)
class SubsetSumInstance:
    """Subset sum over `elements` with `target`: binary (each element at
    most once) or unbounded (any nonnegative multiplicity)."""

    elements: IntegerSet
    target: int
    mode: str = "binary"

    def __post_init__(self):
        if self.mode not in SS_MODES:
            raise ValueError(f"mode must be one of {SS_MODES}")

    def violation(self, w: SolveWitness) -> Optional[str]:
        """The first condition w fails as a solution, or None: the one
        validity rule for a subset-sum witness. A subset-of-indices witness
        needs indices in range, a multiplicity-vector one entry per element,
        each 0 or 1 in binary mode and nonnegative in unbounded mode; both
        must sum to the target, and every other kind is refused."""
        vals = self.elements.elements
        if w.kind == "subset-of-indices":
            bad = next((i for i in w.payload if not 0 <= i < len(vals)), None)
            if bad is not None:
                return f"index {bad} out of range for {len(vals)} elements"
            total = sum(vals[i] for i in w.payload)
        elif w.kind == "multiplicity-vector":
            if len(w.payload) != len(vals):
                return f"assignment has {len(w.payload)} entries for {len(vals)} elements"
            if self.mode == "binary" and any(v not in (0, 1) for v in w.payload):
                return "assignment entries must be 0 or 1"
            if any(v < 0 for v in w.payload):
                return "assignment entries must be nonnegative"
            total = sum(v * m for v, m in zip(vals, w.payload))
        else:
            return f"a {w.kind} witness does not solve subset sum"
        return None if total == self.target else "sum misses the target"

    def solved_by(self, w: SolveWitness) -> bool:
        return self.violation(w) is None

    def to_json_dict(self) -> dict:
        return {"elements": list(self.elements.elements), "target": self.target, "mode": self.mode}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SubsetSumInstance":
        z = IntegerSet.from_json_dict(d)
        return cls(z, _exact_int(d["target"]), d.get("mode", "binary"))
