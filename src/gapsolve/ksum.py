"""k-SUM by capped pair representatives and, past the exhaustive regime,
by color splitting and structure-aware sumset folding.

While the plan is exhaustive (C(n-1, k-1) within the cut cap, and always
for k = 1), one pass over the index pairs tabulates a few representative
pairs per sum, and every query is settled from that table. Past it, a
random splitter family isolates the unknown solution, one element per
color block; each half of the blocks is folded into a sumset whose
representation cost depends on the additive structure of the input, and
the two halves meet in the middle: the left values whose complement can
lie in the right level's range are searched in ascending slices of doubling
width, up to the first hit.

Large colorings first meet the left top level against the head of the
right product. The right half is folded up to its last block B, to the
level R'; when the fold rule (`core._fold_plan`) would enumerate the pairs
of R' + B and they number at least _HEAD_MIN_PAIRS, t - b - r' is looked up
on the left level over the head rows of B x R' (b ascending, then r'
ascending), in row slices of doubling size from one row, up to
1/_HEAD_SHARE of the pairs. The first hit gives the witness: the left walk
of t - b - r', the right walk of r', then b. On planted heavy queries the
first row usually hits, and the right top fold, half of the query's cost,
is never built. A miss, an FFT plan or a smaller product folds R' + B and
meets as above; the skipped fold's cap check runs before the scan, so a
refusal is the fold's own. Each fold takes the backend with less work,
and its work is accounted in units native to that backend (transform
length for convolution, pair count for hashing), so structured and
unstructured inputs separate honestly in benchmarks.

Before it plans, `ksum` normalizes the input by x -> (x - c) / g, with
c = min A and g = gcd(A - c), a Freiman isomorphism of every order: a target
of the wrong residue gets an exact "no" at once, and everything after it
depends on the spread of the values over g, not on their size.

Every fold runs through `core._fold`, the one fold rule and cap that the
Freiman supports share. Each fold level is one sorted numpy array from the
fold through the meet to the witness walk: int64 while the kernel's one
guard admits the operands (all strictly inside +-2^62), exact Python ints
in an object array past it. Pair folds of at least 2,048 pairs whose sums
span less than 2^32 sort uint32 offsets in the kernel's own scratch and
return the same int64 level, a fresh array. Python ints appear only in the
k witness values; the pair table keys exact Python ints. Levels never leave
`ksum`: a `KsumResult` holds only indices.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from gapsolve.core import (
    IntegerSet,
    InvariantError,
    SolveWitness,
    SubsetSumInstance,
    _fold,
    _fold_plan,
    _in_sorted,
    _int64_safe,
)

DEFAULT_CUT_CAP = 50_000
# left values in the meet's first search; later searches double it
_MEET_SLICE = 64
# a right top fold that would enumerate at least this many pairs is first
# scanned at its head against the left level
_HEAD_MIN_PAIRS = 1 << 12
# the head scan looks up at most 1/_HEAD_SHARE of those pairs before the fold
_HEAD_SHARE = 32


@dataclass(frozen=True)
class SplitterPlan:
    """How the partitions will be produced: exhaustively (a miss proves
    infeasibility) or by random coloring (a miss is probabilistic)."""

    exhaustive: bool
    planned: int


def splitter_plan(n: int, k: int) -> SplitterPlan:
    """Exhaustive while C(n-1, k-1) is within DEFAULT_CUT_CAP, read at call
    time; otherwise e^k * k * 2 * ln n random colorings."""
    if math.comb(n - 1, k - 1) <= DEFAULT_CUT_CAP:
        return SplitterPlan(True, math.comb(n - 1, k - 1))
    return SplitterPlan(False, math.ceil(math.e**k * k * 2 * math.log(n)))


def splitter_family(n: int, k: int, rng) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Uniform random colorings of range(n) into k blocks, each yielded as
    its k blocks of ascending indices, enough of them that a fixed k-subset
    is isolated (one member per block) with probability 1 - n^-2 (the
    colour-coding bound of Alon, Yuster & Zwick with confidence exponent 1);
    colorings that leave a block empty cannot isolate anything and are
    skipped, so every yielded block is nonempty.

    Each color is drawn as `rng.randrange(k)` draws it in CPython, with
    getrandbits(k.bit_length()) redrawn while it is at least k, so the rng
    stream and every coloring are the same at about a third of the cost.

    Only plans that are not exhaustive have a family: exhaustive queries
    are settled from the pair table instead (see `ksum`).
    """
    plan = splitter_plan(n, k)
    if plan.exhaustive:
        raise ValueError("exhaustive plans are solved without a splitter family")
    draw, bits = rng.getrandbits, k.bit_length()
    for _ in range(plan.planned):
        blocks = [[] for _ in range(k)]
        for i in range(n):
            c = draw(bits)
            while c >= k:
                c = draw(bits)
            blocks[c].append(i)
        if any(not b for b in blocks):
            continue
        yield tuple(tuple(b) for b in blocks)


# ---------------------------------------------------------------------------
# sumset folding


@dataclass(frozen=True)
class SumsetFold:
    """One pairwise sumset: its sorted distinct values as the kernel's array
    and the work the chosen backend actually did."""

    sums: np.ndarray
    backend: str
    work: int

    @functools.cached_property
    def values(self) -> tuple[int, ...]:
        """The sums as a tuple of Python ints, built on first read."""
        return tuple(self.sums.tolist())


def sparse_sumset(a: Sequence[int], b: Sequence[int]) -> SumsetFold:
    """Pairwise sumset by the one fold rule of `core._fold`, which chooses
    the backend from the operands alone.

    "hash" enumerates all pairs (work |a|*|b|); "fft" convolves indicator
    vectors over the span of the sums (work: the transform length). fft
    runs exactly when the operands pass the int64 guard and the transform
    length is below the pair count, which is what separates structured from
    unstructured inputs; the work is the smaller of the two, refused past
    `core.DEFAULT_FOLD_CAP`. Arrays keep their dtype; other sequences enter
    as exact Python ints. The sums are always an array of their own.
    """
    if not len(a) or not len(b):
        raise ValueError("sumset factors must be nonempty")
    a, b = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in (a, b))
    # a stable sort is linear on the already sorted fold levels
    a, b = np.sort(a, kind="stable"), np.sort(b, kind="stable")
    return SumsetFold(*_fold(a, b))


# ---------------------------------------------------------------------------
# the solver


@dataclass(frozen=True)
class KsumResult:
    """One k-SUM answer and the work behind it, counted per path.

    Exhaustive plans: `work` is the index pairs tabulated plus the sums
    scanned (a value lookup counts as one scanned sum), and
    `partitions_tried` the fixed (k-4)-tuples scanned, which is 1 for
    k <= 4. Random colorings: `work` is the folds' backend work plus the
    sizes of the met sumsets plus the head keys looked up (see `ksum`), and
    `partitions_tried` the colorings folded; the right top fold's work and
    size count only when that fold runs, and `meta["backends"]` counts only
    the folds that ran.
    A target of the wrong residue (g does not divide t - k*c, see `ksum`)
    and k > n are refused exactly: no witness, `exhaustive` True, `work`
    and `partitions_tried` both 0, and no backends.
    """

    witness: Optional[SolveWitness]
    work: int
    partitions_tried: int
    exhaustive: bool
    meta: dict = field(default_factory=dict)


def _pair_ksum(values: Sequence[int], t: int, k: int) -> tuple[Optional[tuple[int, ...]], int, int]:
    """k distinct indices into the distinct `values` summing to t, or None,
    which proves that none exist; returns (indices, work, fixed tuples).

    2k > n solves the complementary (n-k)-SUM (down to the empty sum for
    k = n), and k <= 2 are value lookups. Otherwise one pass over the index
    pairs i < j keeps, for each sum, the first k-1 pairs found: the
    representatives. Distinct pairs with one sum are pairwise disjoint,
    since the values are distinct, so a set of at most k-2 indices meets at
    most k-2 of them. Take a solution F + p + q with |F| = k-4 and pair
    sums s <= r - s (swap p and q if need be). If p is not kept, k-1 pairs
    of sum s are, and F + q meets at most k-2 of them: one kept p' avoids
    F + q. Likewise a kept q' avoids F + p'. So scanning every (k-4)-tuple
    F, every sum s <= r - s with r = t - sum(F), and the kept pairs on both
    sides finds a solution whenever one exists.
    k = 3 is the same with F + q replaced by one element a (which meets at
    most one pair of a sum, so two representatives would do).
    """
    n = len(values)
    if 2 * k > n:
        rest, work, tried = _pair_ksum(values, sum(values) - t, n - k)
        if rest is None:
            return None, work, tried
        drop = set(rest)
        return tuple(i for i in range(n) if i not in drop), work, tried
    if k == 0:
        return ((), 0, 1) if t == 0 else (None, 0, 1)
    if k <= 2:
        index_of = {v: i for i, v in enumerate(values)}
        if k == 1:
            i = index_of.get(t)
            return (None if i is None else (i,)), 1, 1
        for i, v in enumerate(values):
            # ascending values: a partner below i was met from its own side
            j = index_of.get(t - v)
            if j is not None and j > i:
                return (i, j), i + 1, 1
        return None, n, 1
    reps: dict = {}
    for i in range(n):
        vi = values[i]
        for j in range(i + 1, n):
            kept = reps.get(vi + values[j])
            if kept is None:
                reps[vi + values[j]] = [(i, j)]
            elif len(kept) < k - 1:
                kept.append((i, j))
    work = n * (n - 1) // 2
    if k == 3:
        for a, va in enumerate(values):
            work += 1
            for p in reps.get(t - va, ()):
                if a not in p:
                    return tuple(sorted((a,) + p)), work, 1
        return None, work, 1
    sums = sorted(reps)
    tried = 0
    for fixed in combinations(range(n), k - 4):
        tried += 1
        r = t - sum(values[i] for i in fixed)
        for s in sums:
            if 2 * s > r:
                break
            work += 1
            right = reps.get(r - s)
            if right is None:
                continue
            for p in reps[s]:
                if p[0] in fixed or p[1] in fixed:
                    continue
                for q in right:
                    if q[0] in fixed or q[1] in fixed or q[0] in p or q[1] in p:
                        continue
                    return tuple(sorted(fixed + p + q)), work, tried
    return None, work, tried


def _checked(z: IntegerSet, indices: tuple[int, ...], t: int, k: int) -> SolveWitness:
    """Re-evaluate a witness against the instance before it leaves ksum: k
    distinct positions, then the subset-sum rule of `SubsetSumInstance`."""
    if len(indices) != k or len(set(indices)) != k:
        raise InvariantError("witness indices are not k distinct positions")
    w = SolveWitness("subset-of-indices", indices)
    if reason := SubsetSumInstance(z, t).violation(w):
        raise InvariantError(f"k-sum witness failed re-evaluation: {reason}")
    return w


def _fold_blocks(
    block_values: list[np.ndarray], used: dict, levels: Optional[list] = None
) -> tuple[list[np.ndarray], int]:
    """Left-fold the blocks, keeping every intermediate level's support so
    witnesses can be walked back later without storing pair maps; counts
    each backend's folds into `used`. Folding starts from {0}, or continues
    on top of given `levels`."""
    levels = [np.zeros(1, dtype=np.int64)] if levels is None else list(levels)
    work = 0
    for bv in block_values:
        fold = sparse_sumset(levels[-1], bv)
        levels.append(fold.sums)
        work += fold.work
        used[fold.backend] = used.get(fold.backend, 0) + 1
    return levels, work


def _minus(t: int, arr: np.ndarray) -> np.ndarray:
    """t - arr without wrapping: int64 when t and the ascending arr pass the guard."""
    if not (_int64_safe(arr[0], arr[-1]) and _int64_safe(t, t)):
        arr = arr.astype(object)
    return t - arr


def _unfold(levels: list[np.ndarray], block_values: list[np.ndarray], total: int) -> list[int]:
    """One value per block summing to `total`, deterministically: each block's
    first value (ascending) whose remainder is on the level below."""
    picks = []
    v = total
    for i in range(len(block_values) - 1, -1, -1):
        rest = _minus(v, block_values[i])
        hits = np.flatnonzero(_in_sorted(levels[i], rest))
        if not len(hits):
            raise InvariantError("fold walk lost its value")
        picks.append(int(block_values[i][hits[0]]))
        v = int(rest[hits[0]])
    if v != 0:
        raise InvariantError("fold walk did not terminate at zero")
    return list(reversed(picks))


def _rank(level: np.ndarray, x: int) -> int:
    """Number of entries of a sorted level below x, for any Python int x."""
    if x <= int(level[0]):
        return 0
    if x > int(level[-1]):
        return len(level)
    return int(np.searchsorted(level, x))


def _meet(lvals: np.ndarray, rvals: np.ndarray, t: int) -> Optional[int]:
    """First left value (ascending) whose complement t - v is on the right.

    Only left values in [t - rvals[-1], t - rvals[0]] can meet the right
    level. That window is searched in ascending slices of doubling width,
    from _MEET_SLICE values, and the search stops at the first slice with a
    hit, so a meet that hits early costs a few small searches; a meet with
    no hit searches the whole window, in about log2 of its size calls."""
    lo, hi = _rank(lvals, t - int(rvals[-1])), _rank(lvals, t - int(rvals[0]) + 1)
    width = _MEET_SLICE
    while lo < hi:
        part = lvals[lo : min(lo + width, hi)]
        hits = np.flatnonzero(_in_sorted(rvals, _minus(t, part)[::-1]))
        if len(hits):
            return int(part[len(part) - 1 - hits[-1]])
        lo += width
        width *= 2
    return None


def _head_scan(
    lvals: np.ndarray, rvals: np.ndarray, last: np.ndarray, t: int
) -> tuple[Optional[tuple[int, int]], int]:
    """The first pair (b, r) of last x rvals, b ascending, then r ascending,
    whose complement t - b - r is on the left level, and the number of keys
    looked up. Rows (one b each) are searched in slices of doubling size
    from one row, and at most len(last) // _HEAD_SHARE rows in all, so a
    miss looks up at most 1/_HEAD_SHARE of the pairs of the fold it
    precedes; the last slice takes what remains of the head.
    Keys are int64 when t - b and rvals pass the guard, exact Python ints
    otherwise."""
    width, head = len(rvals), len(last) // _HEAD_SHARE
    # each row's keys ascend, which makes the sorted search cache-friendly
    rest, cols = _minus(t, last), rvals[::-1]
    if not (_int64_safe(rest[-1], rest[0]) and _int64_safe(cols[-1], cols[0])):
        rest, cols = rest.astype(object), cols.astype(object)
    row, rows = 0, 1
    while row < head:
        # a slice that would leave less than the next one takes the rest
        take = rows if head - row >= 3 * rows else head - row
        keys = np.subtract.outer(rest[row : row + take], cols).ravel()
        hits = np.flatnonzero(_in_sorted(lvals, keys))
        if len(hits):
            # the first row with a hit, and its least r: that row's last hit
            i = int(hits[0]) // width
            j = int(hits[np.searchsorted(hits, (i + 1) * width) - 1]) % width
            return (int(last[row + i]), int(rvals[width - 1 - j])), (row + take) * width
        row += take
        rows *= 2
    return None, row * width


def _normalized(values: Sequence[int]) -> tuple[int, int, np.ndarray]:
    """(c, g, (A - c) / g) for sorted distinct values: c = min A and
    g = gcd(A - c), 1 for a single value. The map x -> (x - c) / g is a
    Freiman isomorphism of every order: it keeps the order of the values
    and the order and equality of every k-fold sum, which it sends to
    (s - k*c) / g. The array is int64 while the normalized spread passes
    the guard, whatever the size of the raw values, and an object array of
    exact Python ints past it."""
    c = values[0]
    if _int64_safe(c, values[-1]):
        arr = np.array(values, dtype=np.int64)
        arr -= c
    else:
        arr = np.array([v - c for v in values], dtype=object)
    g = int(np.gcd.reduce(arr)) or 1
    if g > 1:
        arr //= g
    if not _int64_safe(0, int(arr[-1])):
        return c, g, arr.astype(object)
    return c, g, arr.astype(np.int64, copy=False)


def ksum(z: IntegerSet, t: int, k: int, rng) -> KsumResult:
    """Find k distinct indices of z summing to t.

    The values and the target are first normalized by x -> (x - c) / g
    (see `_normalized`), t -> (t - k*c) / g. When g does not divide
    t - k*c, or t lies outside [sum of the k least values, sum of the k
    largest] (compared on the exact values), no k of the values reach t,
    and the answer is an exact "no" with no pair table and no fold.
    Otherwise the plan runs on the normalized values, so its cost and its
    int64 arrays depend on the spread of the values over their gcd, not on
    their size; indices carry over unchanged, and the witness is
    re-evaluated on the raw values.

    Exhaustive plans (see `splitter_plan`) are settled from capped pair
    representatives, and a None witness then proves infeasibility. Other
    plans fold each random coloring: the first floor(k/2) blocks into the
    left sumset and the rest into the right, meeting by complement lookup,
    first against the head of the right top product when that is large
    (see the module docstring); a None witness there is probabilistic
    (`exhaustive` is False). On
    exhaustive plans the witness does not depend on rng, and on every plan
    it is re-evaluated before it is returned.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(z)
    if k > n:
        return KsumResult(None, 0, 0, True, {"backends": {}})
    values = z.elements
    c, g, arr = _normalized(values)
    shifted = t - k * c
    if shifted % g or not sum(values[:k]) <= t <= sum(values[-k:]):
        return KsumResult(None, 0, 0, True, {"backends": {}})
    target = shifted // g
    if splitter_plan(n, k).exhaustive:
        indices, work, tried = _pair_ksum(arr.tolist(), target, k)
        witness = None if indices is None else _checked(z, indices, t, k)
        return KsumResult(witness, work, tried, True, {"backends": {}})
    work = 0
    tried = 0
    backends: dict = {}
    split_at = k // 2
    for blocks in splitter_family(n, k, rng):
        tried += 1
        # blocks list indices ascending, so indexing the sorted values keeps them sorted
        lblocks = [arr[list(b)] for b in blocks[:split_at]]
        *rblocks, last = [arr[list(b)] for b in blocks[split_at:]]
        llevels, lwork = _fold_blocks(lblocks, backends)
        rlevels, rwork = _fold_blocks(rblocks, backends)
        work += lwork + rwork + len(llevels[-1])
        head = None
        backend, pairs = _fold_plan(rlevels[-1], last)
        if backend == "hash" and pairs >= _HEAD_MIN_PAIRS:
            head, looked = _head_scan(llevels[-1], rlevels[-1], last, target)
            work += looked
        if head is not None:
            b, r = head
            picks = _unfold(llevels, lblocks, target - b - r) + _unfold(rlevels, rblocks, r) + [b]
        else:
            rlevels, rwork = _fold_blocks([last], backends, rlevels)
            work += rwork + len(rlevels[-1])
            hit = _meet(llevels[-1], rlevels[-1], target)
            if hit is None:
                continue
            rblocks.append(last)
            picks = _unfold(llevels, lblocks, hit) + _unfold(rlevels, rblocks, target - hit)
        indices = tuple(sorted(bisect_left(arr, v) for v in picks))
        witness = _checked(z, indices, t, k)
        return KsumResult(witness, work, tried, False, {"backends": backends})
    return KsumResult(None, work, tried, False, {"backends": backends})


def foursum(z: IntegerSet, t: int, rng) -> KsumResult:
    return ksum(z, t, 4, rng)
