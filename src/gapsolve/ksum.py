"""k-SUM by capped pair representatives and, past the exhaustive regime,
by color splitting and structure-aware sumset folding.

While the plan is exhaustive (C(n-1, k-1) within the cut cap, and always
for k = 1), one pass over the index pairs tabulates a few representative
pairs per sum, and every query is settled from that table. Past it, a
random splitter family isolates the unknown solution, one element per
color block; each half of the blocks is folded into a sumset whose
representation cost depends on the additive structure of the input, and
the two halves meet in the middle. Fold work is accounted in units native
to the backend that ran it (transform length for convolution, pair count
for hashing), so structured and unstructured inputs separate honestly in
benchmarks.

Every fold runs on the sumset kernel in `gapsolve.core`: values are plain
Python ints at fold boundaries, numpy engages only when the kernel's one
int64 guard admits the operands (all strictly inside +-2^62), and anything
larger takes the kernel's exact Python-int fallback. The pair table keys
exact Python ints.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from gapsolve.core import (
    EnumerationCapError,
    IntegerSet,
    InvariantError,
    SolveWitness,
    _conv_support,
    _indicator,
    _int64_safe,
    _pair_sumset,
    _transform_size,
)

DEFAULT_CUT_CAP = 50_000
DEFAULT_PAIR_CAP = 50_000_000
DEFAULT_RANGE_CAP = 1 << 22


@dataclass(frozen=True)
class ColorPartition:
    """Ordered partition of index positions into nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(not b for b in self.blocks):
            raise ValueError("blocks must be nonempty")


@dataclass(frozen=True)
class SplitterPlan:
    """How the partitions will be produced: exhaustively (a miss proves
    infeasibility) or by random coloring (a miss is probabilistic)."""

    exhaustive: bool
    planned: int


def splitter_plan(n: int, k: int, gamma: int = 1, cut_cap: int = DEFAULT_CUT_CAP) -> SplitterPlan:
    if k == 1:
        return SplitterPlan(True, 1)
    if math.comb(n - 1, k - 1) <= cut_cap:
        return SplitterPlan(True, math.comb(n - 1, k - 1))
    t = math.ceil(math.e**k * k * (gamma + 1) * math.log(n))
    return SplitterPlan(False, t)


def splitter_family(
    n: int, k: int, rng, gamma: int = 1, cut_cap: int = DEFAULT_CUT_CAP
) -> Iterator[ColorPartition]:
    """Uniform random colorings of range(n) into k blocks, enough of them
    that a fixed k-subset is isolated (one member per block) with
    probability 1 - n^-(gamma+1); colorings that leave a block empty cannot
    isolate anything and are skipped.

    Only plans that are not exhaustive have a family: exhaustive queries
    are settled from the pair table instead (see `ksum`).
    """
    plan = splitter_plan(n, k, gamma, cut_cap)
    if plan.exhaustive:
        raise ValueError("exhaustive plans are solved without a splitter family")
    for _ in range(plan.planned):
        colors = [rng.randrange(k) for _ in range(n)]
        blocks = [[] for _ in range(k)]
        for i, c in enumerate(colors):
            blocks[c].append(i)
        if any(not b for b in blocks):
            continue
        yield ColorPartition(tuple(tuple(b) for b in blocks))


# ---------------------------------------------------------------------------
# sumset folding


@dataclass(frozen=True)
class SumsetFold:
    """One pairwise sumset: sorted distinct values and the work the chosen
    backend actually did."""

    values: tuple[int, ...]
    backend: str
    work: int


def sparse_sumset(
    a: Sequence[int],
    b: Sequence[int],
    backend: Optional[str] = None,
    pair_cap: int = DEFAULT_PAIR_CAP,
    range_cap: int = DEFAULT_RANGE_CAP,
) -> SumsetFold:
    """Pairwise sumset with backend choice by shape.

    "hash" enumerates all pairs (cost |a|*|b|); "fft" convolves indicator
    vectors over the combined value range (cost: the transform length).
    Auto selection takes fft exactly when the range is within cap and
    smaller than the pair count, which is what separates structured from
    unstructured inputs. Values outside the int64 guard fall back to exact
    Python hashing regardless, still under the pair cap.
    """
    if not a or not b:
        raise ValueError("sumset factors must be nonempty")
    a = sorted(a)
    b = sorted(b)
    if backend not in (None, "hash", "fft"):
        raise ValueError("backend must be 'hash' or 'fft'")
    pairs = len(a) * len(b)
    if not (_int64_safe(a[0], a[-1]) and _int64_safe(b[0], b[-1])):
        if backend == "fft":
            raise EnumerationCapError("values exceed the convolution-safe range")
        if pairs > pair_cap:
            raise EnumerationCapError(f"{pairs} pairs above cap {pair_cap}")
        return SumsetFold(tuple(_pair_sumset(a, b)), "hash", pairs)
    span = (a[-1] - a[0]) + (b[-1] - b[0]) + 1
    if backend is None:
        if span <= range_cap and pairs > span:
            backend = "fft"
        elif pairs <= pair_cap:
            backend = "hash"
        elif span <= range_cap:
            backend = "fft"
        else:
            raise EnumerationCapError(
                f"sumset needs {pairs} pairs or range {span}; both above caps"
            )
    if backend == "hash":
        if pairs > pair_cap:
            raise EnumerationCapError(f"{pairs} pairs above cap {pair_cap}")
        return SumsetFold(tuple(_pair_sumset(a, b)), "hash", pairs)
    if span > range_cap:
        raise EnumerationCapError(f"range {span} above cap {range_cap}")
    hit = np.flatnonzero(_conv_support(_indicator(a), _indicator(b)))
    return SumsetFold(tuple((hit + (a[0] + b[0])).tolist()), "fft", _transform_size(span))


# ---------------------------------------------------------------------------
# the solver


@dataclass(frozen=True)
class KsumResult:
    """One k-SUM answer and the work behind it, counted per path.

    Exhaustive plans: `work` is the index pairs tabulated plus the sums
    scanned (a value lookup counts as one scanned sum), and
    `partitions_tried` the fixed (k-4)-tuples scanned, which is 1 for
    k <= 4. Random colorings: `work` is the folds' backend work plus the
    sizes of the met sumsets, and `partitions_tried` the colorings folded.
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


def _checked(values: Sequence[int], indices: tuple[int, ...], t: int, k: int) -> SolveWitness:
    """Re-evaluate a witness against the instance before it leaves ksum."""
    if len(indices) != k or len(set(indices)) != k:
        raise InvariantError("witness indices are not k distinct positions")
    if sum(values[i] for i in indices) != t:
        raise InvariantError("k-sum witness failed re-evaluation")
    return SolveWitness("subset-of-indices", indices)


def _fold_blocks(
    block_values: list[list[int]], backend, pair_cap, range_cap
) -> tuple[list[list[int]], int, dict]:
    """Left-fold the blocks, keeping every intermediate level's support so
    witnesses can be walked back later without storing pair maps."""
    levels = [[0]]
    work = 0
    used: dict = {}
    for bv in block_values:
        fold = sparse_sumset(
            levels[-1],
            bv,
            backend=backend,
            pair_cap=pair_cap,
            range_cap=range_cap,
        )
        levels.append(list(fold.values))
        work += fold.work
        used[fold.backend] = used.get(fold.backend, 0) + 1
    return levels, work, used


def _unfold(levels: list[list[int]], block_values: list[list[int]], total: int) -> list[int]:
    """Recover one value per block summing to `total`, scanning each block
    ascending so the result is deterministic."""
    picks = []
    v = total
    for i in range(len(block_values) - 1, -1, -1):
        prev = levels[i]
        for bval in block_values[i]:
            rest = v - bval
            j = bisect_left(prev, rest)
            if j < len(prev) and prev[j] == rest:
                picks.append(bval)
                v = rest
                break
        else:
            raise InvariantError("fold walk lost its value")
    if v != 0:
        raise InvariantError("fold walk did not terminate at zero")
    return list(reversed(picks))


def _meet(lvals: list[int], rvals: list[int], t: int) -> Optional[int]:
    """First left value (ascending) whose complement t - v is on the right."""
    if (
        len(lvals) > 64
        and _int64_safe(lvals[0], lvals[-1])
        and _int64_safe(rvals[0], rvals[-1])
        and _int64_safe(t, t)
    ):
        la = np.array(lvals, dtype=np.int64)
        ra = np.array(rvals, dtype=np.int64)
        need = t - la
        pos = np.searchsorted(ra, need)
        found = np.zeros(len(la), dtype=bool)
        valid = pos < len(ra)
        found[valid] = ra[pos[valid]] == need[valid]
        idx = np.nonzero(found)[0]
        return int(la[idx[0]]) if len(idx) else None
    rset = set(rvals)
    for v in lvals:
        if t - v in rset:
            return v
    return None


def ksum(
    z: IntegerSet,
    t: int,
    k: int,
    rng,
    gamma: int = 1,
    backend: Optional[str] = None,
    cut_cap: int = DEFAULT_CUT_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    range_cap: int = DEFAULT_RANGE_CAP,
) -> KsumResult:
    """Find k distinct indices of z summing to t.

    Exhaustive plans (see `splitter_plan`) are settled from capped pair
    representatives, and a None witness then proves infeasibility. Other
    plans fold each random coloring: the first floor(k/2) blocks into the
    left sumset and the rest into the right, meeting by complement lookup;
    a None witness there is probabilistic (`exhaustive` is False). On
    exhaustive plans the witness does not depend on rng, and on every plan
    it is re-evaluated before it is returned.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(z)
    plan = splitter_plan(n, k, gamma, cut_cap)
    if k > n:
        return KsumResult(None, 0, 0, True)
    values = z.elements
    if plan.exhaustive:
        indices, work, tried = _pair_ksum(values, t, k)
        witness = None if indices is None else _checked(values, indices, t, k)
        return KsumResult(witness, work, tried, True, {"backends": {}})
    index_of = {v: i for i, v in enumerate(values)}
    work = 0
    tried = 0
    backends: dict = {}
    for part in splitter_family(n, k, rng, gamma, cut_cap):
        tried += 1
        split_at = k // 2
        lblocks = [sorted(values[i] for i in b) for b in part.blocks[:split_at]]
        rblocks = [sorted(values[i] for i in b) for b in part.blocks[split_at:]]
        llevels, lwork, lused = _fold_blocks(lblocks, backend, pair_cap, range_cap)
        rlevels, rwork, rused = _fold_blocks(rblocks, backend, pair_cap, range_cap)
        work += lwork + rwork
        for src in (lused, rused):
            for key, cnt in src.items():
                backends[key] = backends.get(key, 0) + cnt
        lvals, rvals = llevels[-1], rlevels[-1]
        work += len(lvals) + len(rvals)
        hit = _meet(lvals, rvals, t)
        if hit is None:
            continue
        lpicks = _unfold(llevels, lblocks, hit)
        rpicks = _unfold(rlevels, rblocks, t - hit)
        indices = tuple(sorted(index_of[v] for v in lpicks + rpicks))
        witness = _checked(values, indices, t, k)
        return KsumResult(witness, work, tried, False, {"backends": backends})
    return KsumResult(None, work, tried, False, {"backends": backends})


def foursum(z: IntegerSet, t: int, rng, **kwargs) -> KsumResult:
    return ksum(z, t, 4, rng, **kwargs)
