"""k-SUM by color splitting and structure-aware sumset folding.

A splitter family isolates the unknown solution, one element per color
block; each half of the blocks is folded into a sumset whose
representation cost depends on the additive structure of the input, and
the two halves meet in the middle. Work is accounted per fold in units
native to the backend that ran it (transform length for convolution,
pair count for hashing), so structured and unstructured inputs separate
honestly in benchmarks.

Every fold runs on the sumset kernel in `gapsolve.core`: values are plain
Python ints at fold boundaries, numpy engages only when the kernel's one
int64 guard admits the operands (all strictly inside +-2^62), and anything
larger takes the kernel's exact Python-int fallback.
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
    """Partitions of range(n) into k blocks, one of which isolates any
    fixed k-subset.

    Small instances get every consecutive-cut partition: sorted subsets
    are always split by cuts between their members, so the family is a
    complete splitter. Larger instances fall back to uniform random
    colorings, enough of them that a fixed subset is isolated with
    probability 1 - n^-(gamma+1); colorings that leave a block empty
    cannot isolate anything and are skipped.
    """
    plan = splitter_plan(n, k, gamma, cut_cap)
    if k == 1:
        yield ColorPartition((tuple(range(n)),))
        return
    if plan.exhaustive:
        idx = tuple(range(n))
        for cuts in combinations(range(1, n), k - 1):
            edges = (0,) + cuts + (n,)
            yield ColorPartition(
                tuple(idx[edges[i] : edges[i + 1]] for i in range(k))
            )
        return
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
    witness: Optional[SolveWitness]
    work: int
    partitions_tried: int
    exhaustive: bool
    meta: dict = field(default_factory=dict)


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

    Per partition, the first floor(k/2) blocks fold into the left sumset
    and the rest into the right; the halves meet by complement lookup.
    A None witness is a proof of infeasibility exactly when the splitter
    family was exhaustive (see the result's `exhaustive` field).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(z)
    plan = splitter_plan(n, k, gamma, cut_cap)
    if k > n:
        return KsumResult(None, 0, 0, True)
    values = z.elements
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
        if len(indices) != k or len(set(indices)) != k:
            raise InvariantError("witness indices are not k distinct positions")
        if sum(values[i] for i in indices) != t:
            raise InvariantError("k-sum witness failed re-evaluation")
        return KsumResult(
            SolveWitness("subset-of-indices", indices),
            work,
            tried,
            plan.exhaustive,
            {"backends": backends},
        )
    return KsumResult(None, work, tried, plan.exhaustive, {"backends": backends})


def foursum(z: IntegerSet, t: int, rng, **kwargs) -> KsumResult:
    return ksum(z, t, 4, rng, **kwargs)
