"""Feasibility solvers and reductions for bounded integer linear programs
with few constraints.

Solvers are exact dynamic programs over reachable constraint-vector values,
encoded as integer keys. One engine fills the table variable by variable and
keeps, as one sorted array, only the reachable keys whose distance to the
target lies in the range the later variables can add. Variable j runs one
sub-step per value v = 1..span: the keys key + v * column that land in that
window and are not yet present are recorded and merged into the array.
Every key written lies in the first window; when that window is at most
`DEFAULT_TABLE_CAP` keys wide, a bitmap over it marks each key written and
drops a repeat in one lookup. A wider window binary-searches the array, and
there the DP also drops every key whose residue mod 2^12 the later
variables cannot carry to the target's, so a sparse sum over a wide window
keeps far fewer keys (24 elements spread over 10^10: at most 460 where the
unfiltered table reaches 1,416). Both filters keep every key on a path to
the target, so neither changes a witness or a None; on wide windows the
table cap bounds the filtered table. The keys are
int64 while the key range stays within 2^62 and exact Python ints in an
object array past it. Cost and the table cap follow the number of distinct
reachable vectors that can still hit the target, not the size of the
values. Witnesses are deterministic: a new key keeps the smallest value
that reaches it, and the walk back from the target subtracts, variable by
variable, the value of the sub-step that wrote the current key. A 0/1
variable gives each new key one source, so a binary witness is the one that
scanning an insertion-ordered table of every reachable vector gives.
Reductions carry enough metadata to decode a downstream witness back to the
original variables. An aggregated program reduces to subset sum by
multiplicity blocks, one interval of elements per distinct dot product, so
the doubling constant of the set is bounded by the number K of distinct
dots, not by the number of variables. Each instance type writes its
validity rule once, as `solved_by` (`BilpInstance`: one integer per
variable within its bounds and
A x = b; `HbilpInstance`: a 0/1 vector with <Ax, s> = t). The three solvers
share one tail that calls it on every witness, the decoders to and from the
aggregated form check with it, and `gapsolve verify witness` only
dispatches to it. The two subset decoders write no check of their own: they
raise the condition that `core.SubsetSumInstance.violation` names.

Unbounded reachability has one engine: big-int bitset closures of
nonnegative column combinations in a box [0, B]^m by doubling passes, for
the candidate supports here (B = n * Delta) and for the whole coin problem
of unbounded subset sum (one row over every coin, B = the target over the
gcd of the coins). The closures stay big ints, and the walk back to the
lexicographically least solution reads each column's multiple off one
masked shift of the next closure. The engine takes no cap; each caller
bounds its own box. The candidate supports, all that any target in the box
can need, are the sets sigma whose 1_sigma is its own least solution; one
pass from the last column to the first grows them with no walk.

All arithmetic is exact on Python ints of any size, so no program is
refused for the size of its values; numpy int64 keys are used only where
`core._int64_safe` admits the key range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from gapsolve.core import (
    DEFAULT_TABLE_CAP,
    DuplicateColumnError,
    EnumerationCapError,
    Gap,
    IntegerSet,
    InvariantError,
    Matrix,
    SolveWitness,
    SubsetSumInstance,
    TableCapError,
    _exact_int,
    _in_sorted,
    _int64_safe,
)
from gapsolve.freiman import FreimanGapResult, freiman_gap, split_coords, split_dimensions


@dataclass(frozen=True)
class BilpInstance:
    """Ax = b with per-variable integer bounds (binary unless stated).

    Duplicate columns are rejected: the solvers treat the column set as a
    set, and a duplicate is always a modeling mistake at this layer.
    """

    a: Matrix
    b: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.b) != self.a.num_rows:
            raise ValueError("right-hand side length must match row count")
        if len(self.bounds) != self.a.num_cols:
            raise ValueError("need one bound pair per variable")
        if any(lo > hi for lo, hi in self.bounds):
            raise ValueError("empty variable range")
        cols = self.a.columns()
        if len(set(cols)) != len(cols):
            raise DuplicateColumnError("matrix has duplicate columns")

    @classmethod
    def binary(cls, a: Matrix, b: Sequence[int]) -> "BilpInstance":
        return cls(a, tuple(map(_exact_int, b)), ((0, 1),) * a.num_cols)

    @property
    def is_binary(self) -> bool:
        return all(x == (0, 1) for x in self.bounds)

    def solved_by(self, x: Sequence[int]) -> bool:
        """Whether x has one integer per variable, each within its bounds,
        and A x = b."""
        if len(x) != self.a.num_cols:
            return False
        if any(not lo <= v <= hi for v, (lo, hi) in zip(x, self.bounds)):
            return False
        return self.a.matvec(x) == self.b

    def to_json_dict(self) -> dict:
        d = {"A": self.a.to_json_rows(), "b": list(self.b)}
        if not self.is_binary:
            d["bounds"] = [list(x) for x in self.bounds]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "BilpInstance":
        a = Matrix.from_rows(d["A"])
        if "bounds" in d:
            bounds = tuple((_exact_int(lo), _exact_int(hi)) for lo, hi in d["bounds"])
            return cls(a, tuple(map(_exact_int, d["b"])), bounds)
        return cls.binary(a, d["b"])


@dataclass(frozen=True)
class HbilpInstance:
    """Binary x with the single aggregated constraint <Ax, s> = t."""

    a: Matrix
    s: tuple[int, ...]
    t: int

    def __post_init__(self):
        if len(self.s) != self.a.num_rows:
            raise ValueError("step vector length must match row count")

    @property
    def delta(self) -> int:
        return self.a.infinity_norm()

    def dots(self) -> tuple[int, ...]:
        """Per-column contribution <A[:,j], s> of setting x_j = 1."""
        return tuple(
            sum(self.a.rows[i][j] * self.s[i] for i in range(self.a.num_rows))
            for j in range(self.a.num_cols)
        )

    def solved_by(self, x: Sequence[int]) -> bool:
        """Whether x is a 0/1 vector over the columns with <Ax, s> = t."""
        if len(x) != self.a.num_cols or any(v not in (0, 1) for v in x):
            return False
        return sum(d * v for d, v in zip(self.dots(), x)) == self.t

    def to_json_dict(self) -> dict:
        return {"A": self.a.to_json_rows(), "s": list(self.s), "t": self.t}

    @classmethod
    def from_json_dict(cls, d: dict) -> "HbilpInstance":
        return cls(Matrix.from_rows(d["A"]), tuple(map(_exact_int, d["s"])), _exact_int(d["t"]))


# ---------------------------------------------------------------------------
# reachable-sum dynamic program

# wide-window DPs keep a key only if its residue modulo this can reach the target
_RESIDUE_MODULUS = 1 << 12


def _residue_sets(deltas: Sequence[int], spans: Sequence[int], target: int) -> list:
    """reach[j] marks the residues r mod `_RESIDUE_MODULUS` from which the
    variables after j can add up to the target's residue, or is None when
    every residue can. Built from the last variable backwards: the set
    before variable j is the union over v = 0..span of the set after it
    shifted by -v * delta, each shift two slice-ORs. The sets grow towards
    the front, so the first full one ends the build."""
    mod = _RESIDUE_MODULUS
    reach = [None] * (len(spans) - 1) + [np.zeros(mod, dtype=bool)]
    reach[-1][target % mod] = True
    for j in range(len(spans) - 1, 0, -1):
        after, d = reach[j], deltas[j] % mod
        before = after.copy()
        # v * d mod `mod` repeats with period mod / gcd(d, mod)
        for v in range(1, min(spans[j], mod // math.gcd(d, mod) - 1) + 1):
            s = v * d % mod
            before[: mod - s] |= after[s:]
            before[mod - s :] |= after[:s]
        if before.all():
            break
        reach[j - 1] = before
    return reach


def _residues(keys: np.ndarray) -> np.ndarray:
    """Each key mod `_RESIDUE_MODULUS`, as indices; object keys included."""
    return (keys & (_RESIDUE_MODULUS - 1)).astype(np.intp, copy=False)


def _array_engine(
    keys: np.ndarray, deltas: Sequence[int], spans: Sequence[int], target: int, table_cap: int
) -> Optional[list[int]]:
    """Reachable-sum DP on sorted arrays from `keys`, the one-element array
    of the root key, towards the key `target`; returns the x~ that reaches
    it, or None when the table empties. A table that ends on any key but
    the target is an InvariantError. Keys are int64 when every key fits,
    else an object array of exact Python ints.

    After variable j the table keeps only the keys K that the later
    variables can still carry to the target as far as their range tells:
    target - K must lie in [low_j, high_j], the sums of min(0, delta * span)
    and max(0, delta * span) over the later variables. Variable j runs one
    sub-step per value v = 1..span: the keys of the table before j that
    land in the window after adding v * delta, shifted by it, minus those
    already in the table, are the keys (j, v) writes, and they are merged
    into the sorted table by a stable sort of the two sorted runs. A new key
    thus keeps the smallest value that reaches it. The windows are nested,
    so a key that leaves the table never returns and every key is written
    at most once; the walk back from the target takes x_j = v at the one
    sub-step (j, v) that wrote the current key and subtracts v * delta.

    The windows being nested, every key written lies in the first window
    [lo, hi] of a variable that moves, and a candidate in the current window
    is in the table exactly when it was ever written. When that window is
    at most `DEFAULT_TABLE_CAP` keys wide, a bitmap `seen` over it marks the
    kept table and every candidate, and the duplicate check is one lookup
    per candidate, at most the cap in bytes; a wider window (a sparse
    subset sum's can be 10^10 and more) binary-searches the table instead.

    On a wide window the keys are also filtered by residue: `reach[j]`
    (`_residue_sets`, built once per DP, 4,096 booleans per variable until
    the first full set) holds the residues mod `_RESIDUE_MODULUS` from which
    the variables after j can reach the target's, and the table at the start
    of variable j and each sub-step's candidates, before the search, keep
    only keys with such a residue. The sets only shrink along the DP, so a
    dropped key never passes again and the search stays exact; a key that
    reaches the target always passes, so every key on a path to it is
    written at the same sub-step as without the filter, the walk back reads
    only such keys, and the witness is unchanged. Narrow windows take no
    residue filter: their residues fill within a few variables. Each
    variable costs about |table| * span, times log |table| on wide windows
    only, whatever the size of the keys, and the table cap applies to the
    kept table after it, on wide windows the filtered one, so a wide DP
    hits the cap later, never sooner.
    """
    low, high = [0] * len(spans), [0] * len(spans)
    for j in range(len(spans) - 1, 0, -1):
        step = deltas[j] * spans[j]
        low[j - 1], high[j - 1] = low[j] + min(0, step), high[j] + max(0, step)
    written = []  # (variable, value, sorted keys it wrote) per sub-step
    base = seen = None
    reach = [None] * len(spans)  # residue filters, wide windows only
    for j, (delta, span) in enumerate(zip(deltas, spans)):
        if span == 0 or delta == 0:
            continue
        lo, hi = target - high[j], target - low[j]
        # old[ends[2v] : ends[2v + 1]] are the keys that v * delta carries into [lo, hi]
        ends = keys.searchsorted([b - v * delta for v in range(span + 1) for b in (lo, hi + 1)])
        old, keys = keys, keys[ends[0] : ends[1]]
        if base is None:  # every key from here on lies in this first window
            base = lo
            if hi - lo < DEFAULT_TABLE_CAP:
                seen = np.zeros(hi - lo + 1, dtype=bool)
                seen[(keys - base).astype(np.intp, copy=False)] = True
            else:
                reach = _residue_sets(deltas, spans, target)
        ok = reach[j]
        if ok is not None:
            keys = keys[ok[_residues(keys)]]
        for v in range(1, span + 1):
            new = old[ends[2 * v] : ends[2 * v + 1]] + v * delta
            if ok is not None:  # wide windows only, so never with `seen`
                new = new[ok[_residues(new)]]
            if seen is not None:
                at = (new - base).astype(np.intp, copy=False)
                new = new[~seen[at]]
                seen[at] = True
            elif len(keys) and len(new):
                new = new[~_in_sorted(keys, new)]
            if len(new):
                written.append((j, v, new))
                keys = np.concatenate((keys, new))
                keys.sort(kind="stable")  # a linear merge of the two sorted runs
        if len(keys) > table_cap:
            raise TableCapError(
                f"reachable table hit {len(keys)} entries at variable {j} (cap {table_cap})"
            )
        if not len(keys):
            return None
    # the window after the last variable that moves a key is {target}, and
    # with no moving variable the caller admits only target == root
    if keys[0] != target:
        raise InvariantError(f"table ends at key {keys[0]}, not the target {target}")
    x = [0] * len(spans)
    key = target
    for j, v, new in reversed(written):
        at = new.searchsorted(key)
        if at < len(new) and new[at] == key:
            x[j] = v
            key -= v * deltas[j]
    return x


def _solve_bounded(
    a: Matrix,
    b: Sequence[int],
    bounds: Sequence[tuple[int, int]],
    table_cap: int,
) -> Optional[list[int]]:
    """An x with A x = b inside `bounds`, or None.

    Each row i is first divided by g_i, the gcd of its entries: A x is a
    multiple of g_i in row i, so a b_i that g_i does not divide is an exact
    "no", and the division keeps every solution. Variables are shifted to
    x~ = x - lower bound in [0, spans_j]. A vector v of A x~ lies between
    lows and highs, the row extremes, and is encoded as the key
    sum_i (v_i - lows_i) * strides_i; the encoding is linear, so adding a
    column contribution is integer addition on keys. The division keeps the
    order of the keys, so the key range, and with it the key dtype, follows
    the rows' spreads over their gcds, not the size of the entries.
    """
    rows, rhs = [], []
    for row, bi in zip(a.rows, b):
        g = math.gcd(*row) or 1
        if bi % g:
            return None
        rows.append(row if g == 1 else tuple(v // g for v in row))
        rhs.append(bi // g)
    spans = [hi - lo for lo, hi in bounds]
    shift = [lo for lo, _ in bounds]
    target = [bi - sum(v * s for v, s in zip(row, shift)) for row, bi in zip(rows, rhs)]
    cols, m = tuple(zip(*rows)), len(rows)
    lows, strides = [], []
    key_range = 1
    outside = False
    for i in range(m):
        lo = sum(min(0, col[i] * span) for col, span in zip(cols, spans))
        hi = sum(max(0, col[i] * span) for col, span in zip(cols, spans))
        outside = outside or not lo <= target[i] <= hi
        lows.append(lo)
        strides.append(key_range)
        key_range *= hi - lo + 1
    if outside:
        return None
    deltas = [sum(col[i] * strides[i] for i in range(m)) for col in cols]
    # every key and every candidate key + v * delta lies in [0, key_range)
    dtype = np.int64 if _int64_safe(0, key_range - 1) else object
    root = sum(-lo * st for lo, st in zip(lows, strides))
    goal = sum((t - lo) * st for t, lo, st in zip(target, lows, strides))
    xt = _array_engine(np.array([root], dtype=dtype), deltas, spans, goal, table_cap)
    if xt is None:
        return None
    return [s + v for s, v in zip(shift, xt)]


def _certified(
    inst: BilpInstance | HbilpInstance, kind: str, x: Optional[list[int]]
) -> Optional[SolveWitness]:
    """The solvers' shared tail: None passes through, and any other x must
    pass the instance's own `solved_by` before it becomes a witness."""
    if x is None:
        return None
    if not inst.solved_by(x):
        raise InvariantError("witness failed re-evaluation")
    return SolveWitness(kind, tuple(x))


def bilp_feasibility_dp(
    inst: BilpInstance, table_cap: int = DEFAULT_TABLE_CAP
) -> Optional[SolveWitness]:
    """Binary BILP feasibility; None when infeasible."""
    if not inst.is_binary:
        raise ValueError("instance is not binary; use bounded_ilp_feasibility")
    x = _solve_bounded(inst.a, inst.b, inst.bounds, table_cap)
    return _certified(inst, "binary-vector", x)


def bounded_ilp_feasibility(
    inst: BilpInstance, table_cap: int = DEFAULT_TABLE_CAP
) -> Optional[SolveWitness]:
    """General bounded variant; witness payload is the variable assignment."""
    x = _solve_bounded(inst.a, inst.b, inst.bounds, table_cap)
    return _certified(inst, "multiplicity-vector", x)


def hbilp_feasibility(
    inst: HbilpInstance, table_cap: int = DEFAULT_TABLE_CAP
) -> Optional[SolveWitness]:
    """Aggregated single-constraint feasibility via the same table engine,
    running on the per-column dot products."""
    dots = inst.dots()
    x = _solve_bounded(
        Matrix.from_rows([list(dots)]), (inst.t,), ((0, 1),) * len(dots), table_cap
    )
    return _certified(inst, "binary-vector", x)


# ---------------------------------------------------------------------------
# normalization reductions


@dataclass(frozen=True)
class BilpNonnegative:
    """Entrywise-nonnegative reformulation over twice the variables.

    Solutions of the new system with column support summing to the appended
    row's target restrict to solutions of the original on the first block.
    """

    matrix: Matrix
    rhs: tuple[int, ...]
    n_original: int

    @property
    def support_target(self) -> int:
        """The appended row's target: each original variable or its copy."""
        return self.n_original

    def decode(self, y: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(v) for v in y[: self.n_original])


def bilp_nonnegative(a: Matrix, b: Sequence[int]) -> BilpNonnegative:
    """Shift entries by the magnitude bound and append a support row.

    The appended row pins the total support to n (each original variable or
    its complement copy), so the shift contributes a fixed amount to every
    row and feasibility is preserved exactly.
    """
    n, delta = a.num_cols, a.infinity_norm()
    rows = [[v + delta for v in row] + [delta] * n for row in a.rows]
    rows.append([1] * (2 * n))
    rhs = tuple(bv + n * delta for bv in b) + (n,)
    out = Matrix.from_rows(rows)
    if out.infinity_norm() > 2 * delta and delta > 0:
        raise InvariantError("normalized magnitude exceeded twice the input bound")
    return BilpNonnegative(out, rhs, n)


@dataclass(frozen=True)
class HbilpFromBilp:
    """Aggregation of a nonnegative BILP into one constraint via positional
    powers; infeasible right-hand sides map to an unreachable target."""

    instance: HbilpInstance
    radix: int
    guard_tripped: bool

    def decode(self, y: Sequence[int]) -> tuple[int, ...]:
        """Raises ValueError for y that does not solve the aggregated instance."""
        if not self.instance.solved_by(y):
            raise ValueError("assignment does not solve the aggregated program")
        return tuple(int(v) for v in y)


def bilp_to_hbilp(a: Matrix, b: Sequence[int]) -> HbilpFromBilp:
    """Collapse rows with steps 1, q, q^2, ... where q = n*Delta + 1 bounds
    every reachable row value. Entries must be nonnegative (normalize
    first); a right-hand side outside [0, n*Delta] is unreachable, so those
    instances map to the canonically infeasible target -1.
    """
    if any(v < 0 for row in a.rows for v in row):
        raise ValueError("entries must be nonnegative; apply bilp_nonnegative first")
    n, delta = a.num_cols, a.infinity_norm()
    q = n * delta + 1
    s = tuple(q**i for i in range(a.num_rows))
    if any(not 0 <= bv <= n * delta for bv in b):
        return HbilpFromBilp(HbilpInstance(a, s, -1), q, True)
    t = sum(bv * si for bv, si in zip(b, s))
    return HbilpFromBilp(HbilpInstance(a, s, t), q, False)


# ---------------------------------------------------------------------------
# subset-sum bridge


@dataclass(frozen=True)
class SubsetSumFromHbilp:
    """Subset-sum instance equivalent to an aggregated ILP.

    `origin` holds one entry per sorted element: the variable that element
    stands for, or None for a slack element (or the placeholder of an
    instance where no variable moves the sum). `complemented` lists the
    variables with a negative dot product, which the encoding reads as
    1 - x_j. `decode` maps a subset of indices into the sorted element set
    back to a binary assignment of the original variables, starting from 1
    on the complemented ones and flipping the variable of each chosen
    element, and re-verifies it.
    """

    elements: IntegerSet
    target: int
    original: HbilpInstance
    origin: tuple[Optional[int], ...]
    complemented: tuple[int, ...]
    meta: dict = field(default_factory=dict)

    def decode(self, indices: Sequence[int]) -> SolveWitness:
        """Raises ValueError naming the condition of the reduced instance's
        rule that the indices fail, InvariantError if a solution fails to
        decode."""
        w = SolveWitness("subset-of-indices", tuple(indices))
        if reason := SubsetSumInstance(self.elements, self.target).violation(w):
            raise ValueError(reason)
        x = [0] * self.original.a.num_cols
        for j in self.complemented:
            x[j] = 1
        for i in indices:
            if self.origin[i] is not None:
                x[self.origin[i]] ^= 1
        if not self.original.solved_by(x):
            raise InvariantError("decoded assignment failed re-evaluation")
        return SolveWitness("binary-vector", tuple(x))


def hbilp_to_ss(inst: HbilpInstance) -> SubsetSumFromHbilp:
    """Encode aggregated-ILP feasibility as subset sum over distinct
    positive elements, by multiplicity blocks.

    With d_j = <A[:, j], s>, each variable with d_j < 0 is complemented
    (x_j -> 1 - x_j, t -> t - d_j), and a variable with d_j = 0 is free and
    gets no element. The program then asks for counts r_v <= mu_v, where
    mu_v variables have |d_j| = v, with sum_v r_v * v = t. Value v becomes
    the block v*M + i for i < mu_v, beside the slack {1, ..., L}, where
    R = sum_v mu_v (mu_v - 1) / 2, L is the least integer with
    L(L + 1)/2 >= R and M = R + L(L + 1)/2 + 1; the target is t*M + R.

    The encoding is exact for every integer t. The low parts (the i of each
    chosen block element and the chosen slack) sum to at most M - 1, so
    they never carry into the multiples of M: a subset hits t*M + R exactly
    when its block counts solve sum_v r_v * v = t and its low parts sum to
    R. Counts that solve it take the first r_v copies of each block, whose
    low parts sum to at most R, and the slack's subsets make up every
    remainder in [0, L(L + 1)/2]. Copy i of block v stands for the i-th
    variable with |d_j| = v; any r_v of them serve alike.

    The set is the union of K + 1 intervals, one block per distinct nonzero
    |d_j| and the slack, so |Z + Z| <= sum over pairs of intervals of
    |I| + |I'| = (K + 2)|Z|: the doubling constant is at most K + 2,
    whatever n. After `bilp_nonnegative` the columns lie in
    [0, 2*Delta]^m with a last row of ones, so K <= (2*Delta + 1)^m. When
    no variable moves the sum, the set is the placeholder {1}, since a set
    is nonempty, with target 0 when t = 0 and -1 otherwise.
    """
    dots, t = inst.dots(), inst.t
    complemented = tuple(j for j, d in enumerate(dots) if d < 0)
    t -= sum(dots[j] for j in complemented)
    blocks: dict[int, list[int]] = {}
    for j, d in enumerate(dots):
        if d:
            blocks.setdefault(abs(d), []).append(j)
    r = sum(len(js) * (len(js) - 1) // 2 for js in blocks.values())
    slack = (math.isqrt(8 * r + 1) - 1) // 2  # the largest L with L(L + 1)/2 <= R
    if slack * (slack + 1) // 2 < r:
        slack += 1
    big_m = r + slack * (slack + 1) // 2 + 1
    pairs = [(v * big_m + i, j) for v, js in blocks.items() for i, j in enumerate(js)]
    pairs += [(i, None) for i in range(1, slack + 1)]
    target = t * big_m + r
    if not pairs:
        pairs, target = [(1, None)], 0 if t == 0 else -1
    elements, origin = zip(*sorted(pairs))
    meta = {"blocks": len(blocks), "m": big_m, "r": r, "slack": slack}
    return SubsetSumFromHbilp(IntegerSet(elements), target, inst, origin, complemented, meta)


@dataclass(frozen=True)
class HbilpFromSubsetSum:
    """Aggregated-ILP encoding of a subset-sum instance through a
    progression cover of the element set."""

    instance: HbilpInstance
    gap: Gap
    cover: FreimanGapResult
    elements: IntegerSet
    meta: dict = field(default_factory=dict)

    def decode(self, y: Sequence[int]) -> SolveWitness:
        return _decode_subset(self.elements, self.instance.t, y)


def _decode_subset(z: IntegerSet, t: int, y: Sequence[int]) -> SolveWitness:
    """Subset witness from an assignment of the encoding of (z, t). The
    encoding keeps one column per element in order, with dot product z_j, so
    its `solved_by` holds exactly when y, read as a multiplicity vector,
    solves the binary instance (z, t); that rule needs only z and t. Raises
    ValueError with the condition it names for any other y."""
    if reason := SubsetSumInstance(z, t).violation(SolveWitness("multiplicity-vector", tuple(y))):
        raise ValueError(reason)
    return SolveWitness("subset-of-indices", tuple(j for j, v in enumerate(y) if v))


def ss_to_hbilp(z: IntegerSet, t: int, rng) -> HbilpFromSubsetSum:
    """Columns are progression coordinates of the elements; steps are the
    progression generators, so <Ax, s> recovers the subset sum exactly.

    A nonzero progression base becomes a leading all-ones row paired with
    the base as its step; without it the coordinate identity would be off
    by base * |subset|.
    """
    res = freiman_gap(z, rng)
    split = split_dimensions(res.cover, len(z))
    coords = {e: split_coords(split, res.coords[e]) for e in z}
    base = split.gap.base
    gens = split.gap.generators
    d = split.gap.dimension
    cols = []
    for e in z:
        c = coords[e]
        col = ([1] if base != 0 else []) + list(c)
        cols.append(col)
        if split.gap.element_at(c) != e:
            raise InvariantError(f"coordinates of {e} do not reproduce it")
    steps = ((base,) if base != 0 else ()) + tuple(gens)
    rows = [[col[i] for col in cols] for i in range(len(steps))]
    inst = HbilpInstance(Matrix.from_rows(rows), steps, t)
    meta = {
        "dimension": d,
        "delta": inst.delta,
        "threshold": split.threshold,
        "cover_volume": res.metrics.get("cover_volume"),
    }
    return HbilpFromSubsetSum(inst, split.gap, res, z, meta)


# ---------------------------------------------------------------------------
# unbounded reachability and candidate supports


def _repeat(block: int, count: int, stride: int) -> int:
    """`count` copies of `block`, which fits in `stride` bits, at offsets
    0, stride, 2 * stride, ..."""
    if block == (1 << stride) - 1:  # a full block repeats as one run of ones
        return (1 << count * stride) - 1
    out, have = block, 1
    while have < count:
        out |= out << have * stride
        have *= 2
    return out & ((1 << count * stride) - 1)


class _BoxReachability:
    """Suffix closures of nonnegative column combinations inside [0, bound]^m.

    A state b is bit sum_i b_i * radix^i (radix = bound + 1) of a big int,
    and suffix[j] marks the states reachable as nonnegative combinations of
    columns j..n-1. Column j closes suffix[j + 1] by doubling passes over a
    multiple k = 1, 2, 4, ...: each pass adds x + k*c for every marked x in
    room(c, k), the states whose digits all stay <= bound - k*c_i, so the
    shift by k * delta_j never carries between digits. As c >= 0, x + k*c
    inside the box implies x + k'*c inside it for every k' < k; by induction
    the pass for k leaves every x + t*c with t < 2k that fits the box. If a
    pass adds nothing, the set is closed under +k*c, and so under +2k*c
    (x + k*c fits whenever x + 2k*c does), so no later pass adds anything
    and the column is done after about log2(bound / c) passes. `lexmin`
    walks the closures back to a least solution; `binary_image_supports`
    only tests single bits of them.
    """

    def __init__(self, cols: Sequence[Sequence[int]], bound: int):
        self.bound = bound
        m = len(cols[0]) if cols else 0
        self.strides = [(bound + 1) ** i for i in range(m)]
        self.deltas = [sum(c * st for c, st in zip(col, self.strides)) for col in cols]
        reach = 1  # the origin
        closures = [reach]
        for col, delta in zip(reversed(cols), reversed(self.deltas)):
            k = 1
            while True:
                grown = reach | ((reach & self._room(col, k)) << k * delta)
                if grown == reach:
                    break
                reach, k = grown, 2 * k
            closures.append(reach)
        self.suffix = closures[::-1]

    def _room(self, col: Sequence[int], k: int) -> int:
        """Mask of the states whose every digit i stays <= bound - k*col[i]."""
        mask = 1
        for c, stride in zip(col, self.strides):
            limit = self.bound - k * c
            if limit < 0:
                return 0
            mask = _repeat(mask, limit + 1, stride)
        return mask

    def encode(self, b: Sequence[int]) -> Optional[int]:
        if any(not 0 <= v <= self.bound for v in b):
            return None
        return sum(v * st for v, st in zip(b, self.strides))

    def lexmin(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Lexicographically least nonnegative solution of sum_j x_j col_j = b;
        None when unreachable.

        The walk goes column by column from the state idx of b: column j
        takes the least k with idx - k*delta_j marked in suffix[j + 1]. Those
        candidates are the bits r + i*delta_j, r = idx mod delta_j,
        i <= (idx - r) / delta_j, so the highest candidate bit set gives k at
        once. No borrow between digits can make an earlier hit: the least
        solution's k* keeps every digit of b - k*c nonnegative for k <= k*,
        as c >= 0, so each of those candidates is the true state b - k*c. A
        zero column takes 0.
        """
        idx = self.encode(b)
        if idx is None or not self.suffix[0] >> idx & 1:
            return None
        xs = []
        for j, delta in enumerate(self.deltas):
            if not delta:
                xs.append(0)
                continue
            r = idx % delta
            hits = self.suffix[j + 1] >> r & _repeat(1, (idx - r) // delta + 1, delta)
            if not hits:
                raise InvariantError("suffix walk escaped the box")
            k = (idx - r - hits.bit_length() + 1) // delta
            xs.append(k)
            idx -= k * delta
        return tuple(xs)


# states of the support box [0, n*Delta]^m that the enumerator may build
SUPPORT_STATE_CAP = 250_000


def binary_image_supports(a: Matrix) -> tuple[tuple[int, ...], ...]:
    """Supports of lexicographically-least solutions across every target in
    the box [0, n*Delta]^m, deduplicated and sorted.

    Requires nonnegative entries and no zero column. Let x be the least
    solution for a box target b and sigma its support. Then 1_sigma is the
    least solution for A * 1_sigma: a solution y <lex 1_sigma there would
    make x - 1_sigma + y, nonnegative as x >= 1 on sigma, a solution for b
    below x. And A * 1_sigma <= n*Delta in every row, so it lies in the box.
    The supports are therefore exactly the sets sigma whose 1_sigma is its
    own least solution, at most min(2^n, box) of them, as two of them never
    share a sum.

    They are built in one pass over the columns, from the last to the
    first, on the family itself. Let sigma be a member whose columns all
    lie after j. The least solution for A * 1_sigma + c_j takes 0 before j,
    as that sum is reachable from column j on; at j it takes 1 exactly when
    the sum is not reachable by the later columns, and 1_sigma after j. So
    {j} + sigma is a member exactly when A * 1_sigma + c_j is not marked in
    suffix[j + 1], and every member arises so from its own tail. A binary
    sum never exceeds n*Delta in any digit, so its state is the sum of its
    columns' states, and each test reads one bit of a byte copy of that
    closure. Each support size is asserted against m * log2(2*n*Delta + 1).

    Unbounded subset sum does not call it: on the identity cover every
    subset is a support, and one coin box over all the coins answers the
    same question. It stays for the small-support lemma, which acceptance
    criterion 6 checks on it, and for a support route over covers that
    carry structure.
    """
    if any(v < 0 for row in a.rows for v in row):
        raise ValueError("entries must be nonnegative")
    for j, col in enumerate(a.columns()):
        if not any(col):
            raise ValueError(f"column {j} is zero")
    bound = a.num_cols * a.infinity_norm()
    states = (bound + 1) ** a.num_rows
    if states > SUPPORT_STATE_CAP:
        raise EnumerationCapError(
            f"support box has {states} states, above cap {SUPPORT_STATE_CAP}"
        )
    box = _BoxReachability(a.columns(), bound)
    family = [(0, ())]  # (state of A * 1_sigma, sigma)
    for j in reversed(range(a.num_cols)):
        delta = box.deltas[j]
        marked = box.suffix[j + 1].to_bytes((states + 7) // 8, "little")
        family += [
            (idx + delta, (j,) + sigma)
            for idx, sigma in family
            if not marked[idx + delta >> 3] >> (idx + delta & 7) & 1
        ]
    if 2 ** max(len(sigma) for _, sigma in family) > (2 * bound + 1) ** a.num_rows:
        raise InvariantError("support exceeds the logarithmic bound")
    return tuple(sorted(sigma for _, sigma in family))
