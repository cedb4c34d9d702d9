"""Brute-force ground truth for every solver and structural guarantee.

Nothing here is fast and nothing here is allowed to be clever: each oracle
enumerates, or meets in the middle, and reports an exact verdict. Oracles are
used by the test suite and by the benchmark's answer checks, never on solver
hot paths. Enumerations take explicit caps and raise instead of sampling; the
sampling variants are separate functions with "sampled" in the name.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from gapsolve.core import (
    EnumerationCapError,
    Gap,
    IntegerSet,
    Matrix,
    _int64_safe,
)

_MITM_MAX_N = 40
_DIRECT_MAX_N = 24


def _as_values(z) -> tuple[int, ...]:
    if isinstance(z, IntegerSet):
        return z.elements
    return tuple(int(v) for v in z)


def _half_sums(values: Sequence[int], dtype) -> np.ndarray:
    """All 2^h subset sums of `values` in `dtype`.

    Index bit j corresponds to values[j], so the flat index doubles as the
    chosen-subset mask.
    """
    sums = np.zeros(1, dtype=dtype)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def _mask_indices(mask: int, offset: int) -> tuple[int, ...]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(offset + j)
        mask >>= 1
        j += 1
    return tuple(out)


def brute_subset_sum(z, t: int, cap: int = _MITM_MAX_N):
    """Meet-in-the-middle subset sum oracle: a deterministic witness (index
    tuple) or None. The least left-half mask that meets the right half wins,
    with the first right-half mask of the complementary sum."""
    values = _as_values(z)
    n = len(values)
    if n > cap or n > _MITM_MAX_N:
        raise EnumerationCapError(f"subset-sum oracle capped at n <= {cap}")
    # the arrays hold subset sums in [neg, pos] and t minus them: int64
    # while the guard admits both ranges, exact Python ints otherwise
    neg, pos = sum(v for v in values if v < 0), sum(v for v in values if v > 0)
    dtype = np.int64 if _int64_safe(min(neg, t - pos), max(pos, t - neg)) else object
    h = n // 2
    ls, rs = _half_sums(values[:h], dtype), _half_sums(values[h:], dtype)
    uniq, first = np.unique(rs, return_index=True)
    need = t - ls
    at = np.searchsorted(uniq, need)
    hits = np.flatnonzero((at < len(uniq)) & (uniq[np.minimum(at, len(uniq) - 1)] == need))
    if not len(hits):
        return None
    lmask = int(hits[0])
    return _mask_indices(lmask, 0) + _mask_indices(int(first[at[lmask]]), h)


def brute_subset_sum_all(z, t: int, cap: int = _DIRECT_MAX_N):
    """Direct single-pass enumeration over all 2^n subsets. Independent of
    the meet-in-the-middle path so the two can cross-check each other."""
    values = _as_values(z)
    n = len(values)
    if n > cap or n > _DIRECT_MAX_N:
        raise EnumerationCapError(f"direct subset-sum oracle capped at n <= {cap}")
    out = []
    for mask in range(1 << n):
        chosen = _mask_indices(mask, 0)
        if sum(values[i] for i in chosen) == t:
            out.append(chosen)
    return sorted(out)


def brute_unbounded_subset_sum(z, t: int, cap: int = 2_000_000):
    """Coin-style DP. Returns the lexicographically least multiplicity
    vector reaching t (element order = input order), or None."""
    values = _as_values(z)
    if t < 0:
        return None
    if t > cap:
        raise EnumerationCapError(f"unbounded oracle capped at t <= {cap}")
    if any(v <= 0 for v in values):
        raise ValueError("unbounded oracle requires positive elements")
    n = len(values)
    # suffix_reach[j] bit v set iff v is a sum of elements j..n-1
    suffix_reach = [0] * (n + 1)
    suffix_reach[n] = 1
    for j in range(n - 1, -1, -1):
        r = suffix_reach[j + 1]
        step = values[j]
        while step <= t:
            r |= (r << step) & ((1 << (t + 1)) - 1)
            step <<= 1
        suffix_reach[j] = r
    if not (suffix_reach[0] >> t) & 1:
        return None
    mults = []
    rem = t
    for j in range(n):
        m = 0
        while not (suffix_reach[j + 1] >> rem) & 1:
            rem -= values[j]
            m += 1
        mults.append(m)
    assert rem == 0
    return tuple(mults)


def _assignment_matrix(ranges: Sequence[Sequence[int]], cap: int) -> np.ndarray:
    total = 1
    for r in ranges:
        total *= len(r)
        if total > cap:
            raise EnumerationCapError(f"assignment enumeration exceeds cap {cap}")
    grids = np.meshgrid(*[np.asarray(r, dtype=np.int64) for r in ranges], indexing="ij")
    return np.stack([g.ravel() for g in grids])


def _first_solution(a: Matrix, b: Sequence[int], ranges: Sequence[Sequence[int]], cap: int):
    """The first x in the product of `ranges` (x_1 slowest) with A x = b, or
    None. Products are int64 when the guard admits b and every row's bound
    sum_j |a_ij| max|x_j|, and exact Python ints otherwise."""
    assigns = _assignment_matrix(ranges, cap)
    peak = [max((abs(v) for v in r), default=0) for r in ranges]
    bound = max([abs(v) for v in b] + [sum(abs(v) * p for v, p in zip(r, peak)) for r in a.rows])
    dtype = np.int64 if _int64_safe(-bound, bound) else object
    prods = np.asarray(a.rows, dtype=dtype) @ assigns.astype(dtype, copy=False)
    ok = np.all(prods == np.asarray(b, dtype=dtype)[:, None], axis=0)
    hits = np.nonzero(ok)[0]
    if len(hits) == 0:
        return None
    return tuple(int(v) for v in assigns[:, hits[0]])


def brute_bilp_feasibility(a: Matrix, b: Sequence[int], cap: int = _DIRECT_MAX_N):
    """Exhaustive binary assignment scan; first solution in lexicographic
    variable order (x_1 slowest) or None."""
    n = a.num_cols
    if n > cap or n > _DIRECT_MAX_N:
        raise EnumerationCapError(f"BILP oracle capped at n <= {cap}")
    return _first_solution(a, b, [(0, 1)] * n, 1 << _DIRECT_MAX_N)


def brute_bounded_feasibility(
    a: Matrix, b: Sequence[int], bounds: Sequence[tuple[int, int]], cap: int = 1 << 20
):
    return _first_solution(a, b, [range(lo, hi + 1) for lo, hi in bounds], cap)


def brute_hbilp_feasibility(a: Matrix, s: Sequence[int], t: int, cap: int = _MITM_MAX_N):
    """Reduces columns to their step dot products and reuses the subset-sum
    oracle. Returns a binary assignment tuple or None."""
    dots = [sum(int(a.rows[i][j]) * int(s[i]) for i in range(a.num_rows)) for j in range(a.num_cols)]
    hit = brute_subset_sum(dots, t, cap=cap)
    if hit is None:
        return None
    x = [0] * a.num_cols
    for j in hit:
        x[j] = 1
    return tuple(x)


def brute_ksum(z, t: int, k: int, cap: int = 1_000_000):
    """The first k indices (lexicographic order) whose values sum to t, or
    None, by direct combination scan."""
    values = _as_values(z)
    n = len(values)
    if math.comb(n, k) > cap:
        raise EnumerationCapError(f"k-sum oracle: C({n},{k}) exceeds cap {cap}")
    for combo in itertools.combinations(range(n), k):
        if sum(values[i] for i in combo) == t:
            return combo
    return None


# ---------------------------------------------------------------------------
# structural oracles


def verify_freiman_iso(
    phi: Callable[[int], int], domain, s: int, cap: int = 2_000_000,
    modulus: Optional[int] = None,
):
    """Exact check that phi restricted to `domain` preserves equality of
    s-fold sums in both directions and is a bijection.

    Hashes the multiset-sum fibers: phi is an s-homomorphism iff every
    source-sum fiber maps to a single image sum, and the converse direction
    makes it an isomorphism. Image sums are reduced mod `modulus` when the
    codomain is a cyclic group. Returns (True, None) or
    (False, (tuple, tuple)) with two s-tuples witnessing the violation (or
    two colliding 1-tuples for a bijection failure).
    """
    elems = _as_values(domain)
    n = len(elems)
    if math.comb(n + s - 1, s) > cap:
        raise EnumerationCapError("tuple space exceeds cap")
    images = {x: phi(x) for x in elems}
    seen_img: dict = {}
    for x in elems:
        if images[x] in seen_img:
            return False, ((seen_img[images[x]],), (x,))
        seen_img[images[x]] = x

    def img_sum(tup):
        v = sum(images[x] for x in tup)
        return v % modulus if modulus is not None else v

    by_sum: dict = {}
    by_img_sum: dict = {}
    for tup in itertools.combinations_with_replacement(elems, s):
        src = sum(tup)
        img = img_sum(tup)
        if src in by_sum and by_sum[src][0] != img:
            return False, (by_sum[src][1], tup)
        by_sum.setdefault(src, (img, tup))
        if img in by_img_sum and by_img_sum[img][0] != src:
            return False, (by_img_sum[img][1], tup)
        by_img_sum.setdefault(img, (src, tup))
    return True, None


def verify_freiman_iso_sampled(
    phi: Callable[[int], int], domain, s: int, trials: int, rng,
    modulus: Optional[int] = None,
):
    """Randomized spot check of the s-isomorphism property. Builds equal-sum
    tuple pairs by resolving the last coordinate, so trials are not wasted on
    unrelated sums. Image sums are reduced mod `modulus` when given.
    Returns (ok, counterexample_or_None)."""
    elems = _as_values(domain)
    lookup = set(elems)
    images = {x: phi(x) for x in elems}

    def img_sum(tup):
        v = sum(images[x] for x in tup)
        return v % modulus if modulus is not None else v

    for _ in range(trials):
        a = [rng.choice(elems) for _ in range(s)]
        b = [rng.choice(elems) for _ in range(s - 1)]
        last = sum(a) - sum(b)
        if last in lookup:
            b.append(last)
            if img_sum(a) != img_sum(b):
                return False, (tuple(a), tuple(b))
        # reverse direction on an unconstrained pair
        c = [rng.choice(elems) for _ in range(s)]
        d = [rng.choice(elems) for _ in range(s)]
        if (img_sum(c) == img_sum(d)) != (sum(c) == sum(d)):
            return False, (tuple(c), tuple(d))
    return True, None


def bohr_enumerate(spec, cap: int = 1_000_000) -> IntegerSet:
    """All residues of the Bohr set by exact integer comparison:
    x qualifies iff q * min(rx mod m, m - rx mod m) <= p * m for every
    frequency r, where the width is the fraction p/q."""
    m = spec.m
    if m > cap:
        raise EnumerationCapError(f"Bohr enumeration capped at m <= {cap}")
    p, q = spec.width.numerator, spec.width.denominator
    xs = np.arange(m, dtype=np.int64)
    ok = np.ones(m, dtype=bool)
    for r in spec.frequencies:
        w = (xs * int(r)) % m
        dist = np.minimum(w, m - w)
        ok &= dist * q <= p * m
    return IntegerSet(tuple(np.flatnonzero(ok).tolist()))


def bohr_subset_check(spec, container: Iterable[int], cap: int = 1_000_000):
    """(True, None) if every Bohr element lies in `container`, else
    (False, first offending residue)."""
    inside = set(int(x) for x in container)
    for x in bohr_enumerate(spec, cap):
        if x not in inside:
            return False, x
    return True, None


def gap_containment(p: Gap, a: IntegerSet, cap: int = 4_000_000):
    """(True, None) if a is a subset of the gap's elements, else
    (False, first missing element)."""
    if cap is not None and p.volume() > cap:
        raise EnumerationCapError(f"gap volume {p.volume()} exceeds enumeration cap {cap}")
    boxes = itertools.product(*(range(l) for l in p.lengths))
    values = (p.base + sum(c * y for c, y in zip(cs, p.generators)) for cs in boxes)
    elems = {x if p.modulus is None else x % p.modulus for x in values}
    for x in a:
        if x not in elems:
            return False, x
    return True, None


def covering_check(y: IntegerSet, z: IntegerSet, x: IntegerSet):
    """Verifies z subset of (y - y) + x; returns (ok, counterexample)."""
    diffs = {u - v for u in y for v in y}
    for zz in z:
        if not any(zz - xx in diffs for xx in x):
            return False, zz
    return True, None
