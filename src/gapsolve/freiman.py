"""Structure pipeline: model a set in a prime cyclic group, extract a Bohr
set from its large Fourier spectrum, fit a proper progression inside the Bohr
set, pull it back to the integers, and finish with a covering argument.

Stage contracts are verified at runtime on every invocation: the modeling map
is divisibility-checked exactly, the fitted progression is re-enumerated for
properness and membership, and the final cover is checked element by element
against the input. Violations raise InvariantError rather than degrade.

Width discipline: group arithmetic stays within int64 ranges by construction
(the working modulus and the modeling prime are bounded by the
difference-support span cap), and the modeling check's products, below q^2,
enter int64 only under core._int64_safe; norms and widths are exact rationals
(fractions.Fraction). Difference supports are sorted int64 arrays of offsets,
folded by the one fold rule of `core._fold`; no array over their value range
is built, and membership in one is a binary search. The volume guarantee
vol >= (eps/d)^d * m is decided by a float log2 screen with a margin of one
bit either way; only inside that margin is the exact integer comparison
vol * (q*d)^d < p^d * m (for eps = p/q) evaluated, so the d-th powers, with d
the spectrum size, are built only on near-ties. The Bohr membership check runs
over elements x frequencies at once, in blocks of bounded size, from the int64
frequency array each BohrSpec holds (object past the int64 guard); the
spectrum stays that array from the FFT to the check.

The spectrum |1_B^(r)|^2 / m^2 takes one of two paths. When
|B| <= 3 * floor(log2 m) it is summed directly over B, |B| * m work against
the FFT's m log2 m, from one table of m-th roots of unity read at r * x mod m;
those products stay below m^2, which core._int64_safe must admit. The factor
3 is where the two meet: numpy's FFT of a prime length m runs Bluestein's
algorithm, three transforms of a padded power-of-two length, and with numpy
2.4.6 on a 2-vCPU VM, at m of about 6,000, 28,000 and 100,000, the direct sum
stays the faster up to |B| of about 40 to 48. Otherwise, or past the guard,
it is numpy's FFT of length m. The threshold comparison is the same on both
paths.

The Bohr fit keeps only directions gamma whose every coordinate
min(gamma r mod m, m - gamma r mod m) is below eps * m / d. Once d reaches
eps * m no nonzero coordinate is that small; the only direction left would be
one with every coordinate 0, which is not independent, so the fit is empty
and the sweep over the m - 1 directions is skipped.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from gapsolve.core import (
    EnumerationCapError,
    Gap,
    IntegerSet,
    InvariantError,
    PipelineFailureError,
    _fold,
    _gap_value_table,
    _gap_values,
    _in_sorted,
    _int64_safe,
    _sorted_distinct,
    ceil_root,
    gap_enumerate,
    sumset,
)

MODELING_FOLD = 8  # the pipeline models 8-fold sums
DEFAULT_SUPPORT_CAP = 1 << 24
BOHR_WIDTH = Fraction(1, 4)  # the width of every Bohr set bogolyubov returns
# entries of one elements x frequencies block in the Bohr membership check
_BOHR_BLOCK = 1 << 16

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set is exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


# ---------------------------------------------------------------------------
# iterated difference supports


def iterated_support(a: IntegerSet, plus_count: int, minus_count: int) -> tuple[int, np.ndarray]:
    """(offset, sorted distinct int64 offsets) for plus_count*A - minus_count*A.

    The support is folded by repeated squaring on sorted int64 arrays of
    offsets from min A, each fold by the one rule of `core._fold`, so the
    cost follows the sizes of the partial sumsets up to |sA - tA| rather
    than the value range. When plus_count == minus_count the minus side is
    the plus fold reflected rather than a second fold. The span cap,
    (s + t) * diam + 1 within DEFAULT_SUPPORT_CAP, keeps every offset and
    every FFT length small, so no fold here reaches the fold cap, and the
    modeling prime q = next_prime(8 * diam + 1) below about 2^23;
    `modeling_lemma` guards its products lam * (c mod q) on its own.
    """
    if plus_count < 1 or minus_count < 0:
        raise ValueError("need plus_count >= 1, minus_count >= 0")
    diam = a.diameter()
    span = (plus_count + minus_count) * diam + 1
    if span > DEFAULT_SUPPORT_CAP:
        raise EnumerationCapError(
            f"difference support range {span} exceeds cap {DEFAULT_SUPPORT_CAP}"
        )
    lo = a.min()
    base = np.fromiter((x - lo for x in a.elements), dtype=np.int64, count=len(a))

    def fold(k: int) -> np.ndarray:
        acc, sq = None, base
        while True:
            if k & 1:
                acc = sq if acc is None else _fold(acc, sq)[0]
            k >>= 1
            if not k:
                return acc
            sq = _fold(sq, sq)[0]

    sums = fold(plus_count)
    offset = plus_count * lo
    if minus_count:
        neg = sums if minus_count == plus_count else fold(minus_count)
        sums = _fold(sums, minus_count * diam - neg[::-1])[0]
        offset -= minus_count * a.max()
    return offset, sums


def support_size(support: tuple[int, np.ndarray]) -> int:
    return len(support[1])


# ---------------------------------------------------------------------------
# modeling stage


@dataclass(frozen=True)
class ModelingFailure:
    """A rejected random multiplier. Expected with probability < 1/2 per
    attempt; callers retry with fresh randomness."""

    reason: str
    q: int
    multiplier: int


@dataclass(frozen=True)
class FreimanModel:
    """A verified s-fold sum-preserving injection from a_prime into Z_m.

    The map is x -> ((multiplier * (x mod q)) mod q) mod m, certified by the
    exact divisibility check over the slice's full s-fold difference set.
    """

    q: int
    multiplier: int
    m: int
    s: int
    a_prime: IntegerSet
    image: IntegerSet

    def apply(self, x: int) -> int:
        return ((self.multiplier * (x % self.q)) % self.q) % self.m


def modeling_lemma(
    a: IntegerSet,
    s: int,
    m: int,
    rng,
    diff_support: Optional[tuple[int, np.ndarray]] = None,
):
    """One modeling attempt. Returns a FreimanModel or a ModelingFailure.

    Precondition: m >= 4 * |sA - sA| so a uniform multiplier fails with
    probability below 1/2. The divisibility check runs on the s-fold
    difference set of the selected slice, which certifies the isomorphism
    outright rather than probabilistically. The slice lies inside a, so its
    difference support fits wherever a's does.
    """
    if s < 1:
        raise ValueError("fold count must be >= 1")
    if diff_support is None:
        diff_support = iterated_support(a, s, s)
    d_size = support_size(diff_support)
    if m < 4 * d_size:
        raise ValueError(f"modulus {m} below 4*|sA-sA| = {4 * d_size}")

    q = next_prime(s * a.diameter() + 1)
    lam = rng.randrange(1, q)

    phi = {x: (lam * (x % q)) % q for x in a}
    for x in a:
        v = phi[x]
        if v != 0 and v % m == 0:
            return ModelingFailure("base-divisibility", q, lam)

    # slice selection: fullest of s half-open intervals of width ceil(q/s)
    width = -(-q // s)
    buckets: dict[int, list[int]] = {}
    for x in a:
        buckets.setdefault(phi[x] // width, []).append(x)
    best = max(buckets, key=lambda i: (len(buckets[i]), -i))
    a_prime = IntegerSet.from_iterable(buckets[best])
    if len(a_prime) * s < len(a):
        raise InvariantError("slice smaller than n/s")

    off, sums = iterated_support(a_prime, s, s)
    cs = sums + off
    cs = cs[cs != 0]
    # lam * (c mod q) < q^2: int64 under the guard, exact object ints past it
    rs = cs % q if _int64_safe(0, (q - 1) ** 2) else cs.astype(object) % q
    if np.any(lam * rs % q % m == 0):
        return ModelingFailure("iso-divisibility", q, lam)

    image = sorted({phi[x] % m for x in a_prime})
    if len(image) < len(a_prime):
        return ModelingFailure("collision", q, lam)
    image_set = IntegerSet(tuple(image))
    return FreimanModel(q, lam, m, s, a_prime, image_set)


# ---------------------------------------------------------------------------
# Fourier stage


class BohrSpec:
    """Frequencies and width of a Bohr set in Z_m: the residues x with
    min(rx mod m, m - rx mod m) / m <= width for every frequency r.

    The frequencies are held as one array, int64 when the guard admits m and
    object (exact Python ints) past it. `bogolyubov` passes its int64
    spectrum array in directly, so no Python int is built per frequency;
    `frequencies`, the tuple of Python ints, is built on first read."""

    def __init__(self, m: int, frequencies: Sequence[int], width: Fraction):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        if not (0 < width < 1):
            raise ValueError("width must lie in (0, 1)")
        fs = frequencies
        # strictly increasing from >= 1 to < m: sorted, distinct, in range;
        # below the guard an entry that does not fit int64 lies outside [1, m)
        bad = ValueError("frequencies must be sorted, distinct, in [1, m)")
        if len(fs) and not (1 <= fs[0] and fs[-1] < m):
            raise bad
        if _int64_safe(0, m):
            try:
                freqs = np.asarray(fs, dtype=np.int64)
            except OverflowError:
                raise bad from None
            if not np.all(freqs[1:] > freqs[:-1]):
                raise bad
        else:
            if not all(map(operator.lt, fs, fs[1:])):
                raise bad
            freqs = np.array(fs, dtype=object)
        self.m, self.width, self._freqs = m, width, freqs

    @functools.cached_property
    def frequencies(self) -> tuple[int, ...]:
        return tuple(self._freqs.tolist())


def _roots_of_unity(m: int) -> np.ndarray:
    """exp(-2 pi i k / m) for k in [0, m): the outer product of a coarse and a
    fine table of about sqrt(m) entries each, so only about 2 sqrt(m) complex
    exponentials are evaluated."""
    s = math.isqrt(m - 1) + 1  # s * s >= m
    steps = np.arange(s, dtype=np.int64)
    fine = np.exp(steps * (-2j * np.pi / m))
    coarse = np.exp((steps * s) * (-2j * np.pi / m))
    return np.multiply.outer(coarse, fine).ravel()[:m]


def _direct_spectrum(elems: np.ndarray, m: int) -> np.ndarray:
    """|1_B^(r)|^2 / m^2 for every r in Z_m, summed over x in B from one table
    of m-th roots of unity at the indices r * x mod m for r <= m/2. The
    indicator is real, so the coefficient at m - r is the conjugate of the
    one at r and the upper half is an exact mirror. Needs m^2 within int64."""
    roots = _roots_of_unity(m)
    rs = np.arange(m // 2 + 1, dtype=np.int64)
    idx = np.empty_like(rs)
    acc = np.zeros(len(rs), dtype=np.complex128)
    for x in elems.tolist():
        np.multiply(rs, x, out=idx)
        idx %= m
        acc += roots[idx]
    half = np.abs(acc / m) ** 2
    out = np.empty(m, dtype=np.float64)
    out[: len(half)] = half
    out[len(half) :] = half[1 : m - len(half) + 1][::-1]
    return out


def bogolyubov(b: IntegerSet, m: int) -> BohrSpec:
    """Frequencies whose Fourier coefficient exceeds alpha^(3/2), where
    alpha = |b|/m. The Bohr set they define sits inside 2B - 2B.

    The squared coefficients |1_B^(r)|^2 / m^2 come from one of two paths.
    When |B| <= 3 * floor(log2 m), and m^2 passes the int64 guard, they are
    summed directly over B (|B| * m work, which up to there beats numpy's
    Bluestein transform of a prime length m); otherwise from a length-m FFT
    of the indicator. The threshold comparison is greedy-inclusive at
    float precision: extra frequencies only shrink the Bohr set, so
    containment survives rounding. The spectrum size bound
    |R| * |B|^2 < m^2 is asserted exactly.
    """
    if b.min() < 0 or b.max() >= m:
        raise ValueError("set must be reduced mod m")
    elems = np.fromiter(b, dtype=np.int64, count=len(b))
    if len(b) <= 3 * (m.bit_length() - 1) and _int64_safe(0, m * m):
        coeff_sq = _direct_spectrum(elems, m)
    else:
        ind = np.zeros(m, dtype=np.float64)
        ind[elems] = 1.0
        coeff_sq = np.abs(np.fft.fft(ind) / m) ** 2
    alpha = Fraction(len(b), m)
    thr = float(alpha) ** 3
    rs = np.nonzero(coeff_sq > thr * (1.0 - 1e-9) - 1e-18)[0]
    rs = rs[rs != 0]
    if len(rs) * len(b) ** 2 >= m * m:
        raise InvariantError("spectrum larger than 1/alpha^2")
    return BohrSpec(m, rs, BOHR_WIDTH)


# ---------------------------------------------------------------------------
# progression inside a Bohr set


@dataclass(frozen=True)
class BohrGapResult:
    """Proper progression inside a Bohr set, with the sup-norm of each
    generator's direction. Dimensions whose box length would be 1 contribute
    nothing to the point set and are omitted from the gap; `d_original`
    keeps the frequency count for the volume bound (eps/d)^d * m, which is
    built from the Bohr width only when read."""

    gap: Gap
    norms: tuple[Fraction, ...]
    d_original: int
    width: Fraction

    @functools.cached_property
    def volume_bound(self) -> Fraction:
        d, m = self.d_original, self.gap.modulus
        return (self.width / d) ** d * m if d else Fraction(m)


def _reduce_row(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = math.gcd(g, v)
    if g > 1:
        return [v // g for v in row]
    return row


def _independent_prefix(cands: list[tuple[int, list[int], int]], rank_cap: int):
    """Greedy short-to-long scan keeping linearly independent vectors.
    Fraction-free elimination over the integers keeps the test exact."""
    pivots: list[tuple[int, list[int]]] = []
    kept = []
    for gamma, vec, norm in cands:
        if len(pivots) == rank_cap:
            break
        v = list(vec)
        for pc, prow in pivots:
            if v[pc] != 0:
                f1, f2 = prow[pc], v[pc]
                v = _reduce_row([a * f1 - b * f2 for a, b in zip(v, prow)])
        pivot_col = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot_col is None:
            continue
        pivots.append((pivot_col, v))
        kept.append((gamma, vec, norm))
    return kept


def _short_directions(spec: BohrSpec) -> list[tuple[int, list[int], int]]:
    """(gamma, signed coordinates of gamma * r mod m, largest |coordinate|)
    for every gamma in [1, m) whose coordinates all lie below width * m / d,
    shortest first (ties by gamma): one vectorised sweep over the m - 1
    directions that drops the escaped ones frequency by frequency."""
    m, freqs = spec.m, spec._freqs
    pe, qe, d = spec.width.numerator, spec.width.denominator, len(freqs)
    survivors = np.arange(1, m, dtype=np.int64)
    maxc = np.zeros(m - 1, dtype=np.int64)
    for r in freqs:
        w = (survivors * r) % m
        c = np.minimum(w, m - w)
        keep = c * (d * qe) < pe * m
        survivors, maxc = survivors[keep], np.maximum(maxc[keep], c[keep])
        if len(survivors) == 0:
            return []
    cands = []
    for i in np.lexsort((survivors, maxc)).tolist():
        gamma = int(survivors[i])
        w = (gamma * freqs) % m
        signed = np.where(2 * w <= m, w, w - m)
        cands.append((gamma, [int(v) for v in signed], int(maxc[i])))
    return cands


def gap_in_bohr(spec: BohrSpec) -> BohrGapResult:
    """Fit a proper progression of volume >= (eps/d)^d * m inside the Bohr
    set, eps strictly below 1/2.

    Candidate directions are the centered fractional-part vectors
    (gamma * r / m) over gamma in [1, m); only candidates with sup-norm below
    eps/d can yield a box length of at least 2, and every non-centered
    representative has a coordinate of size > 1/2, so the exact search space
    is just the centered vectors below that threshold. When d * qe >= pe * m
    (eps = pe/qe) that threshold is at most 1/m, so only the zero vector
    (gamma * r = 0 mod m for every r) could pass it, and it is never
    independent: the fit is empty on any m and the sweep is skipped.
    Properness, membership, and the volume bound are asserted by
    enumeration.
    """
    m, eps = spec.m, spec.width
    if eps >= Fraction(1, 2):
        raise ValueError("width must be < 1/2 for a proper fit")
    pe, qe = eps.numerator, eps.denominator
    d = len(spec._freqs)
    if d == 0:
        gap = Gap(0, (1,), (m,), modulus=m)
        return BohrGapResult(gap, (Fraction(1, m),), 0, eps)

    kept = [] if d * qe >= pe * m else _independent_prefix(_short_directions(spec), d)
    if not kept:
        gap = Gap(0, (), (), modulus=m)
        _assert_bohr_gap(gap, spec)
        return BohrGapResult(gap, (), d, eps)

    norms = tuple(Fraction(nc, m) for _, _, nc in kept)
    lengths = tuple(-((-pe * m) // (qe * nc * d)) for _, _, nc in kept)
    gap = Gap(0, tuple(g for g, _, _ in kept), lengths, modulus=m)
    _assert_bohr_gap(gap, spec)
    return BohrGapResult(gap, norms, d, eps)


def _below_volume_bound(vol: int, eps: Fraction, d: int, m: int) -> bool:
    """Exactly vol < (eps/d)^d * m for d >= 1, i.e. vol * (q*d)^d < p^d * m
    with eps = p/q. A float log2 screen settles every case more than one bit
    from the tie (its rounding error is far below that for any d that fits in
    memory); the exact integer comparison runs only inside the margin."""
    pe, qe = eps.numerator, eps.denominator
    excess = math.log2(vol) + d * (math.log2(qe * d) - math.log2(pe)) - math.log2(m)
    if excess < -1:
        return True
    if excess > 1:
        return False
    return vol * (qe * d) ** d < pe**d * m


def _assert_bohr_gap(gap: Gap, spec: BohrSpec) -> None:
    m = spec.m
    vol = gap.volume()
    if vol > m:
        raise InvariantError("volume exceeds group order; properness impossible")
    d = len(spec._freqs)
    if _below_volume_bound(vol, spec.width, d, m):
        raise InvariantError(f"volume {vol} below guarantee {(spec.width / d) ** d * m}")
    elems = _gap_values(gap)
    if len(_sorted_distinct(elems)) != vol:
        raise InvariantError("progression is not proper in Z_m")
    # a block escapes iff its largest Bohr distance min(w, m - w) exceeds
    # width * m; the comparison is made in Python ints
    pe, qe = spec.width.numerator, spec.width.denominator
    freqs = spec._freqs
    step = max(1, _BOHR_BLOCK // len(elems))
    for lo in range(0, d, step):
        w = np.multiply.outer(elems, freqs[lo : lo + step])
        w %= m
        np.minimum(w, m - w, out=w)
        if int(w.max()) * qe > pe * m:
            raise InvariantError("progression escapes the Bohr set")


# ---------------------------------------------------------------------------
# covering stage


def ruzsa_cover(y: IntegerSet, z: IntegerSet) -> IntegerSet:
    """Greedy maximal x-set with pairwise disjoint translates y + x.

    Maximality gives z subset of (y - y) + X, and disjointness gives
    |X| * |y| <= |y + z|; both are asserted before returning. The covering
    is checked as maximality: z lies in (y - y) + X exactly when y + z
    meets y + x for some x in X, that is, meets `used`, so no set of
    differences y - y is built.
    """
    used: set[int] = set()
    chosen: list[int] = []
    for zz in z:
        translate = {yy + zz for yy in y}
        if not translate & used:
            chosen.append(zz)
            used |= translate
    x = IntegerSet(tuple(chosen))
    if len(x) * len(y) > len(sumset(y, z)):
        raise InvariantError("translate count exceeds sumset bound")
    for zz in z:
        if used.isdisjoint(yy + zz for yy in y):
            raise InvariantError("covering property failed")
    return x


# ---------------------------------------------------------------------------
# full pipeline


@dataclass(frozen=True)
class FreimanGapResult:
    """Progression cover of an integer set, shaped (Q - Q) + X.

    `coords` maps every input element to its coefficient vector in `cover`,
    which is the containment certificate. `metrics` carries the run's
    working modulus, attempt count, and shape data.
    """

    cover: Gap
    coords: dict[int, tuple[int, ...]]
    q_gap: Optional[Gap]
    x_set: Optional[IntegerSet]
    metrics: dict = field(default_factory=dict)


def _psi2_inverter(model: FreimanModel):
    """Inversion oracle for the induced map on 2A' - 2A'.

    The map is psi(d) = (lam * d mod q, centred into (-q/2, q/2]) mod m on
    the sorted d of 2A' - 2A'. Every a in A' has lam * a mod q in one slice
    of width ceil(q/s), so for d = u + v - u' - v' the signed sum of the
    four residues lies strictly inside (-q/2, q/2) when s >= 4, and that sum
    is the centred value; psi(d) is thus the image difference
    psi(u) + psi(v) - psi(u') - psi(v') mod m. A query returns the one d
    whose image is the target, which the isomorphism guarantees, and any
    other count is an InvariantError. The products lam * d are int64 under
    the guard (below 2^45 under the span cap) and exact object ints past it.
    """
    if model.s < 4:
        raise ValueError("the centred pull-back needs a model of order >= 4")
    off, diffs = iterated_support(model.a_prime, 2, 2)
    ds = diffs + off
    lam, q, m = model.multiplier, model.q, model.m
    reach = (q - 1) * int(ds[-1])  # 2A' - 2A' is symmetric about 0
    if not _int64_safe(-reach, reach):
        ds = ds.astype(object)
    r = lam * ds % q
    images = np.where(2 * r <= q, r, r - q) % m

    def invert(target: int) -> int:
        hits = np.flatnonzero(images == target % m)
        if len(hits) != 1:
            raise InvariantError(f"residue {target} has {len(hits)} preimages in 2A'-2A'")
        return int(ds[hits[0]])

    return invert


def freiman_gap(a: IntegerSet, rng) -> FreimanGapResult:
    """Cover `a` by a progression shaped (Q - Q) + X.

    The working modulus is the smallest prime above 4 * |8A - 8A|, computed
    from the measured difference set rather than a doubling-constant power:
    the modeling stage needs exactly that margin, and the measured value
    keeps the group tractable. Modeling is retried up to
    ceil(log2 n) + 1 times; every input element's coefficient vector
    in the final cover is recorded and re-evaluated.
    """
    n = len(a)
    if n == 1:
        cover = Gap(a.min(), (1,), (1,))
        return FreimanGapResult(
            cover, {a.min(): (0,)}, None, None,
            {"n": 1, "m": None, "attempts": 0, "cover_dimension": 1, "cover_volume": 1},
        )

    diff8 = iterated_support(a, MODELING_FOLD, MODELING_FOLD)
    d_size = support_size(diff8)
    m = next_prime(4 * d_size + 1)
    if m >= 16 * d_size:
        raise InvariantError("no prime in the modulus window")

    budget = max(1, math.ceil(math.log2(n))) + 1
    model = None
    attempts = 0
    failures: list[str] = []
    for _ in range(budget):
        attempts += 1
        got = modeling_lemma(a, MODELING_FOLD, m, rng, diff_support=diff8)
        if isinstance(got, FreimanModel):
            model = got
            break
        failures.append(got.reason)
    if model is None:
        raise PipelineFailureError(
            f"modeling failed {attempts} times (reasons: {','.join(failures)})"
        )

    bres = gap_in_bohr(bogolyubov(model.image, m))

    # Q is based at 0, the pull-back of 0 (the smallest pair sum is its own
    # first preimage); the full-group fit (empty frequency set) and a fit
    # without generators pull back to Q = {0}, which needs neither the
    # inverter nor the 2A - 2A fold
    y_gens, q_lengths = (), ()
    if bres.d_original and bres.gap.generators:
        invert = _psi2_inverter(model)
        y_gens = tuple(invert(g) for g in bres.gap.generators)
        q_lengths = bres.gap.lengths
    q_gap = Gap(0, y_gens, q_lengths)

    q_elems, q_proper = gap_enumerate(q_gap)
    if not q_proper:
        raise InvariantError("pulled-back progression not proper")
    if len(q_elems) > 1:
        off, diffs = iterated_support(a, 2, 2)
        want = np.asarray(q_elems.elements, dtype=np.int64) - off
        if not _in_sorted(diffs, want).all():
            raise InvariantError("pulled-back progression escapes 2A - 2A")

    x_set = ruzsa_cover(q_elems, a)

    # Q - Q is the progression of Q's generators over the box [0, 2L - 1)
    # based at -sum((L - 1) * y); each difference takes its lex-least vector
    qq_lengths = tuple(2 * l - 1 for l in q_lengths)
    qq_gap = Gap(-sum((l - 1) * y for l, y in zip(q_lengths, y_gens)), y_gens, qq_lengths)
    qq_coord = _gap_value_table(qq_gap)
    singleton_x = len(x_set) == 1
    if singleton_x:
        cover = Gap(qq_gap.base + x_set.min(), y_gens, qq_lengths)
    else:
        cover = Gap(qq_gap.base, y_gens + x_set.elements, qq_lengths + (2,) * len(x_set))

    # each element takes the least x in X with elem - x in Q - Q, found by
    # scanning the smaller of the two; its indicator marks x's position
    x_elems = x_set.elements
    x_pos = {xx: i for i, xx in enumerate(x_elems)}
    scan_x = len(x_elems) <= len(qq_coord)
    coords: dict[int, tuple[int, ...]] = {}
    for elem in a:
        if scan_x:
            hit = next((xx for xx in x_elems if elem - xx in qq_coord), None)
        else:
            hit = min((elem - d for d in qq_coord if elem - d in x_pos), default=None)
        if hit is None:
            raise InvariantError(f"{elem} not covered")
        if singleton_x:
            bits = ()
        else:
            i = x_pos[hit]
            bits = (0,) * i + (1,) + (0,) * (len(x_elems) - 1 - i)
        coords[elem] = qq_coord[elem - hit] + bits
        if cover.element_at(coords[elem]) != elem:
            raise InvariantError(f"coordinate certificate failed for {elem}")

    metrics = {
        "n": n,
        "m": m,
        "q": model.q,
        "attempts": attempts,
        "aprime_size": len(model.a_prime),
        "bohr_frequencies": bres.d_original,
        "kept_dims": q_gap.dimension,
        "q_volume": q_gap.volume(),
        "x_size": len(x_set),
        "cover_dimension": cover.dimension,
        "cover_volume": cover.volume(),
        "strict_checked": True,
        "modeling_failures": failures,
    }
    return FreimanGapResult(cover, coords, q_gap, x_set, metrics)


# ---------------------------------------------------------------------------
# dimension splitting


@dataclass(frozen=True)
class SplitResult:
    """Refined progression with every box length at or below the threshold,
    plus the per-dimension digit plan needed to transform coordinates."""

    gap: Gap
    plan: tuple[tuple[tuple[int, int], ...], ...]
    threshold: int


def split_dimensions(p: Gap, n: int) -> SplitResult:
    """Split long dimensions into base-b digit dimensions.

    The threshold is max(2, ceil(n^(1/d))) for the input dimension d. A
    length L > threshold becomes k digits in base b = ceil(L^(1/k)) for the
    smallest k with b <= threshold; generators scale by powers of b, so the
    refined progression contains the original one.
    """
    if p.modulus is not None:
        raise ValueError("dimension splitting applies to integer progressions")
    d = p.dimension
    if d == 0:
        return SplitResult(p, (), 2)
    threshold = max(2, ceil_root(n, d))
    gens: list[int] = []
    lengths: list[int] = []
    plan: list[tuple[tuple[int, int], ...]] = []
    for y, l in zip(p.generators, p.lengths):
        if l <= threshold:
            plan.append(((y, l),))
            gens.append(y)
            lengths.append(l)
            continue
        k = next(k for k in itertools.count(2) if ceil_root(l, k) <= threshold)
        b = ceil_root(l, k)
        top = -(-l // b ** (k - 1))
        dims = [(y * b**j, b) for j in range(k - 1)] + [(y * b ** (k - 1), top)]
        plan.append(tuple(dims))
        gens.extend(g for g, _ in dims)
        lengths.extend(ln for _, ln in dims)
    out = Gap(p.base, tuple(gens), tuple(lengths))
    return SplitResult(out, tuple(plan), threshold)


def split_coords(split: SplitResult, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Transform original-gap coefficients into refined-gap digits."""
    out: list[int] = []
    for c, dims in zip(coords, split.plan):
        if len(dims) == 1:
            out.append(c)
            continue
        b = dims[0][1]
        rem = c
        for _, ln in dims:
            out.append(rem % b if ln == b else rem)
            rem //= b
    return tuple(out)
