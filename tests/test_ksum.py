"""k-SUM via pair representatives, splitters and structure-aware sumset folding."""

import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsolve import core
from gapsolve.core import EnumerationCapError, IntegerSet, _fft_sumset, _pair_sumset, sumset
from gapsolve.ksum import (
    foursum,
    ksum,
    sparse_sumset,
    splitter_family,
    splitter_plan,
)
from gapsolve.instances import ap_set, random_dense_set
from gapsolve.oracles import brute_ksum

# the package exports the function ksum under the module's name
ksum_module = sys.modules[ksum.__module__]


def _meet_one_search(lvals, rvals, t):
    """Reference meet: every complement searched at once, the least hit kept."""
    hits = ksum_module._first_in(ksum_module._minus(t, lvals)[::-1], rvals)
    return int(lvals[len(lvals) - 1 - hits[-1]]) if len(hits) else None


@pytest.fixture
def cut_cap(monkeypatch):
    """Sets DEFAULT_CUT_CAP for one test; the solvers read it at call time."""
    return lambda value: monkeypatch.setattr(ksum_module, "DEFAULT_CUT_CAP", value)


def _randrange_family(n, k, rng):
    """Reference colorings: one rng.randrange(k) per element."""
    for _ in range(splitter_plan(n, k).planned):
        colors = [rng.randrange(k) for _ in range(n)]
        blocks = [[] for _ in range(k)]
        for i, c in enumerate(colors):
            blocks[c].append(i)
        if any(not b for b in blocks):
            continue
        yield tuple(tuple(b) for b in blocks)


class TestSplitters:
    def test_plan_small_exhaustive(self):
        plan = splitter_plan(10, 3)
        assert plan.exhaustive and plan.planned == 36

    def test_plan_large_randomized(self, cut_cap):
        cut_cap(100)
        plan = splitter_plan(100, 5)
        assert not plan.exhaustive and plan.planned > 100

    def test_blocks_nonempty(self, cut_cap):
        # about 56% of raw colorings of 4 indices into 3 colors leave a block empty
        cut_cap(2)
        parts = list(splitter_family(4, 3, random.Random(9)))
        assert parts and all(len(p) == 3 and all(p) for p in parts)

    def test_exhaustive_plans_have_no_family(self):
        with pytest.raises(ValueError, match="without a splitter family"):
            next(splitter_family(10, 3, random.Random(0)))

    def test_color_draw_matches_randrange(self, cut_cap):
        # powers of two reject about half of the getrandbits draws
        cut_cap(2)
        for k in range(2, 10):
            for seed in (0, 1, 17, 2024):
                ours, ref = random.Random(seed), random.Random(seed)
                # whole families while they are short, their first 60 colorings after
                take = None if k <= 5 else 60
                got = list(itertools.islice(splitter_family(12, k, ours), take))
                want = list(itertools.islice(_randrange_family(12, k, ref), take))
                assert got == want, (k, seed)
                assert ours.getstate() == ref.getstate(), (k, seed)

    def test_random_colorings_partition(self, cut_cap):
        cut_cap(10)
        rng = random.Random(5)
        for part in itertools.islice(splitter_family(40, 3, rng), 20):
            flat = sorted(i for b in part for i in b)
            assert flat == list(range(40))
            assert len(part) == 3


class TestSparseSumset:
    def test_backends_agree(self):
        rng = random.Random(6)
        cases = [
            (
                sorted(rng.sample(range(-200, 200), rng.randint(1, 30))),
                sorted(rng.sample(range(-200, 200), rng.randint(1, 30))),
            )
            for _ in range(30)
        ]
        # larger pair counts, up to 4096
        for na, nb in ((63, 65), (64, 64), (65, 65), (1, 4096)):
            cases.append(
                (
                    sorted(rng.sample(range(-(10**4), 10**4), na)),
                    sorted(rng.sample(range(-(10**4), 10**4), nb)),
                )
            )
        # operands on both sides of the int64 guard (2^62) and past int64
        for top in ((1 << 62) - 1, 1 << 62, 1 << 63, 1 << 70):
            for sign in (1, -1):
                big = sorted(sign * (top - 3 * d) for d in range(64))
                cases += [(big, big), (big, list(range(64))), (big, [0])]
        for a, b in cases:
            want = tuple(sorted({x + y for x in a for y in b}))
            assert sumset(IntegerSet(tuple(a)), IntegerSet(tuple(b))).elements == want
            assert sparse_sumset(a, b).values == want
            assert tuple(_pair_sumset(a, b).tolist()) == want
            span = a[-1] - a[0] + b[-1] - b[0] + 1
            if max(-a[0], a[-1], -b[0], b[-1]) < 1 << 62 and span <= 1 << 22:
                x, y = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
                assert tuple(_fft_sumset(x, y).tolist()) == want

    def test_numpy_hash_path(self):
        rng = random.Random(7)
        a = sorted(rng.sample(range(10**6), 80))
        b = sorted(rng.sample(range(10**6), 80))
        fold = sparse_sumset(a, b)
        want = sorted({x + y for x in a for y in b})
        assert fold.backend == "hash"
        assert list(fold.values) == want

    def test_bigint_fallback(self):
        big = 1 << 70
        fold = sparse_sumset([big, big + 3], [0, 5])
        assert fold.backend == "hash"
        assert fold.values == (big, big + 3, big + 5, big + 8)

    def test_pair_cap_holds_beyond_int64(self, monkeypatch):
        a = [(1 << 70) + i for i in range(200)]
        monkeypatch.setattr(core, "DEFAULT_FOLD_CAP", 100)
        with pytest.raises(EnumerationCapError, match="hash fold work 40000 above cap 100"):
            sparse_sumset(a, a)
        monkeypatch.setattr(core, "DEFAULT_FOLD_CAP", 40000)
        fold = sparse_sumset(a, a)
        assert fold.values == tuple((1 << 71) + i for i in range(399))

    def test_auto_prefers_fft_on_dense_range(self):
        a = list(range(500))
        fold = sparse_sumset(a, a)
        assert fold.backend == "fft"
        assert fold.values == tuple(range(998 + 1))

    def test_auto_prefers_hash_on_sparse(self):
        rng = random.Random(8)
        a = sorted(rng.sample(range(10**15), 40))
        fold = sparse_sumset(a, a)
        assert fold.backend == "hash"

    def test_caps(self, monkeypatch):
        with pytest.raises(ValueError):
            sparse_sumset([], [1])
        # 10,000 pairs over a span of 199: fft at its transform length, 256,
        # which the one fold cap bounds as it bounds a pair count
        a = list(range(100))
        fold = sparse_sumset(a, a)
        assert (fold.backend, fold.work) == ("fft", 256)
        monkeypatch.setattr(core, "DEFAULT_FOLD_CAP", 255)
        with pytest.raises(EnumerationCapError, match="fft fold work 256 above cap 255"):
            sparse_sumset(a, a)
        monkeypatch.setattr(core, "DEFAULT_FOLD_CAP", 256)
        assert sparse_sumset(a, a).values == tuple(range(199))


class TestKsum:
    def test_frozen(self):
        res = ksum(IntegerSet((1, 2, 3, 4, 5)), 12, 3, random.Random(0))
        assert res.witness is not None
        assert res.witness.payload == (2, 3, 4)
        assert res.exhaustive

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ksum(IntegerSet((1, 2)), 3, 0, random.Random(0))

    def test_k_exceeds_n(self):
        res = ksum(IntegerSet((1, 2)), 3, 5, random.Random(0))
        assert res.witness is None and res.exhaustive
        # the same result shape as every other plan
        assert res.meta == ksum(IntegerSet((1, 2)), 3, 2, random.Random(0)).meta
        assert res.meta == {"backends": {}}

    def test_k1(self):
        res = ksum(IntegerSet((4, 9, 11)), 9, 1, random.Random(0))
        assert res.witness.payload == (1,)
        assert ksum(IntegerSet((4, 9, 11)), 10, 1, random.Random(0)).witness is None

    def test_vs_brute(self):
        rng = random.Random(300)
        for _ in range(150):
            n = rng.randint(2, 12)
            k = rng.randint(1, min(5, n))
            z = IntegerSet.from_iterable(rng.sample(range(-50, 50), n))
            t = rng.randint(-60, 60)
            res = ksum(z, t, k, random.Random(rng.randrange(2**30)))
            want = brute_ksum(z.elements, t, k)
            assert res.exhaustive  # small n stays under the cut cap
            assert (res.witness is None) == (want is None), (z.elements, t, k)
            if res.witness is not None:
                idx = res.witness.payload
                assert len(set(idx)) == k
                assert sum(z.elements[i] for i in idx) == t

    def test_randomized_path_finds_planted(self, cut_cap):
        cut_cap(10)
        rng = random.Random(301)
        values = rng.sample(range(10**6), 60)
        z = IntegerSet.from_iterable(values)
        els = z.elements
        planted = [els[3], els[17], els[31], els[44]]
        t = sum(planted)
        res = ksum(z, t, 4, random.Random(302))
        assert not res.exhaustive
        assert res.witness is not None
        assert sum(els[i] for i in res.witness.payload) == t

    def test_work_accounting(self):
        res = ksum(IntegerSet(tuple(range(20))), 30, 4, random.Random(0))
        assert res.work > 0 and res.partitions_tried >= 1
        assert "backends" in res.meta

    def test_foursum_wrapper(self):
        res = foursum(IntegerSet((1, 5, 9, 13, 21)), 28, random.Random(0))
        assert res.witness is not None
        assert len(res.witness.payload) == 4


class TestBigValues:
    def test_ksum_beyond_int64(self):
        base = 1 << 70
        vals = (3, 4, base, base + 1, base + 7, base + 12)
        t = base + base + 1 + 3
        res = ksum(IntegerSet(vals), t, 3, random.Random(1))
        assert res.witness is not None
        els = IntegerSet(vals).elements
        assert sum(els[i] for i in res.witness.payload) == t


class TestRandomPathValueRegimes:
    """The coloring path (cut cap 2) folds, meets and walks back arrays of
    the normalized values, so their regime is set by the spread of the
    values, whatever their offset: int64 near 0, int64 levels crossing
    +-2^62 that turn into object arrays mid-fold, and object arrays
    throughout past 2^64."""

    REGIMES = {"near 0": 1 << 21, "straddling 2^62": 1 << 62, "past 2^64": 1 << 66}

    def _levels_seen(self, monkeypatch):
        seen = []
        fold = ksum_module._fold_blocks

        def spy(*args):
            levels, work = fold(*args)
            seen.extend(levels[1:])
            return levels, work

        monkeypatch.setattr(ksum_module, "_fold_blocks", spy)
        return seen

    @pytest.mark.parametrize("regime", REGIMES)
    def test_planted_and_residue_infeasible(self, regime, monkeypatch, cut_cap):
        cut_cap(2)
        spread = self.REGIMES[regime]
        seen = self._levels_seen(monkeypatch)
        rng = random.Random(710 + len(regime))
        for k in range(3, 7):
            # planted, at an offset far past int64: the witness must sum to t;
            # the least value normalizes to 0, every other one to at least spread/2
            offset = rng.randrange(-(1 << 70), 1 << 70)
            size = rng.randint(k + 3, 14)
            z = IntegerSet.from_iterable(
                [offset] + [offset + rng.randrange(spread >> 1, spread) for _ in range(size - 1)]
            )
            t = sum(rng.sample(z.elements, k))
            res = ksum(z, t, k, random.Random(rng.randrange(2**30)))
            assert not res.exhaustive and res.witness is not None
            idx = res.witness.payload
            assert len(set(idx)) == k and sum(z.elements[i] for i in idx) == t
            # every value is offset mod 3, so no k of them reach t = k*offset + 1
            # mod 3: an exact "no" before any fold
            z = IntegerSet.from_iterable(offset + 3 * rng.randrange(spread >> 2) for _ in range(k + 2))
            t = k * offset + 3 * rng.randrange(spread >> 1) + 1
            folds = len(seen)
            res = ksum(z, t, k, random.Random(rng.randrange(2**30)))
            assert res.witness is None and res.exhaustive
            assert (res.work, res.partitions_tried, res.meta) == (0, 0, {"backends": {}})
            assert len(seen) == folds
            assert brute_ksum(z.elements, t, k) is None
        dtypes = {level.dtype.kind for level in seen}
        crossing = [
            level for level in seen
            if level.dtype.kind == "i" and max(-int(level[0]), int(level[-1])) >= 1 << 62
        ]
        if regime == "near 0":
            assert dtypes == {"i"}
        elif regime == "straddling 2^62":
            assert dtypes == {"i", "O"} and crossing
        else:
            # a block that holds the least value alone folds to [0], which the
            # guard admits; every other level is an object array
            assert {level.dtype.kind for level in seen if level.tolist() != [0]} == {"O"}

    def test_complements_do_not_wrap(self):
        # t - lvals[0] = 3 * 2^62 - 11 leaves int64, and wrapped it would be
        # -2^62 - 11, which is on the right
        lvals = np.array([-(1 << 63) + 5, 0], dtype=np.int64)
        rvals = np.array([-(1 << 62) - 11, 5], dtype=np.int64)
        assert ksum_module._meet(lvals, rvals, (1 << 62) - 6) is None
        assert ksum_module._meet(lvals, rvals, 5) == 0
        levels = [np.zeros(1, dtype=np.int64), rvals]
        assert ksum_module._unfold(levels, [rvals], 5) == [5]


class TestEarlyExitMeet:
    """The sliced meet against the one-search reference."""

    W = ksum_module._MEET_SLICE

    @staticmethod
    def _level(rng, base, size, dtype):
        vals = sorted({base + 3 * rng.randrange(1 << 30) for _ in range(size)})
        return np.array(vals, dtype=dtype)

    def test_matches_reference(self):
        rng = random.Random(720)
        w = self.W
        # (left base, dtype, right base, dtype): int64 near 0, int64 whose
        # sums straddle +-2^62, object arrays past 2^64, and one of each
        regimes = (
            (0, np.int64, 0, np.int64),
            (1 << 61, np.int64, 1 << 61, np.int64),
            (-(1 << 61), np.int64, -(1 << 61), np.int64),
            (1 << 66, object, 1 << 66, object),
            (0, np.int64, -(1 << 66), object),
        )
        for lbase, ldtype, rbase, rdtype in regimes:
            for size in (1, w - 1, w, w + 1, 3 * w, 10 * w + 7):
                lvals = self._level(rng, lbase, size, ldtype)
                rvals = self._level(rng, rbase, 4 * w, rdtype)
                n = len(lvals)
                for pos in sorted({0, w - 1, w, 3 * w - 1, 3 * w, n - 1}):
                    if pos >= n:
                        continue
                    # the complement of lvals[pos] is on the right: anywhere,
                    # or at its ends, where lvals[pos] ends the window the
                    # meet searches (every value is base mod 3, so t + 3 and
                    # t - 3 may miss or hit elsewhere)
                    for r in (rng.randrange(len(rvals)), 0, len(rvals) - 1):
                        t = int(lvals[pos]) + int(rvals[r])
                        got = ksum_module._meet(lvals, rvals, t)
                        assert got == _meet_one_search(lvals, rvals, t)
                        assert got is not None and got <= lvals[pos]
                        for near in (t - 3, t + 3):
                            want = _meet_one_search(lvals, rvals, near)
                            assert ksum_module._meet(lvals, rvals, near) == want
                no_hit = lbase + rbase + 1
                assert ksum_module._meet(lvals, rvals, no_hit) is None
                assert _meet_one_search(lvals, rvals, no_hit) is None

    def test_hit_at_each_slice_edge(self):
        w = self.W
        n = 8 * w
        lvals = np.arange(0, 2 * n, 2, dtype=np.int64)  # even values
        # t - far < 0, so the searched window starts at lvals[0]
        far = 4 * n + 1
        rvals = np.array([1, far], dtype=np.int64)
        for pos in (0, w - 1, w, 3 * w - 1, 3 * w, n - 1):
            # t - v is 1 only at v = lvals[pos] and never far
            t = int(lvals[pos]) + 1
            assert ksum_module._meet(lvals, rvals, t) == pos * 2
            assert _meet_one_search(lvals, rvals, t) == pos * 2
        # even t: every value is in the window and none meets an odd right value
        assert ksum_module._meet(lvals, rvals, 2 * n) is None

    def test_planted_queries_search_few_left_values(self, monkeypatch):
        searched, left = [], []
        first_in, meet = ksum_module._first_in, ksum_module._meet
        inside = []

        def first_in_spy(keys, level):
            if inside:
                searched.append(len(keys))
            return first_in(keys, level)

        def meet_spy(lvals, rvals, t):
            left.append(len(lvals))
            inside.append(True)
            try:
                return meet(lvals, rvals, t)
            finally:
                inside.pop()

        monkeypatch.setattr(ksum_module, "_first_in", first_in_spy)
        monkeypatch.setattr(ksum_module, "_meet", meet_spy)
        for seed in range(721, 725):
            searched.clear()
            left.clear()
            rng = random.Random(seed)
            z = random_dense_set(rng, 2048, 1 << 20)
            t = sum(rng.sample(z.elements, 4))
            res = ksum(z, t, 4, random.Random(seed + 1))
            assert res.witness is not None and not res.exhaustive
            assert left and sum(searched) < 0.01 * sum(left)


class TestFrozenRandomPath:
    """Whole results of seeded coloring-path queries, pinned: witness, work,
    colorings folded and backends. The "ap" and "straddle" values have
    gcd 3 after the shift by their least value, "object" gcd 7."""

    CASES = {
        # name: (values, k, rng seed, target, witness, work, colorings, backends)
        "hash": (
            [5 * v * v + v for v in range(14)], 4, 11,
            2054, (7, 8, 11, 13), 307, 6, {"hash": 24},
        ),
        # 32 pairs over a span of 24 (transform length 32) enumerate pairs
        "ap": (
            list(range(0, 42, 3)), 3, 12,
            63, (2, 6, 13), 64, 1, {"hash": 3},
        ),
        # 55 pairs over a span of 51 (transform length 64) enumerate pairs;
        # 77 and 270 pairs over spans of 63 and 93 convolve
        "mixed": (
            list(range(40)), 5, 13,
            68, (2, 8, 9, 17, 32), 384, 1, {"hash": 3, "fft": 2},
        ),
        "object": (
            [(1 << 70) + 7 * v * v for v in range(13)], 4, 14,
            4722366482869645215418, (4, 7, 9, 10), 96, 2, {"hash": 8},
        ),
        "straddle": (
            [(1 << 61) + 3 * v * v - 40 for v in range(12)], 5, 15,
            11529215046068470091, (0, 2, 3, 8, 10), 75, 1, {"hash": 5},
        ),
        # no 3 distinct squares below 100 sum to 103: every coloring is folded
        "sweep": (
            [v * v for v in range(10)], 3, 16,
            103, None, 7702, 260, {"hash": 780},
        ),
        # 301 is not 0 mod 3: an exact "no" before any coloring
        "residue": (
            [3 * v * v for v in range(10)], 3, 16,
            301, None, 0, 0, {},
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_frozen(self, name, cut_cap):
        values, k, seed, t, witness, work, tried, backends = self.CASES[name]
        cut_cap(2)
        res = ksum(IntegerSet(tuple(values)), t, k, random.Random(seed))
        assert (None if res.witness is None else res.witness.payload) == witness
        # only the residue refusal is exact on this path
        assert (res.work, res.partitions_tried, res.exhaustive) == (work, tried, name == "residue")
        assert res.meta == {"backends": backends}


class TestPairRepresentatives:
    """The exhaustive regime: capped pair representatives against brute force."""

    def _agrees(self, z, t, k, rng_seed=0):
        res = ksum(z, t, k, random.Random(rng_seed))
        want = brute_ksum(z.elements, t, k)
        assert res.exhaustive
        assert (res.witness is None) == (want is None), (z.elements, t, k)
        if res.witness is not None:
            idx = res.witness.payload
            assert len(set(idx)) == k and idx == tuple(sorted(idx))
            assert sum(z.elements[i] for i in idx) == t
        return res

    def test_vs_brute_many(self):
        rng = random.Random(700)
        shapes = set()
        for trial in range(3000):
            n = rng.randint(1, 14)
            k = rng.randint(1, min(7, n))
            if trial % 10 == 0:
                n = k = rng.randint(1, 7)
            z = IntegerSet.from_iterable(rng.sample(range(-40, 40), n))
            if trial % 2:
                t = sum(rng.sample(z.elements, k))
            else:
                t = rng.randint(-100, 100)
            self._agrees(z, t, k)
            shapes.add((k, 2 * k > n, k == n))
        assert {k for k, _, _ in shapes} == set(range(1, 8))
        assert any(big for _, big, _ in shapes) and any(full for _, _, full in shapes)

    def test_one_pair_per_sum_is_not_enough(self):
        # 13 = 1 + 3 + 4 + 5 only, and each way of splitting it into two pairs
        # puts the 1 on one side while the first pair of the other side's sum
        # holds the 1 too (9 = 1 + 8, 8 = 1 + 7, 7 = 1 + 6): one representative
        # per sum answers no
        z = IntegerSet((1, 3, 4, 5, 6, 7, 8, 9, 11, 12))
        res = self._agrees(z, 13, 4)
        assert res.witness.payload == (0, 1, 2, 3)
        assert res.partitions_tried == 1

    def test_values_past_int64(self):
        base = 1 << 64
        rng = random.Random(701)
        for _ in range(200):
            n = rng.randint(4, 12)
            k = rng.randint(1, min(6, n))
            z = IntegerSet.from_iterable(base * v + v for v in rng.sample(range(-30, 30), n))
            t = sum(rng.sample(z.elements, k)) + rng.choice((0, 0, 1, -base))
            self._agrees(z, t, k)

    def test_witness_independent_of_rng(self):
        rng = random.Random(702)
        for _ in range(200):
            n = rng.randint(4, 14)
            k = rng.randint(1, min(7, n))
            z = IntegerSet.from_iterable(rng.sample(range(-40, 40), n))
            t = sum(rng.sample(z.elements, k))
            one = ksum(z, t, k, random.Random(1))
            two = ksum(z, t, k, random.Random(2))
            assert one.witness is not None and one == two

    def test_exhaustive_matches_plan_at_the_cap(self, cut_cap):
        # at the default cap: C(316, 2) = 49,770 and C(317, 2) = 50,086
        for n, want in ((317, True), (318, False)):
            assert splitter_plan(n, 3).exhaustive == want
            z = IntegerSet.from_iterable(range(0, 3 * n, 3))
            # a multiple of 3 above every sum of three, so the plan runs
            res = ksum(z, 9 * n, 3, random.Random(4))
            assert res.exhaustive == want
            assert res.witness is None
        z = IntegerSet.from_iterable(range(0, 60, 3))
        for k in (2, 3, 4, 5):
            cuts = math.comb(len(z) - 1, k - 1)
            for cap in (cuts, cuts - 1):  # C(n-1, k-1) at the cap, then one past it
                cut_cap(cap)
                res = ksum(z, sum(z.elements[:k]), k, random.Random(3))
                assert res.exhaustive == splitter_plan(len(z), k).exhaustive
                assert res.exhaustive == (cap == cuts)
                assert res.witness is not None

    def test_cut_cap_read_at_call_time(self, cut_cap):
        z = IntegerSet.from_iterable(range(0, 60, 3))
        assert splitter_plan(20, 3).exhaustive and ksum(z, 9, 3, random.Random(0)).exhaustive
        cut_cap(2)
        assert not splitter_plan(20, 3).exhaustive
        assert not ksum(z, 9, 3, random.Random(0)).exhaustive

    def test_counters(self):
        z = IntegerSet.from_iterable(range(0, 30, 3))  # n = 10, 45 pairs
        # multiples of 3 below every sum of three and of five
        assert ksum(z, 6, 3, random.Random(0)).partitions_tried == 1
        res = ksum(z, 27, 5, random.Random(0))
        assert res.partitions_tried == 10  # one fixed index per tuple
        assert res.work > 45


class TestNormalization:
    """ksum runs on (A - c) / g with c = min A and g = gcd(A - c), and on
    (t - k*c) / g: a target of the wrong residue is refused exactly, and
    everything else depends on the normalized instance alone."""

    def test_foursum_on_ap_is_value_independent(self):
        # n = 256: C(255, 3) is past the cut cap, so colorings are folded
        picks = random.Random(256).sample(range(256), 4)
        results = []
        for start, step in ((5, 1), (-(10**9), 10**6), ((1 << 75) + 1, 1 << 70)):
            z = ap_set(256, start, step)
            planted = foursum(z, sum(z.elements[i] for i in picks), random.Random(7))
            # a multiple of step past the largest sum of four: a full sweep
            above = foursum(z, 4 * start + 1020 * step, random.Random(7))
            assert planted.witness is not None and above.witness is None
            assert not planted.exhaustive and not above.exhaustive
            results.append([(r.witness, r.work, r.partitions_tried, r.meta) for r in (planted, above)])
        assert results[0] == results[1] == results[2]
        assert results[0][0][1:] == (2114, 1, {"backends": {"hash": 2, "fft": 2}})
        assert results[0][1][1:] == (5122273, 2423, {"backends": {"hash": 4846, "fft": 4846}})

    def test_wrong_residue_builds_nothing(self, monkeypatch):
        def no_fold(*args):
            raise AssertionError("a refused query folded")

        monkeypatch.setattr(ksum_module, "_fold_blocks", no_fold)
        monkeypatch.setattr(ksum_module, "_pair_ksum", no_fold)
        z = ap_set(2048, 7, 10**6)  # colorings past the cut cap
        for k in (1, 2, 4, 6):
            res = ksum(z, k * 7 + 10**6 * 100 + 1, k, random.Random(0))
            assert res == ksum_module.KsumResult(None, 0, 0, True, {"backends": {}})

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=9, unique=True),
        st.integers(1, 5),
        st.integers(-(1 << 70), 1 << 70),
        st.integers(1, 1 << 70),
        st.sampled_from(("planted", "off by one", "residue")),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_agrees_with_brute_and_the_normalized_instance(
        self, base, k, offset, scale, kind, colouring, rnd
    ):
        k = min(k, len(base))
        if colouring:
            k = min(k, 3)  # k = 5 plans over 3,000 colorings at n = 9
        z = IntegerSet.from_iterable(offset + scale * v for v in base)
        picked = rnd.sample(range(len(z)), k)
        t = sum(z.elements[i] for i in picked)
        if kind == "off by one":
            t += rnd.choice((-1, 1))
        elif kind == "residue":
            t = k * offset + scale * rnd.randrange(-200, 200) + rnd.randrange(1, scale + 1)
        c = z.elements[0]
        g = math.gcd(*(v - c for v in z.elements)) or 1
        norm = IntegerSet(tuple((v - c) // g for v in z.elements))
        seed = rnd.randrange(1 << 30)
        with pytest.MonkeyPatch.context() as mp:
            if colouring:
                mp.setattr(ksum_module, "DEFAULT_CUT_CAP", 2)
            res = ksum(z, t, k, random.Random(seed))
            if (t - k * c) % g:
                assert (res.witness, res.work, res.partitions_tried) == (None, 0, 0)
                assert res.exhaustive
            else:
                pre = ksum(norm, (t - k * c) // g, k, random.Random(seed))
                assert res == pre
        want = brute_ksum(z.elements, t, k)
        if res.witness is None:
            assert want is None or not res.exhaustive
        else:
            idx = res.witness.payload
            assert len(set(idx)) == k and sum(z.elements[i] for i in idx) == t
            assert want is not None
