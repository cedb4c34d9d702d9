"""k-SUM via pair representatives, splitters and structure-aware sumset folding."""

import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsolve import core
from gapsolve.core import (
    EnumerationCapError,
    IntegerSet,
    InvariantError,
    _fft_sumset,
    _pair_sumset,
    sumset,
)
from gapsolve.ksum import (
    SplitterPlan,
    foursum,
    ksum,
    sparse_sumset,
    splitter_family,
    splitter_plan,
)
from gapsolve.instances import ap_set, random_dense_set, sidon_set
from gapsolve.oracles import brute_ksum

# the package exports the function ksum under the module's name
ksum_module = sys.modules[ksum.__module__]


def _meet_one_search(lvals, rvals, t):
    """Reference meet: every complement searched at once, the least hit kept."""
    hits = np.flatnonzero(ksum_module._in_sorted(rvals, ksum_module._minus(t, lvals)[::-1]))
    return int(lvals[len(lvals) - 1 - hits[-1]]) if len(hits) else None


@pytest.fixture
def cut_cap(monkeypatch):
    """Sets DEFAULT_CUT_CAP for one test; the solvers read it at call time."""
    return lambda value: monkeypatch.setattr(ksum_module, "DEFAULT_CUT_CAP", value)


def _lattice_and_one(n):
    """1 and the n - 1 multiples of 3 from 0: every sum of k distinct ones
    is 0 or 1 mod 3, so a target of residue 2 inside the range of k-sums is
    unreachable, and the plan has to run to answer it."""
    return IntegerSet.from_iterable([1, *range(0, 3 * (n - 1), 3)])


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
        # k = 1 needs no branch of its own: C(n - 1, 0) = 1 is within the cap
        assert all(splitter_plan(n, 1) == SplitterPlan(True, 1) for n in range(1, 65))

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

    def test_recheck_fires(self, monkeypatch):
        z = IntegerSet((1, 2, 3, 4, 5))
        for indices, msg in (
            ((0, 1), "not k distinct positions"),
            ((0, 1, 2), "failed re-evaluation: sum misses the target"),
        ):
            with monkeypatch.context() as m:
                m.setattr(ksum_module, "_pair_ksum", lambda *args, i=indices: (i, 0, 1))
                with pytest.raises(InvariantError, match=msg):
                    ksum(z, 12, 3, random.Random(0))

    def test_recheck_fires_on_the_color_path(self, cut_cap, monkeypatch):
        cut_cap(10)
        z = IntegerSet.from_iterable(random.Random(301).sample(range(10**6), 60))
        t = sum(z.elements[i] for i in (3, 17, 31, 44))
        # each block's least value in place of the walked-back ones
        monkeypatch.setattr(
            ksum_module, "_unfold", lambda levels, blocks, total: [int(b[0]) for b in blocks]
        )
        with pytest.raises(InvariantError, match="sum misses the target"):
            ksum(z, t, 4, random.Random(302))

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

    def test_planted_queries_hit_in_the_head(self, monkeypatch):
        """Heavy planted queries (n = 2048, right top folds of about 2^18
        pairs) find their witness in the head of the right product: a small
        share of its pairs looked up, and that fold never run."""
        scans, looked = [], []
        in_sorted, head_scan = ksum_module._in_sorted, ksum_module._head_scan

        def in_sorted_spy(level, keys):
            if scans and scans[-1] is None:
                looked.append(len(keys))
            return in_sorted(level, keys)

        def head_scan_spy(lvals, rvals, last, t):
            scans.append(None)
            head, count = head_scan(lvals, rvals, last, t)
            scans[-1] = (head, count, len(rvals) * len(last))
            return head, count

        def no_meet(*args):
            raise AssertionError("a heavy planted query met the right top fold")

        monkeypatch.setattr(ksum_module, "_in_sorted", in_sorted_spy)
        monkeypatch.setattr(ksum_module, "_head_scan", head_scan_spy)
        monkeypatch.setattr(ksum_module, "_meet", no_meet)
        for seed in range(721, 725):
            scans.clear()
            looked.clear()
            rng = random.Random(seed)
            z = random_dense_set(rng, 2048, 1 << 20)
            t = sum(rng.sample(z.elements, 4))
            res = ksum(z, t, 4, random.Random(seed + 1))
            assert res.witness is not None and not res.exhaustive
            assert len(scans) == res.partitions_tried and scans[-1][0] is not None
            keys, pairs = sum(c for _, c, _ in scans), sum(p for *_, p in scans)
            assert sum(looked) == keys and keys < 0.01 * pairs
            assert sum(res.meta["backends"].values()) == 3 * res.partitions_tried


def _blowup_set(n, s):
    """B + P with B = sidon_set(s) and P = {0, M, ..., (n/s - 1) M} for
    M = 8 (max B + 1): a k-sum for k <= 8 splits into a B-part and a
    P-part, and its doubling is about s + 1. Returns (set, B, M)."""
    parts = sidon_set(s).elements
    step = 8 * (max(parts) + 1)
    return IntegerSet.from_iterable(b + step * j for b in parts for j in range(n // s)), parts, step


class TestHeadScan:
    """Before the right top fold of a large coloring, the random path looks
    up t - b - r on the left level over the head rows of last x right level;
    a hit gives the witness, a miss falls back to the fold and the meet."""

    REGIMES = TestRandomPathValueRegimes.REGIMES

    def test_first_pair_in_head_order(self, monkeypatch):
        """The scan returns the first (b, r), b ascending and then r
        ascending, whose complement is on the left, within the head rows,
        and counts whole rows looked up, in every value regime."""
        rng = random.Random(741)
        regimes = ((0, np.int64), (1 << 61, np.int64), (-(1 << 61), np.int64), (1 << 66, object))

        def level():
            base, dtype = rng.choice(regimes)
            size = rng.randint(1, 70)
            if rng.random() < 0.5:
                return TestEarlyExitMeet._level(rng, base, size, dtype)
            # dense: rows with several hits, whose least r must be the one returned
            return np.array(sorted(base + v for v in rng.sample(range(2 * size), size)), dtype=dtype)

        for draw in range(400):
            share = rng.choice((1, 2, 3, 32))
            monkeypatch.setattr(ksum_module, "_HEAD_SHARE", share)
            lvals, rvals, last = level(), level(), level()
            pairs = [(b, r) for b in last.tolist() for r in rvals.tolist()]
            b, r = rng.choice(pairs)
            t = int(rng.choice(lvals.tolist())) + b + r + rng.choice((0, 0, 3))
            head = len(last) // share
            left = set(lvals.tolist())
            want = next(((b, r) for b, r in pairs[: head * len(rvals)] if t - b - r in left), None)
            got, looked = ksum_module._head_scan(lvals, rvals, last, t)
            assert got == want
            assert looked % len(rvals) == 0 and looked <= head * len(rvals)
            if want is None:
                assert looked == head * len(rvals)
            else:
                assert looked > pairs.index(want)

    def test_equivalent_to_fold_and_meet(self, monkeypatch, cut_cap):
        """With the threshold down to one pair, every coloring of small
        queries scans its head first. The scan hits only where the fold and
        meet would, a full head (share 1) hits exactly where they do,
        every witness passes the re-check inside ksum, and planted targets
        are found as the brute-force oracle finds them."""
        cut_cap(2)
        monkeypatch.setattr(ksum_module, "_HEAD_MIN_PAIRS", 1)
        head_scan, plan = ksum_module._head_scan, ksum_module.splitter_plan
        share, seen = [1], {name: [0, 0] for name in self.REGIMES}
        regime = [None]

        def head_scan_spy(lvals, rvals, last, t):
            head, count = head_scan(lvals, rvals, last, t)
            meet = ksum_module._meet(lvals, sparse_sumset(rvals, last).sums, t)
            assert (head is not None or meet is not None) == (meet is not None)
            if share[0] == 1:
                assert (head is None) == (meet is None)
            if head is not None:
                b, r = head
                assert b in last.tolist() and r in rvals.tolist()
                assert t - b - r in lvals.tolist()
            seen[regime[0]][head is None] += 1
            return head, count

        monkeypatch.setattr(ksum_module, "_head_scan", head_scan_spy)
        rng = random.Random(740)
        for draw in range(2100):
            regime[0] = name = list(self.REGIMES)[draw % 3]
            spread = self.REGIMES[name]
            k = rng.randint(3, 6)
            share[0] = rng.choice((1, 2))
            monkeypatch.setattr(ksum_module, "_HEAD_SHARE", share[0])
            offset = rng.randrange(-(1 << 70), 1 << 70)
            size = rng.randint(k + 3, 16)
            z = IntegerSet.from_iterable(
                [offset] + [offset + rng.randrange(1, spread) for _ in range(size - 1)]
            )
            planted = draw % 2 == 0
            t = sum(rng.sample(z.elements, k)) + (0 if planted else rng.choice((-1, 1)))
            # an unplanted target keeps a short plan: a full sweep at k = 6
            # folds over 13,000 colorings
            short = lambda n, k: SplitterPlan(False, min(plan(n, k).planned, 12))
            monkeypatch.setattr(ksum_module, "splitter_plan", plan if planted else short)
            res = ksum(z, t, k, random.Random(rng.randrange(2**30)))
            want = brute_ksum(z.elements, t, k)
            if planted:
                assert res.witness is not None and want is not None
            elif res.witness is not None:
                assert want is not None
            if res.witness is not None:
                assert sum(z.elements[i] for i in res.witness.payload) == t
        # every regime took hits in the head and fell back after misses
        assert all(hits and misses for hits, misses in seen.values()), seen

    def test_misses_fold_as_before(self, monkeypatch):
        """Blow-up negatives (B-part outside 4B) miss in every coloring: each
        looks up at most 1/_HEAD_SHARE of the skipped fold's pairs before it
        folds, and the answer is the one without the scan but for its work."""
        z, parts, step = _blowup_set(1024, 8)
        fourfold = {sum(c) for c in itertools.combinations_with_replacement(parts, 4)}
        t = next(v for v in range(4 * max(parts)) if v not in fourfold) + 10 * step
        monkeypatch.setattr(ksum_module, "splitter_plan", lambda n, k: SplitterPlan(False, 3))
        events = []
        in_sorted, fold = ksum_module._in_sorted, ksum_module.sparse_sumset

        def in_sorted_spy(level, keys):
            events.append(("keys", len(keys)))
            return in_sorted(level, keys)

        def fold_spy(a, b, **kw):
            events.append(("fold", len(a) * len(b)))
            return fold(a, b, **kw)

        monkeypatch.setattr(ksum_module, "_in_sorted", in_sorted_spy)
        monkeypatch.setattr(ksum_module, "sparse_sumset", fold_spy)
        res = ksum(z, t, 4, random.Random(8))
        folds = [i for i, (kind, _) in enumerate(events) if kind == "fold"]
        assert len(folds) == 4 * res.partitions_tried
        looked = 0
        for third, fourth in zip(folds[2::4], folds[3::4]):
            head = sum(n for _, n in events[third + 1 : fourth])
            assert 0 < head <= events[fourth][1] // ksum_module._HEAD_SHARE
            looked += head
        monkeypatch.setattr(ksum_module, "_HEAD_MIN_PAIRS", math.inf)
        before = ksum(z, t, 4, random.Random(8))
        assert (res.witness, res.partitions_tried, res.exhaustive, res.meta) == (
            None, 3, False, {"backends": {"hash": 12}}
        )
        # the answer of the code before the head scan, work included
        assert (before.witness, before.work, before.partitions_tried, before.meta) == (
            None, 445627, 3, res.meta
        )
        assert res.work == before.work + looked

    def test_convolved_folds_are_not_scanned(self, monkeypatch):
        """A right top fold that the rule convolves is built and met as
        before, however many pairs it has: planted queries on an AP of
        2,048 values (right products of about 2^18 pairs) give the answer
        of the code without the scan."""
        z = ap_set(2048, 3, 7)
        rng = random.Random(752)
        queries = [(sum(rng.sample(z.elements, 4)), rng.randrange(2**30)) for _ in range(3)]

        def answers():
            out = []
            for t, seed in queries:
                res = ksum(z, t, 4, random.Random(seed))
                assert res.witness is not None
                out.append((res.witness, res.work, res.partitions_tried, res.meta))
            return out

        def no_scan(*args):
            raise AssertionError("a convolved fold was scanned")

        monkeypatch.setattr(ksum_module, "_head_scan", no_scan)
        got = answers()
        monkeypatch.setattr(ksum_module, "_HEAD_MIN_PAIRS", math.inf)
        assert got == answers()
        assert all(meta["backends"].get("fft", 0) >= 2 for *_, meta in got)

    def test_skipped_fold_is_refused_first(self, monkeypatch, cut_cap):
        """The fold cap refuses the right top fold before its head is
        scanned, with the message the fold itself gives."""
        rng = random.Random(750)
        z = random_dense_set(rng, 400, 10**9)
        t = sum(rng.sample(z.elements, 3))
        blocks = next(splitter_family(len(z), 3, random.Random(5)))
        pairs = len(blocks[1]) * len(blocks[2])
        assert pairs >= ksum_module._HEAD_MIN_PAIRS
        monkeypatch.setattr(core, "DEFAULT_FOLD_CAP", pairs - 1)
        scans = []
        monkeypatch.setattr(ksum_module, "_head_scan", lambda *args: scans.append(args))
        message = f"hash fold work {pairs} above cap {pairs - 1}"
        with pytest.raises(EnumerationCapError, match=message):
            ksum(z, t, 3, random.Random(5))
        assert scans == []
        monkeypatch.setattr(ksum_module, "_HEAD_MIN_PAIRS", math.inf)
        with pytest.raises(EnumerationCapError, match=message):
            ksum(z, t, 3, random.Random(5))


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
        assert brute_ksum(_lattice_and_one(30).elements, 3 * 30 + 2, 3) is None
        for n, want in ((317, True), (318, False)):
            assert splitter_plan(n, 3).exhaustive == want
            # 3n + 2 has residue 2 and lies between the least and greatest sums of three
            res = ksum(_lattice_and_one(n), 3 * n + 2, 3, random.Random(4))
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
        z = _lattice_and_one(10)  # 45 pairs
        # residue 2, inside the ranges [4, 63] of three and [19, 90] of five
        assert brute_ksum(z.elements, 14, 3) is None and brute_ksum(z.elements, 41, 5) is None
        assert ksum(z, 14, 3, random.Random(0)).partitions_tried == 1
        res = ksum(z, 41, 5, random.Random(0))
        assert res.partitions_tried == 10  # one fixed index per tuple
        assert res.work > 45


class TestNormalization:
    """ksum runs on (A - c) / g with c = min A and g = gcd(A - c), and on
    (t - k*c) / g: a target of the wrong residue is refused exactly, and
    everything else depends on the normalized instance alone."""

    def test_foursum_on_ap_is_value_independent(self):
        # n = 256: C(255, 3) is past the cut cap, so colorings are folded
        picks = random.Random(256).sample(range(256), 4)
        assert brute_ksum(_lattice_and_one(30).elements, 3 * 30 + 2, 4) is None
        results = []
        for start, step in ((5, 1), (-(10**9), 10**6), ((1 << 75) + 1, 1 << 70)):
            z = ap_set(256, start, step)
            planted = foursum(z, sum(z.elements[i] for i in picks), random.Random(7))
            # an AP reaches every in-range sum of its residue, so the miss runs
            # on an image of _lattice_and_one: 1022 has residue 2, a full sweep
            off = IntegerSet.from_iterable(start + step * v for v in _lattice_and_one(256).elements)
            miss = foursum(off, 4 * start + 1022 * step, random.Random(7))
            assert planted.witness is not None and miss.witness is None
            assert not planted.exhaustive and not miss.exhaustive
            results.append([(r.witness, r.work, r.partitions_tried, r.meta) for r in (planted, miss)])
        assert results[0] == results[1] == results[2]
        assert results[0][0][1:] == (2114, 1, {"backends": {"hash": 2, "fft": 2}})
        assert results[0][1][1:] == (12710427, 2423, {"backends": {"hash": 4846, "fft": 4846}})

    def test_out_of_range_builds_nothing(self, monkeypatch):
        def no_fold(*args):
            raise AssertionError("a refused query folded")

        monkeypatch.setattr(ksum_module, "_fold_blocks", no_fold)
        monkeypatch.setattr(ksum_module, "_pair_ksum", no_fold)
        refused = ksum_module.KsumResult(None, 0, 0, True, {"backends": {}})
        # colorings past the cut cap; the second AP is compared past int64
        for start, step in ((7, 1), ((1 << 75) + 1, 1 << 70)):
            z = ap_set(1024, start, step)
            for k in (1, 2, 4, 6):
                least, most = sum(z.elements[:k]), sum(z.elements[-k:])
                # the right residue, one step past either end of the range
                for t in (least - step, most + step):
                    assert ksum(z, t, k, random.Random(0)) == refused

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


class TestFoldBuffers:
    """The pair kernel's per-thread scratch (`core._Scratch`), which keeps
    the folds' big temporaries mapped between queries, changes no answer, no
    work count and no backend."""

    @staticmethod
    def _queries(seed):
        """A seeded mix of planted queries on the coloring path: heavy
        uint32 pair folds (Sidon and random sets, n = 2048), smaller ones, an
        AP whose folds convolve, and k = 5 with three right levels: on a
        random set, where the head scan of the right top product hits, and
        on an AP, whose right top fold convolves."""
        rng = random.Random(seed)
        sets = [
            (sidon_set(2048), 4),
            (random_dense_set(rng, 300, 10**6), 4),
            (ap_set(1024, 3, 7), 4),
            (random_dense_set(rng, 2048, 10**7), 4),
            (random_dense_set(rng, 400, 10**6), 5),
            (sidon_set(700), 4),
            # 4-sums spread over 2^32, so few solutions: several colorings
            # reuse the scratch before one isolates a solution
            (random_dense_set(rng, 400, 1 << 30), 4),
            (ap_set(1024, 3, 7), 5),
        ]
        return [(z, sum(rng.sample(z.elements, k)), k, rng.randrange(2**30)) for z, k in sets]

    @staticmethod
    def _answers(queries):
        out = []
        for z, t, k, seed in queries:
            res = ksum(z, t, k, random.Random(seed))
            assert res.witness is not None and sum(z.elements[i] for i in res.witness.payload) == t
            out.append((res.witness, res.work, res.partitions_tried, res.exhaustive, res.meta))
        return out

    def test_back_to_back_queries_unchanged(self, monkeypatch):
        """One seeded sequence twice in one process (the first run fills the
        scratch, the second reuses it) and once with every view fresh."""
        monkeypatch.setattr(core, "_SCRATCH", core._Scratch())
        queries = self._queries(912)
        first = self._answers(queries)
        maps = core._SCRATCH.maps
        assert set(maps) == {"outer", "keep", "offsets"}
        kept = {key: id(buf) for key, buf in maps.items()}
        second = self._answers(queries)
        assert second == first
        # the second run needed no larger buffer
        assert {key: id(buf) for key, buf in maps.items()} == kept

        monkeypatch.setattr(core, "_KEEP_ITEMS", 0)
        assert self._answers(queries) == first
        assert sum(tried for _, _, tried, _, _ in first) > len(queries)
        assert {name for *_, meta in first for name in meta["backends"]} == {"hash", "fft"}

    def test_threads_keep_their_own_buffers(self):
        """Two threads on different inputs give the single-threaded answers."""
        inputs = [self._queries(920), self._queries(921)]
        want = [self._answers(q) for q in inputs]
        barrier = threading.Barrier(2)
        got, owners, errors = [None, None], [None, None], []

        def work(i):
            try:
                barrier.wait()
                got[i] = [self._answers(inputs[i]) for _ in range(3)]
                owners[i] = id(core._SCRATCH.maps)
            except Exception as exc:  # re-raised in the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert errors == []
        assert got == [[want[0]] * 3, [want[1]] * 3]
        assert len({owners[0], owners[1], id(core._SCRATCH.maps)}) == 3

    def test_growth_is_geometric_and_never_shrinks(self):
        scratch = core._Scratch()
        page, limit = core.mmap.PAGESIZE, core._KEEP_ITEMS

        def mapped(n):
            arr = scratch.view("x", np.int64, n)
            assert arr.shape == (n,) and arr.flags.writeable
            return len(scratch.maps["x"])

        first = mapped(10)
        assert first == page
        assert mapped(first // 8 + 1) == 2 * first  # one entry past the map doubles it
        assert mapped(3) == 2 * first
        big = mapped(100_000)  # past double: the need, rounded up to pages
        assert big == -(-800_000 // page) * page and mapped(5) == big
        mapped(limit // 2 + 1)
        assert mapped(limit) == limit * 8  # doubling stops at the limit

    def test_folds_past_the_limit_are_not_kept(self, monkeypatch):
        """A fold past _KEEP_ITEMS gives the bytes of a fold with every view
        fresh, and the kept buffers stay as they were, each at most the limit
        in bytes."""
        limit = core._KEEP_ITEMS
        monkeypatch.setattr(core, "_SCRATCH", core._Scratch())
        rng = random.Random(930)
        small = [np.array(sorted(rng.sample(range(10**7), 600)), dtype=np.int64) for _ in range(2)]
        sparse_sumset(*small)
        kept = {key: len(buf) for key, buf in core._SCRATCH.maps.items()}
        assert set(kept) == {"outer", "keep", "offsets"}
        big = [np.array(sorted(rng.sample(range(10**8), 800)), dtype=np.int64) for _ in range(2)]
        assert len(big[0]) * len(big[1]) > limit
        fold = sparse_sumset(*big)
        with monkeypatch.context() as fresh:
            fresh.setattr(core, "_KEEP_ITEMS", 0)
            want = sparse_sumset(*big)
        assert (fold.backend, fold.work) == (want.backend, want.work) == ("hash", 640_000)
        assert fold.sums.tobytes() == want.sums.tobytes()
        assert {key: len(buf) for key, buf in core._SCRATCH.maps.items()} == kept
        assert max(kept.values()) <= limit * np.dtype(np.int64).itemsize
        for buf in core._SCRATCH.maps.values():
            held = np.frombuffer(buf, np.uint8)
            assert not np.shares_memory(fold.sums, held) and not np.shares_memory(want.sums, held)
