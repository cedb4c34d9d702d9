"""Bounded-ILP solvers and the reduction chain down to subset sum."""

import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest

from gapsolve import ilp
from gapsolve.core import (
    DuplicateColumnError,
    EnumerationCapError,
    IntegerSet,
    InvariantError,
    Matrix,
    TableCapError,
    doubling_constant,
)
from gapsolve.ilp import (
    BilpInstance,
    HbilpInstance,
    bilp_feasibility_dp,
    bilp_nonnegative,
    bilp_to_hbilp,
    binary_image_supports,
    bounded_ilp_feasibility,
    hbilp_feasibility,
    hbilp_to_ss,
    ss_to_hbilp,
)
from gapsolve.oracles import (
    brute_bilp_feasibility,
    brute_bounded_feasibility,
    brute_hbilp_feasibility,
)
from gapsolve.subset_sum import subset_sum_doubling


def _rand_matrix(rng, m, n, lo=-4, hi=4):
    if n > (hi - lo + 1) ** m:
        raise ValueError(f"no {m}-row matrix with entries in [{lo}, {hi}] has {n} distinct columns")
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
        cols = {tuple(r[j] for r in rows) for j in range(n)}
        if len(cols) == n:
            return Matrix.from_rows(rows)


def test_rand_matrix_rejects_impossible_shapes():
    # one row with entries in [-4, 4] has only 9 distinct columns
    with pytest.raises(ValueError):
        _rand_matrix(random.Random(0), 1, 10)
    assert _rand_matrix(random.Random(0), 1, 9).num_cols == 9


class TestInstances:
    def test_validation(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            BilpInstance(a, (1,), ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            BilpInstance(a, (1, 2), ((0, 1),))
        with pytest.raises(ValueError):
            BilpInstance(a, (1, 2), ((0, 1), (3, 2)))
        with pytest.raises(DuplicateColumnError):
            BilpInstance.binary(Matrix.from_rows([[1, 1], [2, 2]]), (1, 2))
        with pytest.raises(ValueError):
            HbilpInstance(a, (1,), 5)

    def test_json_round_trip(self):
        inst = BilpInstance(
            Matrix.from_rows([[1, -2], [0, 3]]), (0, 3), ((-1, 2), (0, 1))
        )
        assert BilpInstance.from_json_dict(inst.to_json_dict()) == inst
        binary = BilpInstance.binary(Matrix.from_rows([[1, 0], [0, 1]]), (1, 1))
        d = binary.to_json_dict()
        assert "bounds" not in d
        assert BilpInstance.from_json_dict(d) == binary
        h = HbilpInstance(Matrix.from_rows([[1, -2]]), (3,), 4)
        assert HbilpInstance.from_json_dict(h.to_json_dict()) == h

    def test_dots(self):
        h = HbilpInstance(Matrix.from_rows([[1, -2], [0, 3]]), (1, 10), 0)
        assert h.dots() == (1, 28)


class TestSolvers:
    def test_identity_frozen(self):
        inst = BilpInstance.binary(Matrix.from_rows([[1, 0], [0, 1]]), (1, 1))
        w = bilp_feasibility_dp(inst)
        assert w is not None and w.payload == (1, 1)
        assert bilp_feasibility_dp(
            BilpInstance.binary(Matrix.from_rows([[1, 0], [0, 1]]), (2, 0))
        ) is None

    def test_binary_guard(self):
        inst = BilpInstance(Matrix.from_rows([[1, 2]]), (2,), ((0, 2), (0, 1)))
        with pytest.raises(ValueError):
            bilp_feasibility_dp(inst)
        w = bounded_ilp_feasibility(inst)
        assert w is not None and w.kind == "multiplicity-vector"

    def test_table_cap(self, monkeypatch):
        # the first window is 1,111 keys wide, so the kept table is not
        # filtered by residue and the cap sees the same table as before
        monkeypatch.setattr(ilp, "_residue_sets", None)
        a = Matrix.from_rows([[1, 10, 100, 1000]])
        inst = BilpInstance.binary(a, (111,))
        with pytest.raises(TableCapError, match=r"hit 4 entries at variable 1 \(cap 3\)"):
            bilp_feasibility_dp(inst, table_cap=3)
        # only the sum of every column reaches 1111, so the kept table is one key
        every = BilpInstance.binary(a, (1111,))
        assert bilp_feasibility_dp(every, table_cap=3).payload == (1, 1, 1, 1)

    def test_no_moving_variable(self):
        """Programs in which no variable can move build no window: a program
        without columns solves b = 0 with the empty vector and nothing else,
        and fixed variables are checked against b as they stand."""
        empty = Matrix.from_rows([[]])
        assert bilp_feasibility_dp(BilpInstance.binary(empty, (0,))).payload == ()
        assert bilp_feasibility_dp(BilpInstance.binary(empty, (1,))) is None
        a = Matrix.from_rows([[1, 2], [3, -1]])
        fixed = ((1, 1), (2, 2))
        assert bounded_ilp_feasibility(BilpInstance(a, (5, 1), fixed)).payload == (1, 2)
        assert bounded_ilp_feasibility(BilpInstance(a, (5, 2), fixed)) is None

    def test_values_past_int64(self):
        """Row sums past 2^63 are solved exactly, and agree with the oracle."""
        big = 1 << 62
        inst = BilpInstance.binary(Matrix.from_rows([[big, big + 1]]), (big + 1,))
        assert bilp_feasibility_dp(inst).payload == (0, 1)
        # all four columns sum to 2^64 + 6, which int64 would read as 6
        row = [big + j for j in range(4)]
        assert bilp_feasibility_dp(BilpInstance.binary(Matrix.from_rows([row]), (6,))) is None
        rng = random.Random(104)
        seen = set()
        for _ in range(30):
            m, n = rng.randint(1, 2), rng.randint(1, 6)
            a = _rand_matrix(rng, m, n)
            a = Matrix.from_rows([[v * big + rng.randint(-3, 3) for v in r] for r in a.rows])
            x = [rng.randint(0, 1) for _ in range(n)]
            for b in (a.matvec(x), tuple(v + 1 for v in a.matvec(x))):
                got = bilp_feasibility_dp(BilpInstance.binary(a, b))
                want = brute_bilp_feasibility(a, b)
                assert (got is None) == (want is None)
                if got is not None:
                    assert a.matvec(got.payload) == b
                seen.add(got is None)
        assert seen == {True, False}

    def test_row_gcd(self, monkeypatch):
        """Each row is divided by the gcd of its entries: a b_i of the wrong
        residue is refused before any table, and scaled rows keep int64 keys
        and their witness."""
        widths = _key_widths(monkeypatch)
        a = Matrix.from_rows([[1, 2, 3, 5], [6, 10, 4, 8]])
        # 13 is within the second row's extremes [0, 28], but odd
        assert bilp_feasibility_dp(BilpInstance.binary(a, (6, 13))) is None
        bounded = BilpInstance(a, (6, 13), ((0, 2),) * 4)
        assert bounded_ilp_feasibility(bounded) is None
        assert widths == []
        want = bilp_feasibility_dp(BilpInstance.binary(a, (6, 14)))
        assert want.payload == (1, 0, 0, 1)
        big = 1 << 70
        scaled = Matrix.from_rows([[big * v for v in row] for row in a.rows])
        assert bilp_feasibility_dp(BilpInstance.binary(scaled, (6 * big, 14 * big))) == want
        assert bilp_feasibility_dp(BilpInstance.binary(scaled, (6 * big, 14 * big + 2))) is None
        assert widths == [np.int64, np.int64]

    def test_vs_brute_binary(self):
        rng = random.Random(100)
        for _ in range(150):
            m, n = rng.randint(1, 3), rng.randint(1, 6)
            a = _rand_matrix(rng, m, n)
            b = tuple(rng.randint(-6, 6) for _ in range(m))
            inst = BilpInstance.binary(a, b)
            got = bilp_feasibility_dp(inst)
            want = brute_bilp_feasibility(a, b)
            assert (got is None) == (want is None)
            if got is not None:
                assert a.matvec(got.payload) == b

    def test_vs_brute_bounded(self):
        rng = random.Random(101)
        for _ in range(120):
            m, n = rng.randint(1, 2), rng.randint(1, 4)
            a = _rand_matrix(rng, m, n, -3, 3)
            bounds = []
            for _ in range(n):
                lo = rng.randint(-2, 1)
                bounds.append((lo, lo + rng.randint(0, 3)))
            b = tuple(rng.randint(-8, 8) for _ in range(m))
            inst = BilpInstance(a, b, tuple(bounds))
            got = bounded_ilp_feasibility(inst)
            want = brute_bounded_feasibility(a, b, tuple(bounds))
            assert (got is None) == (want is None)

    def test_vs_brute_hbilp(self):
        rng = random.Random(102)
        for _ in range(150):
            m, n = rng.randint(1, 3), rng.randint(1, 6)
            a = _rand_matrix(rng, m, n)
            s = tuple(rng.randint(-5, 5) for _ in range(m))
            t = rng.randint(-20, 20)
            inst = HbilpInstance(a, s, t)
            got = hbilp_feasibility(inst)
            want = brute_hbilp_feasibility(a, s, t)
            assert (got is None) == (want is None)
            if got is not None:
                dots = inst.dots()
                assert sum(d * v for d, v in zip(dots, got.payload)) == t


def _reachable(a, bounds):
    """Every vector of the box of A x over `bounds` that the solver reaches,
    each re-checked against the witness it returns."""
    box = [
        range(
            sum(min(v * lo, v * hi) for v, (lo, hi) in zip(row, bounds)),
            sum(max(v * lo, v * hi) for v, (lo, hi) in zip(row, bounds)) + 1,
        )
        for row in a.rows
    ]
    out = set()
    for vec in itertools.product(*box):
        w = bounded_ilp_feasibility(BilpInstance(a, vec, bounds), table_cap=1 << 20)
        if w is not None:
            x = w.payload
            assert all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
            assert a.matvec(x) == vec
            out.add(a.matvec(x))
    return out


class TestReachableTable:
    def test_small_exhaustive(self):
        a = Matrix.from_rows([[1, -2], [0, 3]])
        bounds = ((-1, 1), (0, 2))
        want = set()
        for x in itertools.product(range(-1, 2), range(0, 3)):
            want.add(a.matvec(x))
        assert _reachable(a, bounds) == want

    def test_random_agreement(self):
        rng = random.Random(103)
        for _ in range(40):
            m, n = rng.randint(1, 2), rng.randint(1, 4)
            a = _rand_matrix(rng, m, n, -3, 3)
            bounds = tuple((0, rng.randint(0, 2)) for _ in range(n))
            want = {
                a.matvec(x)
                for x in itertools.product(*[range(lo, hi + 1) for lo, hi in bounds])
            }
            assert _reachable(a, bounds) == want


def _outcome(solve, inst, cap):
    try:
        w = solve(inst, table_cap=cap)
    except TableCapError as e:
        return "cap", str(e)
    if w is None:
        return None
    assert all(type(v) is int for v in w.payload)
    return w.kind, w.payload


_ROOT = None


def _dict_engine(keys, deltas, spans, target, table_cap, window=True, residues=False):
    """Reference DP on Python ints, with the signature of
    `ilp._array_engine` plus `window` and `residues`; with the window on,
    the engine must match it witness for witness, with `residues` on where
    the engine's first window is wider than `ilp.DEFAULT_TABLE_CAP`.

    `table` lists the live keys in insertion order, and `back` maps every
    key ever written to a back-pointer (prev_key, var, value) chain ending
    at _ROOT. Values are scanned in ascending order and, for each value,
    the keys of the table before the variable in insertion order; the first
    writer of a key keeps it, so a new key keeps the smallest value that
    reaches it. After variable j only the keys K with target - K in the
    range of what the later variables can add stay live; window=False
    keeps every reachable key instead. residues=True also drops the keys K
    for which no choice of the later variables makes K plus their sum
    congruent to the target modulo `ilp._RESIDUE_MODULUS`.
    """
    mod = ilp._RESIDUE_MODULUS
    reach = [{target % mod}]  # key residues that reach the target, last variable first
    for d, s in zip(deltas[:0:-1], spans[:0:-1]) if residues else ():
        reach.append({(r - v * d) % mod for r in reach[-1] for v in range(s + 1)})
    reach.reverse()
    table = [int(keys[0])]
    back = {table[0]: _ROOT}
    for j, (delta, span) in enumerate(zip(deltas, spans)):
        if span == 0 or delta == 0:
            continue
        later = [d * s for d, s in zip(deltas[j + 1 :], spans[j + 1 :])]
        low, high = sum(min(0, v) for v in later), sum(max(0, v) for v in later)

        def live(key):
            if residues and key % mod not in reach[j]:
                return False
            return not window or low <= target - key <= high

        additions = []
        for v in range(1, span + 1):
            for key in table:
                nk = key + v * delta
                if live(nk) and nk not in back:
                    back[nk] = (key, j, v)
                    additions.append(nk)
        table = [key for key in table if live(key)] + additions
        if len(table) > table_cap:
            raise TableCapError(
                f"reachable table hit {len(table)} entries at variable {j} (cap {table_cap})"
            )
    if target not in table:
        return None
    x = [0] * len(spans)
    cur = back[target]
    while cur is not _ROOT:
        prev, j, v = cur
        x[j] = v
        cur = back[prev]
    return x


def _random_programs(rng, count):
    """(solver, instance, table cap) for `count` draws of binary, bounded
    and mixed programs, some with a zero column and half with a planted
    right-hand side; caps are either loose or between 1 and 60."""
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 8)
        a = _rand_matrix(rng, m, n)
        if rng.random() < 0.3:
            zero = rng.randrange(n)
            rows = [[0 if j == zero else v for j, v in enumerate(r)] for r in a.rows]
            if len(set(zip(*rows))) < n:
                continue
            a = Matrix.from_rows(rows)
        kind = rng.choice(("binary", "bounded", "mixed"))
        if kind == "binary":
            bounds = ((0, 1),) * n
        else:
            bounds = []
            for _ in range(n):
                lo = rng.randint(-3, 1)
                top = 4 if kind == "mixed" else 3
                span = rng.randint(0 if kind == "mixed" else 1, top)
                bounds.append((lo, lo + span))
            bounds = tuple(bounds)
        if rng.random() < 0.5:
            x = [rng.randint(lo, hi) for lo, hi in bounds]
            b = a.matvec(x)
        else:
            b = tuple(rng.randint(-10, 10) for _ in range(m))
        cap = rng.choice((1 << 20, rng.randint(1, 60)))
        inst = BilpInstance(a, tuple(b), bounds)
        yield (bilp_feasibility_dp if inst.is_binary else bounded_ilp_feasibility), inst, cap


def _key_widths(mp):
    """Record the key dtype of every DP the solvers run under `mp`."""
    widths = []
    engine = ilp._array_engine

    def spy(keys, *args):
        widths.append(keys.dtype)
        return engine(keys, *args)

    mp.setattr(ilp, "_array_engine", spy)
    return widths


def _duplicate_checks(mp, bitmap):
    """Record, for every DP the solvers run under `mp` that moves a key,
    whether its duplicate check is the bitmap (True) or the binary search
    (False). The engine takes the bitmap when its first window is at most
    `ilp.DEFAULT_TABLE_CAP` keys wide; bitmap=False sets that limit to 0, so
    every DP keeps the binary search."""
    picks = []

    class Limit(int):
        def __gt__(self, width):
            picks.append(int(self) > width)
            return picks[-1]

    mp.setattr(ilp, "DEFAULT_TABLE_CAP", Limit(ilp.DEFAULT_TABLE_CAP if bitmap else 0))
    return picks


def _reference(mp, solve, inst, cap, residues=False):
    """The outcome of `solve` with the dict reference as its engine, and
    how many times the engine ran."""
    ran = []
    engine = functools.partial(_dict_engine, residues=residues)
    mp.setattr(ilp, "_array_engine", lambda *args: ran.append(1) or engine(*args))
    return _outcome(solve, inst, cap), len(ran)


class TestEngineEquivalence:
    """The array engine, with int64 keys and with object keys, against the
    dict reference: same witnesses, same Nones, same cap failures. Int64
    programs run once with the bitmap duplicate check and once with the
    binary search forced. A DP that binary-searches (its first window is
    wider than `ilp.DEFAULT_TABLE_CAP`) also drops keys by residue, so its
    table is smaller and its cap failures are matched against the
    reference with `residues` on."""

    def setup_method(self):
        self.checks = []  # the duplicate check of every DP that moved a key

    def _compare(self, monkeypatch, solve, inst, cap):
        """A target outside the row extremes is refused before any table is
        built, so each solve runs the engine once or not at all."""
        want = {}
        with monkeypatch.context() as mp:
            want[False], ran = _reference(mp, solve, inst, cap)
        for width, bitmap in ((np.int64, True), (np.int64, False), (object, True)):
            with monkeypatch.context() as mp:
                if width is object:
                    mp.setattr(ilp, "_int64_safe", lambda lo, hi: False)
                widths = _key_widths(mp)
                picks = _duplicate_checks(mp, bitmap)
                got = _outcome(solve, inst, cap)
            assert widths == [width] * ran and ran <= 1
            assert len(picks) <= ran and (bitmap or not any(picks))
            self.checks += picks
            wide = picks == [False]
            if wide not in want:
                with monkeypatch.context() as mp:
                    want[wide] = _reference(mp, solve, inst, cap, residues=True)[0]
            assert got == want[wide]
        return want[False]

    def test_random_programs(self, monkeypatch):
        seen = set()
        for solve, inst, cap in _random_programs(random.Random(105), 1500):
            got = self._compare(monkeypatch, solve, inst, cap)
            seen.add("none" if got is None else got[0])
        assert seen == {"none", "cap", "binary-vector", "multiplicity-vector"}
        assert True in self.checks and False in self.checks

    def test_residue_filter_changes_no_witness(self, monkeypatch):
        """Dropping keys whose residue cannot reach the target keeps every
        key on a path to it, so with a loose cap and the wide branch forced
        (`ilp.DEFAULT_TABLE_CAP` = 0) every DP that moves a key filters by
        residue and still gives the witnesses and Nones of the plain
        reference, on int64 and on object keys. The programs have spans up
        to 4, negative entries and zero columns."""
        cap, programs, filtered = 1 << 20, 0, []
        for solve, inst, _ in _random_programs(random.Random(108), 3200):
            programs += 1
            with monkeypatch.context() as mp:
                want, ran = _reference(mp, solve, inst, cap)
            for width in (np.int64, object):
                with monkeypatch.context() as mp:
                    if width is object:
                        mp.setattr(ilp, "_int64_safe", lambda lo, hi: False)
                    widths = _key_widths(mp)
                    picks = _duplicate_checks(mp, False)
                    sets = ilp._residue_sets
                    mp.setattr(ilp, "_residue_sets", lambda *a: filtered.append(1) or sets(*a))
                    assert _outcome(solve, inst, cap) == want
                assert widths == [width] * ran and picks in ([], [False])
        assert programs >= 3000 and len(filtered) > 4000

    def test_window_changes_no_witness(self, monkeypatch):
        """Keeping only the keys that can still reach the target changes no
        answer: every solve matches the reference that keeps every reachable
        key, wherever that full table fits the cap."""
        full = functools.partial(_dict_engine, window=False)
        compared = 0
        for solve, inst, cap in _random_programs(random.Random(105), 1500):
            with monkeypatch.context() as mp:
                mp.setattr(ilp, "_array_engine", full)
                want = _outcome(solve, inst, cap)
            if want is not None and want[0] == "cap":
                continue
            assert _outcome(solve, inst, cap) == want
            compared += want is not None
        assert compared > 500

    def test_random_hbilp(self, monkeypatch):
        rng = random.Random(106)
        for _ in range(400):
            m, n = rng.randint(1, 3), rng.randint(1, 8)
            a = _rand_matrix(rng, m, n)
            s = tuple(rng.randint(-40, 40) for _ in range(m))
            inst = HbilpInstance(a, s, rng.randint(-150, 150))
            self._compare(monkeypatch, hbilp_feasibility, inst, 1 << 20)
        assert True in self.checks and False in self.checks

    def test_random_programs_past_int64(self, monkeypatch):
        """Binary and bounded programs whose key range is past 2^62, so the
        engine runs on object keys, with entries scaled by 2^40 to 2^100 and
        moved by -3..3, so that no common factor of a row divides the scale
        out again. The draws are bounded (about 2,900 are needed), so a
        change that keeps these programs on int64 keys fails rather than
        spins."""
        rng = random.Random(107)
        seen = set()
        checked = 0
        for _ in range(10_000):
            if checked == 1000:
                break
            m, n = rng.randint(1, 3), rng.randint(1, 8)
            small = _rand_matrix(rng, m, n)
            scales = [1 << rng.randint(40, 100) for _ in range(m)]
            a = Matrix.from_rows(
                [[v * sc + rng.randint(-3, 3) for v in r] for r, sc in zip(small.rows, scales)]
            )
            if rng.random() < 0.5:
                bounds = ((0, 1),) * n
            else:
                bounds = []
                for _ in range(n):
                    lo = rng.randint(-3, 1)
                    bounds.append((lo, lo + rng.randint(0, 3)))
                bounds = tuple(bounds)
            x = [rng.randint(lo - 1, hi + 1) for lo, hi in bounds]
            b = list(a.matvec(x))
            if rng.random() < 0.25:
                b[rng.randrange(m)] += rng.choice((-1, 1))
            cap = rng.choice((1 << 20, rng.randint(1, 60)))
            inst = BilpInstance(a, tuple(b), bounds)
            solve = bilp_feasibility_dp if inst.is_binary else bounded_ilp_feasibility
            with monkeypatch.context() as mp:
                widths = _key_widths(mp)
                picks = _duplicate_checks(mp, True)
                got = _outcome(solve, inst, cap)
            if widths != [object]:
                continue  # key range within 2^62
            with monkeypatch.context() as mp:
                assert got == _reference(mp, solve, inst, cap, residues=picks == [False])[0]
            checked += 1
            self.checks += picks
            seen.add("none" if got is None else got[0])
        assert checked == 1000
        assert seen == {"none", "cap", "binary-vector", "multiplicity-vector"}
        assert True in self.checks and False in self.checks

    def test_fallback_above_int64(self, monkeypatch):
        """A key range of 2^62 + 4 runs on object keys, one of 2^62 on int64
        keys."""
        big = 1 << 62
        above = BilpInstance.binary(Matrix.from_rows([[big, 3]]), (big + 3,))
        at = BilpInstance.binary(Matrix.from_rows([[big - 4, 3]]), (big - 4,))
        widths = _key_widths(monkeypatch)
        assert bilp_feasibility_dp(above).payload == (1, 1)
        assert bilp_feasibility_dp(at).payload == (1, 0)
        assert widths == [object, np.int64]


_WIDE = (
    273281, 103952990, 829716364, 933396070, 1658886160, 1659159491, 1762839150, 2488329240,
    2488602522, 2592282230, 3317772320, 3318045602, 4147215400, 4147488682, 4872978095,
    4976658480, 4976931085, 5702421175, 5806101560, 5806374165, 6531864255, 6635544640,
    7361307335, 7464987720,
)
_WIDE_ORIGIN = (0, None, 1, None, None, 2, None, None, 3, None, None, 4, None, 5) + (None,) * 10


class TestWitnessRule:
    """A new key keeps the smallest value that reaches it; binary programs
    have one source per new key, so their witnesses follow from the step
    at which each key first appears."""

    def test_bounded_keeps_smallest_value(self):
        # 4 = 0 + 2 * 2 = 2 + 1 * 2: the second writes 4 with the smaller
        # value of x_1, though its source 2 entered the table after 0
        inst = BilpInstance(Matrix.from_rows([[1, 2]]), (4,), ((0, 2), (0, 2)))
        assert bounded_ilp_feasibility(inst).payload == (2, 1)
        shifted = BilpInstance(Matrix.from_rows([[1, 2]]), (1,), ((-1, 1), (-1, 1)))
        assert bounded_ilp_feasibility(shifted).payload == (1, 0)

    def test_subset_sum_scaled_ap(self):
        z = IntegerSet(tuple(37 * (i + 1) for i in range(96)))
        t = sum(random.Random(96).sample(z.elements, 32))
        assert t == 54945
        assert subset_sum_doubling(z, t).payload == tuple(range(54))

    def test_bilp_to_ss_chain(self):
        a = Matrix.from_rows([[2, -1, 0], [-2, 1, 1], [1, 2, -2]])
        b = a.matvec((1, 0, 1))
        nn = bilp_nonnegative(a, b)
        agg = bilp_to_hbilp(nn.matrix, nn.rhs)
        ss = hbilp_to_ss(agg.instance)
        assert len(ss.elements) == 8
        w = subset_sum_doubling(ss.elements, ss.target)
        assert w.payload == (0, 1, 2, 3, 6)
        assert nn.decode(agg.decode(ss.decode(w.payload).payload)) == (1, 0, 1)

    def test_bilp_to_ss_chain_small_cap(self):
        """Three sparse 24-element subset sums over a first window of about
        9 * 10^10 keys, too wide for the bitmap: the set and targets that an
        earlier digit encoding built for the chain of a = [[-1, 2, -1],
        [0, 0, 2]] with b = (-2, 2), (1, 0) and (-2, 3), frozen here because
        the chain no longer builds sets this sparse. Without the residue
        filter their kept table reaches 1,416 keys at variable 11. Keys
        whose residue mod 2^12 the later elements cannot carry to the
        target are dropped, so a cap of 1,000 holds and the witnesses are
        the ones the unfiltered table gives. `_WIDE_ORIGIN` maps each
        element to the variable of `bilp_nonnegative`'s program it stood
        for, so the witnesses still decode through the chain's other two
        stages."""
        a = Matrix.from_rows([[-1, 2, -1], [0, 0, 2]])
        z = IntegerSet(_WIDE)
        for b, target, want in (
            ((-2, 2), 44791564029, (1, 0, 1)),
            ((1, 0), 44791563982, (1, 1, 0)),
            ((-2, 3), 44791564054, None),
        ):
            nn = bilp_nonnegative(a, b)
            agg = bilp_to_hbilp(nn.matrix, nn.rhs)
            w = subset_sum_doubling(z, target, table_cap=1000)
            got = None
            if w is not None:
                y = [0] * nn.matrix.num_cols
                for i in w.payload:
                    if _WIDE_ORIGIN[i] is not None:
                        y[_WIDE_ORIGIN[i]] = 1
                got = nn.decode(agg.decode(y))
            assert got == want
            assert w == subset_sum_doubling(z, target)

    def test_hbilp(self):
        g = random.Random(16)
        rows = [[g.randrange(0, 4) for _ in range(16)] for _ in range(4)]
        dots = HbilpInstance(Matrix.from_rows(rows), (3, 7, 2, 5), 0).dots()
        t = sum(d for d in dots if g.randrange(2))
        assert t == 141
        w = hbilp_feasibility(HbilpInstance(Matrix.from_rows(rows), (3, 7, 2, 5), t))
        assert w.payload == (1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)


class TestRechecksFire:
    """A corrupted engine answer is caught by the re-check before it leaves."""

    @pytest.mark.parametrize(
        "solve,inst",
        [
            (bilp_feasibility_dp, BilpInstance.binary(Matrix.from_rows([[1, 2, 4]]), (3,))),
            (
                bounded_ilp_feasibility,
                BilpInstance(Matrix.from_rows([[1, 2, 4]]), (3,), ((0, 2),) * 3),
            ),
            (hbilp_feasibility, HbilpInstance(Matrix.from_rows([[1, 2, 4]]), (1,), 3)),
        ],
        ids=["bilp", "bounded", "hbilp"],
    )
    def test_certified(self, solve, inst, monkeypatch):
        engine = ilp._solve_bounded

        def corrupted(*args):
            x = engine(*args)
            return [x[0] + 1] + x[1:]

        assert solve(inst) is not None
        monkeypatch.setattr(ilp, "_solve_bounded", corrupted)
        with pytest.raises(InvariantError, match="witness failed re-evaluation"):
            solve(inst)

    def test_subset_decode_checks_the_original(self):
        res = hbilp_to_ss(HbilpInstance(Matrix.from_rows([[1, 2]]), (1,), 2))
        w = subset_sum_doubling(res.elements, res.target)
        assert res.decode(w.payload).payload == (0, 1)
        # an origin map that drops every variable decodes to x = 0, which misses t = 2
        lost = dataclasses.replace(res, origin=(None,) * len(res.origin))
        with pytest.raises(InvariantError, match="decoded assignment failed re-evaluation"):
            lost.decode(w.payload)


class TestBilpNonnegative:
    def test_frozen(self):
        a = Matrix.from_rows([[1, -2], [0, 3]])
        res = bilp_nonnegative(a, (0, 3))
        assert res.matrix.rows == ((4, 1, 3, 3), (3, 6, 3, 3), (1, 1, 1, 1))
        assert res.rhs == (6, 9, 2)
        assert res.support_target == 2

    def test_preserves_feasibility(self):
        rng = random.Random(104)
        for _ in range(100):
            m, n = rng.randint(1, 3), rng.randint(1, 5)
            a = _rand_matrix(rng, m, n)
            b = tuple(rng.randint(-6, 6) for _ in range(m))
            res = bilp_nonnegative(a, b)
            orig = brute_bilp_feasibility(a, b)
            lifted = brute_bilp_feasibility(res.matrix, res.rhs)
            assert (orig is None) == (lifted is None)
            if lifted is not None:
                x = res.decode(lifted)
                assert a.matvec(x) == b


class TestBilpToHbilp:
    def test_frozen_identity(self):
        a = Matrix.from_rows([[1, 0], [0, 1]])
        res = bilp_to_hbilp(a, (1, 1))
        assert res.radix == 3
        assert res.instance.s == (1, 3)
        assert res.instance.t == 4
        assert not res.guard_tripped

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bilp_to_hbilp(Matrix.from_rows([[1, -1]]), (0,))

    def test_guard(self):
        a = Matrix.from_rows([[1, 2]])
        res = bilp_to_hbilp(a, (100,))
        assert res.guard_tripped
        assert hbilp_feasibility(res.instance) is None

    def test_equivalence(self):
        rng = random.Random(105)
        for _ in range(120):
            m, n = rng.randint(1, 3), rng.randint(1, 5)
            a = _rand_matrix(rng, m, n, 0, 4)
            b = tuple(rng.randint(0, 8) for _ in range(m))
            res = bilp_to_hbilp(a, b)
            orig = brute_bilp_feasibility(a, b)
            agg = hbilp_feasibility(res.instance)
            assert (orig is None) == (agg is None)
            if agg is not None:
                assert a.matvec(res.decode(agg.payload)) == b

    def test_decode_rejects_non_solutions(self):
        # columns (1, 0), (0, 1), (1, 1): x = (1, 0, 1) and (0, 1, 1) solve b = (1, 2)
        res = bilp_to_hbilp(Matrix.from_rows([[1, 0, 1], [0, 1, 1]]), (1, 2))
        assert res.decode((0, 1, 1)) == (0, 1, 1)
        for y in ((0, 1, 1, 0), (0, 1), (1, 1, 1), (0, 1, 2)):
            with pytest.raises(ValueError, match="does not solve the aggregated program"):
                res.decode(y)


class TestHbilpToSs:
    def test_trivial_zero_columns(self):
        inst = HbilpInstance(Matrix.from_rows([[0, 0]]), (5,), 0)
        res = hbilp_to_ss(inst)
        assert res.elements.elements == (1,)
        assert res.target == 0
        assert res.meta == {"blocks": 0, "m": 1, "r": 0, "slack": 0}
        w = res.decode(())
        assert w.payload == (0, 0)
        bad = hbilp_to_ss(HbilpInstance(Matrix.from_rows([[0]]), (5,), 3))
        assert bad.target == -1

    def test_decode_rejects_non_solutions(self):
        res = hbilp_to_ss(HbilpInstance(Matrix.from_rows([[1, 2]]), (1,), 2))
        n = len(res.elements)
        for indices, msg in (
            ((0, n), f"index {n} out of range for {n} elements"),
            ((-1,), "indices must be nonnegative"),
            ((1, 1), "indices must be distinct"),
            ((0, n - 1), "sum misses the target"),
        ):
            with pytest.raises(ValueError, match=msg):
                res.decode(indices)

    def test_elements_distinct_positive(self):
        rng = random.Random(107)
        for _ in range(80):
            m, n = rng.randint(1, 2), rng.randint(1, 5)
            a = _rand_matrix(rng, m, n)
            s = tuple(rng.randint(-4, 4) for _ in range(m))
            t = rng.randint(-15, 15)
            els = hbilp_to_ss(HbilpInstance(a, s, t)).elements.elements
            assert len(set(els)) == len(els)
            assert all(v > 0 for v in els)

    def test_round_trip_vs_brute(self):
        from gapsolve.oracles import brute_subset_sum

        rng = random.Random(108)
        cases = []
        for _ in range(60):
            m, n = rng.randint(1, 2), rng.randint(1, 4)
            a = _rand_matrix(rng, m, n)
            s = tuple(rng.randint(-3, 3) for _ in range(m))
            cases.append((a, s, rng.randint(-10, 10)))
        # all nonzero entries -1: every moving variable is complemented
        for rows in ([[-1]], [[-1, -1]], [[-1, 0], [0, -1]]):
            a = Matrix.from_rows(rows)
            for t in (-2, -1, 0, 1):
                cases.append((a, (1,) * a.num_rows, t))
        # signed steps once mapped this infeasible program to a feasible one
        cases.append((Matrix.from_rows([[1, -1]]), (-1,), 6))
        # a target far outside every subset sum
        cases.append((Matrix.from_rows([[1, 1]]), (1,), 10**6))
        # the column (1, 1) has nonzero entries and a zero dot, so it is free
        for t in (-1, 0, 2, 3):
            cases.append((Matrix.from_rows([[1, 1, 2], [1, 0, 1]]), (1, -1), t))
        rng = random.Random(106)
        for _ in range(400):
            m, n = rng.randint(1, 2), rng.randint(1, 5)
            a = _rand_matrix(rng, m, n)
            cases.append((a, tuple(rng.randint(-4, 4) for _ in range(m)), rng.randint(-15, 15)))
        feasible = 0
        for a, s, t in cases:
            inst = HbilpInstance(a, s, t)
            res = hbilp_to_ss(inst)
            want = brute_hbilp_feasibility(a, s, t)
            got = brute_subset_sum(res.elements.elements, res.target)
            assert (got is None) == (want is None), (a.rows, s, t)
            if got is not None:
                assert inst.solved_by(res.decode(got).payload)
                feasible += 1
        assert 50 < feasible < len(cases) - 50

    def test_chain_doubling_does_not_grow_with_n(self):
        """The bilp -> hbilp -> ss chain of a one-row program with entries
        in [-2, 2] builds at most K = 5 blocks and the slack, so the
        doubling constant of its set stays below K + 2 = 7 as n grows (the
        digit encoding it replaced reached 14.2 at n = 64)."""
        rng = random.Random(17)
        for n in (64, 256, 1024):
            a = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]])
            b = a.matvec([rng.randint(0, 1) for _ in range(n)])
            nn = bilp_nonnegative(a, b)
            ss = hbilp_to_ss(bilp_to_hbilp(nn.matrix, nn.rhs).instance)
            assert doubling_constant(ss.elements) < 7, n
            assert ss.meta["blocks"] <= 5


class TestSsToHbilp:
    def test_identity_per_column(self):
        rng = random.Random(109)
        z = IntegerSet((3, 5, 9, 17))
        res = ss_to_hbilp(z, 20, rng)
        dots = res.instance.dots()
        assert dots == z.elements

    def test_decode(self):
        rng = random.Random(110)
        z = IntegerSet((2, 7, 11))
        res = ss_to_hbilp(z, 13, rng)
        w = hbilp_feasibility(res.instance)
        assert w is not None
        sol = res.decode(w.payload)
        assert sol.kind == "subset-of-indices"
        assert sum(z.elements[i] for i in sol.payload) == 13

    def test_decode_rejects_a_miss(self):
        res = ss_to_hbilp(IntegerSet((2, 7, 11)), 13, random.Random(110))
        with pytest.raises(ValueError, match="sum misses the target"):
            res.decode((1, 1, 0))
        with pytest.raises(ValueError, match="assignment has 2 entries for 3 elements"):
            res.decode((1, 1))
        # entries outside {0, 1} whose nonzero positions would pick a solution
        pair = ss_to_hbilp(IntegerSet((1, 2)), 3, random.Random(0))
        triple = ss_to_hbilp(IntegerSet((1, 2, 3)), 3, random.Random(0))
        for enc, y in ((pair, (2, 1)), (pair, (1, -1)), (triple, (0, 0, 5))):
            with pytest.raises(ValueError, match="assignment entries must be 0 or 1"):
                enc.decode(y)

    def test_equivalence(self):
        from gapsolve.oracles import brute_subset_sum

        rng = random.Random(111)
        for _ in range(40):
            n = rng.randint(1, 7)
            z = IntegerSet.from_iterable(rng.sample(range(1, 60), n))
            t = rng.randint(0, 80)
            res = ss_to_hbilp(z, t, rng)
            got = hbilp_feasibility(res.instance)
            want = brute_subset_sum(z.elements, t)
            assert (got is None) == (want is None), (z.elements, t)


class TestSmallSupport:
    def test_frozen(self):
        a = Matrix.from_rows([[1, 2]])
        assert binary_image_supports(a) == ((), (0,), (0, 1), (1,))

    def test_validation(self):
        with pytest.raises(ValueError):
            binary_image_supports(Matrix.from_rows([[1, -1]]))
        with pytest.raises(ValueError):
            binary_image_supports(Matrix.from_rows([[1, 0]]))

    def test_binary_image_subset(self):
        # each returned sigma is the support of the lexicographically least
        # solution for A * 1_sigma, found by brute search in lex order
        rng = random.Random(112)
        for _ in range(40):
            m, n = rng.randint(1, 2), rng.randint(1, 4)
            a = _rand_matrix(rng, m, n, 0, 3)
            try:
                supports = binary_image_supports(a)
            except ValueError:
                continue
            bound = n * a.infinity_norm()
            for sigma in supports:
                b = a.matvec(tuple(int(j in sigma) for j in range(n)))
                least = next(
                    x for x in itertools.product(range(bound + 1), repeat=n) if a.matvec(x) == b
                )
                assert tuple(j for j, v in enumerate(least) if v) == sigma, (a.rows, sigma)

    def test_lexmin_supports_cover_feasible(self):
        # every feasible target in the box must have a solution supported
        # on one of the candidates
        a = Matrix.from_rows([[1, 2, 1], [0, 1, 2]])
        cands = set(binary_image_supports(a))
        n, delta = a.num_cols, a.infinity_norm()
        for b in itertools.product(range(n * delta + 1), repeat=a.num_rows):
            sols = [
                x
                for x in itertools.product(range(0, 7), repeat=n)
                if a.matvec(x) == tuple(b)
            ]
            if not sols:
                continue
            ok = False
            for x in sols:
                supp = tuple(j for j, v in enumerate(x) if v)
                if supp in cands:
                    ok = True
                    break
            assert ok, b

    def test_binary_targets_give_every_box_support(self):
        # the supports of the least solutions over the whole box, brute force
        rng = random.Random(116)
        for _ in range(60):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            nonzero = [c for c in itertools.product(range(4), repeat=m) if any(c)]
            cols = [rng.choice(nonzero) for _ in range(n)]
            a = Matrix.from_rows([[col[i] for col in cols] for i in range(m)])
            table = _brute_lexmin_table(cols, m, n * a.infinity_norm())
            want = {tuple(j for j, v in enumerate(x) if v) for x in table.values()}
            assert binary_image_supports(a) == tuple(sorted(want)), a.rows

    def test_seventeen_columns(self):
        # 2^17 binary targets collapse onto the 290 states of the one-row box
        a = Matrix.from_rows([list(range(1, 18))])
        box = ilp._BoxReachability(a.columns(), 17 * 17)
        want = set()
        for b in range(17 * 17 + 1):
            x = box.lexmin((b,))
            if x is not None:
                want.add(tuple(j for j, v in enumerate(x) if v))
        got = binary_image_supports(a)
        assert got == tuple(sorted(want))
        assert len(got) == 26

    def test_large_box_matches_lexmin(self):
        # 231,361 states: the supports equal those of the least solutions
        # the box walks for every binary column sum
        r = random.Random(5)
        a = Matrix.from_rows([[r.randint(1, 49) for _ in range(10)] for _ in range(2)])
        bound = a.num_cols * a.infinity_norm()
        assert (bound + 1) ** 2 == 231_361
        box = ilp._BoxReachability(a.columns(), bound)
        want = set()
        for x in itertools.product((0, 1), repeat=a.num_cols):
            least = box.lexmin(a.matvec(x))
            want.add(tuple(j for j, v in enumerate(least) if v))
        got = binary_image_supports(a)
        assert got == tuple(sorted(want))
        assert len(got) == 701

    def test_box_cap(self):
        a = Matrix.from_rows([[100, 1, 1, 1, 1], [1, 1, 1, 1, 1]])
        with pytest.raises(
            EnumerationCapError, match="support box has 251001 states, above cap 250000"
        ):
            binary_image_supports(a)


def _brute_lexmin_table(cols, m, bound):
    """target -> lexicographically least x with sum_j x_j col_j = target, for
    every target in [0, bound]^m; a nonzero column never takes more than
    bound copies, and a zero column takes none in the least solution."""
    first = {}
    for x in itertools.product(range(bound + 1), repeat=len(cols)):
        b = tuple(sum(v * col[i] for v, col in zip(x, cols)) for i in range(m))
        if all(v <= bound for v in b):
            first.setdefault(b, x)
    return first


class TestBoxReachability:
    def test_matches_brute_lex_search(self):
        rng = random.Random(115)
        for _ in range(150):
            m, n, bound = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 5)
            cols = [tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(n)]
            box = ilp._BoxReachability(cols, bound)
            want = _brute_lexmin_table(cols, m, bound)
            for b in itertools.product(range(bound + 1), repeat=m):
                assert box.lexmin(b) == want.get(b), (cols, bound, b)
            assert box.lexmin((bound + 1,) + (0,) * (m - 1)) is None

    def test_doubling_leaves_box_in_one_row_only(self):
        # (1, 3, 0) fits once in [0, 4]^3; doubling it has room in row 0 but
        # not in row 1, where 2 * 3 would carry into row 2 as (2, 1, 1)
        box = ilp._BoxReachability([(1, 3, 0)], 4)
        reached = {
            b for b in itertools.product(range(5), repeat=3) if box.lexmin(b) is not None
        }
        assert reached == {(0, 0, 0), (1, 3, 0)}
        # with a second column row 0 keeps growing after row 1 is full
        cols = [(1, 3, 0), (2, 0, 1)]
        box = ilp._BoxReachability(cols, 4)
        want = _brute_lexmin_table(cols, 3, 4)
        for b in itertools.product(range(5), repeat=3):
            assert box.lexmin(b) == want.get(b), b
        assert box.lexmin((3, 3, 1)) == (1, 1)
        assert box.lexmin((4, 3, 1)) is None

    def test_long_multi_row_walk(self):
        # (2000, 3) takes 1997 copies of (1, 0), the least multiple, found by
        # one masked shift of the two-row closure; (3, 2000) needs more (1, 1)
        # copies than row 0 allows
        box = ilp._BoxReachability([(1, 0), (1, 1)], 2000)
        assert box.lexmin((2000, 3)) == (1997, 3)
        assert box.lexmin((3, 2000)) is None
