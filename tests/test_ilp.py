"""Bounded-ILP solvers and the reduction chain down to subset sum."""

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
    Matrix,
    TableCapError,
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
    hbilp_nonnegative,
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

    def test_table_cap(self):
        a = Matrix.from_rows([[1, 10, 100, 1000]])
        inst = BilpInstance.binary(a, (111,))
        with pytest.raises(TableCapError, match=r"hit 4 entries at variable 1 \(cap 3\)"):
            bilp_feasibility_dp(inst, table_cap=3)
        # only the sum of every column reaches 1111, so the kept table is one key
        every = BilpInstance.binary(a, (1111,))
        assert bilp_feasibility_dp(every, table_cap=3).payload == (1, 1, 1, 1)

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


def _dict_engine(keys, deltas, spans, target, table_cap, window=True):
    """Reference DP on Python ints, with the signature of
    `ilp._array_engine` plus `window`; with the window on, the engine must
    match it witness for witness.

    `table` lists the live keys in insertion order, and `back` maps every
    key ever written to a back-pointer (prev_key, var, value) chain ending
    at _ROOT. Values are scanned in ascending order and, for each value,
    the keys of the table before the variable in insertion order; the first
    writer of a key keeps it, so a new key keeps the smallest value that
    reaches it. After variable j only the keys K with target - K in the
    range of what the later variables can add stay live; window=False
    keeps every reachable key instead.
    """
    table = [int(keys[0])]
    back = {table[0]: _ROOT}
    for j, (delta, span) in enumerate(zip(deltas, spans)):
        if span == 0 or delta == 0:
            continue
        later = [d * s for d, s in zip(deltas[j + 1 :], spans[j + 1 :])]
        low, high = sum(min(0, v) for v in later), sum(max(0, v) for v in later)

        def live(key):
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


class TestEngineEquivalence:
    """The array engine, with int64 keys and with object keys, against the
    dict reference: same witnesses, same Nones, same cap failures."""

    def _compare(self, monkeypatch, solve, inst, cap):
        """A target outside the row extremes is refused before any table is
        built, so each solve runs the engine once or not at all."""
        with monkeypatch.context() as mp:
            ran = []
            mp.setattr(ilp, "_array_engine", lambda *args: ran.append(1) or _dict_engine(*args))
            want = _outcome(solve, inst, cap)
        got = {}
        for width in (np.int64, object):
            with monkeypatch.context() as mp:
                if width is object:
                    mp.setattr(ilp, "_int64_safe", lambda lo, hi: False)
                widths = _key_widths(mp)
                got[width] = _outcome(solve, inst, cap)
            assert widths == [width] * len(ran) and len(ran) <= 1
        assert got[np.int64] == want
        assert got[object] == want
        return want

    def test_random_programs(self, monkeypatch):
        seen = set()
        for solve, inst, cap in _random_programs(random.Random(105), 1500):
            got = self._compare(monkeypatch, solve, inst, cap)
            seen.add("none" if got is None else got[0])
        assert seen == {"none", "cap", "binary-vector", "multiplicity-vector"}

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
                got = _outcome(solve, inst, cap)
            if widths != [object]:
                continue  # key range within 2^62
            with monkeypatch.context() as mp:
                mp.setattr(ilp, "_array_engine", _dict_engine)
                assert got == _outcome(solve, inst, cap)
            checked += 1
            seen.add("none" if got is None else got[0])
        assert checked == 1000
        assert seen == {"none", "cap", "binary-vector", "multiplicity-vector"}

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
        assert len(ss.elements) == 24
        w = subset_sum_doubling(ss.elements, ss.target)
        assert w.payload == (0, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 16, 17, 18)
        assert nn.decode(agg.decode(ss.decode(w.payload).payload)) == (1, 0, 1)

    def test_hbilp(self):
        g = random.Random(16)
        rows = [[g.randrange(0, 4) for _ in range(16)] for _ in range(4)]
        dots = HbilpInstance(Matrix.from_rows(rows), (3, 7, 2, 5), 0).dots()
        t = sum(d for d in dots if g.randrange(2))
        assert t == 141
        w = hbilp_feasibility(HbilpInstance(Matrix.from_rows(rows), (3, 7, 2, 5), t))
        assert w.payload == (1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)


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


class TestHbilpNonnegative:
    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            hbilp_nonnegative(HbilpInstance(Matrix.from_rows([[0, 0]]), (1,), 0))

    def test_aliasing_regression(self):
        # signed steps once mapped this infeasible instance to a feasible
        # reduced one: the pin step must exceed the full difference span
        inst = HbilpInstance(Matrix.from_rows([[1, -1]]), (-1,), 6)
        assert brute_hbilp_feasibility(inst.a, inst.s, inst.t) is None
        res = hbilp_nonnegative(inst)
        assert hbilp_feasibility(res.instance) is None

    def test_guard_far_target(self):
        inst = HbilpInstance(Matrix.from_rows([[1, 1]]), (1,), 10**6)
        res = hbilp_nonnegative(inst)
        assert res.guard_tripped
        assert hbilp_feasibility(res.instance) is None

    def test_equivalence_signed(self):
        rng = random.Random(106)
        for _ in range(400):
            m, n = rng.randint(1, 2), rng.randint(1, 5)
            a = _rand_matrix(rng, m, n)
            if a.infinity_norm() == 0:
                continue
            s = tuple(rng.randint(-4, 4) for _ in range(m))
            t = rng.randint(-15, 15)
            inst = HbilpInstance(a, s, t)
            res = hbilp_nonnegative(inst)
            orig = brute_hbilp_feasibility(a, s, t)
            lifted = hbilp_feasibility(res.instance)
            assert (orig is None) == (lifted is None), (a.rows, s, t)
            if lifted is not None:
                x = res.decode(lifted.payload)
                dots = inst.dots()
                assert sum(d * v for d, v in zip(dots, x)) == t
                assert res.instance.a.rows[0][0] >= 0


class TestHbilpToSs:
    def test_trivial_zero_columns(self):
        inst = HbilpInstance(Matrix.from_rows([[0, 0]]), (5,), 0)
        res = hbilp_to_ss(inst)
        assert res.trivial
        assert res.elements.elements == (1,)
        assert res.target == 0
        w = res.decode(())
        assert w.payload == (0, 0)
        bad = hbilp_to_ss(HbilpInstance(Matrix.from_rows([[0]]), (5,), 3))
        assert bad.trivial and bad.target == -1

    def test_decode_rejects_non_solutions(self):
        res = hbilp_to_ss(HbilpInstance(Matrix.from_rows([[1, 2]]), (1,), 2))
        n = len(res.elements)
        for indices, msg in (
            ((0, n), f"index {n} out of range for {n} elements"),
            ((-1,), f"index -1 out of range for {n} elements"),
            ((1, 1), "index 1 repeated"),
            ((0, n - 1), "subset misses the reduced target"),
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
            res = hbilp_to_ss(HbilpInstance(a, s, t))
            if res.trivial or res.guard_tripped:
                continue
            els = res.elements.elements
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
        # all nonzero entries -1: normalization leaves an infinity norm of 1,
        # so the radix is lifted to 2
        for rows in ([[-1]], [[-1, -1]], [[-1, 0], [0, -1]]):
            a = Matrix.from_rows(rows)
            for t in (-2, -1, 0, 1):
                cases.append((a, (1,) * a.num_rows, t))
        for a, s, t in cases:
            inst = HbilpInstance(a, s, t)
            res = hbilp_to_ss(inst)
            want = brute_hbilp_feasibility(a, s, t)
            got = brute_subset_sum(res.elements.elements, res.target)
            assert (got is None) == (want is None), (a.rows, s, t)
            if got is not None:
                w = res.decode(got)
                dots = inst.dots()
                assert sum(d * v for d, v in zip(dots, w.payload)) == t


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
        with pytest.raises(ValueError, match="decoded subset misses the target"):
            res.decode((1, 1, 0))
        with pytest.raises(ValueError, match="assignment has 2 entries for 3 elements"):
            res.decode((1, 1))

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
        box = ilp._BoxReachability(a.columns(), 17 * 17, 10_000)
        want = set()
        for b in range(17 * 17 + 1):
            x = box.lexmin((b,))
            if x is not None:
                want.add(tuple(j for j, v in enumerate(x) if v))
        got = binary_image_supports(a)
        assert got == tuple(sorted(want))
        assert len(got) == 26

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
            box = ilp._BoxReachability(cols, bound, 10_000)
            want = _brute_lexmin_table(cols, m, bound)
            for b in itertools.product(range(bound + 1), repeat=m):
                assert box.lexmin(b) == want.get(b), (cols, bound, b)
            assert box.lexmin((bound + 1,) + (0,) * (m - 1)) is None

    def test_doubling_leaves_box_in_one_row_only(self):
        # (1, 3, 0) fits once in [0, 4]^3; doubling it has room in row 0 but
        # not in row 1, where 2 * 3 would carry into row 2 as (2, 1, 1)
        box = ilp._BoxReachability([(1, 3, 0)], 4, 10_000)
        reached = {
            b for b in itertools.product(range(5), repeat=3) if box.lexmin(b) is not None
        }
        assert reached == {(0, 0, 0), (1, 3, 0)}
        # with a second column row 0 keeps growing after row 1 is full
        cols = [(1, 3, 0), (2, 0, 1)]
        box = ilp._BoxReachability(cols, 4, 10_000)
        want = _brute_lexmin_table(cols, 3, 4)
        for b in itertools.product(range(5), repeat=3):
            assert box.lexmin(b) == want.get(b), b
        assert box.lexmin((3, 3, 1)) == (1, 1)
        assert box.lexmin((4, 3, 1)) is None

    def test_state_cap(self):
        with pytest.raises(EnumerationCapError, match="support box has 36 states, above cap 35"):
            ilp._BoxReachability([(1, 1)], 5, 35)
        assert ilp._BoxReachability([(1, 1)], 5, 36).lexmin((5, 5)) == (5,)
