"""Core types: sets, sumsets, progressions, matrices, witnesses."""

import ast
import collections
import itertools
import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapsolve
import gapsolve.core as core
from gapsolve.core import (
    Gap,
    IntegerSet,
    Matrix,
    SolveWitness,
    doubling_constant,
    gap_enumerate,
    gap_membership,
    iterated_sumset,
    negate,
    sumset,
)

small_sets = st.lists(
    st.integers(min_value=-200, max_value=200), min_size=1, max_size=12
).map(lambda xs: IntegerSet.from_iterable(xs))


class TestIntegerSet:
    def test_sorted_distinct(self):
        z = IntegerSet.from_iterable([5, 1, 5, 3])
        assert z.elements == (1, 3, 5)
        assert len(z) == 3 and 3 in z and 2 not in z

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntegerSet(())

    def test_rejects_unsorted_tuple(self):
        with pytest.raises(ValueError):
            IntegerSet((3, 1))

    def test_min_max_diameter(self):
        z = IntegerSet((-4, 0, 9))
        assert z.min() == -4 and z.max() == 9 and z.diameter() == 13

    def test_json_round_trip(self):
        z = IntegerSet((1, 2, 7))
        assert IntegerSet.from_json_dict(z.to_json_dict()) == z


class TestSumset:
    def test_small_example(self):
        a = IntegerSet((0, 1, 2, 4))
        assert sumset(a, a).elements == (0, 1, 2, 3, 4, 5, 6, 8)

    def test_negate(self):
        assert negate(IntegerSet((-1, 3))).elements == (-3, 1)

    def test_iterated(self):
        a = IntegerSet((0, 1))
        assert iterated_sumset(a, 2, 2).elements == (-2, -1, 0, 1, 2)

    def test_doubling_constant_sidon(self):
        assert doubling_constant(IntegerSet((1, 2, 5, 11))) == Fraction(5, 2)

    def test_doubling_constant_ap(self):
        n = 17
        a = IntegerSet(tuple(range(0, 3 * n, 3)))
        assert doubling_constant(a) == Fraction(2 * n - 1, n)

    def test_sums_past_int64_are_exact(self):
        big = IntegerSet((1 << 62,))
        assert sumset(big, big).elements == (1 << 63,)
        assert negate(sumset(big, big)).elements == (-(1 << 63),)
        assert iterated_sumset(big, 2, 1).elements == (1 << 62,)

    def test_unchecked_sums_past_int64_stay_exact(self):
        # 65 * 65 pairs take numpy's int64 unless a sum could leave int64
        a = IntegerSet(tuple(range(64)) + (1 << 62,))
        want = sorted({x + y for x in a for y in a})
        got = sumset(a, a).elements
        assert got == tuple(want)
        assert (got[0], got[-1]) == (0, 1 << 63)
        # operands on both sides of the int64 guard (2^62) and past int64
        for top in ((1 << 62) - 1, 1 << 62, 1 << 63, 1 << 70):
            for sign in (1, -1):
                for na, nb in ((63, 65), (64, 64), (65, 65)):
                    a = IntegerSet.from_iterable(sign * (top - 3 * d) for d in range(na))
                    b = IntegerSet.from_iterable(sign * (top - 5 * d) for d in range(nb))
                    for x, y in ((a, b), (a, IntegerSet(tuple(range(nb))))):
                        want = tuple(sorted({u + v for u in x for v in y}))
                        assert sumset(x, y).elements == want

    @given(small_sets, small_sets)
    @settings(max_examples=60, deadline=None)
    def test_matches_set_comprehension(self, a, b):
        want = sorted({x + y for x in a for y in b})
        assert list(sumset(a, b).elements) == want

    @given(small_sets, small_sets)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, a, b):
        assert sumset(a, b) == sumset(b, a)

    @given(small_sets)
    @settings(max_examples=40, deadline=None)
    def test_doubling_lower_bound(self, a):
        # |A+A| >= 2|A| - 1 over the integers
        assert len(sumset(a, a)) >= 2 * len(a) - 1

    @given(small_sets, st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_iterated_matches_reference(self, a, plus, minus):
        ref = {0}
        for _ in range(plus):
            ref = {x + y for x in ref for y in a}
        for _ in range(minus):
            ref = {x - y for x in ref for y in a}
        assert list(iterated_sumset(a, plus, minus).elements) == sorted(ref)


class TestPairSumset:
    """The pairwise kernel against a Python-set reference, on both sides of
    the 2^32 result span and of the pair count where the int64 path sorts
    uint32 offsets."""

    @staticmethod
    def _offsets(rng, span, na, nb):
        """Sorted distinct offsets a, b from 0 whose sums span exactly `span`;
        a one-element operand leaves the whole span to the other."""
        sa = 0 if na == 1 else span if nb == 1 else rng.randrange(span + 1)
        a = sorted({0, sa} | {rng.randrange(sa + 1) for _ in range(na - 2)})
        b = sorted({0, span - sa} | {rng.randrange(span - sa + 1) for _ in range(nb - 2)})
        return a, b

    def test_offset_path_matches_int64_path(self, monkeypatch):
        seen = []
        sorted_distinct = core._sorted_distinct

        def spy(arr, *args, **kwargs):
            seen.append(arr.dtype)
            return sorted_distinct(arr, *args, **kwargs)

        monkeypatch.setattr(core, "_sorted_distinct", spy)
        rng = random.Random(130)
        top = 1 << 62
        # where each operand goes, from its offsets: near 0; negative; least
        # values within 10 of -2^62; greatest within 10 of 2^62; and from
        # 2^62 up, past the guard
        places = {
            "zero": lambda off: 0,
            "negative": lambda off: -(1 << 40) - rng.randrange(100),
            "low guard": lambda off: -top + rng.randint(1, 10),
            "high guard": lambda off: top - rng.randint(1, 10) - off[-1],
            "past guard": lambda off: top + rng.randint(0, 10),
        }
        spans = (0, 1, 1000, (1 << 32) - 1, 1 << 32, (1 << 32) + 1)
        paths = set()
        for place in places.values():
            for span in spans:
                for na, nb in ((1, 1), (1, 9), (9, 1), (7, 11), (40, 40), (64, 64), (1, 2500)):
                    a, b = self._offsets(rng, span, min(na, span + 1), min(nb, span + 1))
                    sa, sb = place(a), place(b)
                    a, b = [x + sa for x in a], [y + sb for y in b]
                    assert a[-1] + b[-1] - a[0] - b[0] == span
                    want = sorted({x + y for x in a for y in b})
                    seen.clear()
                    got = core._pair_sumset(a, b)
                    assert got.tolist() == want
                    if not (core._int64_safe(a[0], a[-1]) and core._int64_safe(b[0], b[-1])):
                        assert got.dtype == object
                        continue
                    assert got.dtype == np.int64
                    narrow = span < 1 << 32 and len(a) * len(b) >= core._OFFSET_MIN_PAIRS
                    assert seen == [np.uint32 if narrow else np.int64]
                    paths.add(seen[0])
                    a64, b64 = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
                    wide = sorted_distinct(np.add.outer(a64, b64))
                    assert got.tobytes() == wide.tobytes()
                    assert core._pair_sumset(a64, b64).tobytes() == wide.tobytes()
        assert paths == {np.dtype(np.uint32), np.dtype(np.int64)}

    def test_sorted_distinct_matches_unique(self):
        """The in-place sort gives numpy's unique in the operand's dtype, for
        contiguous operands and for a strided view, which ravel copies."""
        rng = np.random.default_rng(131)
        for dtype in (np.int64, np.uint32):
            for shape in ((1,), (7,), (40, 40), (3, 500)):
                arr = rng.integers(0, 50, size=shape).astype(dtype)
                for operand in (arr.copy(), arr.T, arr[..., ::2]):
                    want = np.unique(operand)
                    got = core._sorted_distinct(operand)
                    assert got.dtype == dtype
                    assert got.tobytes() == want.tobytes()


class TestFold:
    def test_one_rule(self, monkeypatch):
        """`_fold` against `sumset`: both kernels give its values, the one
        with less work runs and reports min(pairs, transform length), the
        cap refuses either backend, and a span past 2^22 still convolves
        when that is the lesser work."""
        rng = random.Random(140)
        seen = set()
        for _ in range(400):
            pair = []
            for _ in range(2):
                width = rng.choice((0, 5, 40, 300, 3000))
                size = rng.randint(1, min(width + 1, 120))
                lo = rng.choice((0, -(1 << 40), 1 << 62)) + rng.randint(-9, 9)
                pair.append(sorted(lo + v for v in rng.sample(range(width + 1), size)))
            a, b = pair
            want = sumset(IntegerSet(tuple(a)), IntegerSet(tuple(b))).elements
            safe = core._int64_safe(a[0], a[-1]) and core._int64_safe(b[0], b[-1])
            x, y = (np.array(v, dtype=np.int64 if safe else object) for v in (a, b))
            sums, backend, work = core._fold(x, y)
            assert core._fold_plan(x, y) == (backend, work)
            assert tuple(sums.tolist()) == want
            pairs = len(a) * len(b)
            if not safe:
                assert (backend, work) == ("hash", pairs)
                seen.add("past guard")
                continue
            span = a[-1] + b[-1] - a[0] - b[0] + 1
            size = core._transform_size(span)
            assert tuple(core._pair_sumset(x, y).tolist()) == want
            assert tuple(core._fft_sumset(x, y).tolist()) == want
            assert work == min(pairs, size)
            assert backend == ("fft" if size < pairs else "hash")
            seen.add("fft" if size < pairs else "band" if span < pairs else "hash")
        assert seen == {"fft", "band", "hash", "past guard"}

        # 2901^2 pairs over a span of 2^22 + 3: past any span rule, but the
        # transform, 2^23, is less work than the pairs and within the cap
        wide = np.append(np.arange(2900, dtype=np.int64), (1 << 21) + 1)
        monkeypatch.setattr(core, "DEFAULT_FOLD_CAP", 1 << 23)
        sums, backend, work = core._fold(wide, wide)
        assert (backend, work) == ("fft", 1 << 23) and len(wide) ** 2 > work
        far = (1 << 21) + 1 + np.arange(2900)
        assert np.array_equal(sums, np.concatenate([np.arange(5799), far, [(1 << 22) + 2]]))

        dense, sparse = np.arange(100, dtype=np.int64), np.array([0, 1000], dtype=np.int64)
        big = np.array([1 << 70, (1 << 70) + 1], dtype=object)
        for x, backend, work in ((dense, "fft", 256), (sparse, "hash", 4), (big, "hash", 4)):
            monkeypatch.setattr(core, "DEFAULT_FOLD_CAP", work)
            assert core._fold(x, x)[1:] == (backend, work)
            monkeypatch.setattr(core, "DEFAULT_FOLD_CAP", work - 1)
            message = f"{backend} fold work {work} above"
            for refused in (core._fold, core._fold_plan):
                with pytest.raises(core.EnumerationCapError, match=message):
                    refused(x, x)


class TestFoldBuffers:
    """`_fold` with this thread's kept scratch against `_fold` with every
    scratch view fresh (_KEEP_ITEMS = 0)."""

    @staticmethod
    def _operands(rng, size, dense):
        """Two sorted int64 operands of `size` values: dense ones convolve,
        sparse ones (from a span of 10^7) go to the uint32 pair path."""
        span = 2 * size if dense else 10**7
        return [np.array(sorted(rng.sample(range(span), size)), dtype=np.int64) for _ in range(2)]

    @pytest.mark.parametrize("dense, backend", [(True, "fft"), (False, "hash")])
    def test_same_bytes_growing_then_shrinking(self, dense, backend, monkeypatch):
        rng = random.Random(150 + dense)
        monkeypatch.setattr(core, "_SCRATCH", core._Scratch())
        kept = []
        for size in (50, 120, 300, 700, 300, 120, 50):
            a, b = self._operands(rng, size, dense)
            got = core._fold(a, b)
            with monkeypatch.context() as fresh:
                fresh.setattr(core, "_KEEP_ITEMS", 0)
                want = core._fold(a, b)
            assert want[1] == backend and got[1:] == want[1:]
            assert got[0].dtype == want[0].dtype == np.int64
            assert got[0].tobytes() == want[0].tobytes()
            # no result shares memory with a kept buffer
            held = [np.frombuffer(buf, np.uint8) for buf in core._SCRATCH.maps.values()]
            assert not any(np.shares_memory(r[0], h) for r in (got, want) for h in held)
            kept.append((got[0], got[0].tobytes()))
        # earlier results are unchanged by the later folds
        assert all(arr.tobytes() == saved for arr, saved in kept)
        assert set(core._SCRATCH.maps) == (set() if dense else {"outer", "keep", "offsets"})

    def test_object_and_narrow_paths_allocate(self, monkeypatch):
        """Past the guard, and below _OFFSET_MIN_PAIRS, no scratch is made."""
        monkeypatch.setattr(core, "_SCRATCH", core._Scratch())
        big = np.array([1 << 70, (1 << 70) + 3], dtype=object)
        small = np.array([0, 1000, 5000], dtype=np.int64)
        for x in (big, small):
            want = sorted({p + q for p in x.tolist() for q in x.tolist()})
            assert core._fold(x, x)[0].tolist() == want
        assert core._SCRATCH.maps == {}


def test_only_core_imports_mmap_or_threading():
    """The pair kernel owns its scratch: of the package's modules only
    `core` imports mmap or threading."""
    owners = set()
    for path in pathlib.Path(gapsolve.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module.split(".")[0]}
            else:
                continue
            if names & {"mmap", "threading"}:
                owners.add(path.stem)
    assert owners == {"core"}


def test_every_private_top_level_name_has_a_reference():
    """A private top-level function, class or assigned name of the package
    that no `Name` or `Attribute` outside its own definition names is dead
    code."""
    trees = [ast.parse(p.read_text()) for p in pathlib.Path(gapsolve.__file__).parent.glob("*.py")]

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name))

    refs = collections.Counter(name for tree in trees for name in names(tree))
    private = [
        (name, node)
        for tree in trees
        for node in tree.body
        for name in defined(node)
        if name.startswith("_") and not name.startswith("__")
    ]
    dead = [name for name, node in private if refs[name] == collections.Counter(names(node))[name]]
    assert dead == []


class TestGap:
    def test_digits_proper(self):
        g = Gap(0, (1, 10), (3, 2))
        vals, proper = gap_enumerate(g)
        assert vals.elements == (0, 1, 2, 10, 11, 12) and proper

    def test_collision_improper(self):
        g = Gap(0, (1, 1), (2, 2))
        vals, proper = gap_enumerate(g)
        assert vals.elements == (0, 1, 2) and not proper

    def test_plain_ap(self):
        g = Gap(5, (3,), (4,))
        vals, proper = gap_enumerate(g)
        assert vals.elements == (5, 8, 11, 14) and proper

    def test_two_dim_proper(self):
        assert gap_enumerate(Gap(0, (2, 3), (3, 3)))[1]
        assert not gap_enumerate(Gap(0, (1, 2), (3, 3)))[1]

    def test_zero_dimensional(self):
        g = Gap(7, (), ())
        assert g.volume() == 1
        assert gap_enumerate(g)[0].elements == (7,)

    def test_modulus(self):
        g = Gap(3, (2,), (5,), modulus=7)
        vals, _ = gap_enumerate(g)
        assert vals.elements == (0, 2, 3, 4, 5)

    def test_membership_lex_least(self):
        g = Gap(0, (2, 3), (3, 3))
        assert gap_membership(g, 6) == (0, 2)
        assert gap_membership(g, 1) is None

    def test_membership_matches_enumeration(self):
        g = Gap(-4, (3, 5), (4, 3))
        vals, _ = gap_enumerate(g)
        for v in vals:
            coords = gap_membership(g, v)
            assert coords is not None
            assert g.element_at(coords) == v
        assert gap_membership(g, vals.max() + 1) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Gap(0, (1,), (2, 2))

    def test_json_round_trip(self):
        for g in (Gap(1, (2, 5), (3, 4)), Gap(0, (1,), (5,), modulus=11)):
            assert Gap.from_json_dict(g.to_json_dict()) == g

    @given(
        st.integers(-20, 20),
        st.lists(st.integers(-9, 9), max_size=3),
        st.sampled_from([None, 2, 7, 30, (1 << 61) - 1, (1 << 62) + 3]),
        st.sampled_from([0, 1 << 66, -(1 << 66)]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_enumerate_is_exactly_the_formula(self, base, gens, modulus, far, data):
        lengths = [data.draw(st.integers(1, 4)) for _ in gens]
        # length-1 axes add no value, however far past 2^63 their generators are
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, len(gens)))
            gens.insert(at, data.draw(st.sampled_from([1 << 63, -(1 << 64) - 5, 3 << 70])))
            lengths.insert(at, 1)
        g = Gap(base + far, tuple(gens), tuple(lengths), modulus)

        # the reference: walk the box in lex order, first vector per value wins
        lex_least = {}
        for coords in itertools.product(*(range(l) for l in lengths)):
            v = base + far + sum(c * y for c, y in zip(coords, gens))
            lex_least.setdefault(v if modulus is None else v % modulus, coords)
        vals, proper = gap_enumerate(g)
        assert vals.elements == tuple(sorted(lex_least))
        assert all(type(v) is int for v in vals)
        assert proper == (len(lex_least) == g.volume())
        for v, coords in lex_least.items():
            assert gap_membership(g, v) == coords

    def test_one_enumeration_cap(self, monkeypatch):
        """Every enumeration of a box, the cached value table included,
        refuses a volume above DEFAULT_ENUM_CAP, read at call time, and
        answers at it."""
        core._gap_value_table.cache_clear()
        calls = (
            gap_enumerate,
            lambda g: gap_membership(g, 5),
            core._gap_value_table,
        )
        for i, call in enumerate(calls):
            # a fresh Gap per call, so no cached table answers for it
            g = Gap(i, (1, 5), (3, 2))
            monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 5)
            with pytest.raises(core.EnumerationCapError, match="6 exceeds enumeration cap 5"):
                call(g)
            monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 6)
            call(g)


class TestMatrix:
    def test_shape_and_columns(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.num_rows == 2 and m.num_cols == 3
        assert m.columns() == ((1, 4), (2, 5), (3, 6))
        assert m.infinity_norm() == 6

    def test_matvec(self):
        m = Matrix.from_rows([[1, -2], [0, 3]])
        assert m.matvec([2, 1]) == (0, 3)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])

    def test_json(self):
        m = Matrix.from_rows([[1, 2]])
        assert Matrix.from_rows(m.to_json_rows()) == m


def test_witness_kinds():
    w = SolveWitness("subset-of-indices", (0, 2))
    d = json.loads(json.dumps(w.to_json_dict()))
    assert d == {"kind": "subset-of-indices", "values": [0, 2]}
    assert SolveWitness.from_json_dict(d) == w
    with pytest.raises(ValueError):
        SolveWitness("bogus", (1,))


def test_public_names_resolve():
    for name in gapsolve.__all__:
        assert getattr(gapsolve, name) is not None, name
