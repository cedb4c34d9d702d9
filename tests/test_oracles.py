"""The brute-force layer itself: two independent enumerations per problem
cross-check each other before anything downstream leans on them."""

import random

import pytest

from gapsolve.core import EnumerationCapError, Gap, IntegerSet, Matrix
from gapsolve.oracles import (
    bohr_enumerate,
    brute_bilp_feasibility,
    brute_bounded_feasibility,
    brute_hbilp_feasibility,
    brute_ksum,
    brute_subset_sum,
    brute_subset_sum_all,
    brute_unbounded_subset_sum,
    covering_check,
    gap_containment,
    verify_freiman_iso,
    verify_freiman_iso_sampled,
)


class TestSubsetSumOracles:
    def test_first_witness_frozen(self):
        z = IntegerSet((1, 2, 5, 11))
        assert brute_subset_sum(z, 18) == (1, 2, 3)
        assert brute_subset_sum(z, 4) is None

    def test_sum_only_guarantee(self):
        w = brute_subset_sum(IntegerSet((1, 2, 3, 4)), 7)
        assert sum((1, 2, 3, 4)[i] for i in w) == 7

    def test_mitm_agrees_with_direct(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 10)
            vals = tuple(sorted(rng.sample(range(-25, 40), n)))
            z = IntegerSet(vals)
            t = rng.randint(-10, 50)
            all_direct = brute_subset_sum_all(z, t)
            first = brute_subset_sum(z, t)
            if all_direct:
                assert first in all_direct, (vals, t)
                assert first == brute_subset_sum(z, t)
            else:
                assert first is None, (vals, t)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            brute_subset_sum(IntegerSet(tuple(range(50))), 3)

    def test_unbounded_frozen(self):
        assert brute_unbounded_subset_sum(IntegerSet((3, 5)), 11) == (2, 1)
        assert brute_unbounded_subset_sum(IntegerSet((2,)), 7) is None
        assert brute_unbounded_subset_sum(IntegerSet((4, 9)), 0) == (0, 0)

    def test_unbounded_lex_least(self):
        # 12 = 3*4 = 3*0 + 4*3; lex-least multiplicity vector is (0, 3)
        got = brute_unbounded_subset_sum(IntegerSet((3, 4)), 12)
        assert got == (0, 3)

    def test_unbounded_matches_exhaustive(self):
        rng = random.Random(6)
        for _ in range(120):
            n = rng.randint(1, 4)
            vals = tuple(sorted(rng.sample(range(1, 20), n)))
            t = rng.randint(0, 40)
            got = brute_unbounded_subset_sum(IntegerSet(vals), t)
            # direct box scan over multiplicities
            best = None
            bound = [t // v for v in vals]
            import itertools

            for combo in itertools.product(*(range(b + 1) for b in bound)):
                if sum(c * v for c, v in zip(combo, vals)) == t:
                    best = combo
                    break
            assert got == best, (vals, t)


class TestIlpOracles:
    def test_bilp_frozen(self):
        a = Matrix.from_rows([[1, 2, 3]])
        assert brute_bilp_feasibility(a, [5]) == (0, 1, 1)
        assert brute_bilp_feasibility(a, [7]) is None

    def test_bounded_frozen(self):
        a = Matrix.from_rows([[2, 3]])
        assert brute_bounded_feasibility(a, [7], [(0, 2), (0, 2)]) == (2, 1)

    def test_products_past_int64_do_not_wrap(self):
        big = 1 << 62
        a = Matrix.from_rows([[big, big + 1, big + 2, big + 3]])
        # the sum of all four is 2^64 + 6, which int64 would read as 6
        assert brute_bilp_feasibility(a, [6]) is None
        assert brute_bilp_feasibility(a, [2 * big + 3]) == (0, 1, 1, 0)
        assert brute_bilp_feasibility(a, [4 * big + 6]) == (1, 1, 1, 1)
        wide = Matrix.from_rows([[big, 3]])
        assert brute_bounded_feasibility(wide, [3 * big + 3], [(0, 4), (0, 1)]) == (3, 1)
        assert brute_bounded_feasibility(wide, [3], [(-4, 4), (0, 1)]) == (0, 1)

    def test_hbilp_half_sums_past_int64(self):
        # the dot products are 2^62 and 2^63: the half sums leave int64
        assert brute_hbilp_feasibility(Matrix.from_rows([[1, 2]]), (1 << 62,), 1 << 62) == (1, 0)
        assert brute_hbilp_feasibility(Matrix.from_rows([[1, 2]]), (1 << 62,), 3 << 62) == (1, 1)
        assert brute_hbilp_feasibility(Matrix.from_rows([[1, 2]]), (1 << 62,), 1) is None
        big = [5, 1 << 62, (1 << 62) + 1]
        assert brute_subset_sum(big, (1 << 63) + 1) == (1, 2)

    def test_hbilp_reduces_to_subset_sum(self):
        rng = random.Random(7)
        for _ in range(150):
            m, n = rng.randint(1, 2), rng.randint(1, 5)
            a = Matrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            )
            s = tuple(rng.randint(-3, 3) for _ in range(m))
            t = rng.randint(-8, 8)
            got = brute_hbilp_feasibility(a, s, t)
            dots = [
                sum(a.rows[i][j] * s[i] for i in range(m)) for j in range(n)
            ]
            want = None
            for mask in range(1 << n):
                x = tuple(mask >> j & 1 for j in range(n))
                if sum(d * v for d, v in zip(dots, x)) == t:
                    want = x
                    break
            assert (got is None) == (want is None), (a.rows, s, t)
            if got is not None:
                assert sum(d * v for d, v in zip(dots, got)) == t


class TestKsumOracle:
    def test_frozen(self):
        z = IntegerSet((1, 2, 3, 4, 5))
        assert brute_ksum(z, 12, 3) == (2, 3, 4)
        assert brute_ksum(z, 1, 2) is None

    def test_lex_first(self):
        z = IntegerSet((0, 1, 2, 3))
        # 3 = 0+3 = 1+2; combinations order picks (0, 3) first
        assert brute_ksum(z, 3, 2) == (0, 3)


class TestFreimanIsoOracle:
    def test_identity_is_iso(self):
        ok, _ = verify_freiman_iso(lambda x: x, IntegerSet((1, 4, 9)), 3)
        assert ok

    def test_scaling_is_iso(self):
        ok, _ = verify_freiman_iso(lambda x: 5 * x + 2, IntegerSet((0, 2, 3)), 2)
        assert ok

    def test_detects_violation(self):
        phi = {0: 0, 1: 1, 2: 3}
        ok, witness = verify_freiman_iso(lambda x: phi[x], IntegerSet((0, 1, 2)), 2)
        assert not ok and witness is not None
        a, b = witness
        assert sum(a) == sum(b) or sum(phi[x] for x in a) == sum(phi[x] for x in b)

    def test_modular_collision_detected(self):
        # identity into Z_3 is not a 2-isomorphism: 1+2 = 0+0 mod 3
        ok, _ = verify_freiman_iso(lambda x: x, IntegerSet((0, 1, 2)), 2, modulus=3)
        assert not ok

    def test_modular_iso(self):
        # small domain embeds into a large enough cyclic group
        ok, _ = verify_freiman_iso(lambda x: x, IntegerSet((0, 1, 2)), 2, modulus=11)
        assert ok

    def test_sampled_agrees(self):
        rng = random.Random(3)
        ok, _ = verify_freiman_iso_sampled(
            lambda x: 7 * x, IntegerSet((0, 1, 5)), 3, 200, rng
        )
        assert ok
        phi = {0: 0, 1: 1, 2: 3}
        ok, _ = verify_freiman_iso_sampled(
            lambda x: phi[x], IntegerSet((0, 1, 2)), 2, 500, random.Random(4)
        )
        assert not ok

    def test_cap_counts_multisets(self):
        # {1, 2, 3} has C(4, 2) = 6 two-element multisets
        ok, _ = verify_freiman_iso(lambda x: x, IntegerSet((1, 2, 3)), 2, cap=6)
        assert ok
        with pytest.raises(EnumerationCapError, match="tuple space exceeds cap"):
            verify_freiman_iso(lambda x: x, IntegerSet((1, 2, 3)), 2, cap=5)

    def test_bijection_failure(self):
        ok, witness = verify_freiman_iso(lambda x: 0, IntegerSet((1, 2)), 2)
        assert not ok and len(witness[0]) == 1


class TestBohrOracle:
    def test_single_frequency(self):
        from fractions import Fraction

        from gapsolve.freiman import BohrSpec

        spec = BohrSpec(5, (1,), Fraction(1, 4))
        assert bohr_enumerate(spec).elements == (0, 1, 4)

    def test_no_frequencies_is_everything(self):
        from fractions import Fraction

        from gapsolve.freiman import BohrSpec

        spec = BohrSpec(7, (), Fraction(1, 4))
        assert bohr_enumerate(spec).elements == tuple(range(7))


def test_gap_containment():
    g = Gap(0, (1, 10), (3, 2))
    ok, missing = gap_containment(g, IntegerSet((0, 11)))
    assert ok and missing is None
    ok, missing = gap_containment(g, IntegerSet((0, 5)))
    assert not ok and missing == 5


def test_covering_check():
    y = IntegerSet((0, 1))
    x = IntegerSet((0, 5))
    z = IntegerSet((0, 1, 4, 5, 6))
    ok, _ = covering_check(y, z, x)
    assert ok
    ok, missing = covering_check(y, IntegerSet((3,)), x)
    assert not ok and missing == 3
