"""Instance families and the scaling bench harness."""

import io
import json
import math
import random
from fractions import Fraction

import pytest

from gapsolve.core import doubling_constant
from gapsolve.instances import (
    ap_set,
    bench_foursum_scaling,
    family_doubling,
    family_set,
    fit_exponent,
    gap_sample_set,
    random_dense_set,
    sidon_set,
    union_of_aps,
)


class TestFamilies:
    def test_ap(self):
        assert ap_set(5).elements == (0, 1, 2, 3, 4)
        assert ap_set(4, 3, 5).elements == (3, 8, 13, 18)
        assert doubling_constant(ap_set(100)) == Fraction(199, 100)

    def test_sidon_all_pair_sums_distinct(self):
        for n in (4, 10, 40):
            z = sidon_set(n)
            assert len(z) == n
            sums = [
                z.elements[i] + z.elements[j]
                for i in range(n)
                for j in range(i, n)
            ]
            assert len(set(sums)) == len(sums)

    def test_sidon_doubling_near_maximal(self):
        n = 64
        assert doubling_constant(sidon_set(n)) == Fraction(n + 1, 2)

    def test_random_and_gap_samples(self):
        rng = random.Random(1)
        r = random_dense_set(rng, 30, 500)
        assert len(r) == 30 and r.max() < 500 and r.min() >= 0
        g = gap_sample_set(rng, 25)
        assert len(g) == 25
        u = union_of_aps(rng, 24, parts=3)
        assert 8 <= len(u) <= 24  # duplicates across the parts collapse

    # (seed, dimension) -> (elements, the rng's next random()), from the
    # commit before gap_sample_set enumerated through the numpy kernel
    GAP_SAMPLES = {
        (3, 1): ((-20, -17, -14, -11, -8, -2), 0.6055995301393269),
        (3, 2): ((28, 31, 37, 79, 82, 127), 0.06552885923981311),
        (3, 3): ((-14, 130, 196, 268, 271, 274), 0.6055995301393269),
        (17, 1): ((16, 18, 20, 24, 26, 28), 0.11016204891721182),
        (17, 2): ((20, 48, 80, 86, 112, 118), 0.6613830572238304),
        (17, 3): ((44, 304, 356, 618, 620, 640), 0.6613830572238304),
    }

    @pytest.mark.parametrize("seed,dimension", sorted(GAP_SAMPLES))
    def test_gap_samples_pinned(self, seed, dimension):
        rng = random.Random(seed)
        z = gap_sample_set(rng, 6, dimension)
        assert (z.elements, rng.random()) == self.GAP_SAMPLES[seed, dimension]

    def test_family_set_dispatch(self):
        assert family_set("ap", 8) == ap_set(8)
        assert family_set("sidon", 8) == sidon_set(8)
        with pytest.raises(ValueError):
            family_set("cantor", 8)

    def test_family_doubling_sources(self):
        c, src = family_doubling("ap", 64)
        assert src == "measured" and Fraction(c) == Fraction(127, 64)
        c2, src2 = family_doubling("ap", 4096)
        assert src2 == "analytic" and Fraction(c2) == Fraction(8191, 4096)
        c3, src3 = family_doubling("sidon", 4096)
        assert src3 == "analytic" and Fraction(c3) == Fraction(4097, 2)


class TestFit:
    def test_exact_powers(self):
        pts = [(n, n * n) for n in (16, 32, 64, 128)]
        assert math.isclose(fit_exponent(pts), 2.0, abs_tol=1e-9)
        lin = [(n, 7 * n) for n in (16, 32, 64)]
        assert math.isclose(fit_exponent(lin), 1.0, abs_tol=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_exponent([(8, 64)])


class TestBench:
    def test_tiny_run_shape(self):
        buf = io.StringIO()
        summary = bench_foursum_scaling(
            buf, seed=5, trials=1, min_exp=4, max_exp=6
        )
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        kinds = {l["kind"] for l in lines}
        assert kinds == {"foursum-bench", "fit"}
        recs = [l for l in lines if l["kind"] == "foursum-bench"]
        assert len(recs) == 2 * 3  # two families, three sizes
        for r in recs:
            assert r["v"] == 1
            assert r["feasible"] is True  # targets are planted
            assert "wall_ms" not in r
        assert set(summary["fits"]) == {"ap", "sidon"}

    def test_deterministic_without_timing(self):
        a, b = io.StringIO(), io.StringIO()
        bench_foursum_scaling(a, seed=9, trials=1, min_exp=4, max_exp=5)
        bench_foursum_scaling(b, seed=9, trials=1, min_exp=4, max_exp=5)
        assert a.getvalue() == b.getvalue()

    def test_timing_adds_wall_ms(self):
        buf = io.StringIO()
        bench_foursum_scaling(buf, seed=2, trials=1, min_exp=4, max_exp=5, timing=True)
        recs = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert any("wall_ms" in r for r in recs if r["kind"] == "foursum-bench")
