"""Acceptance gate: the eight release criteria, one test each.

Each test prints a single PASS line with its headline numbers (visible
under pytest -s, or in the captured output on failure). Criteria are
checked at full stated sizes; nothing here is downscaled.
"""

import io
import itertools
import json
import math
import random
import subprocess
import sys
import time

from gapsolve.core import (
    IntegerSet,
    Matrix,
    gap_enumerate,
    negate,
    sumset,
)
from gapsolve.freiman import (
    bogolyubov,
    freiman_gap,
    gap_in_bohr,
    is_prime,
    iterated_support,
    modeling_lemma,
    next_prime,
    ruzsa_cover,
    support_size,
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
)
from gapsolve.instances import (
    ap_set,
    bench_foursum_scaling,
    gap_sample_set,
    union_of_aps,
)
from gapsolve.ksum import ksum
from gapsolve.oracles import (
    bohr_enumerate,
    brute_bilp_feasibility,
    brute_bounded_feasibility,
    brute_hbilp_feasibility,
    brute_ksum,
    brute_subset_sum,
    verify_freiman_iso,
    verify_freiman_iso_sampled,
)
from gapsolve.subset_sum import subset_sum_doubling


def _report(num: int, name: str, detail: str) -> None:
    print(f"[acceptance {num}] {name}: PASS ({detail})")


def _rand_distinct(rng, n: int, lo: int, hi: int) -> IntegerSet:
    return IntegerSet.from_iterable(rng.sample(range(lo, hi + 1), n))


def _distinct_cols_matrix(rng, m, n, lo, hi):
    """Uniform matrix with distinct columns, sampled from the column space
    directly so narrow spaces cannot stall a rejection loop."""
    space = list(itertools.product(range(lo, hi + 1), repeat=m))
    cols = rng.sample(space, n)
    return Matrix.from_rows([[c[i] for c in cols] for i in range(m)])


def _plain_matrix(rng, m, n, lo, hi):
    return Matrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    )


# ---------------------------------------------------------------------------
# 1. oracle equivalence


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(0xACCE01)
    counts = {}

    # binary subset sum, n up to 40 against the meet-in-the-middle oracle
    runs = 0
    for trial in range(1000):
        n = rng.randint(1, 20) if trial % 10 else rng.randint(21, 40)
        z = _rand_distinct(rng, n, -400, 400)
        bound = sum(abs(v) for v in z)
        t = rng.randint(-bound - 5, bound + 5)
        got = subset_sum_doubling(z, t)
        want = brute_subset_sum(z.elements, t)
        assert (got is None) == (want is None), (z.elements, t)
        if got is not None:
            assert sum(z.elements[i] for i in got.payload) == t
        runs += 1
    counts["subset_sum_doubling"] = runs

    # ksum, k <= 5, every case inside the exhaustive regime, where a None
    # witness is a proof of infeasibility; infeasible cases stay at n <= 12
    runs = 0
    for trial in range(1000):
        k = rng.randint(1, 5)
        plant = trial % 3 != 0
        n = rng.randint(k, 20) if plant else rng.randint(k, 12)
        z = _rand_distinct(rng, n, -50, 50)
        if plant:
            picks = rng.sample(range(n), k)
            t = sum(z.elements[i] for i in picks)
        else:
            t = rng.randint(-80, 80)
        res = ksum(z, t, k, random.Random(rng.randrange(2**30)))
        want = brute_ksum(z.elements, t, k)
        assert res.exhaustive
        assert (res.witness is None) == (want is None), (z.elements, t, k)
        if res.witness is not None:
            idx = res.witness.payload
            assert len(set(idx)) == k
            assert sum(z.elements[i] for i in idx) == t
        runs += 1
    counts["ksum"] = runs

    # binary BILP; entry bound shrinks with the row count so the reachable
    # box (and the numpy oracle's 2^n sweep) stay inside the time budget,
    # and widens at m = 1 so the column space can still hold 20 distinct
    # columns
    runs = 0
    for trial in range(1000):
        m = rng.randint(1, 3)
        mag = {1: 12, 2: 3, 3: 1}[m]
        n = rng.randint(1, 14) if trial % 25 else rng.randint(15, 20)
        a = _distinct_cols_matrix(rng, m, n, -mag, mag)
        b = tuple(rng.randint(-2 * n, 2 * n) for _ in range(m))
        inst = BilpInstance.binary(a, b)
        got = bilp_feasibility_dp(inst)
        want = brute_bilp_feasibility(a, b)
        assert (got is None) == (want is None), (a.rows, b)
        if got is not None:
            assert a.matvec(got.payload) == b
        runs += 1
    counts["bilp_feasibility_dp"] = runs

    # bounded variables
    runs = 0
    for trial in range(1000):
        n = rng.randint(1, 6)
        m = rng.randint(1, 2)
        a = _distinct_cols_matrix(rng, m, n, -3, 3)
        bounds = []
        for _ in range(n):
            lo = rng.randint(-2, 1)
            bounds.append((lo, lo + rng.randint(0, 3)))
        b = tuple(rng.randint(-10, 10) for _ in range(m))
        inst = BilpInstance(a, b, tuple(bounds))
        got = bounded_ilp_feasibility(inst)
        want = brute_bounded_feasibility(a, b, tuple(bounds))
        assert (got is None) == (want is None), (a.rows, b, bounds)
        if got is not None:
            assert a.matvec(got.payload) == b
        runs += 1
    counts["bounded_ilp_feasibility"] = runs

    # aggregated single-constraint form; duplicate columns are legal here,
    # so plain uniform matrices exercise that path too
    runs = 0
    for trial in range(1000):
        n = rng.randint(1, 14) if trial % 25 else rng.randint(15, 20)
        m = rng.randint(1, 3)
        a = _plain_matrix(rng, m, n, -3, 3)
        s = tuple(rng.randint(-5, 5) for _ in range(m))
        t = rng.randint(-40, 40)
        inst = HbilpInstance(a, s, t)
        got = hbilp_feasibility(inst)
        want = brute_hbilp_feasibility(a, s, t)
        assert (got is None) == (want is None), (a.rows, s, t)
        if got is not None:
            dots = inst.dots()
            assert sum(d * v for d, v in zip(dots, got.payload)) == t
        runs += 1
    counts["hbilp_feasibility"] = runs

    elapsed = time.monotonic() - start
    assert all(v >= 1000 for v in counts.values())
    assert elapsed < 600, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "oracle equivalence", f"{counts}, zero disagreements, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. cover pipeline soundness


def _binomial_cutoff(n: int, alpha_hundredths: int = 1) -> int:
    """Smallest f with P(Bin(n, 1/2) >= f) < alpha_hundredths / 100."""
    total = 1 << n
    tail = 0
    for f in range(n, -1, -1):
        tail += math.comb(n, f)
        if 100 * tail >= alpha_hundredths * total:
            return f + 1
    return 0


def test_criterion_2_freiman_pipeline():
    start = time.monotonic()
    rng = random.Random(0xACCE02)
    attempts = 0
    failures = 0
    covered = 0

    inputs = []
    for _ in range(70):
        n = rng.randint(2, 256)
        inputs.append(ap_set(n, rng.randint(-1000, 1000), rng.randint(1, 9)))
    for _ in range(70):
        inputs.append(gap_sample_set(rng, rng.randint(2, 256)))
    for _ in range(60):
        inputs.append(union_of_aps(rng, rng.randint(3, 256), rng.randint(1, 3)))
    assert len(inputs) >= 200

    for z in inputs:
        res = freiman_gap(z, rng)
        # exhaustive containment: every input element's certificate
        assert set(res.coords) == set(z.elements)
        for e in z:
            c = res.coords[e]
            assert len(c) == res.cover.dimension
            assert all(0 <= ci < li for ci, li in zip(c, res.cover.lengths))
            assert res.cover.element_at(c) == e
        attempts += res.metrics["attempts"]
        failures += len(res.metrics["modeling_failures"])
        covered += 1

    # full-tuple isomorphism checks on tiny sets
    full_checked = 0
    for s in (2, 3):
        for _ in range(25):
            n = rng.randint(2, 8)
            z = _rand_distinct(rng, n, -60, 60)
            diff = iterated_support(z, s, s)
            m = next_prime(4 * support_size(diff) + 1)
            model = None
            for _ in range(64):
                attempts += 1
                cand = modeling_lemma(z, s, m, rng)
                if hasattr(cand, "apply"):
                    model = cand
                    break
                failures += 1
            assert model is not None, "64 straight modeling failures"
            ok, bad = verify_freiman_iso(model.apply, model.a_prime, s, modulus=model.m)
            assert ok, (z.elements, s, bad)
            full_checked += 1

    # sampled checks at the pipeline's working fold count
    sampled_checked = 0
    for _ in range(20):
        n = rng.randint(9, 64)
        z = _rand_distinct(rng, n, -500, 500)
        diff = iterated_support(z, 8, 8)
        m = next_prime(4 * support_size(diff) + 1)
        model = None
        for _ in range(64):
            attempts += 1
            cand = modeling_lemma(z, 8, m, rng)
            if hasattr(cand, "apply"):
                model = cand
                break
            failures += 1
        assert model is not None
        ok, bad = verify_freiman_iso_sampled(
            model.apply, model.a_prime, 8, 300, rng, modulus=model.m
        )
        assert ok, (z.elements, bad)
        sampled_checked += 1

    cutoff = _binomial_cutoff(attempts)
    assert failures < cutoff, (
        f"{failures} failures in {attempts} attempts breaches the "
        f"rate-1/2 bound at 99% (cutoff {cutoff})"
    )
    elapsed = time.monotonic() - start
    _report(
        2,
        "cover pipeline soundness",
        f"{covered} inputs contained, {full_checked} full + {sampled_checked} "
        f"sampled iso checks, {failures}/{attempts} modeling failures, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. the Fourier chain


def _rotate_mask(x: int, s: int, m: int, mask: int) -> int:
    s %= m
    return ((x << s) | (x >> (m - s))) & mask


def _two_b_minus_two_b_mask(belems, m: int) -> int:
    """Exact indicator bitmask of 2B - 2B in Z_m via bigint rotations."""
    mask = (1 << m) - 1
    b_ind = 0
    for v in belems:
        b_ind |= 1 << v
    p = 0
    for v in belems:
        p |= _rotate_mask(b_ind, v, m, mask)
    if p == mask:
        return mask
    d = 0
    rest = p
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        d |= _rotate_mask(p, -v, m, mask)
        if d == mask:
            break
    return d


def test_criterion_3_fourier_chain():
    start = time.monotonic()
    rng = random.Random(0xACCE03)
    primes = [m for m in range(2, 2004) if is_prime(m)]
    assert primes[0] == 2 and primes[-1] == 2003 and len(primes) == 304

    checked = 0
    for m in primes:
        sizes = []
        for _ in range(40):
            sizes.append(rng.randint(max(1, (2 * m) // 5), m))
        for _ in range(8):
            sizes.append(rng.randint(max(1, m // 8), max(1, m // 4)))
        for _ in range(2):
            # genuinely sparse sets are exercised where the frequency set
            # stays enumerable; at large m they are thinned, not skipped
            sizes.append(rng.randint(1, 4) if m <= 128 else rng.randint(max(1, m // 7), max(2, m // 6)))
        assert len(sizes) >= 50

        for size in sizes:
            size = max(1, min(m, size))
            b = IntegerSet(tuple(sorted(rng.sample(range(m), size))))
            spec = bogolyubov(b, m)
            dmask = _two_b_minus_two_b_mask(b.elements, m)
            bohr = bohr_enumerate(spec)
            for x in bohr:
                assert (dmask >> x) & 1, (m, size, x)
            res = gap_in_bohr(spec)
            vals, proper = gap_enumerate(res.gap)
            assert proper, (m, size)
            inside = set(bohr.elements)
            assert set(vals.elements) <= inside, (m, size)
            d = res.d_original
            assert res.gap.volume() * (4 * d) ** d >= m, (m, size, d)
            checked += 1

    elapsed = time.monotonic() - start
    _report(
        3,
        "Fourier chain",
        f"{len(primes)} moduli, {checked} sets, zero violations, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. covering bounds


def test_criterion_4_covering():
    rng = random.Random(0xACCE04)
    for _ in range(1000):
        y = _rand_distinct(rng, rng.randint(1, 12), -60, 60)
        z = _rand_distinct(rng, rng.randint(1, 12), -60, 60)
        x = ruzsa_cover(y, z)
        assert len(x) * len(y) <= len(sumset(y, z)), (y.elements, z.elements)
        cover = sumset(sumset(y, negate(y)), x)
        for v in z:
            assert v in cover, (y.elements, z.elements, v)
    _report(4, "covering bounds", "1000 pairs, zero violations")


# ---------------------------------------------------------------------------
# 5. reduction round-trips


def test_criterion_5_reduction_round_trips():
    start = time.monotonic()
    rng = random.Random(0xACCE05)
    chains = 0
    feasible_count = 0
    for _ in range(500):
        m = rng.randint(1, 2)
        n = rng.randint(1, 4)
        a = _distinct_cols_matrix(rng, m, n, -3, 3)
        if rng.random() < 0.6:
            x0 = [rng.randint(0, 1) for _ in range(n)]
            b = a.matvec(x0)
        else:
            b = tuple(rng.randint(-8, 8) for _ in range(m))
        want = brute_bilp_feasibility(a, b)

        nn = bilp_nonnegative(a, b)
        agg = bilp_to_hbilp(nn.matrix, nn.rhs)
        enc = hbilp_to_ss(agg.instance)
        # distinctness is IntegerSet's strictly-increasing rule
        assert enc.elements.min() >= 1, (a.rows, b)
        got = brute_subset_sum(enc.elements.elements, enc.target)
        assert (got is None) == (want is None), (a.rows, b)
        if got is not None:
            w = enc.decode(got)
            x = nn.decode(w.payload)
            assert a.matvec(x) == b, (a.rows, b, x)
            feasible_count += 1
        chains += 1
    assert chains >= 500
    elapsed = time.monotonic() - start
    _report(
        5,
        "reduction round-trips",
        f"{chains} chains ({feasible_count} feasible, all witnesses "
        f"re-verified), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. small-support candidates


def _closure_bits(cols_enc, valid_masks, start_bit: int) -> int:
    r = start_bit
    changed = True
    while changed:
        changed = False
        for enc, valid in zip(cols_enc, valid_masks):
            grown = r | ((r & valid) << enc)
            if grown != r:
                r = grown
                changed = True
    return r


_VALID_CACHE: dict = {}


def _column_mask(col: tuple, radix: int, strides: tuple, total_bits: int):
    """(encoded step, mask of states that stay inside the strict box)."""
    key = (col, radix, len(strides))
    hit = _VALID_CACHE.get(key)
    if hit is not None:
        return hit
    enc = sum(col[i] * strides[i] for i in range(len(strides)))
    valid = 0
    for idx in range(total_bits):
        ok = True
        for i in range(len(strides)):
            if (idx // strides[i]) % radix + col[i] >= radix:
                ok = False
                break
        if ok:
            valid |= 1 << idx
    _VALID_CACHE[key] = (enc, valid)
    return enc, valid


def test_criterion_6_small_support_exhaustive():
    start = time.monotonic()
    matrices = 0
    for m in (1, 2):
        nonzero_cols = [
            c for c in itertools.product(range(4), repeat=m) if any(c)
        ]
        for n in (1, 2, 3, 4):
            for cols in itertools.product(nonzero_cols, repeat=n):
                a = Matrix.from_rows(
                    [[cols[j][i] for j in range(n)] for i in range(m)]
                )
                delta = a.infinity_norm()
                radix = n * delta  # strict box: 0 <= b_i < n*delta
                cands = binary_image_supports(a)
                bound_rhs = (2 * n * delta + 1) ** m
                for supp in cands:
                    assert 2 ** len(supp) <= bound_rhs, (a.rows, supp)

                strides = tuple(radix**i for i in range(m))
                total_bits = radix**m
                mask_all = (1 << total_bits) - 1
                cols_enc = []
                valid_masks = []
                for j in range(n):
                    col = tuple(a.rows[i][j] for i in range(m))
                    enc, valid = _column_mask(col, radix, strides, total_bits)
                    cols_enc.append(enc)
                    valid_masks.append(valid)

                feasible = _closure_bits(cols_enc, valid_masks, 1)
                covered = 1  # the empty support reaches b = 0
                for supp in cands:
                    if not supp:
                        continue
                    covered |= _closure_bits(
                        [cols_enc[j] for j in supp],
                        [valid_masks[j] for j in supp],
                        1,
                    )
                missing = feasible & ~covered & mask_all
                assert missing == 0, (a.rows, missing.bit_length() - 1)
                matrices += 1
    assert matrices == 54360
    elapsed = time.monotonic() - start
    _report(
        6,
        "small-support lemma",
        f"{matrices} matrices exhausted, zero violations, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. scaling trend


def test_criterion_7_scaling_trend():
    start = time.monotonic()
    buf = io.StringIO()
    result = bench_foursum_scaling(buf, seed=0, trials=2, min_exp=8, max_exp=14)
    fits = result["fits"]
    elapsed = time.monotonic() - start
    assert fits["ap"] < 1.3, fits
    assert fits["sidon"] > 1.7, fits
    assert elapsed < 1200, f"bench took {elapsed:.1f}s"
    _report(
        7,
        "scaling trend",
        f"ap exponent {fits['ap']:.3f} < 1.3, sidon {fits['sidon']:.3f} > 1.7, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. determinism


def _run(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "gapsolve", *argv], capture_output=True
    )
    return proc.returncode, proc.stdout


def test_criterion_8_determinism(tmp_path):
    ap_path = tmp_path / "ap.json"
    ap_path.write_text(json.dumps({"elements": list(range(0, 96, 3))}))
    ss_path = tmp_path / "ss.json"
    ss_path.write_text(json.dumps({"elements": [3, 7, 12, 19, 31], "target": 22}))
    un_path = tmp_path / "un.json"
    un_path.write_text(
        json.dumps({"elements": [3, 5], "target": 47, "mode": "unbounded"})
    )
    bilp_path = tmp_path / "bilp.json"
    bilp_path.write_text(json.dumps({"A": [[2, -3], [1, 1]], "b": [-1, 2]}))
    hb_path = tmp_path / "hb.json"
    hb_path.write_text(json.dumps({"A": [[1, -2, 1]], "s": [3], "t": 6}))
    wit_path = tmp_path / "wit.json"
    wit_path.write_text(json.dumps({"kind": "subset-of-indices", "values": [0, 3]}))

    commands = [
        ["generate", "--kind", "ap", "--n", "40", "--seed", "5"],
        ["generate", "--kind", "sidon", "--n", "40", "--seed", "5"],
        ["generate", "--kind", "random", "--n", "40", "--seed", "5"],
        ["generate", "--kind", "gap", "--n", "40", "--seed", "5"],
        ["generate", "--kind", "union-aps", "--n", "40", "--seed", "5"],
        ["freiman", "--input", str(ap_path), "--seed", "3", "--split"],
        ["subset-sum", "solve", "--input", str(ss_path), "--seed", "2"],
        ["subset-sum", "solve", "--input", str(un_path), "--seed", "2"],
        ["ilp", "solve", "--input", str(bilp_path)],
        ["ilp", "solve", "--input", str(hb_path)],
        ["ilp", "reduce", "--from", "bilp", "--to", "ss", "--input", str(bilp_path), "--seed", "3"],
        ["ilp", "reduce", "--from", "hbilp", "--to", "ss", "--input", str(hb_path), "--seed", "3"],
        ["ilp", "reduce", "--from", "ss", "--to", "hbilp", "--input", str(ss_path), "--seed", "4"],
        ["ksum", "--input", str(ap_path), "--k", "4", "--target", "66", "--seed", "6"],
        ["ksum", "--input", str(ap_path), "--k", "3", "--target", "66", "--seed", "6"],
        ["ksum", "--input", str(ap_path), "--k", "5", "--target", "100", "--seed", "6"],
        ["ksum", "--input", str(ap_path), "--k", "30", "--target", "1413", "--seed", "6"],
        ["verify", "witness", "--input", str(ss_path), "--witness", str(wit_path)],
    ]
    for argv in commands:
        code1, out1 = _run(argv)
        code2, out2 = _run(argv)
        assert code1 == code2, argv
        assert out1 == out2, argv

    bench_runs = []
    for name in ("b1.jsonl", "b2.jsonl"):
        out = tmp_path / name
        code, _ = _run(
            ["bench", "foursum-scaling", "--out", str(out), "--trials", "1",
             "--min-exp", "4", "--max-exp", "6", "--seed", "9"]
        )
        assert code == 0
        bench_runs.append(out.read_bytes())
    assert bench_runs[0] == bench_runs[1]
    _report(
        8,
        "determinism",
        f"{len(commands)} commands plus the bench file, byte-identical reruns",
    )
