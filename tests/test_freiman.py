"""Structure pipeline stages: modeling, Bogolyubov, Bohr-set progressions,
covering, and the assembled cover."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from gapsolve import core, freiman
from gapsolve.core import (
    EnumerationCapError,
    Gap,
    IntegerSet,
    InvariantError,
    gap_enumerate,
    gap_membership,
)
from gapsolve.freiman import (
    BohrSpec,
    FreimanModel,
    ModelingFailure,
    bogolyubov,
    freiman_gap,
    gap_in_bohr,
    is_prime,
    iterated_support,
    modeling_lemma,
    next_prime,
    ruzsa_cover,
    split_coords,
    split_dimensions,
    support_size,
)
from gapsolve.instances import ap_set, gap_sample_set
from gapsolve.oracles import (
    bohr_enumerate,
    bohr_subset_check,
    verify_freiman_iso,
)


class TestPrimes:
    def test_known_values(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert is_prime(2003)
        assert not is_prime(2001)

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(964) == 967

    def test_large_deterministic(self):
        assert is_prime((1 << 61) - 1)
        assert not is_prime((1 << 62) - 1)


class TestIteratedSupport:
    def test_frozen(self):
        support = iterated_support(IntegerSet((0, 1)), 2, 2)
        assert support[0] == -2 and support_size(support) == 5
        # the support is its sorted distinct offsets, not an array over the range
        assert support[1].dtype == np.int64 and support[1].tolist() == [0, 1, 2, 3, 4]

    def test_matches_sumset(self):
        from gapsolve.core import iterated_sumset

        rng = random.Random(2)
        # random counts, then equal counts (the minus side reuses the plus
        # fold) and unequal ones up to the pipeline's 8A - 8A
        counts = [(rng.randint(1, 3), rng.randint(0, 2)) for _ in range(40)]
        for p, m in ((1, 1), (2, 2), (3, 3), (8, 8), (2, 1), (1, 3), (8, 5), (8, 0)):
            counts += [(p, m)] * 4
        for p, m in counts:
            n = rng.randint(1, 8 if max(p, m) <= 3 else 5)
            a = IntegerSet.from_iterable(rng.sample(range(-30, 30), n))
            off, sup = iterated_support(a, p, m)
            want = iterated_sumset(a, p, m)
            assert sup.dtype == np.int64
            assert tuple(off + v for v in sup.tolist()) == want.elements, (a.elements, p, m)

    @staticmethod
    def _counted_folds(monkeypatch) -> dict:
        """Count the folds that enumerate pairs and those that convolve; the
        one fold rule in core looks both kernels up at call time."""
        calls = {"pair": 0, "fft": 0}

        def counted(name, fn):
            def wrapped(x, y, *rest):
                calls[name] += 1
                return fn(x, y, *rest)

            return wrapped

        monkeypatch.setattr(core, "_pair_sumset", counted("pair", core._pair_sumset))
        monkeypatch.setattr(core, "_fft_sumset", counted("fft", core._fft_sumset))
        return calls

    def test_wide_matches_sumset(self, monkeypatch):
        from gapsolve.core import iterated_sumset

        calls = self._counted_folds(monkeypatch)
        rng = random.Random(4)
        sets = [ap_set(n, 0, step) for n, step in ((8, 1000), (4, 10_000), (2, 10**6), (5, 31_337))]
        for scale in (1, 3, 100, 1000):
            gap = gap_sample_set(rng, rng.randint(3, 6), 2)
            sets.append(IntegerSet(tuple(scale * v for v in gap.elements)))
        bases = (0, -(10**12), (1 << 63) + 5, -(1 << 64), 1 << 70)
        checked = 0
        for a in sets:
            for base in bases:
                z = IntegerSet(tuple(base + v for v in a.elements))
                for p, m in ((8, 8), (2, 2), (8, 5), (1, 3), (8, 0)):
                    if (p + m) * z.diameter() + 1 > freiman.DEFAULT_SUPPORT_CAP:
                        continue
                    off, sup = iterated_support(z, p, m)
                    want = iterated_sumset(z, p, m)
                    assert sup.dtype == np.int64 and len(sup) == len(want)
                    got = tuple(off + v for v in sup.tolist())
                    assert got == want.elements, (z.elements, p, m)
                    checked += 1
        assert checked > 150
        assert calls["pair"] and calls["fft"]

    def test_wide_ap_makes_no_fft(self, monkeypatch):
        calls = self._counted_folds(monkeypatch)
        support = iterated_support(ap_set(8, 0, 2500), 8, 8)
        assert support_size(support) == 113
        assert calls["fft"] == 0
        # the counter is live: the same AP at step 1 folds by convolution
        iterated_support(ap_set(8, 0, 1), 8, 8)
        assert calls["fft"] > 0

    def test_support_cap_refuses(self):
        # 16 * 2^20 + 1 is one past the cap; the refusal comes before any fold
        assert freiman.DEFAULT_SUPPORT_CAP == 1 << 24
        with pytest.raises(EnumerationCapError, match="16777217 exceeds cap 16777216"):
            iterated_support(IntegerSet((0, 1 << 20)), 8, 8)
        with pytest.raises(EnumerationCapError, match="33554433 exceeds cap"):
            freiman_gap(IntegerSet((0, 1 << 21)), random.Random(0))


class TestModelingLemma:
    def test_ap_small(self):
        a = IntegerSet(tuple(range(8)))
        rng = random.Random(1)
        m = next_prime(4 * len(_iterated_set(a, 2)) + 1)
        model = modeling_lemma(a, 2, m, rng)
        assert not isinstance(model, ModelingFailure)
        assert len(model.a_prime) >= len(a) // 2
        ok, bad = verify_freiman_iso(
            model.apply, model.a_prime, 2, modulus=model.m
        )
        assert ok, bad

    def test_rejects_small_modulus(self):
        a = IntegerSet(tuple(range(8)))
        with pytest.raises(ValueError):
            modeling_lemma(a, 2, 11, random.Random(0))

    def test_product_past_int64_is_exact(self, monkeypatch):
        """The divisibility check multiplies lam * (c mod q) in int64 while
        the guard admits (q - 1)^2 and on exact Python ints past it; forcing
        the second path gives the same models and the same failure."""
        a = IntegerSet((0, 1, 5, 1000, 1003))
        m = next_prime(4 * len(_iterated_set(a, 2)) + 1)
        want = [modeling_lemma(a, 2, m, random.Random(seed)) for seed in range(8)]
        guards = []  # every guard call of the forced runs, each answered "no"
        monkeypatch.setattr(freiman, "_int64_safe", lambda *span: guards.append(span) or False)
        got = [modeling_lemma(a, 2, m, random.Random(seed)) for seed in range(8)]
        assert got == want
        assert guards == [(0, 2010**2)] * 8  # q = 2011
        assert sum(isinstance(w, FreimanModel) for w in want) == 7
        assert want[6] == ModelingFailure("iso-divisibility", 2011, 1625)

    def test_image_lives_in_zm(self):
        a = IntegerSet((0, 3, 7, 11, 20))
        m = next_prime(4 * len(_iterated_set(a, 3)) + 1)
        model = modeling_lemma(a, 3, m, random.Random(5))
        if isinstance(model, ModelingFailure):
            pytest.skip("seeded multiplier failed; acceptance tracks the rate")
        for x in model.a_prime:
            assert 0 <= model.apply(x) < model.m


def _iterated_set(a, s):
    from gapsolve.core import iterated_sumset

    return iterated_sumset(a, s, s).elements


class TestPullBack:
    @pytest.mark.parametrize("exact_ints", [False, True], ids=["int64", "object"])
    def test_inverter_matches_brute_force(self, monkeypatch, exact_ints):
        """Real models of the pipeline's order 8: every d = u + v - u' - v'
        over A'^4 has a distinct image under the model, and the inverter
        returns d for it; a residue outside the image is refused. The object
        run answers every int64 guard "no"."""
        if exact_ints:
            monkeypatch.setattr(freiman, "_int64_safe", lambda lo, hi: False)
        rng = random.Random(11)
        checks = 0
        for _ in range(40):
            a = IntegerSet.from_iterable(rng.sample(range(-200, 200), rng.randint(2, 12)))
            m = next_prime(4 * support_size(iterated_support(a, 8, 8)) + 1)
            model = modeling_lemma(a, 8, m, rng)
            if isinstance(model, ModelingFailure):
                continue
            image = {}
            for u, v, u2, v2 in itertools.product(model.a_prime, repeat=4):
                d = u + v - u2 - v2
                psi = sum(map(model.apply, (u, v))) - sum(map(model.apply, (u2, v2)))
                assert image.setdefault(psi % m, d) == d, (a.elements, d)
            assert len(set(image.values())) == len(image)
            invert = freiman._psi2_inverter(model)
            for residue, d in image.items():
                assert invert(residue) == d
                checks += 1
            missing = next(r for r in range(m) if r not in image)
            with pytest.raises(InvariantError, match="has 0 preimages"):
                invert(missing)
        assert checks == 536

    def test_inverter_needs_order_four(self):
        # below order 4 the four residues of a difference can wrap past q/2
        a = IntegerSet(tuple(range(8)))
        model = modeling_lemma(a, 2, next_prime(4 * len(_iterated_set(a, 2)) + 1), random.Random(1))
        with pytest.raises(ValueError, match="order >= 4"):
            freiman._psi2_inverter(model)


class TestBogolyubov:
    def test_singleton_keeps_everything(self):
        spec = bogolyubov(IntegerSet((0,)), 5)
        assert spec.frequencies == (1, 2, 3, 4)
        assert bohr_enumerate(spec).elements == (0,)

    def test_full_group_keeps_nothing(self):
        spec = bogolyubov(IntegerSet(tuple(range(7))), 7)
        assert spec.frequencies == ()

    def test_contained_in_2b_minus_2b(self):
        rng = random.Random(9)
        for m in (11, 31, 101):
            for _ in range(10):
                size = rng.randint(max(2, m // 4), m - 1)
                b = IntegerSet(tuple(sorted(rng.sample(range(m), size))))
                spec = bogolyubov(b, m)
                twob = _two_b_minus_two_b(b, m)
                ok, bad = bohr_subset_check(spec, twob)
                assert ok, (m, b.elements, bad)


    def test_matches_fft_reference(self, monkeypatch):
        """Both spectrum paths against the FFT line, with |B| from 1 to past
        3 * floor(log2 m) so that each side of the switch is drawn; composite
        m (even ones have r = m/2 as its own mirror) ride along. The path
        that ran is read from a spy."""
        calls = _spy_spectrum_paths(monkeypatch)
        rng = random.Random(140)
        ms = [2, 3, 5, 7, 11, 12, 64, 1000, 28151, 59999]
        ms += [next_prime(rng.randint(2, 60000)) for _ in range(16)]
        paths = set()
        for m in ms:
            top = 3 * (m.bit_length() - 1)  # the largest |B| summed directly
            for size in sorted({1, 2, top, top + 1, min(m, top + 3), rng.randint(1, top)}):
                if size > m:
                    continue
                for ends in (False, True):
                    pool = set(rng.sample(range(m), size))
                    if ends and m > 2 and size >= 2:
                        pool = {0, m - 1} | set(rng.sample(range(1, m - 1), size - 2))
                    b = IntegerSet.from_iterable(pool)
                    calls.clear()
                    got = bogolyubov(b, m).frequencies
                    (path,) = calls
                    assert got == _bogolyubov_fft_reference(b, m)
                    assert path == ("direct" if size <= top else "fft"), (m, size)
                    paths.add(path)
                    if path == "direct":
                        elems = np.array(b.elements, dtype=np.int64)
                        spectrum = freiman._direct_spectrum(elems, m)
                        assert np.max(np.abs(spectrum - _fft_spectrum(b, m))) * m * m < 1e-9
        for m in (2, 3, 7, 31):
            whole = IntegerSet(tuple(range(m)))
            assert bogolyubov(whole, m).frequencies == _bogolyubov_fft_reference(whole, m) == ()
        assert paths == {"direct", "fft"}

    def test_path_switches_above_three_log2_m(self, monkeypatch):
        calls = _spy_spectrum_paths(monkeypatch)
        rng = random.Random(141)
        for m in (2, 3, 17, 31, 32, 1021, 28151):
            top = 3 * (m.bit_length() - 1)
            for size, want in ((top, "direct"), (top + 1, "fft")):
                if size > m:
                    continue
                calls.clear()
                b = IntegerSet.from_iterable(rng.sample(range(m), size))
                bogolyubov(b, m)
                assert calls == [want], (m, size)
        # the int64 guard on r * x < m^2 sends even a singleton to the FFT
        monkeypatch.setattr(freiman, "_int64_safe", lambda lo, hi: False)
        calls.clear()
        assert bogolyubov(IntegerSet((3,)), 1021).frequencies == tuple(range(1, 1021))
        assert calls == ["fft"]

    def test_direct_spectrum_is_mirror_symmetric(self, monkeypatch):
        calls = _spy_spectrum_paths(monkeypatch)
        rng = random.Random(142)
        paths = set()
        for m in (2, 3, 4, 12, 97, 1000, 4099, 28151):
            top = 3 * (m.bit_length() - 1)
            for size in (rng.randint(1, min(m, top)), rng.randint(1, min(m, top)), min(m, top + 1)):
                elems = np.array(sorted(rng.sample(range(m), size)), dtype=np.int64)
                got = freiman._direct_spectrum(elems, m)
                assert got.shape == (m,)
                assert np.array_equal(got[1:], got[1:][::-1])
                calls.clear()
                fs = bogolyubov(IntegerSet(tuple(elems.tolist())), m).frequencies
                paths.update(calls)
                assert set(fs) == {m - r for r in fs}
        assert paths == {"direct", "fft"}


def _spy_spectrum_paths(monkeypatch):
    """Wrap both spectrum paths; the returned list gets "direct" or "fft"
    appended on each call."""
    calls = []
    direct, fft = freiman._direct_spectrum, np.fft.fft

    def spy_direct(elems, m):
        calls.append("direct")
        return direct(elems, m)

    def spy_fft(x, *args, **kwargs):
        calls.append("fft")
        return fft(x, *args, **kwargs)

    monkeypatch.setattr(freiman, "_direct_spectrum", spy_direct)
    monkeypatch.setattr(np.fft, "fft", spy_fft)
    return calls


def _fft_spectrum(b, m):
    ind = np.zeros(m, dtype=np.float64)
    ind[list(b.elements)] = 1.0
    return np.abs(np.fft.fft(ind) / m) ** 2


def _bogolyubov_fft_reference(b, m):
    """The spectrum as bogolyubov computed it for every set before the direct
    path: the length-m FFT of the indicator, the same threshold."""
    coeff_sq = _fft_spectrum(b, m)
    thr = float(Fraction(len(b), m)) ** 3
    rs = np.nonzero(coeff_sq > thr * (1.0 - 1e-9) - 1e-18)[0]
    return tuple(int(r) for r in rs if r != 0)


def _two_b_minus_two_b(b, m):
    vals = set()
    bs = b.elements
    pair = {(x + y) % m for x in bs for y in bs}
    for p in pair:
        for q in pair:
            vals.add((p - q) % m)
    return sorted(vals)


class TestGapInBohr:
    def test_frozen_m5(self):
        spec = BohrSpec(5, (1,), Fraction(1, 4))
        res = gap_in_bohr(spec)
        assert res.gap.generators == (1,)
        assert res.gap.lengths == (2,)
        assert res.norms == (Fraction(1, 5),)
        vals, proper = gap_enumerate(res.gap)
        assert proper and set(vals.elements) <= {0, 1, 4}

    def test_no_frequencies_whole_group(self):
        spec = BohrSpec(7, (), Fraction(1, 4))
        res = gap_in_bohr(spec)
        vals, _ = gap_enumerate(res.gap)
        assert vals.elements == tuple(range(7))

    def test_width_half_rejected(self):
        with pytest.raises(ValueError):
            gap_in_bohr(BohrSpec(7, (1,), Fraction(1, 2)))

    def test_empty_fit_without_sweep_matches_full_sweep(self, monkeypatch):
        """From d * qe >= pe * m on the fit is empty on any m, and the sweep
        is skipped; just below it the sweep runs. Each case against a
        test-local sweep of every gamma in [1, m)."""
        swept = []
        sweep = freiman._short_directions
        monkeypatch.setattr(
            freiman, "_short_directions", lambda *a: swept.append(a) or sweep(*a))
        rng = random.Random(143)
        quarter = Fraction(1, 4)
        cases = [(101, tuple(sorted(rng.sample(range(1, 101), d))), quarter)
                 for d in (26, 27, 40, 75, 100)]
        cases += [(1009, tuple(sorted(rng.sample(range(1, 1009), d))), eps)
                  for d, eps in ((253, quarter), (337, Fraction(1, 3)), (101, Fraction(1, 10)))]
        # composite m: every frequency of the first three shares a factor
        # with 12, and gamma = 6 (resp. 4, 8) maps the last two to 0
        cases += [(12, fs, quarter) for fs in ((2, 3, 4, 6, 8, 9, 10), (2, 4, 6, 8, 10), (3, 6, 9))]
        # one frequency short of the bound: the sweep keeps gamma = 1
        cases += [(12, (1, 11), quarter), (101, (1, 100), Fraction(1, 40))]
        for m, fs, eps in cases:
            spec = BohrSpec(m, fs, eps)
            swept.clear()
            res = gap_in_bohr(spec)
            assert (res.gap, res.norms, res.d_original) == _full_sweep_fit(spec)[0], (m, fs)
            exits = len(fs) * eps.denominator >= eps.numerator * m
            assert bool(swept) != exits, (m, fs)
            assert (res.gap.dimension == 0) == exits, (m, fs)
        # a full sweep does pass zero vectors there, which the fit then drops
        assert {4, 8} <= _full_sweep_fit(BohrSpec(12, (3, 6, 9), quarter))[1]
        assert 6 in _full_sweep_fit(BohrSpec(12, (2, 4, 6, 8, 10), quarter))[1]

    def test_volume_bound_spot(self):
        rng = random.Random(12)
        for m, d in itertools.product((101, 257, 503), (0, 1, 2, 5)):
            freqs = tuple(sorted(rng.sample(range(1, m), d)))
            spec = BohrSpec(m, freqs, Fraction(1, 4))
            res = gap_in_bohr(spec)
            assert res.d_original == d
            vol = res.gap.volume()
            assert vol * (4 * d) ** d >= m  # (eps/d)^d * m <= volume
            assert isinstance(res.volume_bound, Fraction)
            assert res.volume_bound == (Fraction(1, 4 * d) ** d * m if d else m)
            inside = set(bohr_enumerate(spec).elements)
            vals, proper = gap_enumerate(res.gap)
            assert proper
            assert set(vals.elements) <= inside


def _full_sweep_fit(spec):
    """(gap, norms, d_original) of the Bohr fit from every gamma in [1, m)
    in Python integers, and the gammas whose coordinates all pass the
    threshold (zero vectors included)."""
    m, eps, fs = spec.m, spec.width, spec.frequencies
    d, pe, qe = len(fs), spec.width.numerator, spec.width.denominator
    cands = []
    for gamma in range(1, m):
        signed = [w if 2 * w <= m else w - m for w in (gamma * r % m for r in fs)]
        nc = max(map(abs, signed))
        if nc * d * qe < pe * m:
            cands.append((nc, gamma, signed))
    cands.sort()
    kept = freiman._independent_prefix([(g, v, nc) for nc, g, v in cands], d)
    norms = tuple(Fraction(nc, m) for _, _, nc in kept)
    lengths = tuple(-((-pe * m) // (qe * nc * d)) for _, _, nc in kept)
    gap = Gap(0, tuple(g for g, _, _ in kept), lengths, modulus=m)
    return (gap, norms, d), {g for _, g, _ in cands}


def _bohr_verdict_reference(gap, spec):
    """The Bohr-gap certificate checked one frequency at a time in Python
    integers: the message of the first failed check, or None."""
    m, eps, d = spec.m, spec.width, len(spec.frequencies)
    vol = gap.volume()
    if vol > m:
        return "volume exceeds group order"
    if vol < (eps / d) ** d * m:
        return "below guarantee"
    elems = {0}
    for g, l in zip(gap.generators, gap.lengths):
        elems = {(e + j * g) % m for e in elems for j in range(l)}
    if len(elems) != vol:
        return "not proper"
    for r in spec.frequencies:
        for x in elems:
            w = r * x % m
            if Fraction(min(w, m - w), m) > eps:
                return "escapes the Bohr set"
    return None


def _bohr_verdict(gap, spec):
    try:
        freiman._assert_bohr_gap(gap, spec)
    except InvariantError as exc:
        for key in ("volume exceeds group order", "below guarantee",
                    "not proper", "escapes the Bohr set"):
            if key in str(exc):
                return key
        raise
    return None


class TestBohrCertificate:
    def test_matches_per_frequency_reference(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(400):
            m = rng.choice((7, 31, 101, 257, 1009))
            d = rng.randint(1, min(m - 1, 40))
            spec = BohrSpec(
                m,
                tuple(sorted(rng.sample(range(1, m), d))),
                rng.choice((Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 10))),
            )
            dim = rng.randint(0, 2)
            gens = tuple(rng.randrange(1, m) for _ in range(dim))
            lengths = tuple(rng.randint(1, 6) for _ in range(dim))
            gap = Gap(0, gens, lengths, modulus=m)
            want = _bohr_verdict_reference(gap, spec)
            assert _bohr_verdict(gap, spec) == want, (spec, gap)
            seen.add(want)
        assert seen == {None, "volume exceeds group order", "below guarantee",
                        "not proper", "escapes the Bohr set"}

    def test_escape_seen_only_by_a_late_block(self):
        # elements {0, 7}: about half of all frequencies keep both inside
        m, width = 200003, Fraction(1, 4)
        gap = Gap(0, (7,), (2,), modulus=m)
        step = freiman._BOHR_BLOCK // 2
        r = np.arange(1, m, dtype=np.int64)
        w = np.multiply.outer(r, np.array([0, 7])) % m
        worst = np.minimum(w, m - w).max(axis=1)
        inside = r[worst * width.denominator <= width.numerator * m]
        outside = r[worst * width.denominator > width.numerator * m]
        assert len(inside) > 2 * step
        bad = int(outside[outside > inside[2 * step]][0])
        freqs = tuple(sorted(inside.tolist() + [bad]))
        assert freqs.index(bad) >= 2 * step
        spec = BohrSpec(m, freqs, width)
        assert _bohr_verdict_reference(gap, spec) == "escapes the Bohr set"
        with pytest.raises(InvariantError, match="escapes the Bohr set"):
            freiman._assert_bohr_gap(gap, spec)
        clean = BohrSpec(m, tuple(inside.tolist()), width)
        assert _bohr_verdict_reference(gap, clean) is None
        freiman._assert_bohr_gap(gap, clean)

    def test_enumeration_cap(self, monkeypatch):
        gap, spec = Gap(0, (1,), (2,), modulus=5), BohrSpec(5, (1,), Fraction(1, 4))
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 1)
        with pytest.raises(EnumerationCapError, match="gap volume 2 exceeds enumeration cap 1"):
            freiman._assert_bohr_gap(gap, spec)
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 2)
        freiman._assert_bohr_gap(gap, spec)

    def test_every_failure_fires(self):
        q = Fraction(1, 4)
        with pytest.raises(InvariantError, match="exceeds group order"):
            freiman._assert_bohr_gap(Gap(0, (1,), (8,), modulus=7), BohrSpec(7, (1,), q))
        with pytest.raises(InvariantError, match="below guarantee"):
            freiman._assert_bohr_gap(Gap(0, (1,), (2,), modulus=101), BohrSpec(101, (1,), q))
        with pytest.raises(InvariantError, match="not proper"):
            freiman._assert_bohr_gap(
                Gap(0, (1, 2), (3, 3), modulus=101), BohrSpec(101, (1, 2, 3, 4), q)
            )
        with pytest.raises(InvariantError, match="escapes the Bohr set"):
            freiman._assert_bohr_gap(
                Gap(0, (50,), (2,), modulus=101), BohrSpec(101, (1, 2, 3, 4), q)
            )

    def test_log_screen_matches_exact_bound(self):
        rng = random.Random(41)
        ds = list(range(1, 60)) + [97, 256, 1000, 2047, 5000]
        checked = 0
        for d in ds:
            for eps in (Fraction(1, 4), Fraction(2, 5), Fraction(3, 7)):
                pe, qe = eps.numerator, eps.denominator
                for k in (1, 2, 3, 17, 1000, 1 << 40):
                    # m chosen so the bound (eps/d)^d * m sits near k
                    base = (qe * d) ** d * k // pe**d
                    for m in {max(2, base + rng.randint(-3, 3)), max(2, base)}:
                        bound = (eps / d) ** d * m
                        for vol in {math.floor(bound), math.ceil(bound),
                                    math.floor(bound) - 1, math.ceil(bound) + 1,
                                    2 * math.ceil(bound) + 3, 1}:
                            if vol < 1:
                                continue
                            got = freiman._below_volume_bound(vol, eps, d, m)
                            assert got == (vol < bound), (vol, eps, d, m)
                            checked += 1
        assert checked > 3000


class TestBohrSpec:
    def test_validation_matches_set_based_rule(self):
        rng = random.Random(61)
        big = 1 << 70
        for _ in range(2000):
            m = rng.choice((2, 5, 11, big, big + 9))
            pool = [0, 1, 2, m - 1, m, m + 1, big - 1, big, big + 1, -1, 2 * big]
            fs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            if rng.random() < 0.5:
                fs = tuple(sorted(fs))
            bad = list(fs) != sorted(set(fs)) or any(not 1 <= r < m for r in fs)
            if bad:
                with pytest.raises(ValueError, match="sorted, distinct"):
                    BohrSpec(m, fs, Fraction(1, 4))
            else:
                assert BohrSpec(m, fs, Fraction(1, 4)).frequencies == fs


    def test_frequency_array_matches_tuple(self):
        """The array the Bohr fit and certificate read equals the public
        tuple: int64 while the guard admits m, exact Python ints past it."""
        rng = random.Random(62)
        for m in (2, 11, 28151, (1 << 62) - 1, 1 << 62, 1 << 70):
            for _ in range(20):
                fs = {rng.randrange(1, m) for _ in range(rng.randint(0, 6))}
                if rng.random() < 0.5:
                    fs |= {1, m - 1}
                fs = tuple(sorted(fs))
                spec = BohrSpec(m, fs, Fraction(1, 4))
                assert spec._freqs.dtype == (np.int64 if m < 1 << 62 else object)
                assert spec._freqs.tolist() == list(fs)
                assert all(type(r) is int for r in spec._freqs.tolist())
        with pytest.raises(ValueError, match="sorted, distinct"):
            BohrSpec(11, (1, 1 << 70, 5), Fraction(1, 4))

    def test_array_input_builds_the_tuple_only_when_read(self):
        """An int64 array is validated like a tuple; bogolyubov's spectrum
        stays an array until `frequencies` is read."""
        arr = np.array([1, 4, 9], dtype=np.int64)
        spec = BohrSpec(11, arr, Fraction(1, 4))
        assert spec._freqs.tolist() == [1, 4, 9] and spec.frequencies == (1, 4, 9)
        for bad in ([4, 1], [1, 1], [0, 3], [3, 11]):
            with pytest.raises(ValueError, match="sorted, distinct"):
                BohrSpec(11, np.array(bad, dtype=np.int64), Fraction(1, 4))
        spec = bogolyubov(IntegerSet((0, 1, 5)), 101)
        assert "frequencies" not in vars(spec)
        assert spec.frequencies == tuple(spec._freqs.tolist())
        assert all(type(r) is int for r in spec.frequencies)


class TestRuzsaCover:
    def test_frozen(self):
        y = IntegerSet(tuple(range(5)))
        assert ruzsa_cover(y, y).elements == (0,)
        assert ruzsa_cover(IntegerSet((0,)), IntegerSet((3, 7))).elements == (3, 7)

    def test_bounds_random(self):
        from gapsolve.core import sumset

        rng = random.Random(4)
        for _ in range(100):
            y = IntegerSet.from_iterable(
                rng.sample(range(-40, 40), rng.randint(1, 10))
            )
            z = IntegerSet.from_iterable(
                rng.sample(range(-40, 40), rng.randint(1, 10))
            )
            x = ruzsa_cover(y, z)
            assert len(x) * len(y) <= len(sumset(y, z))
            diff = sumset(y, negate_set(y))
            cover = sumset(diff, x)
            assert all(v in cover for v in z)


def negate_set(a):
    from gapsolve.core import negate

    return negate(a)


class TestFreimanGap:
    def test_singleton(self):
        res = freiman_gap(IntegerSet((0,)), random.Random(0))
        assert res.cover.base == 0
        assert res.cover.lengths == (1,)
        vals, _ = gap_enumerate(res.cover)
        assert vals.elements == (0,)

    def test_ap_contained(self):
        a = IntegerSet(tuple(range(0, 80, 5)))
        res = freiman_gap(a, random.Random(3))
        assert res.metrics["n"] == 16
        for e in a:
            coords = res.coords[e]
            assert res.cover.element_at(coords) == e
            assert all(0 <= c < l for c, l in zip(coords, res.cover.lengths))

    def test_contained_via_membership(self):
        a = IntegerSet((0, 2, 4, 6, 8, 10))
        res = freiman_gap(a, random.Random(7))
        if res.cover.volume() <= 1 << 18:
            for e in a:
                assert gap_membership(res.cover, e) is not None

    def test_metrics_keys(self):
        a = IntegerSet((0, 1, 2, 5))
        res = freiman_gap(a, random.Random(1))
        for key in ("n", "m", "attempts", "cover_dimension", "cover_volume"):
            assert key in res.metrics

    # (set, seed) -> (m, q, aprime_size, bohr_frequencies); every such cover
    # keeps no Bohr dimension, so Q = {0} and X = A
    FROZEN = (
        ((3, 7, 11, 15, 19, 23), 2, (331, 163, 2, 314)),
        ((0, 11, 24, 34, 41), 1, (2503, 331, 3, 2496)),
        ((8, 23, 30, 34, 37, 38, 58), 4, (2999, 401, 3, 2998)),
        ((0, 6, 12, 13, 18, 20, 27, 34), 6, (2099, 277, 3, 2094)),
        ((-21, -19, -17, -15, 11, 49), 9, (2251, 563, 4, 2242)),
        # the cover benchmark's wide shapes: APs of step 2500 and 1000 and a
        # gap sample scaled by 100
        (tuple(range(0, 8 * 2500, 2500)), 5, (457, 140009, 1, 456)),
        (tuple(range(0, 10 * 1000, 1000)), 3, (587, 72019, 2, 564)),
        ((3100, 3200, 3400, 4700, 4800, 5000, 6400, 8100), 2, (3209, 40009, 3, 3204)),
    )

    @pytest.mark.parametrize("elements,seed,frozen", FROZEN)
    def test_frozen_covers(self, elements, seed, frozen):
        n = len(elements)
        res = freiman_gap(IntegerSet(elements), random.Random(seed))
        assert res.cover == Gap(0, elements, (2,) * n)
        assert res.q_gap == Gap(0, (), ())
        assert res.coords == {
            e: tuple(int(i == j) for j in range(n)) for i, e in enumerate(elements)
        }
        m, q, aprime, freqs = frozen
        assert res.metrics == {
            "n": n, "m": m, "q": q, "attempts": 1, "aprime_size": aprime,
            "bohr_frequencies": freqs, "kept_dims": 0, "q_volume": 1, "x_size": n,
            "cover_dimension": n, "cover_volume": 2**n, "strict_checked": True,
            "modeling_failures": [],
        }

    def test_trivial_q_skips_inverter_and_2a_fold(self, monkeypatch):
        folds = []
        support = freiman.iterated_support

        def counted(a, plus_count, minus_count):
            folds.append(plus_count)
            return support(a, plus_count, minus_count)

        def no_inverter(model):
            raise AssertionError("Q = {0} needs no inverter")

        monkeypatch.setattr(freiman, "iterated_support", counted)
        monkeypatch.setattr(freiman, "_psi2_inverter", no_inverter)
        res = freiman_gap(IntegerSet((3, 7, 11, 15, 19, 23)), random.Random(2))
        assert res.metrics["kept_dims"] == 0
        assert folds == [8, 8]  # 8A - 8A, then the slice's 8A' - 8A'

    @staticmethod
    def _forced_q(monkeypatch, gens, lengths, inverse):
        """Make the Bohr fit return a progression with these generators and
        the inverter map them as `inverse` says, so Q is non-trivial."""
        monkeypatch.setattr(
            freiman,
            "gap_in_bohr",
            lambda spec: SimpleNamespace(
                gap=Gap(0, gens, lengths, modulus=spec.m), d_original=len(gens)
            ),
        )
        monkeypatch.setattr(freiman, "_psi2_inverter", lambda model: {0: 0, **inverse}.__getitem__)

    def test_forced_one_dimensional_q(self, monkeypatch):
        step = 7
        a = IntegerSet(tuple(range(5, 5 + 12 * step, step)))
        self._forced_q(monkeypatch, (1,), (4,), {1: step})
        res = freiman_gap(a, random.Random(0))
        assert res.q_gap == Gap(0, (step,), (4,))
        assert res.x_set.elements == (5, 33, 61)
        assert res.cover == Gap(-21, (step, 5, 33, 61), (7, 2, 2, 2))
        assert res.coords == {
            5 + step * i: (3 + i % 4,) + tuple(int(i // 4 == j) for j in range(3))
            for i in range(12)
        }
        assert res.metrics["kept_dims"] == 1
        assert res.metrics["q_volume"] == 4
        assert res.metrics["cover_volume"] == 56

    def test_forced_q_with_one_translate(self, monkeypatch):
        step = 7
        a = IntegerSet(tuple(range(5, 5 + 12 * step, step)))
        self._forced_q(monkeypatch, (1,), (12,), {1: step})
        res = freiman_gap(a, random.Random(0))
        assert res.x_set.elements == (5,)
        assert res.cover == Gap(-72, (step,), (23,))
        assert res.coords == {5 + step * i: (11 + i,) for i in range(12)}

    def test_forced_two_dimensional_q(self, monkeypatch):
        a = IntegerSet(tuple(range(6)) + tuple(range(100, 106)))
        self._forced_q(monkeypatch, (1, 2), (3, 2), {1: 1, 2: 100})
        res = freiman_gap(a, random.Random(0))
        assert res.q_gap == Gap(0, (1, 100), (3, 2))
        assert res.x_set.elements == (0, 3)
        assert res.cover == Gap(-102, (1, 100, 0, 3), (5, 3, 2, 2))
        assert res.coords == {
            e: (2 + e % 100 % 3, 1 + e // 100) + ((1, 0) if e % 100 < 3 else (0, 1)) for e in a
        }
        assert res.metrics["kept_dims"] == 2

    def test_forced_q_with_improper_q_minus_q(self, monkeypatch):
        # the inverter is the identity, so Q = {0, 1, 2, 3} from generators
        # (1, 2); Q - Q over the box [0, 3)^2 based at -3 reaches 1 from
        # both (0, 2) and (2, 1), and every coordinate is the lex-least one
        a = IntegerSet(tuple(range(40)))
        self._forced_q(monkeypatch, (1, 2), (2, 2), {1: 1, 2: 2})
        res = freiman_gap(a, random.Random(0))
        assert res.q_gap == Gap(0, (1, 2), (2, 2))
        assert res.x_set.elements == tuple(range(0, 40, 4))
        box = list(itertools.product(range(3), range(3)))
        # |Q - Q| = 9 < |X| = 10: the certificate scans Q - Q, and where two
        # translates cover an element it keeps the least one
        qq = {c[0] + 2 * c[1] - 3 for c in box}
        for e, coords in res.coords.items():
            assert res.cover.element_at(coords) == e
            x = res.x_set.elements[coords[2:].index(1)]
            assert x == min(xx for xx in res.x_set if e - xx in qq)
            assert coords[:2] == next(c for c in box if c[0] + 2 * c[1] - 3 == e - x)

    def test_forced_q_outside_2a_minus_2a(self, monkeypatch):
        a = IntegerSet(tuple(range(5, 5 + 12 * 7, 7)))
        self._forced_q(monkeypatch, (1,), (4,), {1: 3})
        with pytest.raises(InvariantError, match="escapes 2A - 2A"):
            freiman_gap(a, random.Random(0))

    def test_dropped_translate_is_not_covered(self, monkeypatch):
        # Q = {0} and X = A; without its least translate, 3 has no x
        cover = freiman.ruzsa_cover
        monkeypatch.setattr(
            freiman, "ruzsa_cover", lambda y, z: IntegerSet(cover(y, z).elements[1:])
        )
        with pytest.raises(InvariantError, match="^3 not covered"):
            freiman_gap(IntegerSet((3, 7, 11, 15, 19, 23)), random.Random(2))

    def test_wrong_q_minus_q_vector_fails_the_certificate(self, monkeypatch):
        # Q - Q = {-21, -14, ..., 21}; giving 0 the vector (4,) of 7 puts 5
        # at 12 in the cover
        a = IntegerSet(tuple(range(5, 5 + 12 * 7, 7)))
        self._forced_q(monkeypatch, (1,), (4,), {1: 7})
        table = freiman._gap_value_table
        monkeypatch.setattr(freiman, "_gap_value_table", lambda gap: {**table(gap), 0: (4,)})
        with pytest.raises(InvariantError, match="certificate failed for 5$"):
            freiman_gap(a, random.Random(0))


class TestSplitDimensions:
    def test_frozen_single_dim(self):
        from gapsolve.core import Gap

        g = Gap(0, (1,), (64,))
        res = split_dimensions(g, 8)
        assert res.gap.generators == (1, 8)
        assert res.gap.lengths == (8, 8)
        orig, _ = gap_enumerate(g)
        split, _ = gap_enumerate(res.gap)
        assert set(orig.elements) <= set(split.elements)

    def test_noop_when_short(self):
        from gapsolve.core import Gap

        g = Gap(3, (2, 100), (3, 3))
        res = split_dimensions(g, 9)
        assert res.gap == g

    def test_modulus_rejected(self):
        from gapsolve.core import Gap

        with pytest.raises(ValueError):
            split_dimensions(Gap(0, (1,), (5,), modulus=7), 4)

    def test_coords_transfer(self):
        from gapsolve.core import Gap

        g = Gap(5, (3,), (50,))
        res = split_dimensions(g, 4)
        for ell in (0, 7, 23, 49):
            new = split_coords(res, (ell,))
            assert res.gap.element_at(new) == g.element_at((ell,))
            assert all(0 <= c < l for c, l in zip(new, res.gap.lengths))

    def test_length_bound_random(self):
        from gapsolve.core import Gap, ceil_root

        rng = random.Random(8)
        for _ in range(40):
            d = rng.randint(1, 3)
            gens = tuple(rng.randint(1, 5) * 100**i for i in range(d))
            lengths = tuple(rng.randint(1, 40) for _ in range(d))
            g = Gap(rng.randint(-10, 10), gens, lengths)
            n = rng.randint(2, 30)
            res = split_dimensions(g, n)
            assert all(l <= res.threshold for l in res.gap.lengths)
            orig, _ = gap_enumerate(g)
            split, _ = gap_enumerate(res.gap)
            assert set(orig.elements) <= set(split.elements)
