"""Binary and unbounded subset-sum solvers against the brute oracles."""

import json
import random
import time

import numpy as np
import pytest

from gapsolve import freiman, ilp, subset_sum
from gapsolve.core import (
    EnumerationCapError,
    IntegerSet,
    InvariantError,
    SolveWitness,
    TableCapError,
)
from gapsolve.ilp import _BoxReachability
from gapsolve.instances import ap_set
from gapsolve.oracles import brute_subset_sum, brute_unbounded_subset_sum
from gapsolve.subset_sum import (
    SS_MODES,
    SubsetSumInstance,
    solve_subset_sum,
    subset_sum_doubling,
    unbounded_subset_sum,
)


class TestInstance:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SubsetSumInstance(IntegerSet((1, 2)), 3, "fractional")
        assert SS_MODES == ("binary", "unbounded")

    def test_json_round_trip(self):
        inst = SubsetSumInstance(IntegerSet((2, 5, 9)), 7, "unbounded")
        assert SubsetSumInstance.from_json_dict(inst.to_json_dict()) == inst
        legacy = SubsetSumInstance.from_json_dict({"elements": [1, 4], "target": 5})
        assert legacy.mode == "binary"


class TestBinary:
    def test_frozen(self):
        z = IntegerSet((1, 2, 5, 11))
        w = subset_sum_doubling(z, 18)
        assert w is not None and w.kind == "subset-of-indices"
        assert sum(z.elements[i] for i in w.payload) == 18
        assert subset_sum_doubling(z, 20) is None
        assert subset_sum_doubling(z, 0).payload == ()

    def test_ap_structured_table_stays_small(self):
        # arithmetic progression: reachable sums collapse, so a tight cap
        # still succeeds where a dense Sidon-like set would blow past it
        z = IntegerSet(tuple(range(5, 5 + 40 * 3, 3)))
        w = subset_sum_doubling(z, 5 * 10 + 3 * 37, table_cap=10_000)
        assert w is not None

    def test_table_cap_raises(self, monkeypatch):
        # the first window is 255 keys wide, so the kept table is not
        # filtered by residue and the cap sees the same table as before
        monkeypatch.setattr(ilp, "_residue_sets", None)
        z = IntegerSet((1, 2, 4, 8, 16, 32, 64, 128))
        with pytest.raises(TableCapError, match=r"hit 32 entries at variable 4 \(cap 20\)"):
            subset_sum_doubling(z, 127, table_cap=20)
        # only the sum of every element reaches 255, so the kept table is one key
        assert subset_sum_doubling(z, 255, table_cap=20).payload == tuple(range(8))

    def test_vs_brute(self):
        rng = random.Random(200)
        for _ in range(200):
            n = rng.randint(1, 12)
            z = IntegerSet.from_iterable(rng.sample(range(-30, 31), n))
            t = rng.randint(-40, 40)
            got = subset_sum_doubling(z, t)
            want = brute_subset_sum(z.elements, t)
            assert (got is None) == (want is None), (z.elements, t)
            if got is not None:
                assert sum(z.elements[i] for i in got.payload) == t

    def test_deterministic(self):
        z = IntegerSet((3, 7, 12, 19, 25))
        a = subset_sum_doubling(z, 22)
        b = subset_sum_doubling(z, 22)
        assert a == b


    def test_scaled_ap_keeps_its_witness(self, monkeypatch):
        # the row is divided by its gcd, 2^64, so the keys stay int64
        widths = []
        engine = ilp._array_engine
        monkeypatch.setattr(
            ilp, "_array_engine", lambda keys, *args: widths.append(keys.dtype) or engine(keys, *args)
        )
        picks = random.Random(200).sample(range(200), 60)
        one = ap_set(200, 1, 1)
        big = ap_set(200, 1 << 64, 1 << 64)
        w = subset_sum_doubling(one, sum(one.elements[i] for i in picks))
        assert w is not None
        assert subset_sum_doubling(big, sum(big.elements[i] for i in picks)) == w
        assert widths == [np.int64, np.int64]


class TestUnbounded:
    def test_frozen(self):
        rng = random.Random(0)
        w = unbounded_subset_sum(IntegerSet((3, 5)), 11, rng)
        assert w is not None and w.kind == "multiplicity-vector"
        assert w.payload == (2, 1)
        assert unbounded_subset_sum(IntegerSet((3, 5)), 1, random.Random(0)) is None
        assert unbounded_subset_sum(IntegerSet((3, 5)), -4, random.Random(0)) is None
        zero = unbounded_subset_sum(IntegerSet((3, 5)), 0, random.Random(0))
        assert zero.payload == (0, 0)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            unbounded_subset_sum(IntegerSet((0, 3)), 5, random.Random(0))
        with pytest.raises(ValueError):
            unbounded_subset_sum(IntegerSet((-2, 3)), 5, random.Random(0))

    def test_target_past_two_million(self):
        # the closures' bits are the one refusal: 6 * 2,000,004 bits fit, so a
        # target past 2,000,000 is answered
        z = ap_set(5, 10, 1)
        t = 2_000_003
        got = unbounded_subset_sum(z, t, random.Random(0))
        assert got.payload == brute_unbounded_subset_sum(z.elements, t, cap=t)
        assert got.payload == (0, 0, 0, 9, 142849)

    def test_vs_brute(self):
        rng = random.Random(201)
        for trial in range(120):
            n = rng.randint(1, 6)
            z = IntegerSet.from_iterable(rng.sample(range(1, 40), n))
            t = rng.randint(0, 60)
            got = unbounded_subset_sum(z, t, random.Random(trial))
            want = brute_unbounded_subset_sum(z.elements, t)
            assert (got is None) == (want is None), (z.elements, t)
            if got is not None:
                # the box walk and the oracle both return the lexicographically least vector
                assert got.payload == want, (z.elements, t)

    def test_support_gcd_skips_closures(self, monkeypatch):
        # the box's support is every coin; every element is even, so an odd
        # target builds no box, and an even one builds the single box
        z = ap_set(4, 6, 4)
        built = []
        real = subset_sum._BoxReachability
        monkeypatch.setattr(
            subset_sum, "_BoxReachability", lambda *args: built.append(args) or real(*args)
        )
        for t in range(1, 200):
            before = len(built)
            got = unbounded_subset_sum(z, t, random.Random(t))
            assert len(built) - before == 1 - t % 2, t
            want = brute_unbounded_subset_sum(z.elements, t)
            assert (got is None) == (want is None), t
            if got is not None:
                assert got.payload == want, t
        assert len(built) == 99

    @pytest.mark.parametrize(
        "n, start, step, t",
        [(7, 1, 1, 10**6), (7, 1000, 7, 1_999_993), (50, 1000, 7, 100_003), (6, 7, 3, 1_999_999)],
    )
    def test_many_coins_match_the_oracle(self, n, start, step, t):
        # the box follows n * t / g, so n = 7 and n = 50 solve as n = 6 does
        z = ap_set(n, start, step)
        got = unbounded_subset_sum(z, t, random.Random(0))
        assert got is not None and got.payload == brute_unbounded_subset_sum(z.elements, t)

    def test_no_cover_no_supports(self, monkeypatch):
        # a coin question needs no cover; freiman_gap's modeling fails on this one
        def forbidden(*args, **kwargs):
            raise AssertionError("the unbounded solver left its coin box")

        monkeypatch.setattr(freiman, "freiman_gap", forbidden)
        monkeypatch.setattr(ilp, "freiman_gap", forbidden)
        monkeypatch.setattr(ilp, "ss_to_hbilp", forbidden)
        monkeypatch.setattr(ilp, "binary_image_supports", forbidden)
        z = IntegerSet((21, 58))
        got = unbounded_subset_sum(z, 252, random.Random(548))
        assert got.payload == brute_unbounded_subset_sum(z.elements, 252) == (12, 0)

    def test_box_memory_cap(self, monkeypatch):
        # (n + 1) * (t / g + 1) bits above UNBOUNDED_BOX_BITS is refused
        # before any closure is built; 16,000,000 bits are admitted
        z = ap_set(7, 1, 1)
        got = unbounded_subset_sum(z, 1_999_999, random.Random(0))
        assert got.payload == brute_unbounded_subset_sum(z.elements, 1_999_999)

        def no_box(*args):
            raise AssertionError("a refused query built a box")

        monkeypatch.setattr(subset_sum, "_BoxReachability", no_box)
        with pytest.raises(EnumerationCapError, match="16000008 above cap 16000000"):
            unbounded_subset_sum(z, 2_000_000, random.Random(0))
        with pytest.raises(EnumerationCapError, match="101 closures of 200001 bits"):
            unbounded_subset_sum(ap_set(100, 3, 3), 600_000, random.Random(0))

    def test_divides_by_the_gcd(self):
        # gcd 10^6: the target 2.1 * 10^7 is 21 in units of it, far below the
        # cap, and a target that the gcd does not divide is an exact "no"
        z = ap_set(5, 10**6, 10**6)
        w = unbounded_subset_sum(z, 21 * 10**6, random.Random(0))
        assert w is not None and all(m >= 0 for m in w.payload)
        assert sum(v * m for v, m in zip(z.elements, w.payload)) == 21 * 10**6
        assert w == unbounded_subset_sum(ap_set(5, 1, 1), 21, random.Random(0))
        assert unbounded_subset_sum(z, 21 * 10**6 + 1, random.Random(0)) is None

    def test_coprime_large_targets(self):
        # past the Frobenius number of {3, 5} everything is reachable
        for t in range(8, 40):
            w = unbounded_subset_sum(IntegerSet((3, 5)), t, random.Random(1))
            assert w is not None, t


class TestDispatch:
    def test_modes(self):
        binary = SubsetSumInstance(IntegerSet((2, 3, 9)), 5)
        w = solve_subset_sum(binary)
        assert w.kind == "subset-of-indices"
        unb = SubsetSumInstance(IntegerSet((2, 3, 9)), 13, "unbounded")
        w2 = solve_subset_sum(unb)
        assert w2.kind == "multiplicity-vector"
        assert sum(v * m for v, m in zip((2, 3, 9), w2.payload)) == 13


class TestCoinStep:
    """The unbounded solver's box: one row on [0, bound] over every coin."""

    def test_one_row_box_vs_brute(self):
        rng = random.Random(202)
        for _ in range(300):
            coins = [rng.randint(1, 30) for _ in range(rng.randint(1, 5))]
            bound = rng.randint(0, 400)
            box = _BoxReachability([(c,) for c in coins], bound)
            for t in {0, bound, rng.randint(0, bound), rng.randint(0, bound)}:
                assert box.lexmin((t,)) == brute_unbounded_subset_sum(coins, t), (coins, t)
            assert box.lexmin((bound + 1,)) is None

    def test_unit_coin_large_bound(self):
        start = time.perf_counter()
        box = _BoxReachability([(1,)], 2_000_000)
        assert box.lexmin((2_000_000,)) == (2_000_000,)
        assert box.lexmin((1_234_567,)) == (1_234_567,)
        box = _BoxReachability([(2,), (1,)], 2_000_000)
        assert box.lexmin((1_999_999,)) == (0, 1_999_999)
        assert time.perf_counter() - start < 1.0

    def test_large_multiple_in_one_step(self):
        # the first coin's least multiple is close to t / g; the walk finds it
        # without stepping through the multiples one at a time
        cases = [((1, 1999999), (1999998, 0)), ((3, 1999999), (666666, 0))]
        start = time.perf_counter()
        got = [unbounded_subset_sum(IntegerSet(z), 1_999_998, random.Random(0)) for z, _ in cases]
        assert time.perf_counter() - start < 0.25
        for (z, want), w in zip(cases, got):
            assert w.payload == want == brute_unbounded_subset_sum(z, 1_999_998)


class TestRechecksFire:
    """A corrupted engine answer is caught by the re-check before it leaves."""

    def test_binary(self, monkeypatch):
        # {3} misses 8, which {3, 5} hits
        assert subset_sum_doubling(IntegerSet((3, 5, 7)), 8).payload == (0, 1)
        monkeypatch.setattr(
            subset_sum,
            "bilp_feasibility_dp",
            lambda inst, table_cap: SolveWitness("binary-vector", (1, 0, 0)),
        )
        with pytest.raises(InvariantError, match="subset witness failed re-evaluation"):
            subset_sum_doubling(IntegerSet((3, 5, 7)), 8)

    def test_unbounded(self, monkeypatch):
        lexmin = _BoxReachability.lexmin
        assert unbounded_subset_sum(IntegerSet((3, 5)), 11, random.Random(0)).payload == (2, 1)
        monkeypatch.setattr(
            _BoxReachability, "lexmin", lambda self, b: tuple(v + 1 for v in lexmin(self, b))
        )
        with pytest.raises(InvariantError, match="multiplicity witness failed re-evaluation"):
            unbounded_subset_sum(IntegerSet((3, 5)), 11, random.Random(0))


_HBILP = {"A": [[1, 2]], "s": [1], "t": 2}
_SS = {"elements": [3, 5, 7], "target": 5}
# (kind, payload, the condition named): index witnesses are read against
# hbilp_to_ss of _HBILP, the elements (1, 2) with target 2, and vectors against _SS
BAD_WITNESSES = [
    ("subset-of-indices", (0, 2), "index 2 out of range for 2 elements"),
    ("subset-of-indices", (0, 1), "sum misses the target"),
    ("multiplicity-vector", (0, 1), "assignment has 2 entries for 3 elements"),
    ("multiplicity-vector", (0, 1, 2), "assignment entries must be 0 or 1"),
    ("multiplicity-vector", (1, -1, 1), "assignment entries must be 0 or 1"),
    ("multiplicity-vector", (1, 0, 1), "sum misses the target"),
]


class TestOneWitnessRule:
    """`SubsetSumInstance.violation` names the condition, and both subset
    decoders and `gapsolve ilp decode` refuse with the same text."""

    @pytest.mark.parametrize("kind,payload,text", BAD_WITNESSES)
    def test_rule_decoders_and_cli_agree(self, kind, payload, text, tmp_path, capsys):
        from gapsolve import cli

        if kind == "subset-of-indices":
            red = ilp.hbilp_to_ss(ilp.HbilpInstance.from_json_dict(_HBILP))
            inst, decode = SubsetSumInstance(red.elements, red.target), red.decode
            route, d = ["--from", "hbilp", "--to", "ss"], _HBILP
        else:
            inst = SubsetSumInstance.from_json_dict(_SS)
            decode = ilp.ss_to_hbilp(inst.elements, inst.target, random.Random(0)).decode
            route, d = ["--from", "ss", "--to", "hbilp"], _SS
        assert inst.violation(SolveWitness(kind, payload)) == text
        assert not inst.solved_by(SolveWitness(kind, payload))
        with pytest.raises(ValueError) as exc:
            decode(payload)
        assert str(exc.value) == text
        src, wit = tmp_path / "inst.json", tmp_path / "wit.json"
        src.write_text(json.dumps(d))
        reduced_kind = "subset-of-indices" if kind == "subset-of-indices" else "binary-vector"
        wit.write_text(json.dumps({"kind": reduced_kind, "values": list(payload)}))
        argv = ["ilp", "decode", *route, "--input", str(src), "--witness", str(wit)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"gapsolve: error: {text}\n"

    def test_modes_and_kinds(self):
        z = IntegerSet((3, 5, 7))
        twice = SolveWitness("multiplicity-vector", (0, 2, 0))
        assert SubsetSumInstance(z, 10, "unbounded").violation(twice) is None
        assert SubsetSumInstance(z, 10).violation(twice) == "assignment entries must be 0 or 1"
        negative = SolveWitness("multiplicity-vector", (5, -1, 0))
        assert SubsetSumInstance(z, 10, "unbounded").violation(negative) == (
            "assignment entries must be nonnegative"
        )
        assert SubsetSumInstance(z, 10).violation(SolveWitness("subset-of-indices", (0, 2))) is None
        for mode in SS_MODES:
            assert SubsetSumInstance(z, 10, mode).violation(
                SolveWitness("binary-vector", (1, 0, 1))
            ) == "a binary-vector witness does not solve subset sum"

    def test_names_resolve_to_core(self):
        from gapsolve import core

        assert SubsetSumInstance is core.SubsetSumInstance
        assert SS_MODES is core.SS_MODES
