"""Seeded workloads for the gapsolve benchmark.

A workload is a sequence of rounds. Every round has the same schedule of
slots (family, kind, size, set shape); what the seed changes is drawn from a
string-seeded rng per (workload, seed, round). The harness runs whole
rounds, so every run sees the same mix whatever its length.

Each instance carries a `solve` call, which is the only thing timed and
which looks gapsolve functions up through their module objects at call time
(so traced runs see the wrapped functions), and a `check` call that runs
outside the timed region. `check` re-evaluates witnesses with plain integer
arithmetic, confirms negatives with `gapsolve.oracles` within their caps, and
otherwise relies on negatives that are infeasible by construction: the set is
scaled by a common factor and the target given a residue no sum can have.
It raises WrongAnswer on any mismatch.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Optional

FAMILIES = ("ap", "sidon", "random", "gap", "union-aps")


class WrongAnswer(Exception):
    """A solver output that does not match its instance."""


class Refused(Exception):
    """A CLI call that exited with code 2 (cap, width or pipeline error)."""


def load_modules() -> SimpleNamespace:
    names = ("core", "freiman", "ksum", "ilp", "subset_sum", "cli", "instances", "oracles")
    mods = {n: importlib.import_module(f"gapsolve.{n}") for n in names}
    core = mods["core"]
    mods["cap_errors"] = (
        core.TableCapError,
        core.EnumerationCapError,
        core.BitWidthError,
        core.PipelineFailureError,
        Refused,
    )
    return SimpleNamespace(**mods)


@dataclass
class Context:
    m: SimpleNamespace
    tmpdir: str


@dataclass
class Instance:
    family: str
    kind: str
    solve: Callable[[], Any]
    check: Callable[[Any], str]  # returns "solved", "infeasible" or "missed"
    count: Optional[Callable[[Any, dict], None]] = None


@dataclass(frozen=True)
class Workload:
    """Why a workload was chosen is recorded in BENCHMARK.json."""

    loads: tuple
    bypasses: tuple
    make_round: Callable[[Context, int, int], list]
    warm_up: Callable[[Context], list]


def _add(counters: dict, key: str, value: int) -> None:
    counters[key] = counters.get(key, 0) + value


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongAnswer(msg)


# Cost follows a set's diameter and additive structure far more than its
# size, so each slot of a round draws its set shape from an rng of its own
# that no seed changes. The seed varies what leaves the cost alone or nearly
# so: translations (ksum, cover), scale factors (the subset-sum table is
# invariant under scaling, not under translation), targets, planted
# assignments and every solver rng.


def _shape_rng(workload: str, slot: int) -> random.Random:
    return random.Random(f"{workload}:shape:{slot}")


def _family_set(m, rng: random.Random, family: str, n: int, span: int = 1 << 20, step: int = 3):
    inst = m.instances
    if family == "ap":
        return inst.ap_set(n, 0, step)
    if family == "sidon":
        return inst.sidon_set(n)
    if family == "random":
        return inst.random_dense_set(rng, n, span)
    if family == "gap":
        return inst.gap_sample_set(rng, n, 2)
    if family == "union-aps":
        # the n smallest of a 2n-term union: still two APs, and exactly n values
        return m.core.IntegerSet(inst.union_of_aps(rng, 2 * n, 2).elements[:n])
    raise ValueError(family)


def _translated(m, z, shift: int):
    return m.core.IntegerSet(tuple(v + shift for v in z.elements))


def _scaled(m, z, factor: int):
    return m.core.IntegerSet(tuple(factor * v for v in z.elements))


def _wrong_residue(g: random.Random, value: int, factor: int) -> int:
    """A target near factor * value that no sum of multiples of factor hits."""
    return factor * value + g.randrange(1, factor)


def _check_indices(values, payload, t: int, k: Optional[int] = None) -> None:
    _require(len(set(payload)) == len(payload), "witness repeats an index")
    _require(all(0 <= i < len(values) for i in payload), "witness index out of range")
    if k is not None:
        _require(len(payload) == k, f"witness has {len(payload)} indices, expected {k}")
    _require(sum(values[i] for i in payload) == t, "witness does not sum to the target")


def _matvec(rows, x) -> tuple:
    return tuple(sum(a * v for a, v in zip(row, x)) for row in rows)


# ---------------------------------------------------------------------------
# ksum: planted queries on the randomized splitter, unplanted ones swept
# exhaustively

# Each round is tiered so that the median and the 90th percentile both fall
# inside a tier of like latencies rather than on the edge between two: about
# a fifth cheap planted queries (FFT folds and small hash folds), three
# fifths exhaustive sweeps of unplanted targets (thousands of tiny folds),
# and a fifth planted queries whose two hash folds have ~2^18 pairs each.
KSUM_CHEAP = (("ap", 4, 2048), ("gap", 5, 512), ("union-aps", 4, 512), ("ap", 5, 128))
KSUM_EXHAUSTIVE = tuple((f, k) for k in (3, 4) for f in FAMILIES) + (("sidon", 5), ("random", 5))
KSUM_EXHAUSTIVE_N = {3: 48, 4: 22, 5: 16}
KSUM_HEAVY = (("sidon", 4, 2048), ("random", 4, 2048), ("sidon", 4, 2048), ("random", 4, 2048))
KSUM_RESIDUE = 3


def _ksum_instance(ctx: Context, family: str, z, t: int, k: int, planted: bool, rseed: str):
    m = ctx.m

    def solve():
        return m.ksum.ksum(z, t, k, random.Random(rseed))

    def check(res) -> str:
        if res.witness is None:
            if planted:
                _require(not res.exhaustive, "exhaustive sweep missed a planted target")
                return "missed"
            _require(m.oracles.brute_ksum(z, t, k) is None, "k-SUM oracle found a solution")
            return "infeasible"
        _require(res.witness.kind == "subset-of-indices", "wrong witness kind")
        _check_indices(z.elements, res.witness.payload, t, k)
        return "solved"

    def count(res, counters: dict) -> None:
        _add(counters, "ksum.work", res.work)
        _add(counters, "ksum.partitions_tried", res.partitions_tried)
        for backend, folds in sorted(res.meta.get("backends", {}).items()):
            _add(counters, f"ksum.{backend}_folds", folds)

    kind = f"planted-k{k}" if planted else f"exhaustive-k{k}"
    return Instance(family, kind, solve, check, count)


def ksum_round(ctx: Context, seed: int, r: int) -> list:
    g = random.Random(f"ksum:{seed}:{r}")
    m = ctx.m
    out = []

    def shaped(family: str, n: int):
        z = _family_set(m, _shape_rng("ksum", len(out)), family, n)
        return _translated(m, z, g.randrange(-1000, 1000))

    def planted(family: str, k: int, n: int) -> None:
        z = shaped(family, n)
        t = sum(z.elements[i] for i in g.sample(range(len(z)), k))
        out.append(_ksum_instance(ctx, family, z, t, k, True, f"{seed}:{r}:{len(out)}"))

    for family, k, n in KSUM_CHEAP:
        planted(family, k, n)
    for family, k in KSUM_EXHAUSTIVE:
        z = _scaled(m, shaped(family, KSUM_EXHAUSTIVE_N[k]), KSUM_RESIDUE)
        lo, hi = sum(z.elements[:k]), sum(z.elements[-k:])
        t = _wrong_residue(g, g.randrange(lo, hi) // KSUM_RESIDUE, KSUM_RESIDUE)
        out.append(_ksum_instance(ctx, family, z, t, k, False, f"{seed}:{r}:{len(out)}"))
    for family, k, n in KSUM_HEAVY:
        planted(family, k, n)
    return out


def ksum_warm_up(ctx: Context) -> list:
    g = random.Random("ksum:warm-up")
    m = ctx.m
    out = []
    for family in ("ap", "sidon"):  # FFT fold, then numpy hash fold
        z = _family_set(m, g, family, 512)
        t = sum(z.elements[i] for i in g.sample(range(len(z)), 4))
        out.append(_ksum_instance(ctx, family, z, t, 4, True, f"warm:{family}"))
    z = _scaled(m, _family_set(m, g, "random", 16), KSUM_RESIDUE)
    t = _wrong_residue(g, sum(z.elements[:3]) // KSUM_RESIDUE, KSUM_RESIDUE)
    out.append(_ksum_instance(ctx, "random", z, t, 3, False, "warm:exhaustive"))
    return out


# ---------------------------------------------------------------------------
# cover: freiman_gap then split_dimensions, wide and narrow sets

# Tiered like the ksum rounds: cheap narrow sets, then a middle tier of
# narrow and wide sets, then the four heaviest narrow sets (random and
# Sidon, of like cost), whose spectra are largest. Those four are about a
# fifth of the round, so the 90th percentile falls inside their tier; the
# wide AP of n=10, the wide gap sample, the AP of n=96 and the unions of n=32
# and 48 cost about the same, and the median falls among them.
COVER_WIDE_AP = ((8, 2500), (10, 1000))  # (n, step)
COVER_WIDE_GAP = ((8, 100),)  # (n, scale of a gap sample)
COVER_NARROW = (  # (family, n, AP step)
    ("ap", 16, 1),
    ("ap", 24, 2),
    ("union-aps", 16, None),
    ("union-aps", 24, None),
    ("ap", 32, 3),
    ("ap", 48, 1),
    ("ap", 96, 2),
    ("union-aps", 32, None),
    ("union-aps", 48, None),
    ("gap", 24, None),
    ("gap", 32, None),
    ("sidon", 8, None),
    ("sidon", 14, None),
    ("random", 12, None),
    ("random", 14, None),
    ("random", 16, None),
)
COVER_RANDOM_SPAN = 1 << 9


def _cover_instance(ctx: Context, family: str, kind: str, z, rseed: str):
    m = ctx.m

    def solve():
        res = m.freiman.freiman_gap(z, random.Random(rseed))
        return res, m.freiman.split_dimensions(res.cover, len(z))

    def check(out) -> str:
        res, split = out
        cover = res.cover
        for e in z:
            coords = res.coords[e]
            _require(len(coords) == cover.dimension, f"certificate of {e} has wrong length")
            _require(
                all(0 <= c < n for c, n in zip(coords, cover.lengths)),
                f"certificate of {e} leaves the box",
            )
            _require(cover.element_at(coords) == e, f"certificate of {e} does not reproduce it")
            digits = m.freiman.split_coords(split, coords)
            _require(
                all(0 <= c < n for c, n in zip(digits, split.gap.lengths)),
                f"split digits of {e} leave the box",
            )
            _require(split.gap.element_at(digits) == e, f"split digits of {e} do not reproduce it")
        return "solved"

    def count(out, counters: dict) -> None:
        metrics = out[0].metrics
        for key in ("m", "attempts", "bohr_frequencies", "kept_dims", "x_size", "cover_dimension"):
            _add(counters, f"freiman.{key}", metrics[key])
        _add(counters, "freiman.split_dimension", out[1].gap.dimension)

    return Instance(family, kind, solve, check, count)


def cover_round(ctx: Context, seed: int, r: int) -> list:
    g = random.Random(f"cover:{seed}:{r}")
    m = ctx.m
    out = []

    def add(family: str, kind: str, z) -> None:
        z = _translated(m, z, g.randrange(-1000, 1000))
        out.append(_cover_instance(ctx, family, kind, z, f"{seed}:{r}:{len(out)}"))

    for n, step in COVER_WIDE_AP:
        add("ap", "wide", m.instances.ap_set(n, 0, step))
    for n, scale in COVER_WIDE_GAP:
        add("gap", "wide", _scaled(m, _family_set(m, _shape_rng("cover", len(out)), "gap", n), scale))
    for family, n, step in COVER_NARROW:
        rng = _shape_rng("cover", len(out))
        add(family, "narrow", _family_set(m, rng, family, n, span=COVER_RANDOM_SPAN, step=step))
    return out


def cover_warm_up(ctx: Context) -> list:
    g = random.Random("cover:warm-up")
    return [
        _cover_instance(ctx, f, "narrow", _family_set(ctx.m, g, f, 6, span=64), f"warm:{f}")
        for f in ("ap", "sidon")
    ]


# ---------------------------------------------------------------------------
# solve: subset sum, small ILPs, reduction chains, unbounded subset sum and
# CLI round trips

SOLVE_SS = (  # (family, n, negative by construction)
    ("ap", 32, False),
    ("ap", 64, False),
    ("ap", 96, False),
    ("ap", 64, True),
    ("gap", 32, False),
    ("gap", 64, False),
    ("gap", 32, True),
    ("union-aps", 32, False),
    ("union-aps", 64, False),
    ("union-aps", 32, True),
    ("random", 16, False),
    ("random", 18, False),
    ("random", 16, True),
)
SOLVE_SS_RANDOM_SPAN = 1 << 16
SOLVE_SS_SCALE = 64  # the DP's table size is invariant under scaling, not translation
SOLVE_SS_RESIDUE = 3
SOLVE_BILP = ((2, 12, True), (3, 12, False), (4, 14, True))  # (rows, cols, planted)
SOLVE_BOUNDED = ((2, 8, 3), (3, 8, 2))  # (rows, cols, upper bound)
SOLVE_HBILP = ((2, 16, True), (4, 16, False))
SOLVE_CHAIN = ((2, 3, True), (2, 3, False), (3, 3, True))
SOLVE_UNBOUNDED = (4, 5, 6)
SOLVE_CLI = ("bilp-ss", "bilp-hbilp", "ss-hbilp")


def _ss_instance(ctx: Context, family: str, z, t: int, negative: bool):
    """Binary subset sum; the target is planted unless `negative`."""
    m = ctx.m

    def solve():
        return m.subset_sum.subset_sum_doubling(z, t)

    def check(w) -> str:
        if w is None:
            _require(negative, "planted subset-sum target declared infeasible")
            if len(z) <= 40:  # the oracle's cap; above it the residue argument stands
                _require(m.oracles.brute_subset_sum(z, t) is None, "subset-sum oracle found a solution")
            return "infeasible"
        _require(w.kind == "subset-of-indices", "wrong witness kind")
        _check_indices(z.elements, w.payload, t)
        return "solved"

    return Instance(family, "subset-sum-neg" if negative else "subset-sum", solve, check)


def _random_matrix(g: random.Random, rows: int, cols: int, lo: int, hi: int) -> list:
    """Rows with pairwise distinct columns (the BILP constructors reject
    duplicates)."""
    while True:
        a = [[g.randrange(lo, hi + 1) for _ in range(cols)] for _ in range(rows)]
        if len(set(zip(*a))) == cols:
            return a


def _binary_check(rows, b, x, oracle_none: Callable[[], bool]) -> str:
    if x is None:
        _require(oracle_none(), "oracle found a solution to a program declared infeasible")
        return "infeasible"
    _require(len(x) == len(rows[0]) and all(v in (0, 1) for v in x), "witness is not binary")
    _require(_matvec(rows, x) == tuple(b), "witness does not satisfy Ax = b")
    return "solved"


def _bilp_instance(ctx: Context, rows, b):
    m = ctx.m
    inst = m.ilp.BilpInstance.binary(m.core.Matrix.from_rows(rows), b)

    def solve():
        w = m.ilp.bilp_feasibility_dp(inst)
        return None if w is None else w.payload

    def check(x) -> str:
        return _binary_check(
            rows, b, x, lambda: m.oracles.brute_bilp_feasibility(inst.a, b) is None
        )

    return Instance("ilp", "bilp", solve, check)


def _bounded_instance(ctx: Context, rows, b, upper: int):
    m = ctx.m
    bounds = ((0, upper),) * len(rows[0])
    inst = m.ilp.BilpInstance(m.core.Matrix.from_rows(rows), tuple(b), bounds)

    def solve():
        w = m.ilp.bounded_ilp_feasibility(inst)
        return None if w is None else w.payload

    def check(x) -> str:
        if x is None:
            none = m.oracles.brute_bounded_feasibility(inst.a, b, bounds) is None
            _require(none, "oracle found a solution to a program declared infeasible")
            return "infeasible"
        _require(len(x) == len(rows[0]), "witness has the wrong length")
        _require(all(0 <= v <= upper for v in x), "witness leaves its bounds")
        _require(_matvec(rows, x) == tuple(b), "witness does not satisfy Ax = b")
        return "solved"

    return Instance("ilp", "bounded", solve, check)


def _hbilp_instance(ctx: Context, rows, s, t: int):
    m = ctx.m
    inst = m.ilp.HbilpInstance(m.core.Matrix.from_rows(rows), tuple(s), t)

    def solve():
        w = m.ilp.hbilp_feasibility(inst)
        return None if w is None else w.payload

    def check(x) -> str:
        if x is None:
            none = m.oracles.brute_hbilp_feasibility(inst.a, s, t) is None
            _require(none, "oracle found a solution to a program declared infeasible")
            return "infeasible"
        _require(len(x) == len(rows[0]) and all(v in (0, 1) for v in x), "witness is not binary")
        _require(sum(si * ri for si, ri in zip(s, _matvec(rows, x))) == t, "<Ax, s> != t")
        return "solved"

    return Instance("ilp", "hbilp", solve, check)


def _chain_instance(ctx: Context, rows, b):
    """bilp -> nonnegative bilp -> hbilp -> subset sum, solved and decoded."""
    m = ctx.m
    a = m.core.Matrix.from_rows(rows)

    def solve():
        nn = m.ilp.bilp_nonnegative(a, b)
        agg = m.ilp.bilp_to_hbilp(nn.matrix, nn.rhs)
        ss = m.ilp.hbilp_to_ss(agg.instance)
        w = m.subset_sum.subset_sum_doubling(ss.elements, ss.target)
        if w is None:
            return None
        return nn.decode(agg.decode(ss.decode(w.payload).payload))

    def check(x) -> str:
        return _binary_check(rows, b, x, lambda: m.oracles.brute_bilp_feasibility(a, b) is None)

    return Instance("ilp", "chain", solve, check)


def _unbounded_instance(ctx: Context, z, t: int, rseed: str):
    m = ctx.m

    def solve():
        return m.subset_sum.unbounded_subset_sum(z, t, random.Random(rseed))

    def check(w) -> str:
        if w is None:
            none = m.oracles.brute_unbounded_subset_sum(z, t) is None
            _require(none, "unbounded oracle found a solution")
            return "infeasible"
        x = w.payload
        _require(len(x) == len(z) and all(v >= 0 for v in x), "bad multiplicity vector")
        _require(sum(v * c for v, c in zip(z.elements, x)) == t, "multiplicities miss the target")
        return "solved"

    return Instance("ap", "unbounded", solve, check)


def _cli(m, argv: list) -> tuple:
    """Run gapsolve.cli.main in-process; returns (exit code, parsed stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    if code == 2:
        raise Refused(err.getvalue().strip())
    return code, json.loads(out.getvalue())


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _cli_instance(ctx: Context, route: str, payload: dict, seed: int, tag: str):
    """One reduce -> solve -> decode round trip through the CLI front end on
    JSON files; the decoded witness is checked against `payload`."""
    m = ctx.m
    src, dst = route.split("-")
    base = os.path.join(ctx.tmpdir, tag)

    def solve():
        orig = _write_json(base + "-in.json", payload)
        common = ["--from", src, "--to", dst, "--seed", str(seed)]
        _, red = _cli(m, ["ilp", "reduce", *common, "--input", orig])
        reduced = _write_json(base + "-red.json", red["instance"])
        if dst == "ss":
            code, sol = _cli(m, ["subset-sum", "solve", "--input", reduced])
        else:
            code, sol = _cli(m, ["ilp", "solve", "--input", reduced])
        if code == 1:
            return None
        wit = _write_json(base + "-wit.json", sol["witness"])
        _, dec = _cli(m, ["ilp", "decode", *common, "--input", orig, "--witness", wit])
        return dec["witness"]

    def check(w) -> str:
        if src == "ss":
            elems, t = payload["elements"], payload["target"]
            if w is None:
                _require(m.oracles.brute_subset_sum(elems, t) is None, "oracle found a subset")
                return "infeasible"
            _require(w["kind"] == "subset-of-indices", "wrong witness kind")
            _check_indices(elems, w["values"], t)
            return "solved"
        rows, b = payload["A"], payload["b"]
        a = m.core.Matrix.from_rows(rows)
        x = None if w is None else tuple(w["values"])
        return _binary_check(rows, b, x, lambda: m.oracles.brute_bilp_feasibility(a, b) is None)

    return Instance("cli", f"cli-{route}", solve, check)


def _rhs(g: random.Random, a: list, planted: bool) -> list:
    """b = Ax for a random binary x, or a random b (feasible or not)."""
    cols = len(a[0])
    if planted:
        return list(_matvec(a, [g.randrange(2) for _ in range(cols)]))
    return [g.randrange(-cols, cols + 1) for _ in a]


def solve_round(ctx: Context, seed: int, r: int) -> list:
    g = random.Random(f"solve:{seed}:{r}")
    m = ctx.m
    out = []
    for family, n, negative in SOLVE_SS:
        z = _family_set(m, _shape_rng("solve", len(out)), family, n, span=SOLVE_SS_RANDOM_SPAN)
        scale = g.randrange(1, SOLVE_SS_SCALE)
        z = m.core.IntegerSet(tuple(scale * (v - z.min() + 1) for v in z.elements))
        t = sum(g.sample(z.elements, max(1, len(z) // 3)))
        if negative:
            z = _scaled(m, z, SOLVE_SS_RESIDUE)
            t = _wrong_residue(g, t, SOLVE_SS_RESIDUE)
        out.append(_ss_instance(ctx, family, z, t, negative))
    for rows, cols, planted in SOLVE_BILP:
        a = _random_matrix(_shape_rng("solve", len(out)), rows, cols, -3, 3)
        out.append(_bilp_instance(ctx, a, _rhs(g, a, planted)))
    for rows, cols, upper in SOLVE_BOUNDED:
        a = _random_matrix(_shape_rng("solve", len(out)), rows, cols, -3, 3)
        b = list(_matvec(a, [g.randrange(upper + 1) for _ in range(cols)]))
        out.append(_bounded_instance(ctx, a, b, upper))
    for rows, cols, planted in SOLVE_HBILP:
        shape = _shape_rng("solve", len(out))
        a = [[shape.randrange(0, 4) for _ in range(cols)] for _ in range(rows)]
        s = [shape.randrange(1, 10) for _ in range(rows)]
        dots = [sum(a[i][j] * s[i] for i in range(rows)) for j in range(cols)]
        t = sum(d for d in dots if g.randrange(2)) if planted else g.randrange(sum(dots) + 1)
        out.append(_hbilp_instance(ctx, a, s, t))
    for rows, cols, planted in SOLVE_CHAIN:
        a = _random_matrix(_shape_rng("solve", len(out)), rows, cols, -2, 2)
        out.append(_chain_instance(ctx, a, _rhs(g, a, planted)))
    for n in SOLVE_UNBOUNDED:
        shape = _shape_rng("solve", len(out))
        z = m.instances.ap_set(n, shape.randrange(2, 20), shape.randrange(1, 6))
        out.append(_unbounded_instance(ctx, z, g.randrange(200, 2000), f"{seed}:{r}:{len(out)}"))
    z = m.instances.ap_set(5, 6, 9)
    t = _wrong_residue(g, g.randrange(60, 600), 3)
    out.append(_unbounded_instance(ctx, z, t, f"{seed}:{r}:{len(out)}"))
    for route in SOLVE_CLI:
        if route == "ss-hbilp":
            z = m.instances.ap_set(8, g.randrange(1, 1000), 5)
            payload = {"elements": list(z.elements), "target": sum(g.sample(z.elements, 3))}
        else:
            a = _random_matrix(_shape_rng("solve", len(out)), 2, 3, -2, 2)
            payload = {"A": a, "b": _rhs(g, a, True)}
        out.append(_cli_instance(ctx, route, payload, seed, f"r{r}-{route}"))
    return out


def solve_warm_up(ctx: Context) -> list:
    g = random.Random("solve:warm-up")
    m = ctx.m
    z = m.instances.ap_set(16, 1, 2)
    out = [_ss_instance(ctx, "ap", z, sum(z.elements[:5]), False)]
    a = _random_matrix(g, 2, 6, -3, 3)
    out.append(_bilp_instance(ctx, a, _rhs(g, a, True)))
    a = _random_matrix(g, 2, 4, -3, 3)
    out.append(_bounded_instance(ctx, a, list(_matvec(a, [1, 2, 0, 1])), 2))
    out.append(_hbilp_instance(ctx, [[1, 2, 3, 4]], [3], 9))
    out.append(_chain_instance(ctx, [[1, -2]], [-1]))
    out.append(_unbounded_instance(ctx, m.instances.ap_set(3, 5, 3), 100, "warm"))
    payload = {"A": [[1, 2]], "b": [2]}
    out.append(_cli_instance(ctx, "bilp-ss", payload, 0, "warm"))
    return out


WORKLOADS = {
    "ksum": Workload(
        loads=("ksum.sparse_sumset", "ksum.ksum"),
        bypasses=("freiman", "ilp", "subset_sum", "cli"),
        make_round=ksum_round,
        warm_up=ksum_warm_up,
    ),
    "cover": Workload(
        loads=(
            "freiman.iterated_support",
            "freiman.modeling_lemma",
            "freiman.bogolyubov",
            "freiman.gap_in_bohr",
            "freiman.ruzsa_cover",
            "core.sumset",
            "freiman.freiman_gap",
            "freiman.split_dimensions",
        ),
        bypasses=("ksum", "ilp", "subset_sum", "cli"),
        make_round=cover_round,
        warm_up=cover_warm_up,
    ),
    "solve": Workload(
        loads=(
            "ilp.bilp_feasibility_dp",
            "ilp.bounded_ilp_feasibility",
            "ilp.hbilp_feasibility",
            "ilp reductions",
            "ilp.binary_image_supports",
            "subset_sum",
            "cli.main",
        ),
        bypasses=("ksum",),
        make_round=solve_round,
        warm_up=solve_warm_up,
    ),
}
