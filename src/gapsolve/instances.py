"""Instance families and the foursum scaling benchmark.

Generators are deterministic in their explicit rng; the benchmark derives
one child rng per (family, size, trial) task from string seeds so records
are byte-stable regardless of execution order. Doubling constants are
measured exactly up to a size cutoff and come from closed forms above it,
with the source recorded per row.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from typing import TextIO

from gapsolve.core import Gap, IntegerSet, InvariantError, doubling_constant, gap_enumerate
from gapsolve.freiman import next_prime
from gapsolve.ksum import foursum

MEASURE_LIMIT = 2048


def ap_set(n: int, start: int = 0, step: int = 1) -> IntegerSet:
    if n < 1 or step < 1:
        raise ValueError("need n >= 1 and step >= 1")
    return IntegerSet(tuple(start + i * step for i in range(n)))


def sidon_set(n: int) -> IntegerSet:
    """n-element Sidon set: 2pi + (i^2 mod p) for prime p >= n.

    Pairwise sums determine {i, j} from the high part and then the low
    part splits collisions, so all pairwise sums are distinct and the
    doubling constant is the worst possible, (n + 1) / 2.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    p = next_prime(n)
    return IntegerSet(tuple(2 * p * i + (i * i) % p for i in range(n)))


def random_dense_set(rng, n: int, span: int) -> IntegerSet:
    if not 1 <= n <= span:
        raise ValueError("need 1 <= n <= span")
    return IntegerSet(tuple(sorted(rng.sample(range(span), n))))


def gap_sample_set(rng, n: int, dimension: int = 2) -> IntegerSet:
    """n points sampled without replacement from a random proper
    progression of volume at least n.

    Generator i is r * (4 * side)^i with r in {1, 2, 3}. The axes below it
    span at most 3 (side - 1) ((4 * side)^i - 1) / (4 * side - 1), less
    than (4 * side)^i, so the box is always proper, and side^dimension >= n:
    one draw always serves."""
    if n < 1 or dimension < 1:
        raise ValueError("need n >= 1 and dimension >= 1")
    side = max(2, math.ceil(n ** (1.0 / dimension)) + 1)
    base = rng.randrange(-50, 50)
    gens = []
    scale = 1
    for _ in range(dimension):
        gens.append(scale * rng.randrange(1, 4))
        scale *= side * 4
    values, proper = gap_enumerate(Gap(base, tuple(gens), (side,) * dimension))
    if not proper or len(values) < n:
        raise InvariantError("sampling progression is not proper or too small")
    return IntegerSet(tuple(sorted(rng.sample(values.elements, n))))


def union_of_aps(rng, n: int, parts: int = 2) -> IntegerSet:
    """Union of up to `parts` arithmetic progressions totalling n terms
    before deduplication."""
    if n < 1 or parts < 1:
        raise ValueError("need n >= 1 and parts >= 1")
    sizes = [n // parts] * parts
    for i in range(n % parts):
        sizes[i] += 1
    out = set()
    for size in sizes:
        if size == 0:
            continue
        start = rng.randrange(-4 * n, 4 * n)
        step = rng.randrange(1, 8)
        out.update(start + i * step for i in range(size))
    return IntegerSet(tuple(sorted(out)))


# ---------------------------------------------------------------------------
# benchmark


def family_set(family: str, n: int) -> IntegerSet:
    if family == "ap":
        return ap_set(n)
    if family == "sidon":
        return sidon_set(n)
    raise ValueError(f"unknown family {family!r}")


def family_doubling(family: str, n: int) -> tuple[str, str]:
    """(c, source) with c exact; measured below the cutoff, closed-form
    above it (consecutive integers and Sidon both have one)."""
    if n <= MEASURE_LIMIT:
        c = doubling_constant(family_set(family, n))
        return str(c), "measured"
    if family == "ap":
        return str(Fraction(2 * n - 1, n)), "analytic"
    if family == "sidon":
        return str(Fraction(n + 1, 2)), "analytic"
    raise ValueError(f"unknown family {family!r}")


def fit_exponent(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log work against log n."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(w, 1)) for _, w in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def bench_foursum_scaling(
    out: TextIO,
    seed: int = 0,
    trials: int = 2,
    min_exp: int = 8,
    max_exp: int = 14,
    timing: bool = False,
) -> dict:
    """Run foursum over geometric sizes on the ap and sidon families and fit
    work ~ n^e per family.

    Tasks run sequentially in canonical (family, n, trial) order with one
    string-seeded rng each, so two runs with the same arguments produce
    identical records; wall-clock timing is opt-in because it breaks that.
    Targets are sums of four rng-chosen positions, hence always feasible.
    Returns {"fits": {family: exponent}}.
    """
    fits = {}
    for family in ("ap", "sidon"):
        points = []
        for exp in range(min_exp, max_exp + 1):
            n = 1 << exp
            z = family_set(family, n)
            vals = z.elements
            c, c_source = family_doubling(family, n)
            for trial in range(trials):
                rng = random.Random(f"{seed}:{family}:{n}:{trial}")
                picks = rng.sample(range(n), 4)
                t = sum(vals[i] for i in picks)
                t0 = time.perf_counter()
                res = foursum(z, t, rng)
                wall = (time.perf_counter() - t0) * 1000.0
                rec = {
                    "v": 1,
                    "kind": "foursum-bench",
                    "family": family,
                    "n": n,
                    "trial": trial,
                    "feasible": res.witness is not None,
                    "work": res.work,
                    "partitions": res.partitions_tried,
                    "c": c,
                    "c_source": c_source,
                }
                if timing:
                    rec["wall_ms"] = round(wall, 3)
                points.append((n, res.work))
                out.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
                out.write("\n")
        exponent = fit_exponent(points)
        fits[family] = exponent
        out.write(
            json.dumps(
                {
                    "v": 1,
                    "kind": "fit",
                    "family": family,
                    "exponent": round(exponent, 4),
                    "points": len(points),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        out.write("\n")
    return {"fits": fits}
