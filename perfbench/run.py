"""Benchmark for gapsolve: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload ksum|cover|solve|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client in one process: the next
instance starts only after the previous one returned. The loop runs whole
rounds (see workloads.py) until the timed phase has lasted about --seconds.
Set-up (import in a fresh interpreter, generation of the first round and a
warm-up of every code path) is timed SETUP_REPS times and its median
reported as `setup_s`. Every answer is checked outside the timed region; a
wrong answer or an unexpected exception ends the run with a nonzero exit and
no result line.

The end-to-end times are host-speed scaled. A shared VM can run the same
work up to 2x slower for seconds or minutes at a time, in user CPU time as
much as in wall time, so a raw time says as much about the neighbours as
about gapsolve. After every timed instance (and after every set-up
repetition) the harness runs a reference kernel that never calls gapsolve,
so that no change to gapsolve moves it: a Bohr-style sweep of small numpy
reductions driven from Python, a few FFTs, a numpy sort-unique of outer sums
and a reachable-set DP over dict keys, the kinds of work the three workloads
spend their time on. Each instance's latency is multiplied by KERNEL_REF_S
over the median kernel time of the 2 * KERNEL_WINDOW + 1 kernel runs around
it, which gives the latency at the reference speed; each set-up repetition
is scaled by the median of the kernel runs after it. `ops_per_s` counts
instances per second of solver time, kernel runs left out. The raw figures
and the kernel times are printed with the run statistics.

With --trace 0 the last line of stdout is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json. With --trace 1 the first two rounds
are run untraced, then with every public function of the traced gapsolve
modules wrapped (tracing.py), then untraced again, and the metrics are the
per-layer ones; spans are written to .bench_out/. The deterministic counters read from
results are printed in both modes, over the same first two rounds.

`--workload all` runs each workload in a fresh process, one after another.
The sources are imported from src/ next to this directory; without them the
benchmark exits nonzero.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are capped before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402  (neither imports gapsolve itself)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1
REFERENCE_ROUNDS = 2
SETUP_REPS = 5
# run in a fresh interpreter with argv [SRC, HERE]; prints its import seconds
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
    "import workloads; workloads.load_modules(); print(time.perf_counter() - t0)"
)
# the kernel's median time on a 2-vCPU Xeon VM at 2.0 GHz; it only sets the
# scale, so that scaled times read close to raw ones there
KERNEL_REF_S = 0.0090
# kernel runs on each side of an instance whose median scales its latency:
# the host's speed changes over seconds, so near runs track it best, and
# enough of them that the kernel's own jitter averages out
KERNEL_WINDOW = 8
KERNEL_SETUP_RUNS = 7

clock = time.perf_counter


def import_gapsolve():
    """Import gapsolve from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gapsolve", "__init__.py")):
        raise SystemExit(f"perfbench: no gapsolve sources under {SRC}")
    sys.path.insert(0, SRC)
    import gapsolve

    if os.path.dirname(os.path.dirname(os.path.abspath(gapsolve.__file__))) != SRC:
        raise SystemExit(f"perfbench: gapsolve imported from {gapsolve.__file__}, not {SRC}")
    return workloads.load_modules()


def make_kernel():
    """Returns a function that runs the reference kernel (see the module
    docstring) once on fixed data and returns its seconds; the kernel is
    warmed up first."""
    import numpy as np

    m = 1_000_003
    elems = (np.arange(512, dtype=np.int64) * 7919) % m
    freqs = range(3, 3 + 120 * 4099, 4099)
    ind = (np.arange(3000) % 7 == 0).astype(np.float64)
    outer = np.random.default_rng(7).integers(0, 1 << 24, 160)
    deltas = [j * j * 37 + 11 * j + 5 for j in range(14)]

    def kernel() -> float:
        t0 = clock()
        for r in freqs:
            w = (elems * r) % m
            np.any(np.minimum(w, m - w) * 5 > m)
        for _ in range(2):
            np.fft.irfft(np.fft.rfft(ind, 8192) ** 2, 8192)
        np.unique(np.add.outer(outer, outer))
        table: dict = {0: None}
        for j, delta in enumerate(deltas):
            additions: dict = {}
            for key in table:
                nk = key + delta
                if nk not in table and nk not in additions:
                    additions[nk] = (key, j, 1)
            table.update(additions)
        return clock() - t0

    for _ in range(20):
        kernel()
    return kernel


def time_round(instances, r, cap_errors, tracer=None, kernel=None):
    """Time each instance, running `kernel` (if given) after each outside
    its time; returns ([(result, refusal, seconds, kernel seconds)], wall).
    Garbage left by earlier rounds is collected first, so that every round
    starts from a like heap."""
    gc.collect()
    results = []
    start = clock()
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = f"{r}:{i}"
        t0 = clock()
        try:
            res, refusal = inst.solve(), None
        except cap_errors as exc:
            res, refusal = None, exc
        seconds = clock() - t0
        results.append((res, refusal, seconds, None if kernel is None else kernel()))
    return results, clock() - start


class Tally:
    """Outcomes, latencies and instance counts of the timed phase, plus the
    deterministic counters of the reference rounds."""

    def __init__(self):
        self.latencies: list = []
        self.kernel_s: list = []
        self.outcomes: dict = {}
        self.families: dict = {}
        self.kinds: dict = {}
        self.counters: dict = {}
        self.refusals: list = []
        self.round_walls: list = []

    def check(self, instances, results, count: bool) -> None:
        for inst, (res, refusal, seconds, kernel_s) in zip(instances, results):
            if refusal is not None:
                outcome = "refused"
                self.refusals.append(f"{inst.kind}: {type(refusal).__name__}: {refusal}")
            else:
                outcome = inst.check(res)
                if count and inst.count is not None:
                    inst.count(res, self.counters)
            if count:
                key = f"outcome.{inst.kind}.{outcome}"
                self.counters[key] = self.counters.get(key, 0) + 1
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            self.families[inst.family] = self.families.get(inst.family, 0) + 1
            self.kinds[inst.kind] = self.kinds.get(inst.kind, 0) + 1
            self.latencies.append(seconds)
            if kernel_s is not None:
                self.kernel_s.append(kernel_s)

    @property
    def wall(self) -> float:
        return sum(self.round_walls)

    @property
    def rounds(self) -> int:
        return len(self.round_walls)

    @property
    def per_round(self) -> int:
        return self.attempted // self.rounds

    def scaled_latencies(self) -> list:
        """Each latency at the reference speed (see the module docstring)."""
        k, w = self.kernel_s, KERNEL_WINDOW
        return [
            s * KERNEL_REF_S / statistics.median(k[max(0, i - w) : i + w + 1])
            for i, s in enumerate(self.latencies)
        ]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.outcomes.get("refused", 0) + self.outcomes.get("missed", 0)


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the gapsolve modules."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def set_up(wl, ctx, m, seed, kernel):
    """Import gapsolve in a fresh interpreter, generate round 0 and warm up
    every code path of the workload, SETUP_REPS times, running the kernel
    after each repetition; returns (round 0, seconds per repetition, the
    same at the reference speed)."""
    reps, scaled = [], []
    for _ in range(SETUP_REPS):
        import_s = fresh_import_s()
        t0 = clock()
        first = wl.make_round(ctx, seed, 0)
        warm = wl.warm_up(ctx)
        results, _ = time_round(warm, -1, m.cap_errors)
        Tally().check(warm, results, count=False)
        reps.append(import_s + clock() - t0)
        kernel_s = statistics.median(kernel() for _ in range(KERNEL_SETUP_RUNS))
        scaled.append(reps[-1] * KERNEL_REF_S / kernel_s)
    return first, reps, scaled


def run_untraced(wl, ctx, m, seed, seconds, first, kernel):
    tally = Tally()
    r, instances = 0, first
    while True:
        results, wall = time_round(instances, r, m.cap_errors, kernel=kernel)
        tally.round_walls.append(wall)
        tally.check(instances, results, count=r < REFERENCE_ROUNDS)
        r += 1
        # stop at the round boundary nearest to the requested duration
        if r >= REFERENCE_ROUNDS and tally.wall + statistics.fmean(tally.round_walls) / 2 >= seconds:
            break
        instances = wl.make_round(ctx, seed, r)
    return tally


def run_traced(wl, ctx, m, seed, first):
    """Run the reference rounds untraced (cold, checked and counted), then
    traced, then untraced again; the overhead ratio compares the last two,
    which both run on warm caches (numpy keeps FFT plans between calls)."""
    rounds = [first] + [wl.make_round(ctx, seed, r) for r in range(1, REFERENCE_ROUNDS)]

    def one_pass(tracer=None):
        tally, passes = Tally(), []
        if tracer is not None:
            tracer.install()
        try:
            for r, instances in enumerate(rounds):
                results, wall = time_round(instances, r, m.cap_errors, tracer)
                passes.append(results)
                tally.round_walls.append(wall)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # checks run untraced: they call gapsolve too
        for instances, results in zip(rounds, passes):
            tally.check(instances, results, count=True)
        return tally

    cold = one_pass()
    tracer = tracing.Tracer(m.cap_errors)
    traced = one_pass(tracer)
    warm = one_pass()
    if not cold.counters == traced.counters == warm.counters:
        raise SystemExit("perfbench: traced and untraced runs disagree on result counters")
    return warm, traced, tracer


def latency_metrics(latencies: list, per_round: int) -> dict:
    lat_ms = [s * 1000.0 for s in latencies]
    busy = [sum(latencies[i : i + per_round]) for i in range(0, len(latencies), per_round)]
    return {
        # rounds share one schedule, so the median round resists bursts of noise
        "ops_per_s": per_round / statistics.median(busy),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
    }


def end_to_end_metrics(tally, setup_s, peak_rss_mb):
    lat = latency_metrics(tally.scaled_latencies(), tally.per_round)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "latency_ms_p50": (lat["latency_ms_p50"], "ms"),
        "latency_ms_p90": (lat["latency_ms_p90"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(plain, traced, tracer):
    agg = tracer.aggregate()
    names, counts = agg["names"], tracer.counts

    def field(span, key):
        return names.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span in (
        "ksum.sparse_sumset",
        "ksum.ksum",
        "freiman.iterated_support",
        "freiman.freiman_gap",
        "ilp.bilp_feasibility_dp",
        "subset_sum.subset_sum_doubling",
        "subset_sum.unbounded_subset_sum",
        "cli.main",
        "core.sumset",
    ):
        out[f"{span}.calls"] = (field(span, "calls"), "count")
    for span in (
        "ksum.sparse_sumset",
        "freiman.iterated_support",
        "freiman.modeling_lemma",
        "freiman.bogolyubov",
        "freiman.gap_in_bohr",
        "freiman.ruzsa_cover",
        "core.sumset",
        "freiman.split_dimensions",
        "ilp.bilp_feasibility_dp",
        "ilp.bounded_ilp_feasibility",
        "ilp.hbilp_feasibility",
        "ilp.binary_image_supports",
    ):
        out[f"{span}.busy_s"] = (field(span, "busy_s"), "s")
    for span in (
        "ksum.ksum",
        "freiman.freiman_gap",
        "subset_sum.subset_sum_doubling",
        "subset_sum.unbounded_subset_sum",
        "cli.main",
    ):
        out[f"{span}.self_s"] = (field(span, "self_s"), "s")
    reductions = ("bilp_nonnegative", "bilp_to_hbilp", "hbilp_to_ss", "ss_to_hbilp")
    out["ilp.reduce.busy_s"] = (sum(field(f"ilp.{r}", "busy_s") for r in reductions), "s")
    out["ilp.reduce.self_s"] = (sum(field(f"ilp.{r}", "self_s") for r in reductions), "s")
    for key in (
        "ksum.sparse_sumset.fft_calls",
        "ksum.sparse_sumset.hash_calls",
        "ksum.sparse_sumset.work",
        "ksum.sparse_sumset.out_values",
        "ksum.partitions_tried",
        "freiman.iterated_support.range_len",
        "freiman.bogolyubov.modulus",
        "freiman.bogolyubov.spectrum_size",
        "freiman.gap_in_bohr.kept_dims",
        "freiman.ruzsa_cover.x_size",
        "freiman.freiman_gap.cover_dimension",
    ):
        out[key] = (counts.get(key, 0), "count")
    out["ksum.hit_ratio"] = (ratio(counts.get("ksum.solved", 0), counts.get("ksum.partitions_tried", 0)), "1")
    attempts = field("freiman.modeling_lemma", "calls")
    out["freiman.modeling_lemma.attempts"] = (attempts, "count")
    out["freiman.modeling_lemma.success_ratio"] = (
        ratio(counts.get("freiman.modeling_lemma.successes", 0), attempts),
        "1",
    )
    for module in ("ilp", "subset_sum"):
        out[f"{module}.refusals"] = (tracer.refusals.get(module, 0), "count")
    for module in ("core", "freiman", "ksum", "ilp", "subset_sum", "cli"):
        out[f"{module}.self_s"] = (agg["modules"].get(module, 0.0), "s")
    out["trace.overhead_ratio"] = (traced.wall / plain.wall, "1")
    if agg["self_sum_s"] > traced.wall:
        raise SystemExit("perfbench: summed self times exceed the traced wall time")
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")), flush=True)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    t0 = clock()
    m = import_gapsolve()
    import_s = clock() - t0
    import numpy

    kernel = make_kernel()

    wl = workloads.WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as tmpdir:
        ctx = workloads.Context(m, tmpdir)
        try:
            first, reps, scaled_reps = set_up(wl, ctx, m, seed, kernel)
            raw_setup_s, setup_s = statistics.median(reps), statistics.median(scaled_reps)
            if trace:
                plain, tally, tracer = run_traced(wl, ctx, m, seed, first)
                metrics = per_layer_metrics(plain, tally, tracer)
                spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
                tracer.write_spans(spans_path)
            else:
                tally = run_untraced(wl, ctx, m, seed, seconds, first, kernel)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                metrics = end_to_end_metrics(tally, setup_s, peak_rss_mb)
        except workloads.WrongAnswer as exc:
            print(f"perfbench: wrong answer on workload {name}: {exc}", file=sys.stderr)
            return 3

    spec = load_spec()
    declared = [row["name"] for row in spec["per_layer" if trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json")
    emit(
        {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            "loads": list(wl.loads),
            "bypasses": list(wl.bypasses),
            "load_model": "closed loop, 1 client, 1 process",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "rounds": tally.rounds,
            "instances_per_family": tally.families,
            "instances_per_kind": tally.kinds,
        }
    )
    emit(
        {
            "samples": tally.attempted,
            "outcomes": tally.outcomes,
            "failed_ratio": tally.failed / tally.attempted,
            "refusals": tally.refusals[:8],
            "timed_s": tally.wall,
            "round_walls_s": tally.round_walls,
            "import_s": import_s,
            "setup_reps_s": reps,
        }
    )
    emit({"counters": tally.counters})
    if not trace:
        raw = latency_metrics(tally.latencies, tally.per_round)
        emit(
            {
                "raw": {"setup_s": raw_setup_s, **raw},
                "kernel_ref_s": KERNEL_REF_S,
                "kernel_median_s": statistics.median(tally.kernel_s),
            }
        )
    if trace:
        emit(
            {
                "traced_wall_s": tally.wall,
                "self_sum_s": tracer.aggregate()["self_sum_s"],
                "spans": len(tracer.spans),
                "spans_file": os.path.relpath(spans_path, ROOT),
            }
        )
    for key, (value, unit) in metrics.items():
        print(f"{name:6s} {key:40s} {value:>16.6f} {unit}")
    emit(
        {
            "correct": True,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
