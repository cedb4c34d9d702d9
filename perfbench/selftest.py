"""Self-test of the benchmark itself (not of gapsolve).

    python3 perfbench/selftest.py

1. The correctness gate rejects tampered answers: for one instance of every
   kind, a corrupted witness and a false claim of infeasibility must both
   raise WrongAnswer (a false claim is skipped where the instance is
   genuinely infeasible).
2. The deterministic counters repeat exactly across two runs of one seed:
   an untraced run and a traced run, which count the same reference rounds.
3. The traced run prints every per-layer metric of BENCHMARK.json and the
   untraced run every end-to-end one; the tracer counts refusals per module.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits nonzero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7


SKIP = object()


def corrupt(m, res):
    """A wrong answer of the same shape as `res`; SKIP for a claim of
    infeasibility, which has no witness to corrupt."""
    if res is None:
        return SKIP
    if isinstance(res, m.ksum.KsumResult):
        if res.witness is None:
            return SKIP
        k = len(res.witness.payload)
        bad = tuple(range(k)) if res.witness.payload != tuple(range(k)) else tuple(range(1, k + 1))
        return dataclasses.replace(res, witness=m.core.SolveWitness("subset-of-indices", bad))
    if isinstance(res, tuple) and res and isinstance(res[0], m.freiman.FreimanGapResult):
        gap_res, split = res
        elems = sorted(gap_res.coords)
        coords = dict(gap_res.coords)
        coords[elems[0]] = coords[elems[1]]
        return dataclasses.replace(gap_res, coords=coords), split
    if isinstance(res, m.core.SolveWitness):
        if res.kind == "multiplicity-vector":
            return m.core.SolveWitness(res.kind, (res.payload[0] + 1,) + res.payload[1:])
        return m.core.SolveWitness(res.kind, res.payload + (10**6,))
    if isinstance(res, dict):
        return {"kind": res["kind"], "values": list(res["values"]) + [10**6]}
    return tuple(res) + (0,)


def false_infeasible(m, res):
    """`res` turned into a claim that the instance has no solution."""
    if isinstance(res, m.ksum.KsumResult):
        return dataclasses.replace(res, witness=None, exhaustive=True)
    if isinstance(res, tuple) and res and isinstance(res[0], m.freiman.FreimanGapResult):
        return SKIP  # a cover always exists
    return None


def check_gate(workloads, m, tmpdir) -> int:
    """Solve one instance of every kind and feed its check tampered answers."""
    ctx = workloads.Context(m, tmpdir)
    rejected = 0
    for name, wl in workloads.WORKLOADS.items():
        seen = set()
        for inst in wl.make_round(ctx, SEED, 0) + wl.warm_up(ctx):
            if inst.kind in seen:
                continue
            seen.add(inst.kind)
            res = inst.solve()
            tampered = [("corrupted witness", corrupt(m, res))]
            if inst.check(res) == "solved":
                tampered.append(("false infeasible", false_infeasible(m, res)))
            for label, bad in tampered:
                if bad is SKIP:
                    continue
                try:
                    inst.check(bad)
                except workloads.WrongAnswer:
                    rejected += 1
                    continue
                raise AssertionError(f"{name}/{inst.kind}: gate accepted a {label}")
    return rejected


def check_refusal_count(m) -> None:
    """A cap error counts once for every module boundary it crosses."""
    import tracing

    tracer = tracing.Tracer(m.cap_errors)
    tracer.install()
    try:
        m.subset_sum.subset_sum_doubling(m.instances.ap_set(20, 1, 1), 7, table_cap=4)
    except m.core.TableCapError:
        pass
    finally:
        tracer.uninstall()
    if dict(tracer.refusals) != {"ilp": 1, "subset_sum": 1}:
        raise AssertionError(f"refusals counted as {dict(tracer.refusals)}")


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.relpath(RUN, ROOT), "--workload", workload]
    cmd += ["--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def json_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    m = workloads.load_modules()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=os.path.join(ROOT, ".bench_out")) as tmp:
        print(f"gate: {check_gate(workloads, m, tmp)} tampered answers rejected")
        check_refusal_count(m)
        print("tracer: a table-cap refusal counts once in ilp and once in subset_sum")

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for wl in workloads.WORKLOADS:
            runs = {}
            for trace in (0, 1):
                proc = run_bench(wl, trace)
                if proc.returncode != 0:
                    raise AssertionError(f"{wl} trace={trace} exited {proc.returncode}: {proc.stderr}")
                lines = json_lines(proc.stdout)
                section = "per_layer" if trace else "end_to_end"
                declared = sorted(row["name"] for row in spec[section])
                if sorted(lines[-1]["metrics"]) != declared:
                    raise AssertionError(f"{wl} trace={trace}: metrics differ from BENCHMARK.json")
                runs[trace] = next(line["counters"] for line in lines if "counters" in line)
            if not runs[0] or runs[0] != runs[1]:
                raise AssertionError(f"{wl}: counters differ between runs of seed {SEED}")
            print(f"{wl}: {len(runs[0])} counters repeat exactly; metric sets match")

        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("ksum", 0, cwd=bare)
        if proc.returncode == 0 or any("correct" in line for line in json_lines(proc.stdout)):
            raise AssertionError("benchmark ran without the gapsolve sources")
        print(f"bare directory: exit {proc.returncode}, no result printed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
