"""Command-line front end.

Output is machine-first: one JSON object per line with sorted keys and no
whitespace, so fixed seeds give byte-identical runs. Exit codes: 0 when
solved/feasible/verified, 1 when infeasible or a verification fails, 2 on
errors (bad input, caps, pipeline failure).

The CLI holds no validity rule of its own: `verify witness` and `ilp
decode` ask the instance type's `solved_by` (`SubsetSumInstance`,
`BilpInstance`, `HbilpInstance`), the same check every solver runs on its
witness; a subset-sum refusal carries the condition that
`SubsetSumInstance.violation` names.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import random
import sys

from gapsolve.core import Gap, IntegerSet, SolveWitness, gap_enumerate
from gapsolve.freiman import freiman_gap, split_dimensions
from gapsolve.ilp import (
    BilpInstance,
    HbilpInstance,
    _decode_subset,
    bilp_feasibility_dp,
    bilp_nonnegative,
    bilp_to_hbilp,
    bounded_ilp_feasibility,
    hbilp_feasibility,
    hbilp_to_ss,
    ss_to_hbilp,
)
from gapsolve.instances import (
    ap_set,
    bench_foursum_scaling,
    gap_sample_set,
    random_dense_set,
    sidon_set,
    union_of_aps,
)
from gapsolve.ksum import ksum
from gapsolve.subset_sum import SubsetSumInstance, solve_subset_sum


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_freiman(args) -> int:
    z = IntegerSet.from_json_dict(_read_json(args.input))
    res = freiman_gap(z, random.Random(args.seed))
    out = {"gap": res.cover.to_json_dict(), "metrics": res.metrics}
    if args.split:
        split = split_dimensions(res.cover, len(z))
        out["split"] = split.gap.to_json_dict()
        out["threshold"] = split.threshold
    _emit(out)
    return 0


def _detect_ilp(d: dict):
    if "s" in d:
        return HbilpInstance.from_json_dict(d)
    return BilpInstance.from_json_dict(d)


def _cmd_ilp_solve(args) -> int:
    d = _read_json(args.input)
    inst = _detect_ilp(d)
    if isinstance(inst, HbilpInstance):
        w = hbilp_feasibility(inst)
    elif inst.is_binary:
        w = bilp_feasibility_dp(inst)
    else:
        w = bounded_ilp_feasibility(inst)
    if w is None:
        _emit({"feasible": False})
        return 1
    _emit({"feasible": True, "witness": w.to_json_dict()})
    return 0


_REDUCTIONS = {("bilp", "hbilp"), ("bilp", "ss"), ("hbilp", "ss"), ("ss", "hbilp")}


def _binary_subset_sum(d: dict) -> SubsetSumInstance:
    inst = SubsetSumInstance.from_json_dict(d)
    if inst.mode != "binary":
        raise ValueError("only binary subset sum reduces to an aggregated program")
    return inst


def _run_reduction(src: str, dst: str, d: dict, seed: int):
    """Build the reduction chain and return (instance_json, meta, stages).

    stages keeps the intermediate objects of the ILP routes so decode can
    walk witnesses back without re-parsing.
    """
    meta: dict = {"from": src, "to": dst}
    if src == "ss":
        inst = _binary_subset_sum(d)
        enc = ss_to_hbilp(inst.elements, inst.target, random.Random(seed))
        meta.update(enc.meta)
        return enc.instance.to_json_dict(), meta, {}
    stages: dict = {}
    if src == "bilp":
        binst = BilpInstance.from_json_dict(d)
        if not binst.is_binary:
            raise ValueError("reductions expect a binary program")
        nn = bilp_nonnegative(binst.a, binst.b)
        agg = bilp_to_hbilp(nn.matrix, nn.rhs)
        stages["nn"] = nn
        stages["agg"] = agg
        meta["support_target"] = nn.support_target
        meta["radix"] = agg.radix
        meta["guard_tripped"] = agg.guard_tripped
        hinst = agg.instance
        if dst == "hbilp":
            return hinst.to_json_dict(), meta, stages
    else:
        hinst = HbilpInstance.from_json_dict(d)
    ss = hbilp_to_ss(hinst)
    stages["ss"] = ss
    meta.update(ss.meta)
    return (
        SubsetSumInstance(ss.elements, ss.target, "binary").to_json_dict(),
        meta,
        stages,
    )


def _cmd_ilp_reduce(args) -> int:
    if (args.src, args.dst) not in _REDUCTIONS:
        raise ValueError(f"no reduction from {args.src} to {args.dst}")
    d = _read_json(args.input)
    inst_json, meta, _ = _run_reduction(args.src, args.dst, d, args.seed)
    _emit({"instance": inst_json, "meta": meta})
    return 0


def _cmd_ilp_decode(args) -> int:
    if (args.src, args.dst) not in _REDUCTIONS:
        raise ValueError(f"no reduction from {args.src} to {args.dst}")
    d = _read_json(args.input)
    w = SolveWitness.from_json_dict(_read_json(args.witness))
    # the kind the reduced problem's solver emits
    kind = "subset-of-indices" if args.dst == "ss" else "binary-vector"
    if w.kind != kind:
        raise ValueError(f"decoding to {args.dst} expects a {kind} witness, got {w.kind}")
    if args.src == "ss":
        # the encoding keeps one column per element in order, so decoding
        # needs only the original elements and target, not the seeded cover
        inst = _binary_subset_sum(d)
        _emit({"witness": _decode_subset(inst.elements, inst.target, w.payload).to_json_dict()})
        return 0
    _, _, stages = _run_reduction(args.src, args.dst, d, args.seed)
    if args.dst == "ss":
        decoded = stages["ss"].decode(w.payload)
        y = decoded.payload
    else:
        y = stages["agg"].decode(w.payload)
    if args.src == "bilp":
        y = stages["nn"].decode(y)
        if not BilpInstance.from_json_dict(d).solved_by(y):
            raise ValueError("decoded assignment does not satisfy the program")
    _emit({"witness": SolveWitness("binary-vector", y).to_json_dict()})
    return 0


def _cmd_subset_sum(args) -> int:
    inst = SubsetSumInstance.from_json_dict(_read_json(args.input))
    w = solve_subset_sum(inst)
    if w is None:
        _emit({"feasible": False})
        return 1
    _emit({"feasible": True, "witness": w.to_json_dict()})
    return 0


def _cmd_ksum(args) -> int:
    z = IntegerSet.from_json_dict(_read_json(args.input))
    res = ksum(z, args.target, args.k, random.Random(args.seed))
    out = {
        "feasible": res.witness is not None,
        "work": res.work,
        "partitions": res.partitions_tried,
        "exhaustive": res.exhaustive,
    }
    if res.witness is not None:
        out["witness"] = res.witness.to_json_dict()
    _emit(out)
    return 0 if res.witness is not None else 1


def _cmd_verify(args) -> int:
    if args.check in ("gap-contains", "cover"):
        gap = Gap.from_json_dict(_read_json(args.gap))
        z = IntegerSet.from_json_dict(_read_json(args.set))
        elems, proper = gap_enumerate(gap)
        m = gap.modulus
        missing = [x for x in z if (x if m is None else x % m) not in elems]
        if args.check == "gap-contains":
            _emit({"ok": not missing, "missing": missing[:16]})
            return 0 if not missing else 1
        _emit({"contains": not missing, "proper": proper, "volume": gap.volume()})
        return 0 if not missing and proper else 1
    if args.check == "witness":
        d = _read_json(args.input)
        w = SolveWitness.from_json_dict(_read_json(args.witness))
        ok = _verify_witness(d, w)
        _emit({"ok": ok})
        return 0 if ok else 1
    raise ValueError(f"unknown check {args.check!r}")


def _verify_witness(d: dict, w: SolveWitness) -> bool:
    if "elements" in d and "target" in d:
        return SubsetSumInstance.from_json_dict(d).solved_by(w)
    if w.kind == "subset-of-indices":  # ILP witnesses are assignments
        return False
    return _detect_ilp(d).solved_by(w.payload)


def _cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "ap":
        z = ap_set(args.n, args.start, args.step)
    elif args.kind == "sidon":
        z = sidon_set(args.n)
    elif args.kind == "random":
        z = random_dense_set(rng, args.n, args.span)
    elif args.kind == "gap":
        z = gap_sample_set(rng, args.n, args.dimension)
    elif args.kind == "union-aps":
        z = union_of_aps(rng, args.n, args.parts)
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    _emit(z.to_json_dict())
    return 0


def _cmd_bench(args) -> int:
    """Records go to a buffer, and `--out` is written only once the run has
    succeeded, so a failed run leaves an existing file as it was."""
    if args.task != "foursum-scaling":
        raise ValueError(f"unknown bench task {args.task!r}")
    buf = io.StringIO()
    result = bench_foursum_scaling(
        buf,
        seed=args.seed,
        trials=args.trials,
        min_exp=args.min_exp,
        max_exp=args.max_exp,
        timing=args.timing,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    for family, exponent in sorted(result["fits"].items()):
        _emit({"family": family, "fitted_exponent": round(exponent, 4)})
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. Parsing leaves it
    unchanged, and each handler looks up the solvers it calls when it runs."""
    ap = argparse.ArgumentParser(prog="gapsolve")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("freiman", help="cover a set by a multidimensional progression")
    p.add_argument("--input", required=True)
    p.add_argument("--split", action="store_true", help="also emit the split-dimension form")
    _add_common(p)
    p.set_defaults(func=_cmd_freiman)

    p = sub.add_parser("ilp", help="feasibility and reductions")
    ilp_sub = p.add_subparsers(dest="ilp_command", required=True)

    q = ilp_sub.add_parser("solve")
    q.add_argument("--input", required=True)
    q.set_defaults(func=_cmd_ilp_solve)

    q = ilp_sub.add_parser("reduce")
    q.add_argument("--from", dest="src", required=True, choices=["bilp", "hbilp", "ss"])
    q.add_argument("--to", dest="dst", required=True, choices=["hbilp", "ss"])
    q.add_argument("--input", required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_ilp_reduce)

    q = ilp_sub.add_parser("decode")
    q.add_argument("--from", dest="src", required=True, choices=["bilp", "hbilp", "ss"])
    q.add_argument("--to", dest="dst", required=True, choices=["hbilp", "ss"])
    q.add_argument("--input", required=True, help="the original (pre-reduction) instance")
    q.add_argument("--witness", required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_ilp_decode)

    p = sub.add_parser("subset-sum", help="binary or unbounded subset sum")
    ss_sub = p.add_subparsers(dest="ss_command", required=True)
    q = ss_sub.add_parser("solve")
    q.add_argument("--input", required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_subset_sum)

    p = sub.add_parser("ksum", help="k distinct indices summing to a target")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_ksum)

    p = sub.add_parser("verify", help="check artifacts against instances")
    p.add_argument("check", choices=["gap-contains", "cover", "witness"])
    p.add_argument("--gap")
    p.add_argument("--set")
    p.add_argument("--input")
    p.add_argument("--witness")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="instance families")
    p.add_argument("--kind", required=True, choices=["ap", "sidon", "random", "gap", "union-aps"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--span", type=int, default=1 << 16)
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--parts", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="scaling benchmarks")
    p.add_argument("task", choices=["foursum-scaling"])
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--min-exp", type=int, default=8)
    p.add_argument("--max-exp", type=int, default=14)
    p.add_argument("--timing", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 2
    except Exception as exc:  # surfaced as exit 2 with a one-line reason
        print(f"gapsolve: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
