"""End-to-end command-line checks through subprocess, exit codes included."""

import json
import subprocess
import sys

import pytest


def run_cli(*argv, check=None):
    proc = subprocess.run(
        [sys.executable, "-m", "gapsolve", *argv],
        capture_output=True,
        text=True,
    )
    if check is not None:
        assert proc.returncode == check, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestGenerate:
    def test_ap(self, tmp_path):
        proc = run_cli("generate", "--kind", "ap", "--n", "5", "--step", "3", check=0)
        assert last_json(proc) == {"elements": [0, 3, 6, 9, 12]}

    def test_deterministic(self):
        a = run_cli("generate", "--kind", "random", "--n", "20", "--seed", "7", check=0)
        b = run_cli("generate", "--kind", "random", "--n", "20", "--seed", "7", check=0)
        assert a.stdout == b.stdout
        c = run_cli("generate", "--kind", "random", "--n", "20", "--seed", "8", check=0)
        assert c.stdout != a.stdout

    def test_all_kinds(self):
        for kind in ("ap", "sidon", "random", "gap", "union-aps"):
            proc = run_cli("generate", "--kind", kind, "--n", "12", check=0)
            out = last_json(proc)
            assert len(out["elements"]) >= 1


class TestSubsetSum:
    def test_binary_feasible(self, tmp_path):
        inst = write_json(
            tmp_path / "ss.json", {"elements": [2, 5, 9, 14], "target": 16}
        )
        proc = run_cli("subset-sum", "solve", "--input", inst, check=0)
        out = last_json(proc)
        assert out["feasible"] is True
        idx = out["witness"]["values"]
        vals = [2, 5, 9, 14]
        assert sum(vals[i] for i in idx) == 16

    def test_binary_infeasible_exit_1(self, tmp_path):
        inst = write_json(tmp_path / "ss.json", {"elements": [2, 4, 8], "target": 5})
        proc = run_cli("subset-sum", "solve", "--input", inst, check=1)
        assert last_json(proc) == {"feasible": False}

    def test_unbounded(self, tmp_path):
        inst = write_json(
            tmp_path / "ss.json",
            {"elements": [3, 5], "target": 11, "mode": "unbounded"},
        )
        proc = run_cli("subset-sum", "solve", "--input", inst, check=0)
        out = last_json(proc)
        assert out["witness"] == {"kind": "multiplicity-vector", "values": [2, 1]}

    def test_values_past_int64(self, tmp_path):
        big = 1 << 62
        inst = write_json(
            tmp_path / "ss.json", {"elements": [5, big, big + 1], "target": 2 * big + 1}
        )
        proc = run_cli("subset-sum", "solve", "--input", inst, check=0)
        assert last_json(proc)["witness"] == {"kind": "subset-of-indices", "values": [1, 2]}


class TestElementsAsWritten:
    """An element list is read as written: one that is not strictly
    increasing is refused, never sorted or deduplicated, so every witness
    index is a position in the file."""

    @pytest.mark.parametrize(
        "inst, argv",
        [
            ({"elements": [3, 3, 5], "target": 6}, ["subset-sum", "solve"]),
            ({"elements": [3, 3, 5]}, ["ksum", "--k", "2", "--target", "6"]),
            ({"elements": [5, 3], "target": 5}, ["subset-sum", "solve"]),
            ({"elements": [5, 3], "target": 5, "mode": "unbounded"}, ["subset-sum", "solve"]),
            ({"elements": [0, 2, 1]}, ["freiman"]),
        ],
    )
    def test_unsorted_or_repeated_refused(self, tmp_path, inst, argv):
        path = write_json(tmp_path / "inst.json", inst)
        proc = run_cli(*argv, "--input", path, check=2)
        assert proc.stdout == ""
        assert "elements must be strictly increasing" in proc.stderr

    def test_verify_refuses_unsorted_instances(self, tmp_path):
        inst = write_json(tmp_path / "ss.json", {"elements": [5, 3], "target": 5})
        w = write_json(tmp_path / "w.json", {"kind": "subset-of-indices", "values": [0]})
        proc = run_cli("verify", "witness", "--input", inst, "--witness", w, check=2)
        assert "elements must be strictly increasing" in proc.stderr

    def test_generated_files_are_accepted(self, tmp_path):
        for kind in ("ap", "sidon", "random", "gap", "union-aps"):
            proc = run_cli("generate", "--kind", kind, "--n", "12", "--seed", "5", check=0)
            path = tmp_path / f"{kind}.json"
            path.write_text(proc.stdout)
            run_cli("freiman", "--input", str(path), check=0)


class TestIlp:
    def test_solve_binary(self, tmp_path):
        inst = write_json(
            tmp_path / "bilp.json", {"A": [[1, 0], [0, 1]], "b": [1, 1]}
        )
        proc = run_cli("ilp", "solve", "--input", inst, check=0)
        assert last_json(proc)["witness"]["values"] == [1, 1]

    def test_solve_bounded(self, tmp_path):
        inst = write_json(
            tmp_path / "bilp.json",
            {"A": [[2, 3]], "b": [13], "bounds": [[0, 5], [0, 5]]},
        )
        proc = run_cli("ilp", "solve", "--input", inst, check=0)
        vals = last_json(proc)["witness"]["values"]
        assert 2 * vals[0] + 3 * vals[1] == 13

    def test_solve_hbilp_autodetect(self, tmp_path):
        inst = write_json(
            tmp_path / "h.json", {"A": [[1, 2, 1]], "s": [2], "t": 6}
        )
        proc = run_cli("ilp", "solve", "--input", inst, check=0)
        out = last_json(proc)
        assert out["feasible"] is True

    def test_solve_infeasible(self, tmp_path):
        inst = write_json(
            tmp_path / "bilp.json", {"A": [[1, 0], [0, 1]], "b": [2, 2]}
        )
        run_cli("ilp", "solve", "--input", inst, check=1)

    def test_solve_zero_columns(self, tmp_path):
        inst = write_json(tmp_path / "zero.json", {"A": [[]], "b": [0]})
        proc = run_cli("ilp", "solve", "--input", inst, check=0)
        assert last_json(proc)["witness"] == {"kind": "binary-vector", "values": []}
        inst = write_json(tmp_path / "one.json", {"A": [[]], "b": [1]})
        proc = run_cli("ilp", "solve", "--input", inst, check=1)
        assert last_json(proc) == {"feasible": False}

    def test_solve_values_past_int64(self, tmp_path):
        big = 1 << 62
        inst = write_json(tmp_path / "wide.json", {"A": [[big, big + 1]], "b": [big + 1]})
        proc = run_cli("ilp", "solve", "--input", inst, check=0)
        assert last_json(proc)["witness"] == {"kind": "binary-vector", "values": [0, 1]}
        proc = run_cli("ilp", "solve", "--input", inst, "--no-width-check", check=2)
        assert "unrecognized arguments: --no-width-check" in proc.stderr

    def test_reduce_solve_decode_loop(self, tmp_path):
        # signed binary program, feasible at x = (1, 1)
        orig = {"A": [[2, -3], [1, 1]], "b": [-1, 2]}
        inst = write_json(tmp_path / "bilp.json", orig)
        red = run_cli(
            "ilp", "reduce", "--from", "bilp", "--to", "ss",
            "--input", inst, "--seed", "3", check=0,
        )
        reduced = last_json(red)["instance"]
        ss_path = write_json(tmp_path / "reduced.json", reduced)
        sol = run_cli("subset-sum", "solve", "--input", ss_path, check=0)
        wit = write_json(tmp_path / "wit.json", last_json(sol)["witness"])
        dec = run_cli(
            "ilp", "decode", "--from", "bilp", "--to", "ss",
            "--input", inst, "--witness", wit, "--seed", "3", check=0,
        )
        x = last_json(dec)["witness"]["values"]
        assert x == [1, 1]

    def test_reduce_hbilp_to_ss(self, tmp_path):
        inst = write_json(
            tmp_path / "h.json", {"A": [[1, -1]], "s": [2], "t": 0}
        )
        red = run_cli(
            "ilp", "reduce", "--from", "hbilp", "--to", "ss", "--input", inst,
            check=0,
        )
        out = last_json(red)
        assert out["meta"]["from"] == "hbilp"
        elements = out["instance"]["elements"]
        assert len(set(elements)) == len(elements)

    def test_reduce_complements_every_variable(self, tmp_path):
        # every dot product is -1, so both variables are complemented and the
        # target becomes 1: the block {3, 4} for |d_j| = 1 and the slack {1}
        inst = write_json(tmp_path / "h.json", {"A": [[-1, -1]], "s": [1], "t": -1})
        red = run_cli(
            "ilp", "reduce", "--from", "hbilp", "--to", "ss", "--input", inst, check=0
        )
        out = last_json(red)
        assert out["instance"] == {"elements": [1, 3, 4], "mode": "binary", "target": 4}
        assert (out["meta"]["blocks"], out["meta"]["m"], out["meta"]["slack"]) == (1, 3, 1)
        ss_path = write_json(tmp_path / "ss.json", out["instance"])
        sol = run_cli("subset-sum", "solve", "--input", ss_path, check=0)
        wit = write_json(tmp_path / "wit.json", last_json(sol)["witness"])
        dec = run_cli(
            "ilp", "decode", "--from", "hbilp", "--to", "ss", "--input", inst, "--witness", wit,
            check=0,
        )
        x = last_json(dec)["witness"]["values"]
        assert x in ([1, 0], [0, 1])  # -x_0 - x_1 = -1

    def test_reduce_rejects_bad_pair(self, tmp_path):
        inst = write_json(tmp_path / "h.json", {"A": [[1]], "s": [1], "t": 1})
        proc = run_cli(
            "ilp", "reduce", "--from", "hbilp", "--to", "hbilp", "--input", inst
        )
        assert proc.returncode == 2


    def test_decode_ss_reads_only_the_original(self, tmp_path, monkeypatch, capsys):
        from gapsolve import cli

        def no_reduction(*args, **kwargs):
            raise AssertionError("the reduction was rebuilt")

        monkeypatch.setattr(cli, "ss_to_hbilp", no_reduction)
        inst = write_json(tmp_path / "ss.json", {"elements": [3, 5, 9, 14], "target": 17})
        route = ["ilp", "decode", "--from", "ss", "--to", "hbilp", "--input", inst]
        seeded = ["--seed", "4"]
        hit = write_json(tmp_path / "hit.json", {"kind": "binary-vector", "values": [1, 1, 1, 0]})
        assert cli.main([*route, "--witness", hit, *seeded]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"witness": {"kind": "subset-of-indices", "values": [0, 1, 2]}}
        miss = write_json(tmp_path / "miss.json", {"kind": "binary-vector", "values": [0, 1, 0, 1]})
        assert cli.main([*route, "--witness", miss]) == 2
        assert "sum misses the target" in capsys.readouterr().err
        # reduce still builds the reduction, so the patch is live
        reduce = ["ilp", "reduce", "--from", "ss", "--to", "hbilp", "--input", inst]
        assert cli.main(reduce) == 2
        assert "the reduction was rebuilt" in capsys.readouterr().err

    def test_decode_requires_the_reduced_witness_kind(self, tmp_path, capsys):
        from gapsolve import cli

        inst = write_json(tmp_path / "ss.json", {"elements": [3, 5, 7], "target": 5})
        route = ["ilp", "decode", "--from", "ss", "--to", "hbilp", "--input", inst]
        # indices {0, 2} sum to 10; read as a 0/1 vector they would pick 5
        indices = write_json(tmp_path / "i.json", {"kind": "subset-of-indices", "values": [0, 2]})
        assert cli.main([*route, "--witness", indices]) == 2
        assert "expects a binary-vector witness" in capsys.readouterr().err
        short = write_json(tmp_path / "s.json", {"kind": "binary-vector", "values": [0, 1]})
        assert cli.main([*route, "--witness", short]) == 2
        assert "assignment has 2 entries for 3 elements" in capsys.readouterr().err
        hb = write_json(tmp_path / "hb.json", {"A": [[1, 2]], "s": [1], "t": 2})
        vector = write_json(tmp_path / "v.json", {"kind": "binary-vector", "values": [0, 1]})
        to_ss = ["ilp", "decode", "--from", "hbilp", "--to", "ss", "--input", hb]
        assert cli.main([*to_ss, "--witness", vector]) == 2
        assert "expects a subset-of-indices witness" in capsys.readouterr().err

    def test_decode_to_ss_checks_the_reduced_subset(self, tmp_path, capsys):
        from gapsolve import cli

        bilp = write_json(tmp_path / "b.json", {"A": [[2, -3], [1, 1]], "b": [-1, 2]})
        every = write_json(tmp_path / "w.json", {"kind": "subset-of-indices", "values": list(range(20))})
        route = ["ilp", "decode", "--from", "bilp", "--to", "ss", "--input", bilp]
        assert cli.main([*route, "--witness", every]) == 2
        assert "index 5 out of range for 5 elements" in capsys.readouterr().err
        # reduces to the elements (1, 2) with target 2
        hb = write_json(tmp_path / "hb.json", {"A": [[1, 2]], "s": [1], "t": 2})
        miss = write_json(tmp_path / "m.json", {"kind": "subset-of-indices", "values": [0, 1]})
        route = ["ilp", "decode", "--from", "hbilp", "--to", "ss", "--input", hb]
        assert cli.main([*route, "--witness", miss]) == 2
        assert "sum misses the target" in capsys.readouterr().err

    def test_decode_to_hbilp_checks_the_reduced_assignment(self, tmp_path, capsys):
        from gapsolve import cli

        # reduces to 4 columns: x = (1, 1) and its complement copies (0, 0)
        bilp = write_json(tmp_path / "b.json", {"A": [[2, -3], [1, 1]], "b": [-1, 2]})
        route = ["ilp", "decode", "--from", "bilp", "--to", "hbilp", "--input", bilp]
        hit = write_json(tmp_path / "hit.json", {"kind": "binary-vector", "values": [1, 1, 0, 0]})
        assert cli.main([*route, "--witness", hit]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"witness": {"kind": "binary-vector", "values": [1, 1]}}
        # too long, too short, and the right length but off the target: each
        # starts with the solution (1, 1), which decoding used to keep
        for values in ([1] * 9, [1, 1, 0], [1, 1, 1, 1]):
            miss = write_json(tmp_path / "miss.json", {"kind": "binary-vector", "values": values})
            assert cli.main([*route, "--witness", miss]) == 2, values
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "assignment does not solve the aggregated program" in captured.err


class TestKsum:
    def test_feasible(self, tmp_path):
        inst = write_json(tmp_path / "z.json", {"elements": [1, 2, 3, 4, 5]})
        proc = run_cli(
            "ksum", "--input", inst, "--k", "3", "--target", "12", check=0
        )
        out = last_json(proc)
        assert out["feasible"] and out["exhaustive"]
        assert out["witness"]["values"] == [2, 3, 4]

    def test_infeasible_exit_1(self, tmp_path):
        inst = write_json(tmp_path / "z.json", {"elements": [1, 2, 3]})
        proc = run_cli(
            "ksum", "--input", inst, "--k", "2", "--target", "100", check=1
        )
        assert last_json(proc)["feasible"] is False

    def test_colouring_path_pinned(self, tmp_path):
        # n = 96, k = 4: C(95, 3) is past the cut cap, so random colourings are folded
        inst = write_json(tmp_path / "z.json", {"elements": list(range(0, 288, 3))})
        proc = run_cli(
            "ksum", "--input", inst, "--k", "4", "--target", "300", "--seed", "6", check=0
        )
        assert proc.stdout == (
            '{"exhaustive":false,"feasible":true,"partitions":1,'
            '"witness":{"kind":"subset-of-indices","values":[0,1,5,94]},"work":888}\n'
        )

    def test_gamma_flag_is_gone(self, tmp_path):
        inst = write_json(tmp_path / "z.json", {"elements": [1, 2, 3, 4, 5]})
        proc = run_cli(
            "ksum", "--input", inst, "--k", "3", "--target", "12", "--gamma", "1", check=2
        )
        assert proc.stdout == ""
        assert "unrecognized arguments: --gamma 1" in proc.stderr


class TestFreimanAndVerify:
    def test_cover_and_verify(self, tmp_path):
        z = {"elements": list(range(0, 60, 4))}
        zp = write_json(tmp_path / "z.json", z)
        proc = run_cli("freiman", "--input", zp, "--seed", "2", "--split", check=0)
        out = last_json(proc)
        gp = write_json(tmp_path / "gap.json", out["gap"])
        run_cli("verify", "gap-contains", "--gap", gp, "--set", zp, check=0)
        assert "split" in out and "threshold" in out

    def test_cover_check_proper_gap(self, tmp_path):
        gp = write_json(
            tmp_path / "gap.json",
            {"base": 0, "generators": [1, 10], "lengths": [5, 3]},
        )
        zp = write_json(tmp_path / "z.json", {"elements": [0, 3, 12, 24]})
        proc = run_cli("verify", "cover", "--gap", gp, "--set", zp, check=0)
        out = last_json(proc)
        assert out == {"contains": True, "proper": True, "volume": 15}

    def test_gap_contains_failure(self, tmp_path):
        gp = write_json(
            tmp_path / "gap.json",
            {"base": 0, "generators": [2], "lengths": [5]},
        )
        zp = write_json(tmp_path / "z.json", {"elements": [1]})
        proc = run_cli("verify", "gap-contains", "--gap", gp, "--set", zp, check=1)
        assert last_json(proc)["missing"] == [1]

    def test_verify_over_the_enumeration_cap_exits_2(self, tmp_path):
        gp = write_json(
            tmp_path / "gap.json", {"base": 0, "generators": [1, 5000], "lengths": [3000, 3000]}
        )
        zp = write_json(tmp_path / "z.json", {"elements": [0, 1]})
        proc = run_cli("verify", "cover", "--gap", gp, "--set", zp, check=2)
        assert proc.stdout == ""
        assert "gap volume 9000000 exceeds enumeration cap 4000000" in proc.stderr

    @pytest.mark.parametrize("command", ["freiman", "verify"])
    def test_cap_enum_flag_is_gone(self, tmp_path, command):
        zp = write_json(tmp_path / "z.json", {"elements": [0, 1]})
        argv = ["--input", zp] if command == "freiman" else ["cover", "--gap", zp, "--set", zp]
        proc = run_cli(command, *argv, "--cap-enum", "10", check=2)
        assert proc.stdout == ""
        assert "unrecognized arguments: --cap-enum 10" in proc.stderr

    @pytest.mark.parametrize("command", ["ilp", "subset-sum"])
    def test_cap_table_flag_is_gone(self, tmp_path, command):
        inst = {"A": [[1, 2]], "b": [3]} if command == "ilp" else {"elements": [1, 2], "target": 3}
        path = write_json(tmp_path / "inst.json", inst)
        proc = run_cli(command, "solve", "--input", path, "--cap-table", "3", check=2)
        assert proc.stdout == ""
        assert "unrecognized arguments: --cap-table 3" in proc.stderr

    @pytest.mark.parametrize(
        "gap,elements",
        [
            ({"base": 0, "generators": [1], "lengths": [5]}, [1.5, 4]),
            ({"base": 0, "generators": [1], "lengths": [5], "modulus": 7.0}, [1, 4]),
            ({"base": 0, "generators": [1], "lengths": [True]}, [0]),
        ],
    )
    def test_non_integer_json_refused(self, tmp_path, gap, elements):
        gp = write_json(tmp_path / "gap.json", gap)
        zp = write_json(tmp_path / "z.json", {"elements": elements})
        proc = run_cli("verify", "cover", "--gap", gp, "--set", zp, check=2)
        assert proc.stdout == "" and "expected an integer" in proc.stderr

    @pytest.mark.parametrize(
        "inst", [{"A": [[1, 2.0]], "b": [1]}, {"A": [[1, 2]], "s": [1], "t": True}]
    )
    def test_non_integer_program_refused(self, tmp_path, inst):
        proc = run_cli("ilp", "solve", "--input", write_json(tmp_path / "p.json", inst), check=2)
        assert "expected an integer" in proc.stderr

    def test_witness_check(self, tmp_path):
        inst = write_json(
            tmp_path / "ss.json", {"elements": [2, 5, 9], "target": 11}
        )
        good = write_json(
            tmp_path / "w1.json", {"kind": "subset-of-indices", "values": [0, 2]}
        )
        bad = write_json(
            tmp_path / "w2.json", {"kind": "subset-of-indices", "values": [0, 1]}
        )
        run_cli("verify", "witness", "--input", inst, "--witness", good, check=0)
        run_cli("verify", "witness", "--input", inst, "--witness", bad, check=1)

    def test_witness_check_rejects_indices_on_programs(self, tmp_path):
        # indices {0, 1} mean x = (1, 1), whose sum 3 misses the target 2
        indices = write_json(
            tmp_path / "w.json", {"kind": "subset-of-indices", "values": [0, 1]}
        )
        for name, prog in (
            ("bilp", {"A": [[1, 2]], "b": [2]}),
            ("hbilp", {"A": [[1, 2]], "s": [1], "t": 2}),
        ):
            inst = write_json(tmp_path / f"{name}.json", prog)
            proc = run_cli("verify", "witness", "--input", inst, "--witness", indices, check=1)
            assert last_json(proc) == {"ok": False}, name

    def test_multiplicity_witness_respects_the_mode(self, tmp_path):
        # 2 * 3 = 6 uses element 0 twice: an unbounded solution, not a binary one
        twice = write_json(
            tmp_path / "w.json", {"kind": "multiplicity-vector", "values": [2, 0, 0]}
        )
        once = write_json(
            tmp_path / "w1.json", {"kind": "multiplicity-vector", "values": [1, 1, 0]}
        )
        binary = write_json(tmp_path / "b.json", {"elements": [3, 7, 12], "target": 6})
        proc = run_cli("subset-sum", "solve", "--input", binary, check=1)
        assert last_json(proc)["feasible"] is False
        proc = run_cli("verify", "witness", "--input", binary, "--witness", twice, check=1)
        assert last_json(proc) == {"ok": False}
        ten = write_json(tmp_path / "b10.json", {"elements": [3, 7, 12], "target": 10})
        run_cli("verify", "witness", "--input", ten, "--witness", once, check=0)
        unbounded = write_json(
            tmp_path / "u.json", {"elements": [3, 7, 12], "target": 6, "mode": "unbounded"}
        )
        proc = run_cli("verify", "witness", "--input", unbounded, "--witness", twice, check=0)
        assert last_json(proc) == {"ok": True}


def _random_instance(rng, kind):
    """A small instance of `kind` and its solver's output. Most targets are
    planted, the rest moved off a planted one by 1, so most draws are
    feasible; None, None for a drawn matrix with duplicate columns."""
    from gapsolve.core import DuplicateColumnError, IntegerSet, Matrix
    from gapsolve.ilp import (
        BilpInstance,
        HbilpInstance,
        bilp_feasibility_dp,
        bounded_ilp_feasibility,
        hbilp_feasibility,
    )
    from gapsolve.subset_sum import SubsetSumInstance, solve_subset_sum

    if kind in ("binary", "unbounded"):
        n = rng.randint(1, 6 if kind == "binary" else 3)
        z = IntegerSet.from_iterable(rng.sample(range(1, 25), n))
        mult = [rng.randint(0, 1 if kind == "binary" else 3) for _ in range(len(z))]
        t = sum(v * m for v, m in zip(z.elements, mult)) + rng.choice((0, 0, 1, -1))
        inst = SubsetSumInstance(z, t, kind)
        return inst, solve_subset_sum(inst)
    n = rng.randint(1, 5)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 2))]
    if kind == "bounded":
        bounds = [(lo, lo + rng.randint(0, 3)) for lo in (rng.randint(-2, 0) for _ in range(n))]
    else:
        bounds = [(0, 1)] * n
    x = [rng.randint(lo, hi) for lo, hi in bounds]
    offset = rng.choice((0, 0, 1))
    if kind == "hbilp":
        s = tuple(rng.randint(-4, 4) for _ in rows)
        a = Matrix.from_rows(rows)
        t = sum(v * si for v, si in zip(a.matvec(x), s)) + offset
        inst = HbilpInstance(a, s, t)
        return inst, hbilp_feasibility(inst)
    b = [v + offset for v in Matrix.from_rows(rows).matvec(x)]
    try:
        inst = BilpInstance(Matrix.from_rows(rows), tuple(b), tuple(bounds))
    except DuplicateColumnError:
        return None, None
    solver = bilp_feasibility_dp if kind == "bilp" else bounded_ilp_feasibility
    return inst, solver(inst)


def _near_witnesses(vec, n):
    """Witnesses of every kind around the vector `vec`: vec itself, each
    entry off by one (which leaves the bounds at an edge), one entry more or
    less, and the same positions read as indices, one index out of range."""
    from gapsolve.core import WITNESS_KINDS, SolveWitness

    payloads = [tuple(vec), tuple(vec) + (0,), tuple(vec[:-1])]
    for i in range(len(vec)):
        for d in (-1, 1):
            payloads.append(tuple(vec[:i]) + (vec[i] + d,) + tuple(vec[i + 1 :]))
    out = set()
    for p in payloads:
        indices = tuple(j for j, v in enumerate(p) if v)
        for kind in WITNESS_KINDS:
            for payload in (p, indices, indices + (n,)) if kind == "subset-of-indices" else (p,):
                try:
                    out.add(SolveWitness(kind, payload))
                except ValueError:  # e.g. a 2 in a binary vector: not a witness at all
                    pass
    return sorted(out, key=lambda w: (w.kind, w.payload))


class TestOneValidityRule:
    @pytest.mark.parametrize("kind", ["bilp", "bounded", "hbilp", "binary", "unbounded"])
    def test_verify_and_solvers_agree_with_solved_by(self, kind, tmp_path, capsys):
        """Every solver output passes its instance's `solved_by`, and
        `verify witness` exits 0 exactly where `solved_by` accepts."""
        import random

        from gapsolve import cli

        rng = random.Random(f"one-rule:{kind}")
        solved = accepted = 0
        for draw in range(12):
            inst, w = _random_instance(rng, kind)
            if inst is None:
                continue
            path = write_json(tmp_path / f"inst{draw}.json", inst.to_json_dict())
            if kind in ("binary", "unbounded"):
                n = len(inst.elements)
                rule = inst.solved_by
            else:
                n = inst.a.num_cols
                rule = lambda c: c.kind != "subset-of-indices" and inst.solved_by(c.payload)
            if w is None:
                vec = [0] * n
            else:
                assert rule(w), (inst, w)
                vec = list(w.payload)
                if w.kind == "subset-of-indices":
                    vec = [int(j in w.payload) for j in range(n)]
            for c in _near_witnesses(vec, n):
                wpath = write_json(tmp_path / "w.json", c.to_json_dict())
                want = rule(c)
                code = cli.main(["verify", "witness", "--input", path, "--witness", wpath])
                out = json.loads(capsys.readouterr().out)
                assert (code, out) == (0 if want else 1, {"ok": want}), (inst, c)
                accepted += want
            solved += w is not None
        assert solved >= 4 and accepted > solved


class TestBench:
    def test_jsonl_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            run_cli(
                "bench", "foursum-scaling", "--out", str(out),
                "--trials", "1", "--min-exp", "4", "--max-exp", "6",
                "--seed", "11", check=0,
            )
        assert out1.read_bytes() == out2.read_bytes()
        lines = [json.loads(l) for l in out1.read_text().splitlines()]
        assert sum(1 for l in lines if l["kind"] == "fit") == 2

    def test_format_flag_is_gone(self, tmp_path):
        out = tmp_path / "bench.csv"
        proc = run_cli(
            "bench", "foursum-scaling", "--out", str(out),
            "--trials", "1", "--min-exp", "4", "--max-exp", "5",
            "--format", "csv", check=2,
        )
        assert "unrecognized arguments: --format csv" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad", [["--min-exp", "5", "--max-exp", "4"], ["--trials", "0"]]
    )
    def test_failed_run_leaves_out_untouched(self, tmp_path, bad):
        out = tmp_path / "bench.jsonl"
        out.write_text("sentinel\n")
        run_cli("bench", "foursum-scaling", "--out", str(out), *bad, check=2)
        assert out.read_text() == "sentinel\n"


# ---------------------------------------------------------------------------
# frozen seeded stdout: the commands of acceptance criterion 8

# criterion 8's input files, by the name its commands give them
FROZEN_INPUTS = {
    "ap": {"elements": list(range(0, 96, 3))},
    "ss": {"elements": [3, 7, 12, 19, 31], "target": 22},
    "un": {"elements": [3, 5], "target": 47, "mode": "unbounded"},
    "bilp": {"A": [[2, -3], [1, 1]], "b": [-1, 2]},
    "hb": {"A": [[1, -2, 1]], "s": [3], "t": 6},
    "wit": {"kind": "subset-of-indices", "values": [0, 3]},
}

# (command, exit code, exact stdout)
FROZEN_STDOUT = [
    (
        'generate --kind ap --n 40 --seed 5',
        0,
        (
            '{"elements":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,'
            '26,27,28,29,30,31,32,33,34,35,36,37,38,39]}\n'
        ),
    ),
    (
        'generate --kind sidon --n 40 --seed 5',
        0,
        (
            '{"elements":[0,83,168,255,344,435,528,582,679,778,838,941,1005,1071,1180,1250,'
            '1322,1396,1513,1591,1671,1753,1837,1923,1970,2060,2152,2246,2301,2399,2499,2560,'
            '2664,2729,2796,2906,2977,3050,3125,3202]}\n'
        ),
    ),
    (
        'generate --kind random --n 40 --seed 5',
        0,
        (
            '{"elements":[232,696,1718,3801,6796,9428,13365,14838,16606,17333,18188,20558,'
            '20919,21739,21821,23811,23865,25805,26068,26840,27453,28243,28407,32318,32643,'
            '32680,33481,36632,37919,39162,41110,46993,48731,49906,50229,51044,53497,58305,'
            '61030,61481]}\n'
        ),
    ),
    (
        'generate --kind gap --n 40 --seed 5',
        0,
        (
            '{"elements":[29,31,35,37,41,43,129,131,135,137,139,223,227,235,317,321,327,329,'
            '331,415,417,421,425,509,511,515,517,519,523,605,607,609,611,615,617,703,707,709,'
            '711,715]}\n'
        ),
    ),
    (
        'generate --kind union-aps --n 40 --seed 5',
        0,
        (
            '{"elements":[23,30,37,44,51,58,65,72,79,86,93,100,107,114,121,128,135,142,149,156,'
            '158,161,164,167,170,173,176,179,182,185,188,191,194,197,200,203,206,209,212,'
            '215]}\n'
        ),
    ),
    (
        'freiman --input {ap} --seed 3 --split',
        0,
        (
            '{"gap":{"base":0,"generators":[0,3,6,9,12,15,18,21,24,27,30,33,36,39,42,45,48,51,'
            '54,57,60,63,66,69,72,75,78,81,84,87,90,93],"lengths":[2,2,2,2,2,2,2,2,2,2,2,2,2,2,'
            '2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2]},"metrics":{"aprime_size":5,"attempts":1,'
            '"bohr_frequencies":1794,"cover_dimension":32,"cover_volume":4294967296,'
            '"kept_dims":0,"m":1993,"modeling_failures":[],"n":32,"q":751,"q_volume":1,'
            '"strict_checked":true,"x_size":32},"split":{"base":0,"generators":[0,3,6,9,12,15,'
            '18,21,24,27,30,33,36,39,42,45,48,51,54,57,60,63,66,69,72,75,78,81,84,87,90,93],'
            '"lengths":[2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2]},'
            '"threshold":2}\n'
        ),
    ),
    (
        'subset-sum solve --input {ss} --seed 2',
        0,
        '{"feasible":true,"witness":{"kind":"subset-of-indices","values":[0,1,2]}}\n',
    ),
    (
        'subset-sum solve --input {un} --seed 2',
        0,
        '{"feasible":true,"witness":{"kind":"multiplicity-vector","values":[4,7]}}\n',
    ),
    (
        'ilp solve --input {bilp}',
        0,
        '{"feasible":true,"witness":{"kind":"binary-vector","values":[1,1]}}\n',
    ),
    (
        'ilp solve --input {hb}',
        0,
        '{"feasible":true,"witness":{"kind":"binary-vector","values":[1,0,1]}}\n',
    ),
    (
        'ilp reduce --from bilp --to ss --input {bilp} --seed 3',
        0,
        (
            '{"instance":{"elements":[1,1521,1522,1575,1590],"mode":"binary","target":3166},'
            '"meta":{"blocks":3,"from":"bilp","guard_tripped":false,"m":3,"r":1,"radix":21,'
            '"slack":1,"support_target":2,"to":"ss"}}\n'
        ),
    ),
    (
        'ilp reduce --from hbilp --to ss --input {hb} --seed 3',
        0,
        (
            '{"instance":{"elements":[1,9,10,18],"mode":"binary","target":37},"meta":{"blocks":2,'
            '"from":"hbilp","m":3,"r":1,"slack":1,"to":"ss"}}\n'
        ),
    ),
    (
        'ilp reduce --from ss --to hbilp --input {ss} --seed 4',
        0,
        (
            '{"instance":{"A":[[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,0,1]],'
            '"s":[3,7,12,19,31],"t":22},"meta":{"cover_volume":32,"delta":1,"dimension":5,'
            '"from":"ss","threshold":2,"to":"hbilp"}}\n'
        ),
    ),
    (
        'ksum --input {ap} --k 4 --target 66 --seed 6',
        0,
        (
            '{"exhaustive":true,"feasible":true,"partitions":1,'
            '"witness":{"kind":"subset-of-indices","values":[0,1,2,19]},"work":497}\n'
        ),
    ),
    (
        'ksum --input {ap} --k 3 --target 66 --seed 6',
        0,
        (
            '{"exhaustive":true,"feasible":true,"partitions":1,'
            '"witness":{"kind":"subset-of-indices","values":[0,1,21]},"work":497}\n'
        ),
    ),
    (
        'ksum --input {ap} --k 5 --target 100 --seed 6',
        1,
        '{"exhaustive":true,"feasible":false,"partitions":0,"work":0}\n',
    ),
    (
        'ksum --input {ap} --k 30 --target 1413 --seed 6',
        0,
        (
            '{"exhaustive":true,"feasible":true,"partitions":1,'
            '"witness":{"kind":"subset-of-indices","values":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,'
            '15,16,17,18,19,20,21,22,23,24,26,27,28,29,30,31]},"work":1}\n'
        ),
    ),
    ('verify witness --input {ss} --witness {wit}', 0, '{"ok":true}\n'),

]

FROZEN_BENCH_STDOUT = (
    '{"family":"ap","fitted_exponent":2.042}\n'
    '{"family":"sidon","fitted_exponent":2.0032}\n'
)

FROZEN_BENCH_FILE = (
    b'{"c":"31/16","c_source":"measured","family":"ap",'
    b'"feasible":true,"kind":"foursum-bench","n":16,"partitions":1,"trial":0,"v":1,"work":121}\n'
    b'{"c":"63/32","c_source":"measured","family":"ap",'
    b'"feasible":true,"kind":"foursum-bench","n":32,"partitions":1,"trial":0,"v":1,"work":497}\n'
    b'{"c":"127/64","c_source":"measured","family":"ap",'
    b'"feasible":true,"kind":"foursum-bench","n":64,"partitions":1,"trial":0,"v":1,"work":2052}\n'
    b'{"exponent":2.042,"family":"ap","kind":"fit","points":3,"v":1}\n'
    b'{"c":"17/2","c_source":"measured","family":"sidon",'
    b'"feasible":true,"kind":"foursum-bench","n":16,"partitions":1,"trial":0,"v":1,"work":126}\n'
    b'{"c":"33/2","c_source":"measured","family":"sidon",'
    b'"feasible":true,"kind":"foursum-bench","n":32,"partitions":1,"trial":0,"v":1,"work":522}\n'
    b'{"c":"65/2","c_source":"measured","family":"sidon",'
    b'"feasible":true,"kind":"foursum-bench","n":64,"partitions":1,"trial":0,"v":1,"work":2025}\n'
    b'{"exponent":2.0032,"family":"sidon","kind":"fit","points":3,"v":1}\n'
)


class TestFrozenSeededStdout:
    """Criterion 8 checks that two runs of one tree print the same bytes;
    these pin the bytes themselves, so a change that moves seeded output
    shows here."""

    @pytest.mark.parametrize(
        "command, code, stdout", FROZEN_STDOUT, ids=[row[0] for row in FROZEN_STDOUT]
    )
    def test_command(self, tmp_path, command, code, stdout):
        paths = {
            name: write_json(tmp_path / f"{name}.json", obj) for name, obj in FROZEN_INPUTS.items()
        }
        proc = run_cli(*command.format(**paths).split())
        assert (proc.returncode, proc.stdout) == (code, stdout)

    def test_bench_file(self, tmp_path):
        out = tmp_path / "bench.jsonl"
        proc = run_cli(
            "bench", "foursum-scaling", "--out", str(out),
            "--trials", "1", "--min-exp", "4", "--max-exp", "6", "--seed", "9",
        )
        assert (proc.returncode, proc.stdout) == (0, FROZEN_BENCH_STDOUT)
        assert out.read_bytes() == FROZEN_BENCH_FILE


class TestInProcess:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        """main builds its parser once per process; a flag given to one call
        does not carry over to the next, and each call prints what a
        separate process prints."""
        from gapsolve import cli

        assert cli.build_parser() is cli.build_parser()
        ss = write_json(tmp_path / "ss.json", {"elements": [2, 5, 9, 14], "target": 16})
        prog = write_json(tmp_path / "prog.json", {"A": [[1, 10, 100, 1000]], "b": [111]})
        # --start 7 moves the progression; the next call must start at 0 again
        calls = [
            ("generate", "--kind", "random", "--n", "12", "--seed", "3"),
            ("subset-sum", "solve", "--input", ss),
            ("generate", "--kind", "ap", "--n", "4", "--start", "7"),
            ("generate", "--kind", "ap", "--n", "4"),
            ("ilp", "solve", "--input", prog),
            ("generate", "--kind", "random", "--n", "12", "--seed", "3"),
        ]
        want = []
        for argv in calls:
            proc = run_cli(*argv)
            want.append((proc.returncode, proc.stdout))
        got = []
        for argv in calls:
            code = cli.main(list(argv))
            got.append((code, capsys.readouterr().out))
        assert got == want
        assert [code for code, _ in got] == [0, 0, 0, 0, 0, 0]
        assert got[2][1] == '{"elements":[7,8,9,10]}\n'
        assert got[3][1] == '{"elements":[0,1,2,3]}\n'


class TestErrors:
    def test_missing_file_exit_2(self):
        proc = run_cli("subset-sum", "solve", "--input", "/nonexistent.json")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_malformed_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        proc = run_cli("subset-sum", "solve", "--input", str(p))
        assert proc.returncode == 2

    def test_stdin_input_exit_2(self):
        """--input names a file; "-" is a path like any other, not stdin."""
        proc = subprocess.run(
            [sys.executable, "-m", "gapsolve", "subset-sum", "solve", "--input", "-"],
            input=json.dumps({"elements": [2, 5], "target": 7}),
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "No such file" in proc.stderr

    def test_unknown_command_exit_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
