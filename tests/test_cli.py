"""CLI surface: subcommand outputs, exit codes, byte determinism."""

import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ppcd import cli, lie


def _ppcd_argv(*argv):
    return [sys.executable, "-m", "ppcd", *argv]


def _ppcd_env(**extra):
    """The environment with this checkout's ppcd first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _NullOut:
    """A stdout that drops what is written."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class TestCount:
    def test_example(self, capsys):
        code, out, err = run(capsys, "count", "--n", "7", "--p", "5")
        assert code == 0 and err == ""
        assert out == '{"formula": 4, "enumerated": 4, "agree": true}\n'

    def test_large_n(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "1999", "--p", "7")
        row = json.loads(out)
        assert code == 0 and row["agree"]

    def test_failing_check_exits_2(self, capsys, monkeypatch):
        real = cli.hooks_mod.hook_count_row
        monkeypatch.setattr(cli.hooks_mod, "hook_count_row",
                            lambda n, p: {**real(n, p), "ok": False})
        code, out, err = run(capsys, "count", "--n", "7", "--p", "5")
        assert code == 2
        assert out == '{"formula": 4, "enumerated": 4, "agree": false}\n'
        assert err == ('{"violation": "hook-count", "n": 7, "p": 5, "formula": 4, '
                       '"enumerated": 4, "layered": 4}\n')


class TestDegrees:
    def test_partition_query(self, capsys):
        code, out, _ = run(capsys, "degrees", "--partition", "3,1,1", "--p", "5")
        assert code == 0
        row = json.loads(out)
        assert row == {"partition": [3, 1, 1], "degree": "6", "valuation": 0, "pprime": True}

    def test_all(self, capsys):
        code, out, _ = run(capsys, "degrees", "--n", "4", "--p", "5", "--all")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) == 5
        assert rows[0]["partition"] == [4]
        assert rows[-1]["partition"] == [1, 1, 1, 1]
        assert all(r["pprime"] for r in rows)

    def test_n_mismatch(self, capsys):
        code, _, err = run(capsys, "degrees", "--partition", "3,1", "--n", "5", "--p", "5")
        assert code == 1 and "error" in json.loads(err)

    def test_needs_mode(self, capsys):
        code, _, err = run(capsys, "degrees", "--n", "4", "--p", "5")
        assert code == 1
        code, _, err = run(capsys, "degrees", "--n", "4", "--p", "5", "--all", "--partition", "3,1")
        assert code == 1

    def test_all_needs_n(self, capsys):
        code, out, err = run(capsys, "degrees", "--all", "--p", "5")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "--all needs --n"}

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "degrees", "--partition", "3,1,1", "--p", "5", "--format", "csv")
        assert code == 0 and out == '"3,1,1",6,0,true\n'


class TestHooks:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "hooks", "--n", "7", "--p", "5")
        row = json.loads(out)
        assert code == 0
        assert row["count"] == row["formula"] == 4
        assert row["hooks"][0] == [7] and row["hooks"][1] == [6, 1]

    def test_failing_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.hooks_mod, "count_pprime_hooks_formula", lambda n, p: 5)
        code, out, err = run(capsys, "hooks", "--n", "7", "--p", "5")
        assert code == 2
        assert out == ('{"n": 7, "p": 5, "count": 4, "formula": 5, '
                       '"hooks": [[7], [6, 1], [2, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1]]}\n')
        assert err == '{"violation": "hook-count", "n": 7, "p": 5, "formula": 5, "enumerated": 4}\n'


class TestVerifyAn:
    def test_row_count_and_shape(self, capsys):
        code, out, err = run(capsys, "verify-an", "--n-max", "20", "--primes", "5")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 14  # n = 7..20
        first = lines[0].split(",")
        assert first[:4] == ["7", "5", "4", "4"]
        assert all(line.endswith(",true") for line in lines)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify-an", "--n-max", "9", "--primes", "5,7", "--format", "json"
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) == 6
        assert {r["p"] for r in rows} == {5, 7}
        assert all(r["bound_ok"] for r in rows)

    def test_exact_bound_flag(self, capsys):
        code, out, _ = run(capsys, "verify-an", "--n-max", "10", "--primes", "5",
                           "--exact-bound", "0")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_bad_primes(self, capsys):
        code, _, err = run(capsys, "verify-an", "--n-max", "10", "--primes", "x")
        assert code == 1

    def test_violation_exit_code(self, capsys, monkeypatch):
        from ppcd.hooks import AnBoundResult

        monkeypatch.setattr(cli.hooks_mod, "verify_An_bound",
                            lambda n, p: AnBoundResult(False, (), "forced"))
        code, out, err = run(capsys, "verify-an", "--n-max", "8", "--primes", "5")
        assert code == 2
        record = json.loads(err)
        assert record["violation"] == "an-bound"
        assert record["first"]["n"] == 7
        assert record["first"]["method"] == "forced"


def _block(primes, failing=()):
    """A hand-made classical-grid block; its degrees need not be consistent."""
    return lie._ClassicalBlock("B2-even", 2, 7, Fraction(1, 2), Fraction(9, 2), primes,
                               frozenset(failing))


class TestVerifyLie:
    def test_small_grid(self, capsys):
        code, out, _ = run(capsys, "verify-lie", "--q-max", "4", "--p-max", "13",
                           "--families", "A")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "A,4,2,5,7,5,true"
        assert all(line.endswith(",true") for line in lines)

    def test_rational_degrees_rendered(self, capsys):
        code, out, _ = run(capsys, "verify-lie", "--q-max", "4", "--p-max", "7",
                           "--families", "B2-even")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "B2-even,2,2,5,1/2,9/2,true"

    def test_family_alias_and_unknown(self, capsys):
        code, out, _ = run(capsys, "verify-lie", "--q-max", "3", "--p-max", "7",
                           "--families", "C")
        assert code == 0 and out.splitlines()[0].startswith("C,2,3,")
        code, _, err = run(capsys, "verify-lie", "--families", "Z9")
        assert code == 1

    @pytest.mark.parametrize("families", ["", "A,"])
    def test_empty_family_name_is_refused(self, capsys, families):
        # an empty list names the family '', as an empty item does; it is
        # not the default of every family
        code, out, err = run(capsys, "verify-lie", "--families", families)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "unknown classical family ''"}

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify-lie", "--q-max", "3", "--p-max", "7",
                           "--families", "D4", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and all(r["ok"] for r in rows)


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("families", [None, ["C", "B2-even"], ["A", "2A"]])
    def test_block_writer_matches_row_emitter(self, fmt, families):
        # q <= 32 and rank <= 20 hold the 1/2-valued B rows and failing
        # A and 2A rows
        blocks = lie._classical_blocks(32, 61, families, rank_max=20)
        rows = lie.classical_grid(32, 61, families, rank_max=20)
        by_blocks, by_rows = io.StringIO(), io.StringIO()
        bad = cli._emit_blocks(blocks, fmt, by_blocks)
        cli._emit_rows(rows, fmt, by_rows)
        assert by_blocks.getvalue() == by_rows.getvalue()
        first = next((row for row in rows if not row["ok"]), None)
        assert (None if bad is None else bad[0].row(bad[1], False)) == first
        assert (first is None) == (families == ["C", "B2-even"])
        assert any(row["d1"].denominator == 2 for row in rows) == (families != ["A", "2A"])

    def test_block_writer_on_a_passing_grid(self):
        out = io.StringIO()
        assert cli._emit_blocks(lie._classical_blocks(9, 13), "csv", out) is None
        assert out.getvalue().count("\n") == len(lie.classical_grid(9, 13))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("blocks", [
        [],
        [_block(())],
        [_block((5,))],
        [_block((5,), (5,))],
        [_block((5, 7, 11), (5, 7, 11))],
        [_block((5, 7, 11), (5,))],
        [_block((5, 7, 11), (11,))],
        # the first failing row is in emission order, not the least p
        [_block(()), _block((5, 7)), _block((7, 11), (11,)), _block((5, 13), (5,))],
    ], ids=["none", "empty", "single", "single-failing", "all-failing", "failing-first",
            "failing-last", "mixed"])
    def test_block_writer_edge_cases(self, fmt, blocks):
        rows = [(block, p) for block in blocks for p in block.primes]
        by_blocks, by_rows = io.StringIO(), io.StringIO()
        bad = cli._emit_blocks(blocks, fmt, by_blocks)
        cli._emit_rows([block.row(p, p not in block.failing) for block, p in rows], fmt,
                       by_rows)
        assert by_blocks.getvalue() == by_rows.getvalue()
        assert bad == next(((block, p) for block, p in rows if p in block.failing), None)

    def test_p_mark_occurs_once_in_every_template(self):
        # _emit_blocks splits each template row at the mark; a second
        # occurrence would make that split fail
        mark = str(cli._P_MARK)
        for block in lie._classical_blocks(64, 199, rank_max=40):
            for fmt in ("csv", "json"):
                for ok in (True, False):
                    buf = io.StringIO()
                    cli._emit_rows([block.row(cli._P_MARK, ok)], fmt, buf)
                    assert buf.getvalue().count(mark) == 1, (block, fmt, ok)

    def test_marks_occur_once_in_order_in_every_column_template(self):
        # _emit_blocks splits each column's template row at the q, p, d1
        # and d2 marks, in that order
        marks = [str(m) for m in (cli._Q_MARK, cli._P_MARK, cli._D1_MARK, cli._D2_MARK)]
        columns = {}
        for block in lie._classical_blocks(64, 199, rank_max=40):
            columns.setdefault((block.family, block.n), block)
        assert len(columns) == 37 + 37 + 39 + 1 + 36 + 1 + 37
        for block in columns.values():
            marked = block._replace(q=cli._Q_MARK, d1=cli._D1_MARK, d2=cli._D2_MARK)
            for fmt in ("csv", "json"):
                for ok in (True, False):
                    buf = io.StringIO()
                    cli._emit_rows([marked.row(cli._P_MARK, ok)], fmt, buf)
                    text = buf.getvalue()
                    assert [text.count(mark) for mark in marks] == [1] * 4, (block, fmt, ok)
                    at = [text.index(mark) for mark in marks]
                    assert at == sorted(at), (block, fmt, ok)

    def test_verify_lie_renders_one_template_per_column(self, monkeypatch):
        # the first lie-grid argv has 68 (family, rank) columns; the A and
        # 2A rank-13 columns also render their failing template; the whole
        # grid comes from one block stream, which cli looks up in lie
        calls = []
        streams = []
        real = cli._emit_rows
        real_blocks = lie._classical_blocks

        def counted(rows, fmt, out):
            calls.append(fmt)
            return real(rows, fmt, out)

        def counted_blocks(*args):
            streams.append(args)
            return real_blocks(*args)

        monkeypatch.setattr(cli, "_emit_rows", counted)
        monkeypatch.setattr(lie, "_classical_blocks", counted_blocks)
        monkeypatch.setattr(sys, "stdout", _NullOut())
        assert cli.main(["verify-lie", "--q-max", "512", "--p-max", "199", "--rank-max", "16",
                         "--families", "A,2A,B,B2-even,D,D4,2D"]) == 2
        assert len(calls) == 68 + 2
        assert len(streams) == 1

    def test_exit_record_names_first_failing_row(self, capsys):
        code, out, err = run(capsys, "verify-lie", "--q-max", "4", "--p-max", "5",
                             "--rank-max", "13", "--families", "A")
        assert code == 2
        assert json.loads(err) == {"violation": "lie-not-both-divisible", "family": "A",
                                   "n": 13, "q": 4, "p": 5, "d1": "5592405",
                                   "d2": "1563748356005"}
        assert [line for line in out.splitlines() if line.endswith(",false")] == [
            "A,13,4,5,5592405,1563748356005,false"]
        # many failing rows, in both families: the record is the first one
        code, out, err = run(capsys, "verify-lie", "--q-max", "32", "--p-max", "61",
                             "--rank-max", "20", "--families", "2A,A", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        first = next(row for row in rows if not row["ok"])
        assert code == 2 and sum(not row["ok"] for row in rows) > 1
        assert json.loads(err) == {"violation": "lie-not-both-divisible",
                                   **{key: first[key] for key in ("family", "n", "q", "p",
                                                                  "d1", "d2")}}

    @pytest.mark.parametrize("argv", [
        # the benchmark grid and a wider rank range on fewer q; both exit
        # 2 on the rank-13 A witness
        ["--q-max", "512", "--p-max", "199", "--rank-max", "16"],
        ["--q-max", "128", "--p-max", "97", "--rank-max", "40"],
    ], ids=["benchmark-grid", "rank-40"])
    def test_verify_lie_memory_is_one_block(self, monkeypatch, argv):
        # the blocks are written as they are built, so the peak is one
        # block and the per-q prime tuples; either grid held whole is
        # over 4 MB
        monkeypatch.setattr(sys, "stdout", _NullOut())
        assert cli.main(["verify-lie", "--q-max", "9", "--p-max", "13"]) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.main(["verify-lie", *argv]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestLiePair:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "lie-pair", "--family", "PSp4", "--q", "5", "--p", "13")
        row = json.loads(out)
        assert code == 0  # outside the defining-characteristic contract regime
        assert row["degrees"] == [156, 104]
        assert row["contract_regime"] is False

    def test_contract_case(self, capsys):
        code, out, _ = run(capsys, "lie-pair", "--family", "Suzuki", "--q", "32", "--p", "31")
        row = json.loads(out)
        assert code == 0
        assert row["degrees"] == [1024, 1025]
        assert row["nondivisibility_ok"] and row["contract_regime"]
        assert row["chi1"]["origin"] == "steinberg"

    def test_failing_check_exits_2_in_regime_only(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.lie_mod, "nondivisibility_check", lambda d1, d2, p: False)
        code, out, err = run(capsys, "lie-pair", "--family", "Suzuki", "--q", "32", "--p", "31")
        row = json.loads(out)
        assert code == 2
        assert row["degrees"] == [1024, 1025]
        assert row["contract_regime"] and not row["nondivisibility_ok"]
        assert err == ('{"violation": "nondivisibility", "family": "Suzuki", "q": 32, "p": 31, '
                       '"d1": 1024, "d2": 1025}\n')
        # PSp4 at p = 13, not the prime of q = 5, is outside the contract regime
        code, out, err = run(capsys, "lie-pair", "--family", "PSp4", "--q", "5", "--p", "13")
        row = json.loads(out)
        assert code == 0 and err == ""
        assert row["degrees"] == [156, 104]
        assert not row["contract_regime"] and not row["nondivisibility_ok"]

    def test_regime_error(self, capsys):
        code, _, err = run(capsys, "lie-pair", "--family", "Suzuki", "--q", "16", "--p", "5")
        assert code == 1 and "error" in json.loads(err)


class TestCtbl:
    def test_bundled(self, capsys):
        code, out, _ = run(capsys, "ctbl", "--bundled", "A5", "--p", "5")
        row = json.loads(out)
        assert code == 0
        assert row["cd_pprime"] == [1, 3, 4]
        assert row["sizes"] == {"cd": 4, "cd_pprime": 3}

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "pgl27.json"
        path.write_text('{"degree_set": [1, 6, 7, 8], "name": "PGL2(7)"}')
        code, out, _ = run(capsys, "ctbl", "--file", str(path), "--p", "7")
        row = json.loads(out)
        assert code == 0 and row["cd_pprime"] == [1, 6, 8]

    def test_schema_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "A5", "complete": true, "degrees": [[1,1]], "order": 61}')
        code, _, err = run(capsys, "ctbl", "--file", str(path), "--p", "5")
        assert code == 1 and "sum-of-squares" in json.loads(err)["error"]

    def test_mismatch_with_a_total_too_long_to_print(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"name": "X", "complete": true, "degrees": [[' + "9" * 2200
                        + ', 1]], "order": 5}')
        code, out, err = run(capsys, "ctbl", "--file", str(path), "--p", "5")
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith(
            "sum-of-squares mismatch for X: degrees give an integer of ")

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"degree_set": [' + "7" * 5000 + "]}"],
                             ids=["deep-nesting", "long-integer"])
    def test_adversarial_file(self, capsys, tmp_path, text):
        path = tmp_path / "adversarial.json"
        path.write_text(text)
        code, out, err = run(capsys, "ctbl", "--file", str(path), "--p", "5")
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith("degree-table schema violation")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "ctbl", "--file", str(tmp_path / "nope.json"), "--p", "5")
        assert code == 1

    def test_needs_exactly_one_source(self, capsys):
        code, _, _ = run(capsys, "ctbl", "--p", "5")
        assert code == 1


class TestEmitRows:
    ROWS = [{"family": "B2-even", "n": 2, "q": 4, "d1": Fraction(25, 2),
             "d2": Fraction(9), "partition": [4, 1], "ok": True},
            {"family": "A", "n": 4, "q": 5, "d1": Fraction(31), "d2": Fraction(1, 3),
             "partition": [], "ok": False}]

    def emit(self, rows, fmt):
        out = io.StringIO()
        cli._emit_rows(rows, fmt, out)
        return out.getvalue()

    def test_csv(self):
        assert self.emit(self.ROWS, "csv") == (
            'B2-even,2,4,25/2,9,"4,1",true\n'
            'A,4,5,31,1/3,"",false\n'
        )

    def test_json(self):
        lines = self.emit(self.ROWS, "json").splitlines()
        assert lines[0] == ('{"family": "B2-even", "n": 2, "q": 4, "d1": "25/2", '
                            '"d2": "9", "partition": [4, 1], "ok": true}')
        assert json.loads(lines[1])["d2"] == "1/3"

    def test_rows_may_be_a_generator(self):
        rows = ({"n": n, "ok": n % 2 == 0} for n in range(3))
        assert self.emit(rows, "csv") == "0,true\n1,false\n2,true\n"

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"x"])
    def test_json_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            self.emit([{"x": value}], "json")


class TestErrorsAndDeterminism:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1 and "error" in json.loads(err)

    def test_precondition_failure(self, capsys):
        code, _, err = run(capsys, "count", "--n", "7", "--p", "6")
        assert code == 1 and "prime" in json.loads(err)["error"]

    def test_byte_identical_reruns(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "verify-an", "--n-max", "15", "--primes", "5,7")
            outputs.add(out)
        assert len(outputs) == 1
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "verify-lie", "--q-max", "5", "--p-max", "13")
            outputs.add(out)
        assert len(outputs) == 1

    def test_parser_reuse(self, capsys):
        # a bad-usage call, then valid calls of alternating subcommands, all
        # through the one cached parser: each gives what a fresh parser gives
        calls = [
            ("hooks", "--n", "7"),
            ("count", "--n", "7", "--p", "5"),
            ("degrees", "--partition", "3,1,1", "--p", "5", "--format", "csv"),
            ("frobnicate",),
            ("verify-an", "--n-max", "9", "--primes", "5,7", "--format", "json"),
            ("hooks", "--n", "7", "--p", "5"),
            ("degrees", "--n", "4", "--p", "5", "--all"),
            ("count", "--n", "7", "--p", "6"),
            ("ctbl", "--bundled", "A5", "--p", "5"),
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [code for code, _, _ in fresh] == [1, 0, 0, 1, 0, 0, 0, 1, 0]
        parser = cli.build_parser()
        for _ in range(2):
            assert [run(capsys, *argv) for argv in calls] == fresh
        assert cli.build_parser() is parser

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_identical_across_hash_seeds(self, fmt):
        # degree sets and family lists pass through hashing; output must
        # not depend on it
        commands = [
            ["verify-an", "--n-max", "30", "--primes", "5,7,11,13"],
            ["verify-lie"],
            ["degrees", "--n", "12", "--p", "5", "--all"],
        ]
        for command in commands:
            outputs = []
            for seed in ("0", "12345"):
                done = subprocess.run(_ppcd_argv(*command, "--format", fmt),
                                      env=_ppcd_env(PYTHONHASHSEED=seed),
                                      capture_output=True, check=True)
                outputs.append(done.stdout)
            assert outputs[0] == outputs[1] and outputs[0], command

    def test_closed_stdout_exits_quietly(self):
        # ~0.5 MB of rows, far more than a pipe holds: the writes after
        # the reader closes its end raise BrokenPipeError in the child
        proc = subprocess.Popen(_ppcd_argv("verify-lie", "--q-max", "32"),
                                env=_ppcd_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first.startswith(b"A,") and err == b""

    def test_closed_stdout_mid_hooks_exits_quietly(self):
        # the whole list is one line of ~28 MB, written hook by hook: the
        # reader takes a first chunk and closes, so a row write raises
        # BrokenPipeError inside the loop
        proc = subprocess.Popen(_ppcd_argv("hooks", "--n", "5000", "--p", "5"),
                                env=_ppcd_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        first = proc.stdout.read(4096)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first.startswith(b'{"n": 5000, "p": 5, "count": 3750') and err == b""


# Modules that ``import ppcd.cli`` must not load: ``dataclasses`` and what
# it pulls in cost more than the rest of the import, and
# ``importlib.resources`` is read only by ``ctbl.bundled_table``.
_HEAVY_IMPORTS = {"dataclasses", "inspect", "ast", "dis", "tokenize", "importlib.resources"}

_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import ppcd.cli
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(ppcd.cli.main(["ctbl", "--bundled", "A6", "--p", "7"]))
"""


class TestImportSet:
    def test_cli_import_loads_no_heavy_module(self):
        # most of a single query's time is interpreter start and this
        # import; -S skips site, whose .pth files may preload a module
        # and hide its import here
        done = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE], env=_ppcd_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        added, table = done.stdout.splitlines()
        assert "ppcd.cli" in added.split()
        assert sorted(_HEAVY_IMPORTS & set(added.split())) == []
        assert json.loads(table)["cd_pprime"] == [1, 5, 8, 9, 10]
