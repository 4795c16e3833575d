import io
import json
import sys

import pytest

import rankpl.cli
from conftest import LOCALIZATION_ARGS, record_budgets, run_cli


#: the most digits int() converts (sys.get_int_max_str_digits)
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_int_limited = pytest.mark.skipif(
    not _MAX_DIGITS, reason="int() converts integers of any length"
)


class TestRun:
    def test_intro_projected(self, programs):
        code, out, err = run_cli(
            ["run", str(programs / "intro.rpl"), "--project", "x"]
        )
        assert code == 0 and err == ""
        assert out == "rank 0: x=10\nrank 1: x=20\nrank 2: x=30\n"

    def test_intro_unprojected_shows_all_bindings(self, programs):
        code, out, _ = run_cli(["run", str(programs / "intro.rpl")])
        assert code == 0
        assert out.splitlines()[0] == "rank 0: x=10, y=1"

    def test_records_format(self, programs):
        code, out, _ = run_cli(
            [
                "run",
                str(programs / "intro.rpl"),
                "--project",
                "x",
                "--format",
                "records",
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records == [
            {"rank": 0, "bindings": {"x": 10}},
            {"rank": 1, "bindings": {"x": 20}},
            {"rank": 2, "bindings": {"x": 30}},
        ]

    def test_top_limits_lines(self, programs):
        code, out, _ = run_cli(
            ["run", str(programs / "intro.rpl"), "--project", "x", "--top", "2"]
        )
        assert code == 0
        assert out == "rank 0: x=10\nrank 1: x=20\n"

    def test_max_rank_zero_equals_rank_zero_slice(self, programs):
        full_code, full, _ = run_cli(
            ["run", str(programs / "intro_observe.rpl"), "--project", "x"]
        )
        slice_code, sliced, _ = run_cli(
            [
                "run",
                str(programs / "intro_observe.rpl"),
                "--project",
                "x",
                "--max-rank",
                "0",
            ]
        )
        assert full_code == slice_code == 0
        rank0 = [line for line in full.splitlines() if line.startswith("rank 0:")]
        assert sliced.splitlines() == rank0

    def test_failure_exit_code(self, tmp_path):
        path = tmp_path / "fail.rpl"
        path.write_text("observe 1 == 2;\n")
        code, out, _ = run_cli(["run", str(path)])
        assert code == 1
        assert out == "failed (observation ruled out all possibilities)\n"

    def test_records_failure_line_is_json(self, tmp_path):
        path = tmp_path / "fail.rpl"
        path.write_text("observe 1 == 2;\n")
        code, out, _ = run_cli(["run", str(path), "--format", "records"])
        assert code == 1
        assert [json.loads(line) for line in out.splitlines()] == [{"failed": True}]

    FAILED = "failed (observation ruled out all possibilities)\n"
    RECORD = '{"failed": true}\n'

    @pytest.mark.parametrize(
        "source, options, code, out",
        [
            ("observe 1 == 2;", ["--top", "0"], 1, FAILED),
            ("observe 1 == 2;", ["--top", "0", "--format", "records"], 1, RECORD),
            ("observe 1 == 2;", ["--max-rank", "0"], 1, FAILED),
            ("x := 1;", ["--top", "0"], 0, ""),
        ],
        ids=["failure-top-0", "failure-top-0-records", "failure-max-rank-0", "top-0"],
    )
    def test_failure_line_is_printed_when_no_outcome_arrives(
        self, tmp_path, source, options, code, out
    ):
        # --top 0 prints no outcome, yet the failure ranking still reports
        path = tmp_path / "prog.rpl"
        path.write_text(source + "\n")
        assert run_cli(["run", str(path), *options]) == (code, out, "")

    def test_runtime_error_exit_code(self, tmp_path):
        path = tmp_path / "div.rpl"
        path.write_text("x := 1 / 0;\n")
        code, _, err = run_cli(["run", str(path)])
        assert code == 3
        assert "division-by-zero" in err and "line 1" in err

    def test_full_run_prints_nothing_before_a_runtime_error(self, tmp_path):
        # the error sits in a rank-3 alternative: a full run executes the
        # program once, exactly, so it fails before printing any outcome,
        # while a --max-rank run prints every rank it has proven
        path = tmp_path / "late.rpl"
        path.write_text(
            "x := 0 or(1) 1; z := 2 or(3) 3; "
            "if z == 3 then { y := 1 / 0; } else { skip; };\n"
        )
        code, out, err = run_cli(["run", str(path)])
        assert code == 3
        assert out == ""
        assert "division-by-zero" in err
        code, out, err = run_cli(["run", str(path), "--max-rank", "5"])
        assert code == 3
        assert out == "rank 0: z=2\nrank 1: x=1, z=2\n"
        assert "division-by-zero" in err

    @pytest.mark.parametrize(
        "project, lines",
        [
            ([], "rank 0: x=1\nrank 1: x=1, y=1\n"),
            (["--project", "x"], "rank 0: x=1\n"),
        ],
        ids=["all", "projected"],
    )
    def test_proven_ranks_print_before_a_runtime_error(self, tmp_path, project, lines):
        # the round at budget 3 raises in the rank-2 alternative, after the
        # rounds at budgets 0 and 1 proved ranks 0 and 1; under --project
        # rank 1 repeats rank 0's line, so only rank 0 is printed
        path = tmp_path / "late.rpl"
        path.write_text(
            "either { y := 0; } or (1) { y := 1; }; x := 1; "
            "either { skip; } or (2) { z := 1 / 0; };\n"
        )
        code, out, err = run_cli(["run", str(path), "--max-rank", "5", *project])
        assert (code, out) == (3, lines)
        assert err == "runtime error: division-by-zero at line 1, column 81\n"

    @pytest.mark.parametrize(
        "options, code, lines, rounds",
        [
            (["--top", "2"], 0, "rank 0: x=1\nrank 1: x=1, y=1\n", [0, 1]),
            (["--top", "1"], 0, "rank 0: x=1\n", [0]),
            (["--top", "1", "--project", "x"], 0, "rank 0: x=1\n", [0, 1]),
            (["--top", "2", "--project", "x"], 3, "rank 0: x=1\n", [0, 1, 3]),
        ],
        ids=["top-2", "top-1", "top-1-projected", "top-2-projected"],
    )
    def test_top_returns_once_its_lines_are_out(
        self, tmp_path, monkeypatch, options, code, lines, rounds
    ):
        # the program of the test above: the run ends at its --top'th line,
        # before the rank-2 alternative raises in the round at budget 3.
        # Unprojected lines print as they arrive, so no round runs after the
        # last one.  A projected line waits for its rank to close, which the
        # rank-1 outcome of the round at budget 1 does; under --project x
        # that outcome projects to the line already printed, so only one
        # distinct line is proven before the error
        path = tmp_path / "late.rpl"
        path.write_text(
            "either { y := 0; } or (1) { y := 1; }; x := 1; "
            "either { skip; } or (2) { z := 1 / 0; };\n"
        )
        budgets = record_budgets(monkeypatch)
        got = run_cli(["run", str(path), "--max-rank", "5", *options])
        error = "runtime error: division-by-zero at line 1, column 81\n"
        assert got == (code, lines, error if code else "")
        assert budgets == rounds

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        import rankpl.cli

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(rankpl.cli, "enumerate_outcomes", crash)
        path = tmp_path / "ok.rpl"
        path.write_text("x := 1;\n")
        code, out, err = run_cli(["run", str(path)])
        assert code == 5
        assert out == ""
        assert err == "internal error: RuntimeError('boom')\n"

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.rpl"
        path.write_text("x := ;\n")
        code, _, err = run_cli(["run", str(path)])
        assert code == 2 and "parse error" in err

    def test_non_ascii_digit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "digit.rpl"
        path.write_text("x := \u00b2;\n", encoding="utf-8")
        code, out, err = run_cli(["run", str(path)])
        assert code == 2 and out == ""
        assert "line 1, column 6: unexpected character '\u00b2'" in err

    def test_unicode_identifier(self, tmp_path):
        path = tmp_path / "name.rpl"
        path.write_text("\u00e9 := 1;\n", encoding="utf-8")
        code, out, _ = run_cli(["run", str(path)])
        assert code == 0
        assert out == "rank 0: \u00e9=1\n"

    @pytest.mark.parametrize("depth", [200, 1000])
    def test_deep_nesting_runs_or_is_a_parse_error(self, tmp_path, depth):
        parens = tmp_path / "parens.rpl"
        parens.write_text("x := " + "(" * depth + "1" + ")" * depth + ";\n")
        ifs = tmp_path / "ifs.rpl"
        ifs.write_text(
            "x := 0; " + "if x == 0 then { " * depth + "x := 1;" + " }" * depth + "\n"
        )
        for path in (parens, ifs):
            code, out, err = run_cli(["run", str(path), "--project", "x"])
            if depth == 200:
                assert (code, out, err) == (0, "rank 0: x=1\n", "")
            else:
                assert code == 2 and out == ""
                assert "parse error" in err and "program nested too deeply" in err

    def test_static_error_exit_code(self, tmp_path):
        path = tmp_path / "static.rpl"
        path.write_text("x := any_of(3 .. 1);\n")
        code, out, err = run_cli(["run", str(path)])
        assert (code, out) == (2, "")
        message = "line 1, column 6: empty range in any_of(3 .. 1)"
        assert err == f"{path}: parse error: {message}\n"

    def test_empty_range_in_an_untaken_branch_is_a_parse_error(self, tmp_path):
        path = tmp_path / "untaken.rpl"
        path.write_text("x := 0;\nif x == 1 then { y := any_of(3 .. 1); }\n")
        message = "line 2, column 23: empty range in any_of(3 .. 1)"
        expected = f"{path}: parse error: {message}\n"
        assert run_cli(["run", str(path)]) == (2, "", expected)
        assert run_cli(["check", str(path)]) == (2, "", expected)

    def test_wide_any_of_runs(self, tmp_path):
        path = tmp_path / "wide.rpl"
        path.write_text("x := any_of(0 .. 2000);\n")
        code, out, err = run_cli(["run", str(path), "--project", "x"])
        assert (code, err) == (0, "")
        assert out == "".join(f"rank 0: x={i}\n" for i in range(2001))

    def test_long_program_runs_and_checks(self, tmp_path):
        path = tmp_path / "long.rpl"
        path.write_text("x := 0;\n" + "x := x + 1;\n" * 2999)
        code, out, err = run_cli(["run", str(path), "--project", "x"])
        assert (code, out, err) == (0, "rank 0: x=2999\n", "")
        assert run_cli(["check", str(path)]) == (0, f"{path}: ok\n", "")

    def test_large_define_runs(self, tmp_path):
        path = tmp_path / "indexed.rpl"
        path.write_text("x := a[1999];\n")
        array = "[" + ", ".join(str(i) for i in range(2000)) + "]"
        code, out, err = run_cli(
            ["run", str(path), "--define", f"a={array}", "--project", "x"]
        )
        assert (code, out, err) == (0, "rank 0: x=1999\n", "")

    @_int_limited
    def test_integers_of_the_longest_length_int_converts_run(self, tmp_path):
        digits = "9" * _MAX_DIGITS
        path = tmp_path / "long.rpl"
        path.write_text(f"x := {digits}; y := a;\n")
        code, out, err = run_cli(
            ["run", str(path), "--define", f"a=-{digits}", "--project", "x,y"]
        )
        assert (code, out, err) == (0, f"rank 0: x={digits}, y=-{digits}\n", "")

    #: x reaches 10 ** 8192, a value of 8193 digits
    HUGE = "x := 10; i := 0; while i < 13 do { x := x * x; i := i + 1; };\n"

    @pytest.mark.skipif(
        not 0 < _MAX_DIGITS < 8193, reason="int() prints a value of 8193 digits"
    )
    @pytest.mark.parametrize("fmt", ["text", "records"])
    def test_a_value_too_long_to_print_is_an_output_error(self, tmp_path, fmt):
        path = tmp_path / "huge.rpl"
        path.write_text(self.HUGE)
        code, out, err = run_cli(["run", str(path), "--format", fmt])
        assert (code, out) == (4, "")
        assert err.startswith("output error: cannot print an outcome: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        # the value is computed; a projection that leaves it out prints
        code, out, err = run_cli(["run", str(path), "--project", "i"])
        assert (code, out, err) == (0, "rank 0: i=13\n", "")

    @_int_limited
    @pytest.mark.parametrize("fmt", ["text", "records"])
    def test_a_value_of_the_longest_printable_length_prints(self, tmp_path, fmt):
        # x := 10 ** n has n + 1 digits
        path = tmp_path / "power.rpl"
        program = "x := 1; i := 0; while i < {} do {{ x := x * 10; i := i + 1; }};\n"
        limit = ["--iter-limit", str(_MAX_DIGITS + 1), "--format", fmt]
        path.write_text(program.format(_MAX_DIGITS - 1))
        code, out, err = run_cli(["run", str(path), "--project", "x", *limit])
        assert (code, err) == (0, "")
        shown = "1" + "0" * (_MAX_DIGITS - 1)
        if fmt == "text":
            assert out == f"rank 0: x={shown}\n"
        else:
            assert json.loads(out) == {"rank": 0, "bindings": {"x": int(shown)}}
        path.write_text(program.format(_MAX_DIGITS))
        code, out, err = run_cli(["run", str(path), "--project", "x", *limit])
        assert (code, out) == (4, "")
        assert err.startswith("output error: cannot print an outcome: ")

    @_int_limited
    @pytest.mark.parametrize(
        "command, source, column",
        [
            ("run", "x := 1 + {};", 10),
            ("check", "x := 1 + {};", 10),
            ("run", "x := any_of(0 .. {});", 18),
        ],
        ids=["run", "check", "any_of"],
    )
    def test_too_long_integer_literal_is_a_parse_error(
        self, tmp_path, command, source, column
    ):
        path = tmp_path / "long.rpl"
        path.write_text(source.format("9" * (_MAX_DIGITS + 1)) + "\n")
        code, out, err = run_cli([command, str(path)])
        assert (code, out) == (2, "")
        assert err.endswith(f"line 1, column {column}: integer literal too long\n")

    @_int_limited
    @pytest.mark.parametrize(
        "options",
        [
            ["--define", "a={}"],
            ["--input", "long.input"],
            ["--enum", "E={}", "--define", "a=E"],
        ],
        ids=["define", "input", "enum"],
    )
    def test_too_long_integer_value_is_an_input_error(
        self, tmp_path, monkeypatch, options
    ):
        digits = "9" * (_MAX_DIGITS + 1)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.rpl").write_text("x := a;\n")
        (tmp_path / "long.input").write_text(f"a = [1, -{digits}]\n")
        options = [option.format(digits) for option in options]
        code, out, err = run_cli(["run", "a.rpl", *options])
        assert (code, out) == (4, "")
        assert err.startswith("input error: integer too long")

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli(["run", str(tmp_path / "absent.rpl")])
        assert code == 4 and "cannot read" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "bad.rpl"],
            ["run", "a.rpl", "--input", "bad.input"],
            ["check", "bad.rpl"],
        ],
        ids=["run", "input", "check"],
    )
    def test_undecodable_file_cannot_be_read(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.rpl").write_text("x := a;\n")
        (tmp_path / "bad.rpl").write_bytes(b"x := 1;\n\xff\n")
        (tmp_path / "bad.input").write_bytes(b"a = 1\n\xff\n")
        code, out, err = run_cli(argv)
        assert (code, out) == (4, "")
        bad = argv[-1]
        assert err == f"cannot read input: {bad}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["check", "bom.rpl"], "bom.rpl: ok\n"),
            (["run", "bom.rpl"], "rank 0: x=1\n"),
            (["run", "a.rpl", "--input", "bom.input", "--project", "x"], "rank 0: x=2\n"),
        ],
        ids=["check", "run", "input"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, argv, expected):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.rpl").write_text("x := a;\n")
        (tmp_path / "bom.rpl").write_text("x := 1;\n", encoding="utf-8-sig")
        (tmp_path / "bom.input").write_text("a = 2\n", encoding="utf-8-sig")
        assert run_cli(argv) == (0, expected, "")

    def test_input_file_comments_end_at_newline(self):
        # as in programs: "\r" and the other line breaks of str.splitlines
        # do not end a comment
        text = "a = 1 // b = 2\r c = 3\u2028 d = 4\ne = 5 // f = 6\n"
        assert rankpl.cli.parse_input_file(text, {}) == {"a": 1, "e": 5}

    @pytest.mark.parametrize("name", ["x[0]", "a b", "1x", "if"])
    def test_define_name_must_be_a_variable_name(self, tmp_path, name):
        path = tmp_path / "a.rpl"
        path.write_text("y := x[0];\n")
        code, out, err = run_cli(["run", str(path), "--define", f"{name}=3"])
        assert (code, out) == (4, "")
        assert err == f"input error: {name!r} is not a variable name\n"

    @pytest.mark.parametrize(
        "options, expected",
        [
            (["--input", "if.input"], (4, "", "input error: 'if' is not a variable name\n")),
            (["--input", "e.input"], (0, "rank 0: y=3\n", "")),
            (["--define", "\u00e9=4"], (0, "rank 0: y=4\n", "")),
        ],
        ids=["keyword-input", "unicode-input", "unicode-define"],
    )
    def test_input_file_names_follow_the_define_rules(
        self, tmp_path, monkeypatch, options, expected
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.rpl").write_text("y := \u00e9;\n", encoding="utf-8")
        (tmp_path / "if.input").write_text("if = 3\n")
        (tmp_path / "e.input").write_text("\u00e9 = 3\n", encoding="utf-8")
        assert run_cli(["run", "a.rpl", *options, "--project", "y"]) == expected

    def test_bad_define(self, programs):
        code, _, err = run_cli(
            ["run", str(programs / "intro.rpl"), "--define", "k=[1,"]
        )
        assert code == 4 and "input error" in err
        code, _, err = run_cli(
            ["run", str(programs / "intro.rpl"), "--define", "k=E"]
        )
        assert code == 4 and "enum" in err

    @pytest.mark.parametrize(
        "option, line",
        [
            (["--top", "-1"], "input error: --top must be non-negative\n"),
            (["--max-rank", "-1"], "input error: --max-rank must be non-negative\n"),
            (["--iter-limit", "0"], "input error: --iter-limit must be positive\n"),
        ],
    )
    def test_a_bad_option_value_names_the_option(self, programs, option, line):
        code, out, err = run_cli(["run", str(programs / "intro.rpl"), *option])
        assert (code, out, err) == (4, "", line)

    def test_missing_comma_in_define_is_an_input_error(self, tmp_path):
        path = tmp_path / "a.rpl"
        path.write_text("x := a[1];\n")
        code, out, err = run_cli(["run", str(path), "--define", "a=[1 2]"])
        assert (code, out) == (4, "")
        assert err == "input error: expected ',' or ']' after an item, found '2'\n"

    @pytest.mark.parametrize("option", ["--define", "--input"])
    def test_deeply_nested_value_runs(self, tmp_path, monkeypatch, option):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.rpl").write_text("skip;\n")
        value = "[" * 3000 + "7" + "]" * 3000
        (tmp_path / "deep.input").write_text(f"a = {value}\n")
        argument = f"a={value}" if option == "--define" else "deep.input"
        code, out, err = run_cli(["run", "a.rpl", option, argument])
        assert (code, err) == (0, "")
        assert out == "rank 0: a" + "[0]" * 3000 + "=7\n"

    @pytest.mark.parametrize(
        "options",
        [
            ["--define", "a=\u0663"],
            ["--define", "a=T", "--enum", "T=\u0663"],
            ["--input", "digit.input"],
        ],
        ids=["define", "enum", "input"],
    )
    def test_non_ascii_digit_in_inputs_is_an_input_error(
        self, tmp_path, monkeypatch, options
    ):
        # U+0663 (Arabic-Indic three) is a digit to \d and int(), but input
        # values, like program literals, are ASCII digits only
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.rpl").write_text("x := a;\n")
        (tmp_path / "digit.input").write_text("a = \u0663\n", encoding="utf-8")
        code, out, err = run_cli(["run", "a.rpl", *options, "--project", "x"])
        assert (code, out) == (4, "")
        assert err.startswith("input error: ")

    @pytest.mark.parametrize(
        "name, define",
        [("é", "a=é"), ("x[0]", "a=2"), ("5", "a=2")],
        ids=["non-ascii", "indexed", "digits"],
    )
    def test_enum_name_no_value_can_read_is_an_input_error(
        self, tmp_path, monkeypatch, name, define
    ):
        # values read names as [A-Za-z_][A-Za-z0-9_]*, so an enum under any
        # other name could never be used, whether or not a define names it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.rpl").write_text("x := a;\n")
        code, out, err = run_cli(
            ["run", "a.rpl", "--enum", f"{name}=1", "--define", define]
        )
        assert (code, out) == (4, "")
        assert err == f"input error: {name!r} is not an enum name\n"

    def test_projection_sorts_the_lines_of_each_rank(self, tmp_path):
        # outcomes arrive in valuation order, a = 1 first; projected on x,
        # the four rank-0 states collapse to two lines that must be re-sorted
        path = tmp_path / "collapse.rpl"
        path.write_text(
            "a := any_of(0 .. 1); b := any_of(0 .. 1);\n"
            "if a == 1 then { x := 2; } else { x := 1; };\n"
            "either { skip; } or (1) { x := 0; };\n"
        )
        code, out, err = run_cli(["run", str(path)])
        assert code == 0 and err == ""
        assert out.splitlines()[:4] == [
            "rank 0: a=1, b=1, x=2",
            "rank 0: a=1, x=2",
            "rank 0: b=1, x=1",
            "rank 0: x=1",
        ]
        for options in ([], ["--max-rank", "1"]):
            code, out, err = run_cli(["run", str(path), *options, "--project", "x"])
            assert code == 0 and err == ""
            assert out == "rank 0: x=1\nrank 0: x=2\nrank 1: x=0\n"

    @pytest.mark.parametrize("name", ["a[0]", "1x", "if"])
    def test_project_name_must_be_a_variable_name(self, tmp_path, name):
        path = tmp_path / "a.rpl"
        path.write_text("a[0] := 3;\n")
        code, out, err = run_cli(["run", str(path), "--project", f"x,{name}"])
        assert (code, out) == (4, "")
        assert err == f"input error: {name!r} is not a variable name\n"
        # names are checked after the program parses, as --top and --max-rank
        path.write_text("a[0] := ;\n")
        code, out, err = run_cli(["run", str(path), "--project", name])
        assert (code, out) == (2, "") and "parse error" in err

    @pytest.mark.parametrize(
        "project, expected",
        [
            ("x,x", "rank 0: x=1\n"),
            (" , x", "rank 0: x=1\n"),
            ("é", "rank 0: é=2\n"),
            ("x, é ,x,", "rank 0: x=1, é=2\n"),
        ],
        ids=["duplicate", "blank-entry", "unicode", "mixed"],
    )
    def test_projection_names(self, tmp_path, project, expected):
        # a name given twice is one column; a Unicode letter spells a name
        path = tmp_path / "a.rpl"
        path.write_text("x := 1; é := 2;\n", encoding="utf-8")
        assert run_cli(["run", str(path), "--project", project]) == (0, expected, "")

    @pytest.mark.parametrize(
        "fmt, line",
        [
            ("text", "rank 0: a[0]=1, a[1]=2, b=0"),
            ("records", '{"bindings": {"a[0]": 1, "a[1]": 2, "b": 0}, "rank": 0}'),
        ],
    )
    def test_projection_fills_an_unbound_name_beside_an_array(
        self, tmp_path, fmt, line
    ):
        # a's two elements make as many bindings as there are projected
        # names, and b, which nothing binds, still shows as 0
        path = tmp_path / "a.rpl"
        path.write_text("a[0] := 1; a[1] := 2;\n")
        argv = ["run", str(path), "--project", "a,b", "--format", fmt]
        assert run_cli(argv) == (0, line + "\n", "")

    def test_empty_projection_of_skip(self, tmp_path):
        path = tmp_path / "skip.rpl"
        path.write_text("skip;\n")
        code, out, _ = run_cli(["run", str(path)])
        assert code == 0
        assert out == "rank 0: (all variables 0)\n"

    def test_defines_bind_scalars_arrays_and_matrices(self, tmp_path):
        path = tmp_path / "defs.rpl"
        path.write_text("total := n + v[1] + m[1][0];\n")
        code, out, _ = run_cli(
            [
                "run",
                str(path),
                "--define",
                "n=5",
                "--define",
                "v=[1, 7]",
                "--define",
                "m=[[0, 0], [30, 0]]",
                "--project",
                "total",
            ]
        )
        assert code == 0
        assert out == "rank 0: total=42\n"

    def test_localization_k4(self, programs):
        code, out, _ = run_cli(
            [
                "run",
                str(programs / "localization.rpl"),
                *LOCALIZATION_ARGS,
                "--define",
                "k=4",
                "--project",
                "x,y",
                "--max-rank",
                "0",
            ]
        )
        assert code == 0
        assert out == "rank 0: x=4, y=5\n"


class _BrokenPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _raising(exc):
    def raise_(*args, **kwargs):
        raise exc

    return raise_


class TestExitCodes:
    """Each failure ends a command with its exit code and one stderr line
    that starts with the error class's prefix."""

    LATE = (
        "x := 0 or(1) 1; z := 2 or(3) 3; "
        "if z == 3 then { y := 1 / 0; } else { skip; };\n"
    )
    READ = "cannot read input: "
    INPUT = "input error: "
    RUNTIME = "runtime error: "
    OUTPUT = "output error: "
    INTERNAL = "internal error: "

    @pytest.mark.parametrize(
        "argv, patch, code, printed, prefix",
        [
            (["run", "absent.rpl"], None, 4, False, READ),
            (["check", "absent.rpl"], None, 4, False, READ),
            (["run", "dir"], None, 4, False, READ),
            (["check", "dir"], None, 4, False, READ),
            (["run", "latin1.rpl"], None, 4, False, READ),
            (["check", "latin1.rpl"], None, 4, False, READ),
            (["run", "ok.rpl", "--input", "latin1.input"], None, 4, False, READ),
            (["run", "ok.rpl", "--define", "a=[1,"], None, 4, False, INPUT),
            (["run", "ok.rpl", "--top", "-1"], None, 4, False, INPUT),
            (["run", "ok.rpl", "--max-rank", "-1"], None, 4, False, INPUT),
            (["run", "ok.rpl", "--iter-limit", "0"], None, 4, False, INPUT),
            (["run", "syntax.rpl"], None, 2, False, "syntax.rpl: parse error: "),
            (["check", "syntax.rpl"], None, 2, False, "syntax.rpl: parse error: "),
            (["run", "late.rpl"], None, 3, False, RUNTIME),
            (["run", "late.rpl", "--max-rank", "5"], None, 3, True, RUNTIME),
            pytest.param(
                ["run", "times10.rpl", "--define", f"a={'9' * _MAX_DIGITS}"],
                None,
                4,
                False,
                OUTPUT + "cannot print an outcome: ",
                marks=_int_limited,
            ),
            (["run", "ok.rpl"], "broken pipe", 4, False, OUTPUT),
            (["check", "ok.rpl"], "broken pipe", 4, False, OUTPUT),
            (
                ["run", "ok.rpl"],
                ("enumerate_outcomes", RuntimeError("boom")),
                5,
                False,
                INTERNAL,
            ),
            (
                ["check", "ok.rpl"],
                ("parse_program", RuntimeError("boom")),
                5,
                False,
                INTERNAL,
            ),
        ],
        ids=[
            "missing-run",
            "missing-check",
            "directory-run",
            "directory-check",
            "not-utf8-run",
            "not-utf8-check",
            "not-utf8-input",
            "bad-define",
            "bad-top",
            "bad-max-rank",
            "bad-iter-limit",
            "parse-run",
            "parse-check",
            "runtime",
            "runtime-after-output",
            "unprintable-integer",
            "failing-writer-run",
            "failing-writer-check",
            "internal-run",
            "internal-check",
        ],
    )
    def test_contract(
        self, tmp_path, monkeypatch, argv, patch, code, printed, prefix
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.rpl").write_text("x := 1;\n")
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1.rpl").write_bytes(b"x := 1; // caf\xe9\n")
        (tmp_path / "latin1.input").write_bytes(b"a = 1 // caf\xe9\n")
        (tmp_path / "syntax.rpl").write_text("x := ;\n")
        (tmp_path / "late.rpl").write_text(self.LATE)
        (tmp_path / "times10.rpl").write_text("x := a * 10;\n")
        out, err = io.StringIO(), io.StringIO()
        if patch == "broken pipe":
            out = _BrokenPipe()
        elif patch is not None:
            name, exc = patch
            monkeypatch.setattr(rankpl.cli, name, _raising(exc))
        assert rankpl.cli.main(argv, out=out, err=err) == code
        assert bool(out.getvalue()) == printed
        line = err.getvalue()
        assert line.startswith(prefix)
        assert line.count("\n") == 1 and line.endswith("\n")


class TestCheck:
    def test_valid_corpus_files(self, programs):
        for name in (
            "intro.rpl",
            "intro_observe.rpl",
            "adder.rpl",
            "localization.rpl",
            "localization_strict.rpl",
        ):
            code, out, _ = run_cli(["check", str(programs / name)])
            assert code == 0, name
            assert out.endswith("ok\n")

    def test_unbalanced_brace(self, tmp_path):
        path = tmp_path / "broken.rpl"
        path.write_text("while x < 3 do { x := x + 1;\n")
        code, _, err = run_cli(["check", str(path)])
        assert code == 2 and "line 2" in err

    def test_empty_file_is_skip(self, tmp_path):
        path = tmp_path / "empty.rpl"
        path.write_text("")
        code, _, _ = run_cli(["check", str(path)])
        assert code == 0


class TestArgParserReuse:
    """``main`` builds its argument parser once and reuses it."""

    def test_two_calls_build_one_parser(self, programs, monkeypatch):
        monkeypatch.setattr(rankpl.cli, "_arg_parser", None)
        calls = []
        build = rankpl.cli.build_arg_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(rankpl.cli, "build_arg_parser", counting)
        for _ in range(2):
            code, out, _ = run_cli(["run", str(programs / "intro.rpl"), "--project", "x"])
            assert code == 0 and out.startswith("rank 0: x=10\n")
        assert len(calls) == 1

    def test_options_do_not_leak_into_the_next_call(self, tmp_path):
        program = tmp_path / "a.rpl"
        program.write_text("x := a;\n")
        inputs = tmp_path / "a.input"
        inputs.write_text("a = 2\n")
        run = ["run", str(program), "--project", "x"]
        assert run_cli(run + ["--define", "a=1"])[:2] == (0, "rank 0: x=1\n")
        assert run_cli(run)[:2] == (0, "rank 0: x=0\n")
        assert run_cli(run + ["--input", str(inputs)])[:2] == (0, "rank 0: x=2\n")
        assert run_cli(run)[:2] == (0, "rank 0: x=0\n")
        assert run_cli(run + ["--enum", "E=7", "--define", "a=E"])[:2] == (0, "rank 0: x=7\n")
        code, out, err = run_cli(run + ["--define", "a=E"])
        assert code == 4 and out == "" and "enum" in err

    def test_usage_error_still_exits_with_2(self, programs, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_:
                run_cli(["run"])
            assert exit_.value.code == 2
            assert "usage: rankpl run" in capsys.readouterr().err
        code, out, _ = run_cli(["run", str(programs / "intro.rpl"), "--project", "x"])
        assert code == 0 and out.startswith("rank 0: x=10\n")
