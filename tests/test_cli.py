import json

import pytest

import rankpl.cli
from conftest import LOCALIZATION_ARGS, run_cli


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

    def test_runtime_error_exit_code(self, tmp_path):
        path = tmp_path / "div.rpl"
        path.write_text("x := 1 / 0;\n")
        code, _, err = run_cli(["run", str(path)])
        assert code == 3
        assert "division-by-zero" in err and "line 1" in err

    def test_full_run_prints_nothing_before_a_runtime_error(self, tmp_path):
        # the error sits in a rank-3 alternative: a full run executes the
        # program once, exactly, so it fails before printing any outcome,
        # while a --max-rank run streams the ranks it has proven
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
        assert out == "rank 0: z=2\n"
        assert "division-by-zero" in err

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
