import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import string
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semifree
from semifree import cli, reduction
from semifree.algebra import smith_normal_form
from semifree.cli import MAX_RING_N, main, parse_document, parse_rational, structured_text
from semifree.cube import CubeClass, all_subsets, alpha_class, restrict_class
from semifree.errors import InputError, MomentMismatch, RingTooLarge
from semifree.localization import (
    MAX_CHERN_MONOMIALS,
    MAX_COUNT_DIGITS,
    MAX_COUNT_N,
    MAX_SEARCH_POINTS_SUMMED,
)
from semifree.reduction import MAX_REDUCE_N

HYPERCUBE_3 = """
# the model datum in dimension 6
n = 3
point p   weights  1  1  1 moment -3/2
point p1  weights -1  1  1 moment -1/2
point p2  weights  1 -1  1 moment -1/2
point p3  weights  1  1 -1 moment -1/2
point p12 weights -1 -1  1 moment 1/2
point p13 weights -1  1 -1 moment 1/2
point p23 weights  1 -1 -1 moment 1/2
point p123 weights -1 -1 -1 moment 3/2
"""

REMARK_PAIR = """
n = 3
point A weights 1 1 -2
point B weights -1 -1 2
"""

BAD_PAIR = """
n = 3
point A weights 1 1 -1
point B weights -1 -1 1
"""


@pytest.fixture
def cube_file(tmp_path):
    f = tmp_path / "cube.txt"
    f.write_text(HYPERCUBE_3)
    return str(f)


class TestParser:
    def test_round_trip(self):
        data = parse_document(HYPERCUBE_3)
        assert data.n == 3
        assert len(data.points) == 8
        assert data.semifree
        assert data.point("p12").moment_value == Fraction(1, 2)

    def test_moment_optional(self):
        data = parse_document(REMARK_PAIR)
        assert data.point("A").moment_value is None

    def test_missing_n(self):
        with pytest.raises(InputError):
            parse_document("point A weights 1\n")

    def test_bad_weight(self):
        with pytest.raises(InputError):
            parse_document("n = 1\npoint A weights x\n")

    def test_bad_rational(self):
        with pytest.raises(InputError):
            parse_document("n = 1\npoint A weights 1 moment 1/0\n")

    @pytest.mark.parametrize("text,message", [
        ("n = 2\npoint A weights 1 x\npoint B weights 1 -1 moment 1/0\n",
         "line 2: weights must be integers"),
        ("n = 2\npoint A weights 1 -1 moment 1/0\npoint B weights 1 x\n",
         "bad rational '1/0'"),
        ("n = 2\n\n# two faults\npoint A weights 1 -1 moment 1 2\nnonsense\n",
         "line 4: moment takes one value"),
        ("n = 2\npoint A weights\npoint B weights 1.5 -1\n", "line 2: no weights given"),
    ])
    def test_a_document_with_two_bad_lines_names_the_first(self, text, message):
        with pytest.raises(InputError) as caught:
            parse_document(text)
        assert str(caught.value) == message


# tokens at the edges of Fraction's grammar, and of the digit bound
RATIONAL_EDGES = [
    "1/-2", "+3/4", "/2", "2/", "1/0", "0/7", "1.5", "1e3", "-", "+", "", "007", "-0",
    "1_000", "1__0", "_1", "1/2_0", "\u0661\u0662", "1/\u0663", "\u00b2", " 1/2 ", "1 /2",
    "--1", "+-1", "1/+2", "1//2", "0x10", "inf", "nan", "-1/3", "10/4", "9" * 5000,
    "1/" + "9" * 5000, "9" * 4300, "1/" + "9" * 4300, "1e4299", "1E-4299", "1e4300",
    "1e-4300", "1e4301", "-2.5E-4301", "0e4301", "0e4300", "1e4_301", "1e+4301 ",
    "1e\u0664\u0663\u0660\u0661", "1e 4301", "e4301", "1e4301e", "0.5e999999",
    "-1e-999999", "0." + "0" * 4299 + "1", "0." + "0" * 4298 + "1", "1e" + "9" * 5000,
]


def assert_reads_as_fraction(text):
    """parse_rational(text) is Fraction(text), or the InputError naming why
    not: the text after the last e or E reads by int as an exponent outside
    -MAX_COUNT_DIGITS..MAX_COUNT_DIGITS, refused before Fraction expands it;
    Fraction fails; or the value's numerator or denominator has more than
    MAX_COUNT_DIGITS digits."""
    _, e, exponent = text.lower().rpartition("e")
    try:
        far = bool(e) and abs(int(exponent)) > MAX_COUNT_DIGITS
    except ValueError:
        far = False
    if far:
        message = (f"rational {text!r} has an exponent outside "
                   f"-{MAX_COUNT_DIGITS}..{MAX_COUNT_DIGITS}")
    else:
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            message = f"bad rational {text!r}"
        else:
            if max(abs(expected.numerator), expected.denominator) < 10**MAX_COUNT_DIGITS:
                got = parse_rational(text)
                assert type(got) is Fraction and got == expected
                return
            message = f"rational {text!r} has more than {MAX_COUNT_DIGITS} digits"
    with pytest.raises(InputError) as caught:
        parse_rational(text)
    assert str(caught.value) == message


class TestParseRational:
    """parse_rational reads a token as Fraction(text) does, or raises
    InputError where Fraction fails and where the value is too long to
    print."""

    @pytest.mark.parametrize("text", RATIONAL_EDGES)
    def test_edges(self, text):
        assert_reads_as_fraction(text)

    @given(st.text(alphabet="0123456789+-/_.e \u0661\u00b2", max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_generated_tokens(self, text):
        assert_reads_as_fraction(text)

    @given(st.sampled_from(["", "+", "-"]), st.integers(0, 10**40),
           st.one_of(st.none(), st.integers(0, 10**40)))
    @settings(deadline=None)
    def test_integer_tokens(self, sign, p, q):
        assert_reads_as_fraction(f"{sign}{p}" + ("" if q is None else f"/{q}"))

    @given(st.sampled_from(["1", "-2.5", "0", ".05", "1_0", "9" * 20]), st.sampled_from("eE"),
           st.integers(-10**6, 10**6) | st.integers(-4400, 4400))
    @settings(deadline=None)
    def test_exponent_tokens(self, mantissa, e, exponent):
        assert_reads_as_fraction(f"{mantissa}{e}{exponent}")

    # Fraction alone takes about 0.3 s to expand each of these, and seconds
    # from 1e10000000 on, which the subprocess tests below refuse
    @pytest.mark.parametrize("text", ["1e999999", "1e-999999"])
    def test_a_far_exponent_is_refused_before_it_is_expanded(self, text):
        start = time.perf_counter()
        with pytest.raises(InputError, match="has an exponent outside"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1


class TestExitCodes:
    def test_check_pass(self, cube_file):
        assert main(["check", cube_file]) == 0

    def test_check_remark_pair_passes(self, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text(REMARK_PAIR)
        assert main(["check", str(f)]) == 0

    def test_check_constraint_failure(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(BAD_PAIR)
        assert main(["check", str(f)]) == 1

    def test_check_fails_on_the_moment_equations_alone(self, tmp_path, capsys):
        # the degree-0 integral vanishes, so only the moment equations fail
        f = tmp_path / "bad.txt"
        f.write_text(BAD_PAIR)
        assert main(["check", str(f), "--max-degree", "0"]) == 1
        assert capsys.readouterr().out == (
            "moment equation l=0: sum = 0\n"
            "moment equation l=1: sum = 1  FAIL\n"
            "moment equation l=2: sum = 3  FAIL\n"
            "integral of 1 (degree 0): 0 * x^-3  ok\n"
            "check: FAIL\n"
        )

    def test_malformed_file(self, tmp_path):
        f = tmp_path / "junk.txt"
        f.write_text("nonsense\n")
        assert main(["check", str(f)]) == 2

    def test_missing_file(self):
        assert main(["check", "/nonexistent/path.txt"]) == 2

    @pytest.mark.parametrize("command", ["check", "solve", "reduce"])
    def test_a_file_that_is_not_utf8(self, command, tmp_path, capsys):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"n = 1\n# \xff\npoint A weights 1 moment -1/2\n")
        assert main([command, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot read {f}: ")
        assert "can't decode byte 0xff" in captured.err

    @pytest.mark.parametrize("line", ["points A weights 1", "pointless A weights 1"])
    def test_misspelled_point_directive(self, tmp_path, capsys, line):
        # only the word `point` opens a point line, as only `n` opens the n line
        f = tmp_path / "misspelled.txt"
        f.write_text(f"n = 1\n{line}\npoint B weights -1\n")
        assert main(["solve", str(f)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: line 2: unrecognized directive {line!r}\n"

    @pytest.mark.parametrize("text, message", [
        # a later n line must not silently replace the n the points were read under
        ("n = 2\npoint A weights 1\npoint B weights -1\nn = 1\n",
         "line 4: a second 'n = <int>' line"),
        ("nonsense\n", "line 1: unrecognized directive 'nonsense'"),
        ("n = 1\n= 1\n", "line 2: unrecognized directive '= 1'"),
        ("n = 0\npoint A weights 1\n", "line 1: n must be at least 1, got 0"),
        ("n = -1\npoint A weights 1\n", "line 1: n must be at least 1, got -1"),
        # only 'n = <int>' is the n line
        ("n 1\npoint A weights 1\npoint B weights -1\n", "line 1: expected 'n = <int>'"),
        ("n == 1\npoint A weights 1\npoint B weights -1\n", "line 1: expected 'n = <int>'"),
    ], ids=["second_n", "nonsense", "bare_equals", "n_zero", "n_negative",
            "no_equals", "double_equals"])
    def test_malformed_n_line(self, tmp_path, capsys, text, message):
        f = tmp_path / "doc.txt"
        f.write_text(text)
        assert main(["solve", str(f)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("n = 1\npoint A\n", "line 2: expected 'point <id> weights w1 ... [moment p/q]'"),
        ("n = 1\npoint A wieghts 1\n",
         "line 2: expected 'point <id> weights w1 ... [moment p/q]'"),
        ("n = x\npoint A weights 1\n", "line 1: bad n 'x'"),
        ("n = 1.0\npoint A weights 1\n", "line 1: bad n '1.0'"),
        ("", "missing 'n = <int>' line"),
        ("# only a comment\n\n", "missing 'n = <int>' line"),
        ("n = 2\n# no points\n", "no points given"),
    ], ids=["point_alone", "misspelled_weights", "n_not_a_number", "n_decimal",
            "empty", "comment_only", "no_points"])
    def test_malformed_document(self, tmp_path, capsys, text, message):
        with pytest.raises(InputError) as caught:
            parse_document(text)
        assert str(caught.value) == message
        f = tmp_path / "doc.txt"
        f.write_text(text)
        assert main(["check", str(f)]) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    def test_reduce_without_file_or_n(self, capsys):
        assert main(["reduce"]) == 2
        assert capsys.readouterr() == (
            "", "input error: reduce needs --n (with optional --c) or a file\n")

    @pytest.mark.parametrize("line", ["n = 1", "n=1", "n =1", "  n= 1  # comment"])
    def test_n_line_spacing(self, tmp_path, line):
        f = tmp_path / "doc.txt"
        f.write_text(f"{line}\npoint A weights 1\npoint B weights -1\n")
        assert main(["solve", str(f)]) == 0

    def test_validation_error_is_input_error(self, tmp_path):
        f = tmp_path / "zero.txt"
        f.write_text("n = 2\npoint A weights 1 0\n")
        assert main(["check", str(f)]) == 2


def cli_command(argv):
    return [sys.executable, "-m", "semifree.cli", *argv]


def cli_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestClosedStdout:
    """A reader that closes stdout early stops the command with exit code 1
    and nothing on stderr: no traceback, and no failed flush at exit."""

    def test_a_reader_that_stops_reading(self):
        # count --n 4000 writes 3.5 MB, far more than a pipe holds
        with subprocess.Popen(cli_command(["count", "--n", "4000"]), env=cli_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert (proc.wait(timeout=10), proc.stderr.read()) == (1, b"")

    def test_a_reader_that_closed_before_the_last_flush(self):
        # the output of reduce --n 3 fits the buffer, so it meets the closed
        # pipe only when main flushes it; PYTHONUNBUFFERED would write it at once
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(cli_command(["reduce", "--n", "3"]), env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=10)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


def console_script_target():
    """The target of `semifree` under [project.scripts] in pyproject.toml,
    read by tomllib, or where there is none (Python 3.10) from its line."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:
        scripts = text.partition("\n[project.scripts]\n")[2].partition("\n[")[0]
        lines = [line.partition("=") for line in scripts.splitlines()]
        return {key.strip(): value.strip().strip('"') for key, _, value in lines}["semifree"]
    return tomllib.loads(text)["project"]["scripts"]["semifree"]


class TestConsoleScript:
    def test_the_installed_command_runs_cli_main(self, capsys):
        module, _, name = console_script_target().partition(":")
        entry = getattr(importlib.import_module(module), name)
        assert entry is cli.main
        assert entry(["count", "--n", "3"]) == 0
        assert capsys.readouterr().out == "1 3 3 1\n"


def fresh_cli(monkeypatch):
    """semifree.cli imported anew, as by a new process; the module the other
    tests hold is put back afterwards."""
    monkeypatch.delitem(sys.modules, "semifree.cli")
    monkeypatch.setattr(semifree, "cli", cli)
    return importlib.import_module("semifree.cli")


class TestParserReuse:
    def test_parser_is_built_once_per_import(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        fresh = fresh_cli(monkeypatch)
        assert fresh is not cli and not built
        f = tmp_path / "pair.txt"
        f.write_text(REMARK_PAIR)
        argvs = [["count", "--n", "3"], ["check", str(f)], ["solve", str(f)],
                 ["reduce", "--n", "3"], ["search", "--n", "1", "--points", "2",
                                          "--bound", "1", "--degree", "1"]]
        for argv in argvs * 2:
            fresh.main(argv)
        capsys.readouterr()
        assert built.count("semifree") == 1
        assert len(built) == len(set(built))  # no subcommand parser built twice

    def test_reused_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        f = tmp_path / "pair.txt"
        f.write_text(REMARK_PAIR)
        with pytest.raises(SystemExit) as bad:
            main(["reduce", "--n", "three"])
        assert bad.value.code == 2
        capsys.readouterr()

        def run(argv):
            return main(argv), capsys.readouterr().out

        reduce_argv = ["reduce", "--n", "3", "--c", "3/2"]
        for argv in (["check", str(f)], reduce_argv):
            first = run(argv)
            assert first[0] == 0 and run(argv) == first
        # an option given on one call is not the default of the next
        run(reduce_argv + ["--max-degree", "2"])
        assert run(reduce_argv) == first

    @pytest.mark.parametrize("argv,command", [
        (["check", "cube"], cli.cmd_check),
        (["count", "--n", "2"], cli.cmd_count),
        (["ring", "--n", "2"], cli.cmd_ring),
        (["solve", "cube"], cli.cmd_solve),
        (["reduce", "--n", "2"], cli.cmd_reduce),
        (["search", "--n", "1", "--points", "2", "--bound", "1", "--degree", "1"],
         cli.cmd_search),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_each_subcommand_runs_its_cmd_by_name(self, argv, command, cube_file,
                                                  capsys, monkeypatch):
        # a profiler wraps the cmd_* functions on the module once the
        # parser is built; main must run the wrapper
        argv = [cube_file if a == "cube" else a for a in argv]
        alone = command(cli.build_parser().parse_args(argv)), capsys.readouterr().out
        ran = []

        def wrapped(args):
            ran.append(args.command)
            return command(args)

        monkeypatch.setattr(cli, command.__name__, wrapped)
        assert (main(argv), capsys.readouterr().out) == alone
        assert ran == [argv[0]] and command.__name__ == "cmd_" + argv[0]

    def test_a_command_rebound_after_the_first_call_is_run(self, monkeypatch):
        main(["count", "--n", "2"])
        ran = []
        monkeypatch.setattr(cli, "cmd_count", lambda args: ran.append(args.n) or 0)
        assert main(["count", "--n", "3"]) == 0
        assert ran == [3]


class TestCommands:
    def test_count(self, capsys):
        assert main(["count", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1 3 3 1"

    def test_count_n6(self, capsys):
        main(["count", "--n", "6"])
        assert capsys.readouterr().out.strip() == "1 6 15 20 15 6 1"

    def test_ring_text(self, capsys):
        assert main(["ring", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "alpha_12" in out
        assert "c2" in out

    def test_ring_structured_round_trip(self, capsys):
        self._check_ring_structured_round_trip(2, capsys)

    @pytest.mark.parametrize("n", [3, 4])
    def test_ring_structured_round_trip_larger_n(self, n, capsys):
        self._check_ring_structured_round_trip(n, capsys)

    @staticmethod
    def _check_ring_structured_round_trip(n, capsys):
        assert main(["ring", "--n", str(n), "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == n
        # re-restrict every basis class and compare with the emitted table
        subsets = all_subsets(n)
        for row in doc["basis"]:
            J = frozenset(row["subset"])
            recomputed = [str(restrict_class(alpha_class(J), Jp)) for Jp in subsets]
            assert recomputed == row["restrictions"]

    def test_solve(self, cube_file, capsys):
        assert main(["solve", cube_file]) == 0
        out = capsys.readouterr().out
        assert "p123 -> {1, 2, 3}" in out
        assert "isomorphic" in out

    def test_solve_count_mismatch(self, tmp_path, capsys):
        f = tmp_path / "pair.txt"
        f.write_text("n = 2\npoint A weights 1 1\npoint B weights -1 -1\n")
        assert main(["solve", str(f)]) == 1

    def test_reduce_model(self, capsys):
        assert main(["reduce", "--n", "3", "--c", "3/2"]) == 0
        out = capsys.readouterr().out
        assert "betti: 1 4 1" in out
        assert "euler characteristic: 6" in out

    def test_reduce_names_a_degree_where_the_counting_check_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(reduction, "betti_by_counting", lambda data: (1, 5, 1))
        assert main(["reduce", "--n", "3", "--c", "3/2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["betti: 1 4 1",
                             "degree 2: quotient rank 4 != counting rank 5  FAIL"]
        assert "poincare duality: ok" in lines
        assert lines[-1] == "euler characteristic: 6"

    def test_reduce_below_the_top_degree(self, capsys):
        # degrees 0..2 of 0..3: duality compares only the computed pairs, and
        # the Euler characteristic, a sum over every degree, is not printed
        assert main(["reduce", "--n", "4", "--max-degree", "4"]) == 0
        assert capsys.readouterr().out == (
            "betti: 1 5 5\n"
            "poincare duality: ok\n"
            "c1 image: [-4, 2, 2, 2, 2]\n"
            "c2 image: [0, 0, 0, 0, -12, 0, 0, 6, 0, 6, 6]\n"
        )

    def test_reduce_from_file(self, cube_file, capsys):
        assert main(["reduce", cube_file]) == 0
        assert "betti: 1 4 1" in capsys.readouterr().out

    @pytest.mark.parametrize("options", [["--n", "5", "--c", "3/2"], ["--c", "7"]],
                             ids=["n_and_c", "c_alone"])
    def test_reduce_file_refuses_a_model_level(self, options, cube_file, capsys):
        # the file states n and the moments; a level given beside it is refused
        assert main(["reduce", cube_file, *options]) == 2
        assert capsys.readouterr() == (
            "", "input error: reduce takes a file or --n (with optional --c), not both\n")

    # the offset is checked before the size bound, so n = 40 reports it
    @pytest.mark.parametrize("n,c", [("5", "1"), ("5", "5"), ("40", "1")],
                             ids=["1", "5", "n40_1"])
    def test_reduce_refuses_a_critical_offset(self, n, c, capsys):
        assert main(["reduce", "--n", n, "--c", c]) == 1
        assert capsys.readouterr() == (
            "", f"error: offset {c} makes 0 a critical level\n")

    @pytest.mark.parametrize("integral,half", [(["--c", "5"], ["--c", "5/2"]),
                                               (["--c=-1"], ["--c=-1/2"])], ids=["5", "-1"])
    def test_reduce_takes_an_integral_offset_outside_the_range(self, integral, half, capsys):
        # no point of (S^2)^2 sits at moment 0: every point lies on one side
        # of the level, as at the half-integral offset on that side
        assert main(["reduce", "--n", "2", *integral]) == 0
        printed = capsys.readouterr()
        assert main(["reduce", "--n", "2", *half]) == 0
        assert printed == capsys.readouterr()

    def test_reduce_refuses_an_empty_offset(self, capsys):
        assert main(["reduce", "--n", "3", "--c", ""]) == 2
        assert capsys.readouterr() == ("", "input error: bad rational ''\n")

    def test_reduce_takes_a_negative_offset_after_an_equals_sign(self, capsys):
        # every point of (S^2)^2 lies above the level -1/2: the empty space
        assert main(["reduce", "--n", "2", "--c=-1/2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "betti: 0 0"
        # after a space, argparse reads -1/2 as an option, so --c has no value
        with pytest.raises(SystemExit) as bad:
            main(["reduce", "--n", "2", "--c", "-1/2"])
        assert bad.value.code == 2
        assert "argument --c: expected one argument" in capsys.readouterr().err

    def test_search(self, capsys):
        assert main(
            ["search", "--n", "3", "--points", "2", "--bound", "2", "--degree", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "(-2,1,1)  (-1,-1,2)" in out


class TestOutOfRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "0"],
            ["count", "--n", "3", "--N0", "0"],
            ["ring", "--n", "0"],
            ["reduce", "--n", "0"],
            ["reduce", "--n", "-2"],
            ["reduce", "--n", "3", "--max-degree", "-1"],
            ["reduce", "--n", "3", "--max-degree", "6"],
            ["reduce", "CUBE", "--max-degree", "6"],
            ["search", "--n", "0", "--points", "1", "--bound", "1", "--degree", "1"],
            ["search", "--n", "1", "--points", "0", "--bound", "1", "--degree", "1"],
            ["search", "--n", "1", "--points", "1", "--bound", "0", "--degree", "1"],
            ["search", "--n", "1", "--points", "1", "--bound", "1", "--degree", "0"],
            ["check", "CUBE", "--max-degree", "-1"],
        ],
    )
    def test_rejected_as_input_error(self, argv, cube_file, capsys):
        argv = [cube_file if a == "CUBE" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")

    def test_max_degree_within_the_top_degree_is_accepted(self, capsys):
        assert main(["reduce", "--n", "3", "--max-degree", "5"]) == 0
        assert capsys.readouterr().out.startswith("betti: 1 4 1\n")

    # These run in a subprocess with a timeout, so that a missing guard
    # fails the test instead of computing for hours.
    @staticmethod
    def run_cli_subprocess(argv, preexec_fn=None):
        start = time.perf_counter()
        proc = subprocess.run(cli_command(argv), capture_output=True, text=True, timeout=10,
                              env=cli_env(), preexec_fn=preexec_fn)
        assert time.perf_counter() - start < 1.0
        return proc

    def test_huge_max_degree_fails_fast(self):
        proc = self.run_cli_subprocess(
            ["reduce", "--n", str(MAX_REDUCE_N), "--max-degree", "1000"])
        assert proc.returncode == 2
        assert "above the top degree" in proc.stderr

    def test_reduce_above_the_size_bound_fails_fast(self):
        proc = self.run_cli_subprocess(["reduce", "--n", str(MAX_REDUCE_N + 1)])
        assert proc.returncode == 1
        assert "exceeds the reduction bound" in proc.stderr

    def test_reduce_far_above_the_size_bound_refuses_before_listing_subsets(self):
        # 2^40 subsets: listing them would run for hours or exhaust memory
        proc = self.run_cli_subprocess(["reduce", "--n", "40"])
        assert proc.returncode == 1
        assert proc.stderr == f"error: n=40 exceeds the reduction bound {MAX_REDUCE_N}\n"

    @pytest.mark.parametrize("command", ["solve", "reduce"])
    def test_count_mismatch_far_from_the_binomial_row_is_one_short_line(
            self, command, tmp_path):
        # the binomial row of n = 3000 has about a million digits; the error
        # names only the first level that differs
        path = tmp_path / "pair.txt"
        path.write_text("n = 3000\npoint A weights" + " 1" * 3000 + " moment -1/2"
                        + "\npoint B weights" + " -1" * 3000 + " moment 1/2\n")
        proc = self.run_cli_subprocess([command, str(path)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 200
        assert proc.stderr == (
            "error: level 1 has 0 point(s), the binomial row needs C(3000, 1) = 3000\n")

    @pytest.mark.parametrize("command", ["check", "solve", "reduce FILE", "reduce --c"])
    @pytest.mark.parametrize("moment,message", [
        ("1e10000000", "has an exponent outside -4300..4300"),
        ("-1e-100000000", "has an exponent outside -4300..4300"),
        ("1e4300", "has more than 4300 digits"),
    ])
    def test_a_short_rational_of_too_many_digits_is_refused_at_once(
            self, command, moment, message, tmp_path):
        # Fraction alone expands 1e10000000 for seconds; the moment 1e4300
        # could not be printed in an error line
        path = tmp_path / "far.txt"
        path.write_text(f"n = 1\npoint A weights 1 moment -1/2\npoint B weights -1 moment {moment}\n")
        argv = {"check": ["check", str(path)], "solve": ["solve", str(path)],
                "reduce FILE": ["reduce", str(path)],
                "reduce --c": ["reduce", "--n", "2", f"--c={moment}"]}[command]
        proc = self.run_cli_subprocess(argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"input error: rational {moment!r} {message}\n"

    def test_search_refuses_before_listing_point_shapes(self):
        # 20 million point shapes of 22 weights: listing them needs gigabytes,
        # so under a 1 GB address space only counting them can refuse cleanly
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = self.run_cli_subprocess(
            ["search", "--n", "22", "--points", "2", "--bound", "5", "--degree", "1"],
            preexec_fn=limit_address_space)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "exceed cap 2000000" in proc.stderr

    def test_search_refuses_many_points_of_few_shapes(self):
        # 1 000 001 configurations, under the configuration cap, but each
        # sums a million points
        proc = self.run_cli_subprocess(
            ["search", "--n", "1", "--points", "1000000", "--bound", "1", "--degree", "1"])
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: 1000001 candidate configurations of 1000000 points sum "
            f"1000001000000 points, over cap {MAX_SEARCH_POINTS_SUMMED}\n")

    def test_count_above_the_size_bound_fails_fast(self):
        # far above the bound: C(15000, 7500) has more digits than Python prints
        proc = self.run_cli_subprocess(["count", "--n", "15000"])
        assert proc.returncode == 1
        assert proc.stderr == f"error: n=15000 exceeds the count bound {MAX_COUNT_N}\n"

    def test_count_with_too_many_digits_fails_fast(self):
        # 252 times 4299 nines has 4302 digits, more than Python prints
        proc = self.run_cli_subprocess(["count", "--n", "10", "--N0", "9" * 4299])
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: N0 * C(10, 5) has more than {MAX_COUNT_DIGITS} digits\n")

    def test_ring_above_the_size_bound_fails_fast(self):
        proc = self.run_cli_subprocess(["ring", "--n", str(MAX_RING_N + 1)])
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: n={MAX_RING_N + 1} exceeds the ring table bound {MAX_RING_N}\n")

    def test_ring_tables_above_the_size_bound_raise(self):
        with pytest.raises(RingTooLarge):
            cli._ring_tables(MAX_RING_N + 1)

    def test_search_count_stops_at_the_cap(self):
        # the configurations number C(2000000 + 10^9 - 1, 10^9), a binomial of
        # billions of digits; counting must stop once past the cap
        proc = self.run_cli_subprocess(
            ["search", "--n", "1", "--points", "1000000000", "--bound", "1000000",
             "--degree", "1"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "exceed cap 2000000" in proc.stderr

    @pytest.mark.parametrize("command", ["check", "search"])
    def test_too_many_chern_monomials_are_refused_at_the_cap(self, command, tmp_path):
        # about 3000^3 / 36 exponent vectors of degree <= 3000 in c_1, c_2, c_3
        path = tmp_path / "pair.txt"
        path.write_text(REMARK_PAIR)
        argv = {"check": ["check", str(path), "--max-degree", "3000"],
                "search": ["search", "--n", "3", "--points", "2", "--bound", "2",
                           "--degree", "3000"]}[command]
        proc = self.run_cli_subprocess(argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            "error: Chern monomials of degree <= 3000 in n=3 exceed cap "
            f"{MAX_CHERN_MONOMIALS}\n")

    def test_check_of_many_weights_needs_no_recursion_per_weight(self, tmp_path):
        # not semifree, so the moment equations are skipped; listing the
        # monomials with one recursion level per weight overflowed the stack
        path = tmp_path / "wide.txt"
        path.write_text("n = 1200\npoint A weights 2" + " 1" * 1199
                        + "\npoint B weights -2" + " -1" * 1199 + "\n")
        proc = self.run_cli_subprocess(["check", str(path), "--max-degree", "1"])
        assert proc.returncode == 1 and proc.stderr == ""
        assert proc.stdout.endswith("check: FAIL\n")

    def test_check_refuses_integrals_too_large_to_print(self, tmp_path):
        # the integral of c1^1435 is 2 * 1000^1434, of 4303 digits
        path = tmp_path / "steep.txt"
        path.write_text("n = 1\npoint A weights 1000\npoint B weights -1000\n")
        proc = self.run_cli_subprocess(["check", str(path), "--max-degree", "1440"])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            f"error: the integral of degree 1435 has more than {MAX_COUNT_DIGITS} digits\n")

    def test_search_refuses_integrals_of_too_many_digits(self):
        # the 999 configurations (w, -w) pass the degree-0 column, and for odd
        # d <= 2999 the integral of c1^d is 2 * w^(d - 1), about 9000 digits
        # at w = 999
        proc = self.run_cli_subprocess(
            ["search", "--n", "1", "--points", "2", "--bound", "999", "--degree", "3000"])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            "error: integrals of degree <= 3000 of weights in [-999, 999] in n=1 "
            f"may reach (1*999)^3000, more than {MAX_COUNT_DIGITS} digits\n")

    def test_search_of_many_weights_at_degree_one(self):
        # degree 1 needs sigma_1 of each of the 501 point shapes, not
        # sigma_1 .. sigma_500
        proc = self.run_cli_subprocess(
            ["search", "--n", "500", "--points", "2", "--bound", "1", "--degree", "1"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "0 configuration(s) pass all checks up to degree 1\n"


# sha256 of `reduce --n n --c c` stdout for every regular level with n <= 8
# and for the default level at n = 9, frozen from the Smith-normal-form /
# Hermite implementation that preceded the echelon kernel (n <= 6), from the
# generator-times-monomial relation rows that preceded the closed-form rows
# (n = 7), from the dense echelon rows that preceded the sparse ones (n = 8)
# and from the relation rows in generation order, before they were written
# reversed (n = 9).
REDUCE_DIGESTS = {
    (1, "1/2"): "a55aefa9299f21e6d09c3f6235e5c68e431377f6151da7328deeab5061ea3927",
    (2, "1/2"): "81b5fce734e88d1c38c402fe5c03e7939bb84c6b34bbbb82779fb5478753a87d",
    (2, "3/2"): "f939cba0487aea5f29d314fe120238b6714923966c2d63b8bf279b1cf545848e",
    (3, "1/2"): "ffd61f7c58c4766fa51d8b50efff713370fcd39bb732a8fd761b0d1d8fa3f09a",
    (3, "3/2"): "fb2ec65cdda247a712ff5a66e52362b0a17420ff6980fc33b6abc5c719421ce9",
    (3, "5/2"): "dec50cc019ebe6da1f92524be7f991052a2f5681d68b1756f4bd44ef1a011257",
    (4, "1/2"): "45072190bfc59503325e291cfb88b7050e37b250b397bc63714ca87dc2459d6c",
    (4, "3/2"): "89a58126cdd381a0b9d3e72318aa70a75498342453fa09b8707628094021f48b",
    (4, "5/2"): "c08237c478690fd8ab700492b3a451ae74afb69e8a0e9b66a68934bd5ee4288c",
    (4, "7/2"): "6e2e81c5755354ea6eb945688ac5e841d069efd211b6fde0b49ecadbc6090ba8",
    (5, "1/2"): "fb181dfc7c45b77b7401eb3df0fca45d34c7854a9ee8ca6366e92d6c298de4ce",
    (5, "3/2"): "609d41f382e34360cf6b9f5307a965130c56d3333969f400534a3a95852124e1",
    (5, "5/2"): "0231ceae893f790f888628ea9b562d0e671ebf505001e3023a52b2c5b1275cce",
    (5, "7/2"): "3c3e82525bb691a0ea381f597eea861e0ee044ac270050ec37620ec8cfd4d2c8",
    (5, "9/2"): "59f18a28f05dd3802ccf799f0d180b5aef67cbcb80aedb475ab39d40aa2d88d2",
    (6, "1/2"): "19bf84a629bece8f6c6367912fb559012de44b0c4162bfea9a6512261d9c84c1",
    (6, "3/2"): "2b473484dfb3b9f16095ccea75a8332016673db6789038cff1f4bd1165ad50f3",
    (6, "5/2"): "5f4f23d1e99e92be3451d37d28400e7a6cfe67486cb70bb6dad11456ce25891c",
    (6, "7/2"): "cb67a5175ece33830d9eac9d9cca7f19fd4ec3399a9683d2acfbc584a5acb75b",
    (6, "9/2"): "6c622924a0e178995c624b5e388ec9296134e062644248b10ce3507bb0c835cc",
    (6, "11/2"): "baf99531570bf48f97f892a15a3477e5ea9a79d77173357df2c057892b2851da",
    (7, "1/2"): "2755df73621c0a3798aeffdaf1894db5622d39a090c94edd9428fbea8e990886",
    (7, "3/2"): "8be8ca5e1a76d01a34925ecc360adec7ddc11d40c906c829bc61ec09c799a232",
    (7, "5/2"): "bb76ea0fbb26c86c8ddbf6d80375a4b46d46a20e20ccf58231e857b53868e5a0",
    (7, "7/2"): "a6d06bebbaf0c09099aee1533b27c8a82c47c1b51c896277dae067a78505dc75",
    (7, "9/2"): "25d6ac44e86a00b6fc4c1b8e24b50eb08bd04b5a13f33f2f4ee1149f68d5c754",
    (7, "11/2"): "740a8529af7f6d099b25f549eceb2994a7f8a4d4359f4d3a84b61160ea5a7972",
    (7, "13/2"): "6793bd68cbe62ee1b2762453d6a90f77f96303c1793a9e71b32f7ef66a4c77a6",
    (8, "1/2"): "ce46b8f6e6a1bf79b955658753682189e4f09f3684b6d2fb2602d1df71d650a7",
    (8, "3/2"): "9365a26842ae38bc0065727f93c4eeb2402303954202b91f4017ff74b31455f7",
    (8, "5/2"): "95471b878b7ee699b9c477bcf13d6c108f99a09596ee8f7274491afdff1485ca",
    (8, "7/2"): "f1982e425754ff3e2362276a8f0a08ca24bed4850080b6b7775d476bf0b190e2",
    (8, "9/2"): "e542a18f2fc610cbebe2497d462bd19af54a29abc4962738481928ad02d442df",
    (8, "11/2"): "f4395aecf6330aca1bd73431c18620d9b5e73bf18ad64ac5a784a6e8276c5600",
    (8, "13/2"): "3f0c113d51165158ac7b906fc1680a6d0950dd6d45f126ec0c6f8c2d8a48db33",
    (8, "15/2"): "5800d83e54ea480e99a1f66ac4bb288555ebe9007d73a46de8608f4e0aff23c8",
    (9, "9/2"): "5aa9bf072d241f878d76439c32d9219cc0fa29e2eb7180aea3cd78c39044e96a",
}


@pytest.mark.parametrize("n,c", REDUCE_DIGESTS)
def test_reduce_output_is_frozen(n, c, capsys):
    assert main(["reduce", "--n", str(n), "--c", c]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REDUCE_DIGESTS[(n, c)]


def test_reduce_reports_torsion(capsys, monkeypatch):
    # no document tried has torsion, so Smith normal form is made to find a 2
    assert main(["reduce", "--n", "3"]) == 0
    clean = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(reduction, "smith_normal_form",
                        lambda rows: (*smith_normal_form(rows), 2))
    assert main(["reduce", "--n", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert clean[1] == "poincare duality: ok"
    assert lines == [clean[0], "torsion: ((2,), (2,), (2,))  FAIL",
                     "poincare duality: FAIL", *clean[2:]]


def test_reduce_reports_torsion_of_crafted_rows(capsys, monkeypatch):
    # at the level 3/2 of (S^2)^3 the relation row of the point {1, 2},
    # the fifth of all_subsets(3), is the unit row of a_1 a_2 in degree 2;
    # doubled, it leaves Z/2 there and every rank as it was, and the true
    # Smith normal form finds it
    assert main(["reduce", "--n", "3"]) == 0
    clean = capsys.readouterr().out.splitlines()
    read = reduction.presentation_from_data

    def crafted(data):
        pres = read(data)
        rows = list(pres.relations)
        assert rows[4] == (2, {4: 1})
        rows[4] = (2, {4: 2})
        vars(pres)["relations"] = tuple(rows)
        return pres

    monkeypatch.setattr(reduction, "presentation_from_data", crafted)
    assert main(["reduce", "--n", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [clean[0], "torsion: ((), (), (2,))  FAIL", "poincare duality: FAIL"]


@pytest.mark.parametrize("n", range(1, 9))
def test_reduce_defaults_to_the_middle_level(n, capsys):
    # without --c, the half-integral offset nearest the middle, n//2 + 1/2
    assert main(["reduce", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    c = f"{2 * (n // 2) + 1}/2"
    assert hashlib.sha256(out.encode()).hexdigest() == REDUCE_DIGESTS[(n, c)]


def seeded_check_document(seed: int) -> tuple[str, int]:
    """A document of up to five points, weights in +-5 with mixed signs or
    all +-1, and a --max-degree below, at or above n."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    values = rng.choice([[-1, 1], [w for w in range(-5, 6) if w]])
    lines = [f"n = {n}"] + [
        f"point P{i} weights " + " ".join(str(rng.choice(values)) for _ in range(n))
        for i in range(rng.randint(1, 5))
    ]
    return "\n".join(lines) + "\n", rng.choice([0, n - 1, n, n + 2])


def seeded_cube_document(n: int, seed: int, random_signs: bool = False,
                         level: Fraction | None = None) -> str:
    """The model datum in dimension 2n under random point ids, in shuffled
    lines.  Moments are scale * (|J| - c) at a regular level c, the given
    level or a random one, or random nonzero fractions of either sign."""
    rng = random.Random(seed)
    alphabet = string.ascii_letters + string.digits
    ids: set[str] = set()
    while len(ids) < 2**n:
        ids.add(rng.choice(string.ascii_letters) + "".join(rng.choices(alphabet, k=4)))
    ids = sorted(ids)
    rng.shuffle(ids)
    c = level if level is not None else Fraction(2 * rng.randrange(n) + 1, 2)
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    lines = []
    for pid, J in zip(ids, all_subsets(n)):
        if random_signs:
            moment = rng.choice([-1, 1]) * Fraction(2 * rng.randint(0, 4) + 1, 2)
        else:
            moment = scale * (len(J) - c)
        weights = " ".join("-1" if i in J else "1" for i in range(1, n + 1))
        lines.append(f"point {pid} weights {weights} moment {moment}")
    rng.shuffle(lines)
    return f"n = {n}\n" + "\n".join(lines) + "\n"


CHECK_DOCUMENTS = {
    **{f"seed{s}": seeded_check_document(s) for s in range(10)},
    "remark-3": (REMARK_PAIR, 3),
    "remark-6": (REMARK_PAIR, 6),
    "bad-pair-3": (BAD_PAIR, 3),
    "cube-2": (HYPERCUBE_3, 2),
    "cube-5": (HYPERCUBE_3, 5),
    **{f"hypercube{n}": (seeded_cube_document(n, 600 + n), n) for n in (6, 7, 8)},
}

# (exit code, sha256 of stdout) of `check FILE --max-degree D` for each
# document above, frozen from the sieve that summed one Fraction per point
# per monomial; the hypercube entries from the sieve that made one integer
# row per point, before points of one weight multiset shared a row.
CHECK_DIGESTS = {
    "seed0": (1, "6444180561ffdf6264880dfad2b96de4baab3b36d10b7d698f2d807135bc9d1e"),
    "seed1": (1, "93d3f4689c7b1b575132899ec84600c49b21038b063080f8ec2ba26a99d2bfd8"),
    "seed2": (1, "0d6e81ad6336e7f2a7d21a50375bfd9fc5e277c211105fe3e991eec64dee5825"),
    "seed3": (1, "6ff553026e849946a68647594b6fea432d8b0dd20a6365f036bd5d4c68bf2108"),
    "seed4": (1, "2dddf6f35483f6ae1681a1e1f62c10bb81a7650735d928e6867024edb2d3279a"),
    "seed5": (1, "e373a726746652d3d9036ba8bc9ebce56bc2953aa1ec8d5ef8f526b557336386"),
    "seed6": (1, "ffb6fb3582081b655d6bfd28463783db43509b8b998148b03ee23b869899e0ed"),
    "seed7": (1, "e6fd6c4bcf39ed4a9167ceebe567eae94938f3141073b8c33f32f2a69688eebe"),
    "seed8": (1, "b671edb8b1da3cdeeb812c971ba59a4b4e9999a51564c0e227bbe4c91f869358"),
    "seed9": (1, "cc7df5d71d9810cb751baf962806d9e3d7fc4da8a5d7c100b8c31b9cb7c4e275"),
    "remark-3": (0, "6a784d4c69eed656f9ac0ae3d491488bf97b98214e9a6a46cbe9eed7c0fd4f3c"),
    "remark-6": (0, "4081330ba6ab9d0ac1b3fc591669e2f4fe4b9cbe87e0dca99d32caa9293df85b"),
    "bad-pair-3": (1, "87c8ec713500a26cd4c036b8cbbb3e843f1152aaba92be1d86b0407bb2470efd"),
    "cube-2": (0, "1e1431db004065afa5cbf89a836b9d5b622968be7396e73048596d9ab7819932"),
    "cube-5": (0, "b517b1aa73fc7758e93976b5dadacbb463443043b92525d26c02e4db185f8fa7"),
    "hypercube6": (0, "23c7b1b65fd033034861c9d48058edfdcd953951de74efd282e5ac587afbbd5c"),
    "hypercube7": (0, "fc1d77e48820137893bff69984dc6dbc3ae7b5a5943eecd12ecfaf09b6d39d94"),
    "hypercube8": (0, "eafe2d217b254301419a21e2e6f5497e2ba67c2cd9d1bbbbb625f3f0fa0a1f84"),
}


@pytest.mark.parametrize("name", CHECK_DIGESTS)
def test_check_output_is_frozen(name, tmp_path, capsys):
    text, max_degree = CHECK_DOCUMENTS[name]
    path = tmp_path / "doc.txt"
    path.write_text(text)
    rc = main(["check", str(path), "--max-degree", str(max_degree)])
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == CHECK_DIGESTS[name]


PIPELINE_DOCUMENTS = {
    **{f"cube{n}": seeded_cube_document(n, n) for n in range(1, 7)},
    **{f"signs{s}": seeded_cube_document(2 + s % 3, 100 + s, random_signs=True)
       for s in range(4)},
    "pair": "n = 2\npoint A weights 1 1 moment -1/2\npoint B weights -1 -1 moment 1/2\n",
}

# (exit code, sha256 of stdout) of `solve FILE` and of `reduce FILE` for
# each document above, frozen from the pipeline that re-read its table to
# certify the point-to-subset bijection.
SOLVE_DIGESTS = {
    "cube1": (0, "0ab8afd1c928307488cd713ba6afccbef44f260670f75782b933ce10f0715368"),
    "cube2": (0, "e8064b7ca55440cd8298151a420ace9de391fcbc69315a95c1299e2c5bb94d2a"),
    "cube3": (0, "52c38186ccfb364596086e40f8f6093d1b370ad057d754c88ac76622b2faf040"),
    "cube4": (0, "85eafb0842501c88c295e9f45a0b2757dccaa3c9c28b9e81beb6823a4acd5d88"),
    "cube5": (0, "2a4e9c66295bd554d1bec84330eab9be57a8ada3302a55ffc01c07fa2209c23e"),
    "cube6": (0, "d54fc0827aefa1ee011130bb044134350aaa5dff52b4f5d11245be206cc26062"),
    "signs0": (0, "76b281e21b1c248f8b310abc2305c9acb05027f94bfd5328bb2d6fa07f936b8e"),
    "signs1": (0, "9112e0436b80fb7a9f0535f35d16066c65297958d41353068df1b1ee30b33039"),
    "signs2": (0, "3e68a84fa5fb88fba71ac4ad23f39a977bd3c6698c9cf7a997f65ad06f0825a9"),
    "signs3": (0, "d9fa6ca06734378cc43f37b9f90a340e7f15e98a5f48e4f705c7b0a81c82df5d"),
    "pair": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

REDUCE_FILE_DIGESTS = {
    "cube1": (0, "a55aefa9299f21e6d09c3f6235e5c68e431377f6151da7328deeab5061ea3927"),
    "cube2": (0, "f939cba0487aea5f29d314fe120238b6714923966c2d63b8bf279b1cf545848e"),
    "cube3": (0, "dec50cc019ebe6da1f92524be7f991052a2f5681d68b1756f4bd44ef1a011257"),
    "cube4": (0, "6e2e81c5755354ea6eb945688ac5e841d069efd211b6fde0b49ecadbc6090ba8"),
    "cube5": (0, "3c3e82525bb691a0ea381f597eea861e0ee044ac270050ec37620ec8cfd4d2c8"),
    "cube6": (0, "5f4f23d1e99e92be3451d37d28400e7a6cfe67486cb70bb6dad11456ce25891c"),
    # random signs are no additive moment: refused, with nothing on stdout
    "signs0": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "signs1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "signs2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "signs3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "pair": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("name", SOLVE_DIGESTS)
def test_solve_output_is_frozen(name, tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(PIPELINE_DOCUMENTS[name])
    rc = main(["solve", str(path)])
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == SOLVE_DIGESTS[name]


@pytest.mark.parametrize("name", REDUCE_FILE_DIGESTS)
def test_reduce_file_output_is_frozen(name, tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(PIPELINE_DOCUMENTS[name])
    rc = main(["reduce", str(path)])
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == REDUCE_FILE_DIGESTS[name]


def refusal(text):
    """The stderr line of `reduce` on a document whose moments are not
    additive, from the MomentMismatch the library raises."""
    with pytest.raises(MomentMismatch) as caught:
        reduction.presentation_from_data(parse_document(text))
    return f"error: {caught.value}\n"


def with_moments(text, moment):
    """The document with each point's moment m replaced by moment(weights, m)."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("point "):
            head, _, m = line.rpartition(" moment ")
            weights = tuple(map(int, head.split(" weights ")[1].split()))
            lines[i] = f"{head} moment {moment(weights, Fraction(m))}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["shifted", "negated", "signs0", "signs1", "signs2", "signs3"])
def test_reduce_file_refuses_moments_that_are_not_subset_sums(name, tmp_path, capsys):
    # one moment of a uniform level shifted by 1 breaks its level's sums;
    # every moment negated makes each lambda_i negative; random signs are
    # no sums at all
    cube = PIPELINE_DOCUMENTS["cube4"]
    text = {"shifted": with_moments(cube, lambda w, m: m + (w == (1, -1, -1, 1))),
            "negated": with_moments(cube, lambda w, m: -m)}.get(name) or PIPELINE_DOCUMENTS[name]
    path = tmp_path / "doc.txt"
    path.write_text(text)
    assert main(["reduce", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", refusal(text))
    expected = {"shifted": "error: level 2 moment values are not ",
                "negated": "error: index-2 point "}.get(name, "error: ")
    assert err.startswith(expected)


@pytest.mark.parametrize("n,c", [(n, c) for n, c in REDUCE_DIGESTS if n <= 6])
def test_reduce_file_agrees_with_the_model_level(n, c, tmp_path, capsys):
    # a model level is one more fixed-point document: the same level under
    # random ids, shuffled lines and moments scaled by a positive rational
    # must reduce to the same output
    path = tmp_path / "doc.txt"
    path.write_text(seeded_cube_document(n, 1000 + n, level=Fraction(c)))
    rc = main(["reduce", "--n", str(n), "--c", c])
    expected = capsys.readouterr().out
    assert (main(["reduce", str(path)]), capsys.readouterr().out) == (rc, expected)


# exit code and sha256 of `ring --n n --format f` stdout, frozen from the
# tables built by restricting each alpha_class(J) at every point
RING_DIGESTS = {
    (1, "text"): (0, "3ca36b4e443ba3cb78e4a7ed7e7e68e01db8d58b658eb955bb60e3386930cc72"),
    (1, "structured"): (0, "a7138e2552eec522a43543835b31f48952b25b0bd5c80cf6152c0eca814ae6da"),
    (2, "text"): (0, "26249c8c80093e020fbe49c339d3c2de1787c8f4fc5acf69060f95ed4286b403"),
    (2, "structured"): (0, "8c2b7716a63f7ce5e8c2d82aa308f67956cfa106c094fe2f2f9410186882a7b2"),
    (3, "text"): (0, "05103681ccf6a60d23d53cbe12f23a1c1edf10701e3709d54cb3832dd5c48e65"),
    (3, "structured"): (0, "9b97cd44d15de00e93bd873331a9c8a9ad4ae337a0de8398b6c0e77cec75261a"),
    (4, "text"): (0, "befd251620dae3d688a9abbe2370c49dd093a05eb135b81271e93d2f52fc3836"),
    (4, "structured"): (0, "ecf2abd536d1b50bd6fd9e4dea9b8f0e7f9014ab78dd6bebe1f430d070611cd4"),
    (5, "text"): (0, "cc4703f88e0cc51be42d81ddfc4e2700e4e50f8fbaaf569cadb9cd88dc120222"),
    (5, "structured"): (0, "c970875bb61bce1302cbd94d663d0f16c82d7d5bd09e1b80cb7e3868cfdf1d0d"),
    (6, "text"): (0, "90acadf39ab284af40c3d6ce46d9f17a290cf5a8968a2b200e1a291c511b49a3"),
    (6, "structured"): (0, "559021944986b6f9fd1ecf817a88b88b3e4c714dd5aa801fd5647dd4b0a18968"),
    (7, "text"): (0, "63eb930ff501a8aba1d77cff7719415b10ddbcfcceedcb6eb8bd76a6d93d91b1"),
    (7, "structured"): (0, "bd20afd5a93f19171d349e50d51f4778bfdf6da46359ddaa9b88e14139c78dbe"),
    (8, "text"): (0, "271767ed9bed5c62fcc3df921b80311336254a0dd8558fb22f82920f5e718131"),
    (8, "structured"): (0, "32fd39aede35720605cf9a277ad32cb42177fc6b29d422d520c4962620f11d94"),
}


@pytest.mark.parametrize("n,fmt", RING_DIGESTS)
def test_ring_output_is_frozen(n, fmt, capsys):
    rc = main(["ring", "--n", str(n), "--format", fmt])
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == RING_DIGESTS[(n, fmt)]


def test_ring_and_reduce_need_no_class_arithmetic(tmp_path, capsys, monkeypatch):
    # the Chern classes, ring tables and relation rows are written in closed
    # form, so no CubeClass product or sum may run on these commands
    def refuse(*args):
        raise AssertionError("CubeClass arithmetic on the ring/reduce path")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(CubeClass, name, refuse)
    path = tmp_path / "doc.txt"
    path.write_text(PIPELINE_DOCUMENTS["cube5"])
    runs = [
        (["ring", "--n", "5"], RING_DIGESTS[(5, "text")]),
        (["ring", "--n", "5", "--format", "structured"], RING_DIGESTS[(5, "structured")]),
        (["reduce", "--n", "5"], (0, REDUCE_DIGESTS[(5, "5/2")])),
        (["reduce", str(path)], REDUCE_FILE_DIGESTS["cube5"]),
    ]
    for argv, expected in runs:
        rc = main(argv)
        out = capsys.readouterr().out
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == expected


# trees of dicts with string keys, lists, strings and ints: what
# structured_text writes.  The strings mix plain ASCII with each kind of
# character json escapes: quotes, backslashes, control characters,
# non-ASCII text, characters outside the BMP and lone surrogates.
TRICKY_TEXT = st.text(st.sampled_from(
    ["a", "Z", "0", " ", "/", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
     "\u20ac", "\u2028", "\ud800", "\U0001f600"]), max_size=8)
INTEGERS = st.one_of(st.integers(), st.integers(-10**40, 10**40))
TREES = st.recursive(
    st.one_of(TRICKY_TEXT, INTEGERS),
    lambda children: st.one_of(
        st.lists(children, max_size=6), st.dictionaries(TRICKY_TEXT, children, max_size=6)),
    max_leaves=20,
)


class TestStructuredText:
    """structured_text writes the bytes of json.dumps(value, indent=2),
    which serves here as a test-only oracle."""

    @given(TREES)
    @settings(max_examples=200, deadline=None)
    @example([])
    @example({})
    @example([[], {}, [[]], {"": {}}])
    @example(["plain", "needs \"escape\"", 7, -7])
    @example([10**100, -(10**100), 0])
    @example({"\u00e9": ["\x00", "\\", "\ud800"]})
    def test_matches_json_dumps(self, value):
        assert structured_text(value) == json.dumps(value, indent=2)

    @given(st.lists(st.text(max_size=6), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_lists_of_any_text(self, strings):
        assert structured_text(strings) == json.dumps(strings, indent=2)

    @pytest.mark.parametrize("bad", [True, False, 1.5, None, (1, 2), {1, 2}, b"x"])
    @pytest.mark.parametrize("wrap", [
        lambda v: v, lambda v: [v], lambda v: ["a", v], lambda v: [1, v], lambda v: {"k": v},
        lambda v: {"k": ["s", [v]]}])
    def test_other_types_raise(self, bad, wrap):
        with pytest.raises(TypeError):
            structured_text(wrap(bad))

    @pytest.mark.parametrize("key", [1, True, None, 1.5])
    def test_keys_other_than_strings_raise(self, key):
        with pytest.raises(TypeError):
            structured_text({key: 1})

    @pytest.mark.parametrize("n", [9, 10])
    def test_ring_above_the_frozen_digests(self, n, capsys):
        # RING_DIGESTS stop at n = 8
        assert main(["ring", "--n", str(n), "--format", "structured"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(cli._ring_tables(n), indent=2) + "\n"

    def test_ring_never_reaches_the_pure_python_encoder(self, capsys, monkeypatch):
        # before Python 3.13, json.dumps with an indent builds its encoder by
        # _make_iterencode; from 3.13 on, json's C encoder takes the indent
        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        if sys.version_info < (3, 13):
            with pytest.raises(AssertionError):
                json.dumps([1], indent=2)
        for n in range(1, 5):
            rc = main(["ring", "--n", str(n), "--format", "structured"])
            out = capsys.readouterr().out
            assert (rc, hashlib.sha256(out.encode()).hexdigest()) == RING_DIGESTS[(n, "structured")]
