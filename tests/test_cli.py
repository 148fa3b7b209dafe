import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
import time
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from convexchoice import __version__, cli
from convexchoice.cli import cli_main
from convexchoice.programs import render_expr
from test_programs import _gen_expr

CORPUS = Path(__file__).parent / "corpus"


def test_eval_file(capsys):
    code = cli_main(["eval", str(CORPUS / "coinarb.choice")])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "{true: 1}\n{false: 1}\n"


def test_eval_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("ret true <|1/4|> ret false"))
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "{true: 1/4, false: 3/4}\n"


def test_eval_structured(capsys):
    code = cli_main(["eval", "--format", "structured", str(CORPUS / "coinarb.choice")])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == '[[[true,"1"]],[[false,"1"]]]\n'


def test_eval_parse_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("ret true <|3/2|> ret false"))
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert code == 1
    assert "line 1" in out.err and "col" in out.err


def test_eval_missing_file(capsys):
    code = cli_main(["eval", "/nonexistent/prog.choice"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_eval_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.choice"
    path.write_bytes(b"ret \xff")
    code = cli_main(["eval", str(path)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith(f"error: {path}: ") and out.err.count("\n") == 1


def test_eval_weight_past_digit_limit(capsys, monkeypatch):
    # the weights have 8001 digits, past the interpreter's int-to-str limit
    n = 10**4000
    monkeypatch.setattr("sys.stdin", io.StringIO(f"(ret 1 <|1/{n}|> ret 2) <|1/{n}|> ret 3"))
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    big = "1" + "0" * 8000  # n * n
    nines = "9" * 4000  # n - 1
    assert out.out == f"{{1: 1/{big}, 2: {nines}/{big}, 3: {nines}/1{'0' * 4000}}}\n"


def test_only_help_and_usage_errors_build_the_argparse_parser(capsys, monkeypatch):
    corpus = str(CORPUS / "coinarb.choice")
    text = "{true: 1}\n{false: 1}\n"
    wholes = []
    build = cli.build_parser

    def counted():
        wholes.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    # no option of one call carries over to the next
    assert cli_main(["eval", "--stats", corpus]) == 0
    assert capsys.readouterr().err.startswith("stats: ")
    assert cli_main(["eval", corpus]) == 0
    assert capsys.readouterr() == (text, "")
    assert cli_main(["eval", "--format", "structured", corpus]) == 0
    assert capsys.readouterr().out == '[[[true,"1"]],[[false,"1"]]]\n'
    assert cli_main(["eval", corpus]) == 0
    assert capsys.readouterr() == (text, "")
    assert cli_main(["monty", "--strategy", "stick"]) == 0
    assert cli_main(["monty"]) == 0
    assert cli_main(["version"]) == 0
    capsys.readouterr()
    # a well-formed line builds no argparse parser
    assert wholes == []
    # each help or usage-error line builds the whole parser, each time
    for argv, code in (([], 1), (["-h"], 0), (["bogus"], 1), (["eval"], 1), (["eval", "-h"], 0),
                       (["monty", "--st", "x"], 1)):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == code
    assert capsys.readouterr().out.startswith("usage: convexchoice ")
    assert len(wholes) == 6
    assert cli_main(["eval", corpus]) == 0
    assert capsys.readouterr() == (text, "") and len(wholes) == 6
    assert build() is not build()


# Words that follow a command in the differential parse test; an entry with a
# space is two arguments.
_PARSE_WORDS = (
    "-", "prog.choice", "--st", "--tri", "--form=structured", "--stats=1", "--", "-h",
    "--seed -1", "-x", "--format xml", "--strategy=sides", "--trials abc", "--trial=1",
    "--law -", "--law", "--stats --stats", "--format structured --format text", "- -", "--seed " + "1" * 4301,
)


def _parse_outcome(parse, argv):
    """The namespace `parse(argv)` returns, less `command`; or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    namespace.pop("command", None)
    return namespace, out.getvalue(), err.getvalue()


def test_command_parser_agrees_with_the_whole_parser():
    whole = cli.build_parser()
    tails = [[]] + [[w] for w in _PARSE_WORDS] + [[a, b] for a in _PARSE_WORDS for b in _PARSE_WORDS]
    kinds = set()
    for command in cli._COMMANDS:
        for tail in tails:
            argv = [command] + " ".join(tail).split()
            got = _parse_outcome(cli._parse_args, argv)
            assert got == _parse_outcome(whole.parse_args, argv), argv
            kinds.add(got[0] == "exit" and got[1])
    # parsed lines, help screens and usage errors all occur
    assert kinds == {False, 0, 1}


def _readme_lines():
    """The argument lists of the README's `$ ... convexchoice ...` examples."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return [line.split("convexchoice ", 1)[1].split() for line in readme.splitlines()
            if line.startswith("$ ") and "convexchoice " in line]


def test_the_command_table_answers_every_well_formed_line():
    # the README's usage lines with every option given, its examples, and the lines the benchmark runs
    lines = [
        "eval --format structured --stats -", "eval --format text prog.choice",
        "check-laws --trials 2 --seed 7 --law choicemm --trial 1 --stats", "check-laws",
        "monty --strategy stick", "monty --strategy switch", "monty --strategy both", "version",
        "eval -", f"eval {CORPUS / 'coinarb.choice'}",
    ]
    argvs = [line.split() for line in lines] + _readme_lines()
    assert len(argvs) == 15
    whole = cli.build_parser()
    for argv in argvs:
        assert cli._parse_table(argv) is not None, argv
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(whole.parse_args, argv), argv


def test_check_laws_single(capsys):
    code = cli_main(["check-laws", "--trials", "5", "--seed", "7", "--law", "choice0"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.startswith("PASS choice0")


def test_check_laws_unknown_law(capsys):
    code = cli_main(["check-laws", "--law", "bogus"])
    assert code == 1
    assert "unknown law" in capsys.readouterr().err


def test_check_laws_single_trial_reproduces_a_counterexample(capsys):
    assert cli_main(["check-laws", "--law", "neg_bindDr_alt"]) == 0
    first = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("    trial "))
    trial = first.split()[1].rstrip(":")
    assert cli_main(["check-laws", "--law", "neg_bindDr_alt", "--trial", trial]) == 0
    assert capsys.readouterr() == (first.strip() + "\n", "")
    assert cli_main(["check-laws", "--law", "choice0", "--trial", "0"]) == 0
    assert capsys.readouterr().out == "trial 0: no counterexample\n"
    for argv in (["--trial", "1"], ["--law", "choice0", "--trial", "-1"]):
        assert cli_main(["check-laws", *argv]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1


def test_check_laws_bad_config(capsys):
    for argv in (["--trials", "0"], ["--seed", "-1"]):
        code = cli_main(["check-laws", *argv])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_eval_wide_uniform(capsys, monkeypatch):
    n = 1500
    values = ", ".join(str(i) for i in range(n))
    monkeypatch.setattr("sys.stdin", io.StringIO(f"uniform 0 [{values}]"))
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "{" + ", ".join(f"{i}: 1/{n}" for i in range(n)) + "}\n"


def test_eval_wide_bind(capsys, monkeypatch):
    # a bind over 1500 distinct values mixes its 1500 point images in one pass
    n = 1500
    values = ", ".join(str(i) for i in range(n))
    monkeypatch.setattr("sys.stdin", io.StringIO(f"do x <- uniform 0 [{values}]; ret x"))
    start = time.perf_counter()
    code = cli_main(["eval", "-"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "{" + ", ".join(f"{i}: 1/{n}" for i in range(n)) + "}\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\u2163"])
def test_eval_non_ascii_digit(capsys, monkeypatch, digit):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"ret {digit}"))
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == f"error: line 1, col 5: syntax: unexpected character {digit!r}\n"


def test_eval_long_token_error_is_one_short_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x" * 10**6))
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: line 1, col 1: ") and out.err.count("\n") == 1
    assert len(out.err) < 200


def test_eval_deep_parentheses(capsys, monkeypatch):
    # expression and value parentheses; the error points at the 101st '('
    for source, col in [("(" * 3000 + "ret 1" + ")" * 3000, 101),
                        ("ret " + "(" * 3000 + "1" + ")" * 3000, 105)]:
        monkeypatch.setattr("sys.stdin", io.StringIO(source))
        code = cli_main(["eval", "-"])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert out.err == f"error: line 1, col {col}: syntax: parentheses nested deeper than 100\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("(" * 50 + "ret 1" + ")" * 50))
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "{1: 1}\n"


def test_eval_long_choice_chain(capsys, monkeypatch):
    # ((ret 0 <|1/2|> ret 1) <|1/2|> ret 0) ...: the n/2 items `ret 1` weigh
    # 2^-1, 2^-3, ..., 2^-(n-1), and `ret 0` the rest
    n = 1200
    monkeypatch.setattr("sys.stdin", io.StringIO(" <|1/2|> ".join(f"ret {i % 2}" for i in range(n))))
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert code == 0
    one = Fraction(2, 3) * (1 - Fraction(1, 4 ** (n // 2)))
    assert out.out == f"{{0: {1 - one}, 1: {one}}}\n"


def _binders(n, last):
    return "; ".join(f"do x{i} <- ret {i}" for i in range(n)) + f"; ret {last}"


def test_eval_long_do_sequence(capsys, monkeypatch):
    # a binder bound to one value is a step of a loop, not a frame of recursion
    for n, last, want in [(200, "x0", "{0: 1}"), (2000, "x1999", "{1999: 1}")]:
        monkeypatch.setattr("sys.stdin", io.StringIO(_binders(n, last)))
        code = cli_main(["eval", "-"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (0, want + "\n", "")


def test_eval_do_sequence_values_and_errors(capsys, monkeypatch):
    program = "do x <- ret 0 [~] ret 1; do y <- ret x <|1/2|> ret 1; ret (x == y)"
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    assert cli_main(["eval", "-"]) == 0
    assert capsys.readouterr().out == "{true: 1/2, false: 1/2}\n{true: 1}\n"
    # true and A both fail; true is bound first (it sorts first), as with nested calls
    program = "do x <- ret A [~] ret 1 [~] ret true; do y <- ret x; ret (y == 1)"
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    assert cli_main(["eval", "-"]) == 1
    assert capsys.readouterr().err == "error: line 1, col 58: type: cannot compare true and 1\n"


def test_check_laws_failure_exit_code(capsys):
    # seed 0, one trial: the negative control finds nothing, so its verdict fails
    code = cli_main(
        ["check-laws", "--trials", "1", "--seed", "0", "--law", "neg_bindDr_choice"]
    )
    out = capsys.readouterr()
    assert code == 2
    assert out.out.startswith("FAIL neg_bindDr_choice")


def test_check_laws_full_fast(capsys):
    code = cli_main(["check-laws", "--trials", "12", "--seed", "42"])
    out = capsys.readouterr()
    assert code == 0
    lines = [l for l in out.out.splitlines() if l and not l.startswith(" ")]
    from convexchoice.laws import law_names

    assert len(lines) == len(law_names())
    assert all(l.startswith("PASS") for l in lines)


def test_monty_both(capsys):
    code = cli_main(["monty"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == (
        "stick: {true: 1/3, false: 2/3}\n"
        "switch: {true: 2/3, false: 1/3}\n"
    )


def test_monty_single(capsys):
    code = cli_main(["monty", "--strategy", "switch"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "switch: {true: 2/3, false: 1/3}\n"


def test_version(capsys):
    code = cli_main(["version"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.strip() == __version__


@pytest.mark.parametrize("argv", [
    ["check-laws", "--trials", "abc"],
    ["eval"],
    ["eval", "--format", "xml", "-"],
    ["bogus"],
    ["version", "a\nb"],  # argparse quotes no unrecognized argument
])
def test_usage_error_is_one_error_line_with_exit_1(capsys, argv):
    # exit 2 is left to a failed law verdict
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert out.err.startswith("error: ") and out.err.endswith("\n") and out.err.count("\n") == 1


def test_help_exits_0(capsys):
    for argv in (["-h"], ["check-laws", "-h"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: convexchoice")


def _module_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": src}


_CHAIN_PEAK = """
import resource, sys
from convexchoice.cli import cli_main

code = cli_main(["eval", "-"])
sys.stdout.flush()
# this process's own peak: RUSAGE_CHILDREN would report the largest child of the session
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_eval_choice_chain_peak_memory():
    # 14 two-way choices on overlapping pairs give 2^14 vertices, about 1 MiB
    # of text; order masks built per point, not per value, took 122 MiB here
    n = 14
    chain = " <|1/2|> ".join(["arbitrary 0 [0, 1]"] + [f"arbitrary 0 [{i}, {i + 1}]" for i in range(1, n)])
    done = subprocess.run(
        [sys.executable, "-c", _CHAIN_PEAK], input=chain, capture_output=True, text=True,
        env=_module_env(), timeout=120,
    )
    code, peak_kib = map(int, done.stderr.split())
    assert code == 0 and done.stdout.count("\n") == 2 ** n
    assert peak_kib < 80 * 1024, f"max RSS {peak_kib // 1024} MiB"


def test_run_as_module_from_a_checkout():
    done = subprocess.run(
        [sys.executable, "-m", "convexchoice", "version"],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, __version__ + "\n", "")


@pytest.mark.parametrize("args, code, out", [
    (["-h"], 0, "usage: convexchoice "),
    (["eval", "-h"], 0, "usage: convexchoice eval "),
    ([], 1, ""),
    (["bogus"], 1, ""),
])
def test_module_entry_point_reads_its_command_line(args, code, out):
    # `cli_main()` with no argv reads sys.argv[1:]
    done = subprocess.run(
        [sys.executable, "-m", "convexchoice", *args],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert done.returncode == code and done.stdout.startswith(out)
    if code == 0:
        assert done.stderr == ""
    else:
        assert done.stdout == "" and done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _choice_chain(n):
    """n two-way choices on overlapping pairs, mixed at 1/2: 2**n vertices, one line each."""
    return " <|1/2|> ".join(f"arbitrary 0 [{i}, {i + 1}]" for i in range(n)) + "\n"


def test_closed_stdout_exits_1_with_no_message():
    # 2048 lines, about 160 KB: more than a pipe holds, so the writer meets the closed end
    with subprocess.Popen(
        [sys.executable, "-m", "convexchoice", "eval", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(), bufsize=0,
    ) as proc:  # leaving the block closes stderr too
        proc.stdin.write(_choice_chain(11).encode())
        proc.stdin.close()
        assert proc.stdout.readline().startswith(b"{0: 1/1024, 1: 1/1024, 2: 1/512, ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")
    # a short output, to a pipe closed before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "convexchoice", "monty"],
            stdout=write_end, stderr=subprocess.PIPE, env=_module_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [["-h"], ["eval", "-h"]])
def test_help_into_a_closed_stdout_exits_1_with_no_message(args, unbuffered):
    # buffered, the help screen meets the closed pipe at the final flush; unbuffered, at its write
    env = {k: v for k, v in _module_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "convexchoice", *args],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("encoding", [
    {"PYTHONIOENCODING": "ascii"},
    {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"},
])
def test_value_stdout_cannot_encode_is_one_error_line(encoding, tmp_path):
    path = tmp_path / "accent.choice"
    path.write_text("ret É [~] ret A\n", encoding="utf-8")
    env = {k: v for k, v in _module_env().items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(encoding, PYTHONUTF8="0")
    text = subprocess.run(
        [sys.executable, "-m", "convexchoice", "eval", str(path)],
        capture_output=True, env=env, timeout=60,
    )
    assert (text.returncode, text.stdout) == (1, b"")
    assert text.stderr.startswith(b"error: stdout cannot encode the value: ") and text.stderr.count(b"\n") == 1
    # JSON escapes every non-ASCII character, so the structured value is written
    structured = subprocess.run(
        [sys.executable, "-m", "convexchoice", "eval", "--format", "structured", str(path)],
        capture_output=True, env=env, timeout=60,
    )
    assert (structured.returncode, structured.stdout, structured.stderr) == (
        0, b'[[["A","1"]],[["\\u00c9","1"]]]\n', b""
    )


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_stdin_is_utf8_like_a_file_in_the_c_locale(fmt, tmp_path):
    # in the C locale the text layer of stdin would decode É as two surrogates
    source = "ret É [~] ret A\n".encode("utf-8")
    path = tmp_path / "accent.choice"
    path.write_bytes(source)
    env = {k: v for k, v in _module_env().items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    command = [sys.executable, "-m", "convexchoice", "eval", "--format", fmt]
    from_file = subprocess.run([*command, str(path)], capture_output=True, env=env, timeout=60)
    from_stdin = subprocess.run([*command, "-"], input=source, capture_output=True, env=env, timeout=60)
    assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (
        from_file.returncode, from_file.stdout, from_file.stderr
    )
    if fmt == "structured":
        assert from_stdin.stdout == b'[[["A","1"]],[["\\u00c9","1"]]]\n'


@pytest.mark.parametrize("source", [
    b"ret \xff",  # not UTF-8
    b"ret 1 <|1/2|>\r\nret 2 <|1/3|>\rret \xc3\x89\r\n)",  # three kinds of line end, then a syntax error
    "uniform 0 [É, 1, 2]\r\n".encode("utf-8"),
])
def test_stdin_bytes_read_as_a_file_reads_them(capsys, monkeypatch, tmp_path, source):
    path = tmp_path / "prog.choice"
    path.write_bytes(source)
    file_code = cli_main(["eval", str(path)])
    from_file = capsys.readouterr()
    # a stdin whose text layer is Latin-1: the bytes beneath it are read as UTF-8
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(source), encoding="latin-1"))
    stdin_code = cli_main(["eval", "-"])
    from_stdin = capsys.readouterr()
    assert (stdin_code, from_stdin.out) == (file_code, from_file.out)
    assert from_stdin.err == from_file.err.replace(f"error: {path}: ", "error: -: ")


def test_eval_closed_stdin_is_one_error_line(capsys, monkeypatch):
    # Python sets sys.stdin to None when the process starts with descriptor 0 closed
    monkeypatch.setattr("sys.stdin", None)
    code = cli_main(["eval", "-"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", "error: stdin is closed\n")


_ONLY_CHECK_LAWS_LOADS_LAWS = """
import io, sys
from convexchoice.cli import cli_main

sys.stdin = io.StringIO("do x <- arbitrary 0 [1, 2]; ret x <|1/2|> ret 3")
assert cli_main(["eval", "-"]) == 0
assert cli_main(["monty"]) == 0
assert cli_main(["version"]) == 0
unwanted = ("json", "dataclasses", "inspect", "argparse", "gettext")
loaded = sorted(m for m in sys.modules if m in unwanted or m.startswith("convexchoice.laws"))
assert loaded == [], loaded
assert cli_main(["check-laws", "--law", "choicemm", "--trials", "2"]) == 0
assert "convexchoice.laws" in sys.modules
# well-formed lines load no argparse, and help does
assert "argparse" not in sys.modules and "gettext" not in sys.modules
out, sys.stdout = sys.stdout, io.StringIO()
try:
    cli_main(["eval", "-h"])
except SystemExit as exc:
    code = exc.code
help_text, sys.stdout = sys.stdout.getvalue(), out
assert "argparse" in sys.modules
assert code == 0 and help_text.startswith("usage: convexchoice eval "), (code, help_text)
"""


def test_only_check_laws_loads_the_law_suite():
    # a fresh interpreter, since an earlier test may have imported the laws;
    # -S keeps site-packages start-up hooks from importing modules of their own
    done = subprocess.run(
        [sys.executable, "-S", "-c", _ONLY_CHECK_LAWS_LOADS_LAWS],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.splitlines()[-1].startswith("PASS choicemm ")


_TOKENS = (
    "do", "x", "y", "<-", ";", "ret", "uniform", "arbitrary", "[", "]", ",", "(", ")",
    "==", "[~]", "<|1/2|>", "<|", "|>", "3/2", "true", "false", "0", "1", "-1", "A", "B", "#",
)
_VALUES = ("true", "false", "0", "1", "-1", "A", "B", "(1 == true)", "(A == A)")

_values = st.lists(st.sampled_from(_VALUES), min_size=1, max_size=3).map(", ".join)

# Token soup, and well-formed programs whose `==` may meet values of two kinds.
_sources = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=24).map(" ".join),
    st.tuples(st.sampled_from(_VALUES), _values, _values).map(
        lambda t: f"do x <- arbitrary {t[0]} [{t[1]}]; do y <- uniform {t[0]} [{t[2]}]; "
        "ret (x == y)"
    ),
)


# Corpus and generated programs with one byte inserted, deleted or replaced:
# the bytes need not be UTF-8 any more.
_PROGRAMS = [path.read_bytes() for path in sorted(CORPUS.glob("*.choice"))] + [
    render_expr(_gen_expr(random.Random(seed), frozenset(), 3)).encode() for seed in range(24)
]


# new bytes from the language's own alphabet, so that some mutants still parse, and
# from outside ASCII, so that some are not UTF-8
_bytes = st.one_of(
    st.sampled_from(b" \t\r\n0123456789-/,;()[]<|>~=abdeinorstuAB"), st.integers(0, 0x7F), st.integers(0x80, 0xFF)
)


@st.composite
def _mutants(draw):
    data = bytearray(draw(st.sampled_from(_PROGRAMS)))
    at = draw(st.integers(0, len(data) - 1))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "delete":
        del data[at]
    else:
        data[at : at + (edit == "replace")] = bytes([draw(_bytes)])
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_sources.map(str.encode), _mutants()),
    st.sampled_from(["text", "structured"]),
    st.booleans(),
    st.booleans(),
)
def test_eval_is_total(source, fmt, with_stats, byte_backed):
    # a byte-backed stdin is read through its buffer as UTF-8; a text one as it is
    if byte_backed:
        stdin = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8")
    else:
        stdin = io.StringIO(source.decode("utf-8", "surrogateescape"))
    _assert_total(["eval", "--format", fmt, *(["--stats"] if with_stats else []), "-"], stdin)


def _run_in_process(argv, stdin=None):
    """(exit code, stdout, stderr lines) of `cli_main(argv)` on `stdin`; a usage error's exit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.object(sys, "stdin", stdin):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue().splitlines()


def _assert_total(argv, stdin=None):
    """A value and exit 0, or nothing on stdout and one `error:` line with exit 1; the code is returned."""
    code, out, lines = _run_in_process(argv, stdin)
    if "--stats" in argv:  # the counters' line comes last, whichever way the run ends
        assert lines and lines[-1].startswith("stats: ")
        lines = lines[:-1]
    if code == 0:
        assert out.endswith("\n") and lines == []
    else:
        assert code == 1 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
    return code


_LONG = "9" * 4400  # past the 4300 digits `int()` converts
_AT_LIMIT = "7" * 4300

# inputs past the limits the parser and evaluator set: (source, expected exit)
_PAST_THE_LIMITS = {
    "parentheses past the depth limit": ("(" * 101 + "ret 1" + ")" * 101, 1),
    "parentheses at the depth limit": ("(" * 100 + "ret 1" + ")" * 100, 0),
    "3000 parentheses": ("(" * 3000 + "ret 1" + ")" * 3000, 1),
    "3000 open parentheses": ("(" * 3000, 1),
    "3000 nested choices": ("(ret 1 [~] " * 3000 + "ret 2" + ")" * 3000, 1),
    "3000 open lists": ("arbitrary 0 [" * 3000, 1),
    "3000 binders": ("do x <- arbitrary 0 [1, 2]; " * 3000 + "ret x", 0),
    "a long value": ("ret " + _LONG, 1),
    "a long negative value": ("ret -" + _LONG, 1),
    "a long weight denominator": (f"ret 1 <|1/{_LONG}|> ret 2", 1),
    "a long weight": (f"ret 1 <|{'1' * 4400}/{'2' * 4400}|> ret 2", 1),
    "a long list item": (f"arbitrary 0 [1, {_LONG}]", 1),
    "a long uniform item": (f"uniform 1 [{_LONG}, 2]", 1),
    "a value at the digit limit": ("ret " + _AT_LIMIT, 0),
    "a list item at the digit limit": (f"arbitrary 0 [1, {_AT_LIMIT}]", 0),
    "weights rendered past the digit limit": (f"(ret 1 <|1/{_AT_LIMIT}|> ret 2) <|1/{_AT_LIMIT}|> ret 3", 0),
    "a 1200-link choice chain": (" <|1/2|> ".join(f"ret {i}" for i in range(1201)), 0),
}


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("name", list(_PAST_THE_LIMITS))
def test_eval_is_total_past_the_limits(name, fmt):
    source, code = _PAST_THE_LIMITS[name]
    stdin = io.TextIOWrapper(io.BytesIO(source.encode()), encoding="utf-8")
    assert _assert_total(["eval", "--format", fmt, "-"], stdin) == code


@pytest.mark.parametrize("args", [
    "--trials 0", "--trials -1", "--trials 2", "--trials 2 --stats", "--trials x", "--trials",
    "--trials 2 --seed -1", "--trials 1 --seed 18446744073709551616", "--trials 2 --seed 7",
    "--law choicemm --trials 2", "--law choicemm --trials 1 --seed 0 --stats", "--law nope --trials 1",
    "--law", "--trial 1", "--trial 1 --trials 2", "--law bindA --trial -1",
    "--law bindA --trial 5 --trials 2", "--law bindA --trial 99999999999999999999 --trials 1",
    "--law neg_bindDr_alt --trial 1", "--law neg_bindDr_choice --trial 0 --trials 1 --seed 7",
    "--law neg_bindDr_alt --trials 2 --seed 7", "--law choicemm --trial x",
])
def test_check_laws_is_total(args):
    assert _assert_total(["check-laws", *args.split()]) in (0, 1)


def test_a_failed_law_verdict_is_exit_2_with_one_line():
    # at one trial a negative control finds no counterexample, which fails it
    code, out, lines = _run_in_process(["check-laws", "--trials", "1"])
    assert (code, lines) == (2, ["1 law(s) failed"])
    assert out.count("\n") == 48 and "FAIL neg_" in out
