import contextlib
import io
import os
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


def test_cli_main_builds_one_parser(capsys, monkeypatch):
    corpus = str(CORPUS / "coinarb.choice")
    text = "{true: 1}\n{false: 1}\n"
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    # no option of one call carries over to the next
    assert cli_main(["eval", "--stats", corpus]) == 0
    assert capsys.readouterr().err.startswith("stats: ")
    assert cli_main(["eval", corpus]) == 0
    assert capsys.readouterr() == (text, "")
    assert cli_main(["eval", "--format", "structured", corpus]) == 0
    assert capsys.readouterr().out == '[[[true,"1"]],[[false,"1"]]]\n'
    assert cli_main(["eval", corpus]) == 0
    assert capsys.readouterr() == (text, "")
    with pytest.raises(SystemExit) as exc:
        cli_main(["eval"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert cli_main(["eval", corpus]) == 0
    assert capsys.readouterr() == (text, "")
    assert len(builds) == 1
    assert build() is not build()


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


def test_run_as_module_from_a_checkout():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "convexchoice", "version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, __version__ + "\n", "")


_ONLY_CHECK_LAWS_LOADS_LAWS = """
import io, sys
from convexchoice.cli import cli_main

sys.stdin = io.StringIO("do x <- arbitrary 0 [1, 2]; ret x <|1/2|> ret 3")
assert cli_main(["eval", "-"]) == 0
assert cli_main(["monty"]) == 0
assert cli_main(["version"]) == 0
loaded = sorted(m for m in sys.modules if m == "json" or m.startswith("convexchoice.laws"))
assert loaded == [], loaded
assert cli_main(["check-laws", "--law", "choicemm", "--trials", "2"]) == 0
assert "convexchoice.laws" in sys.modules
"""


def test_only_check_laws_loads_the_law_suite():
    # a fresh interpreter, since an earlier test may have imported the laws;
    # -S keeps site-packages start-up hooks from importing modules of their own
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-S", "-c", _ONLY_CHECK_LAWS_LOADS_LAWS],
        capture_output=True, text=True, env=env, timeout=60,
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


@settings(max_examples=150, deadline=None)
@given(_sources, st.sampled_from(["text", "structured"]))
def test_eval_is_total(source, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.object(
        sys, "stdin", io.StringIO(source)
    ):
        code = cli_main(["eval", "--format", fmt, "-"])
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
