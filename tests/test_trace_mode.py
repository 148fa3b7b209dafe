"""The benchmark's trace mode (`perfbench/tracer.py`) still wraps and restores.

The tracer replaces convexchoice functions by name from outside the package,
so renaming or removing one of them breaks `perfbench/run.py --trace 1`
without failing any other test.
"""

import importlib
import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

from convexchoice import cli, convexgeom, necset
from convexchoice.dist import from_pairs, point
from convexchoice.necset import from_generators

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PROGRAM = "do x <- ret 0 [~] ret 1; ret x <|1/3|> ret 2"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "convexchoice" or name.startswith("convexchoice.")
        for attr, value in vars(module).items()
    }


def _answers(capsys, monkeypatch):
    """One `member` query that needs an LP, and one `eval` of PROGRAM.

    Both are looked up on their modules at call time, where the tracer patches.
    """
    hull = from_generators([point("a"), point("b"), point("c")])
    query = from_pairs([("a", Fraction(1, 2)), ("c", Fraction(1, 2))])
    monkeypatch.setattr("sys.stdin", io.StringIO(PROGRAM))
    code = cli.cli_main(["eval", "-"])
    return necset.member(query, hull), code, capsys.readouterr().out


def test_tracer_wraps_and_restores(capsys, monkeypatch):
    tracer_module = _load_tracer()
    for layer, names in tracer_module.TRACED.items():
        module = importlib.import_module("convexchoice." + layer)
        for name in names:
            assert callable(getattr(module, name)), f"{layer}.{name}"
    assert isinstance(convexgeom.ConvexInstance, type)

    untraced = _answers(capsys, monkeypatch)
    before = _package_attributes()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = _answers(capsys, monkeypatch)
    finally:
        tracer.uninstall()
    after = _package_attributes()

    assert untraced == (True, 0, "{0: 1/3, 2: 2/3}\n{1: 1/3, 2: 2/3}\n")
    assert traced == untraced
    assert tracer.calls["necset.member"] == 1 and tracer.calls["cli.cli_main"] == 1
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
