"""Command-line interface: eval, check-laws, monty, version."""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, NoReturn, Optional

from . import __version__, stats
from .programs import SourceError, monty, parse, eval_expr, render


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        text = _read_source(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 1
    try:
        value = eval_expr(parse(text))
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: program nested too deeply to evaluate", file=sys.stderr)
        return 1
    print(render(value, args.format))
    return 0


def _cmd_check_laws(args: argparse.Namespace) -> int:
    # imported here, so that the other commands never load the law suite
    from .laws import GenConfig, check_all, check_law, law_names, render_report, run_trial

    try:
        config = GenConfig(trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trial is not None and (args.law is None or args.trial < 0):
        print("error: --trial takes a trial number >= 0 and needs --law", file=sys.stderr)
        return 1
    if args.law is not None:
        if args.law not in law_names():
            print(f"error: unknown law {args.law!r}", file=sys.stderr)
            return 1
        if args.trial is not None:
            found = run_trial(args.law, config, args.trial)
            print(f"trial {args.trial}: {'no counterexample' if found is None else found}")
            return 0
        reports = [check_law(args.law, config)]
    else:
        reports = check_all(config)
    for report in reports:
        print(render_report(report))
    failed = [r for r in reports if not r.ok]
    if failed:
        print(f"{len(failed)} law(s) failed", file=sys.stderr)
        return 2
    return 0


def _cmd_monty(args: argparse.Namespace) -> int:
    strategies = ["stick", "switch"] if args.strategy == "both" else [args.strategy]
    for strategy in strategies:
        print(f"{strategy}: {render(monty(strategy))}")
    return 0


def _cmd_version(_args: argparse.Namespace) -> int:
    print(__version__)
    return 0


STATS_HELP = "print LP calls, simplex pivots and canonicalization counts on one line to stderr"


class _Parser(argparse.ArgumentParser):
    """Ends a usage error in one `error:` line and exit 1, like every other input error.

    Exit 2 stays for a failed law verdict; subparsers are made of this class too.
    """

    def error(self, message: str) -> NoReturn:
        self.exit(1, "error: " + message.replace("\n", " ") + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convexchoice",
        description="Exact model of combined probabilistic and nondeterministic choice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="parse, evaluate, and render a program")
    p_eval.add_argument("file", help="program file, or '-' for stdin")
    p_eval.add_argument("--format", choices=["text", "structured"], default="text")
    p_eval.add_argument("--stats", action="store_true", help=STATS_HELP)
    p_eval.set_defaults(func=_cmd_eval)

    p_laws = sub.add_parser("check-laws", help="run the randomized law suite")
    p_laws.add_argument("--trials", type=int, default=200)
    p_laws.add_argument("--seed", type=int, default=42)
    p_laws.add_argument("--law", default=None, help="check a single law by name")
    p_laws.add_argument("--trial", type=int, default=None, help="with --law, run only trial N and print it")
    p_laws.add_argument("--stats", action="store_true", help=STATS_HELP)
    p_laws.set_defaults(func=_cmd_check_laws)

    p_monty = sub.add_parser("monty", help="play the three-door game")
    p_monty.add_argument("--strategy", choices=["stick", "switch", "both"], default="both")
    p_monty.set_defaults(func=_cmd_monty)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=_cmd_version)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `cli_main` uses, built on its first call and kept.

    Building the parser costs far more than parsing one command line, and
    parsing leaves no state in it: each call gets a fresh namespace.
    """
    return build_parser()


def cli_main(argv: Optional[List[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    if not getattr(args, "stats", False):
        return args.func(args)
    stats.start()
    try:
        return args.func(args)
    finally:
        stats.stop()
        print(stats.render(), file=sys.stderr)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
