"""Command-line interface: eval, check-laws, monty, version.

A line that starts with a command is parsed by that command's own parser alone, built once from
`_COMMANDS`; any other line (`-h`, a usage error) by the whole parser from `build_parser()`."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, NoReturn, Optional

from . import __version__, stats
from .programs import SourceError, monty, parse, eval_expr, render


def _read_source(path: str) -> str:
    """The program text of a file, or of stdin for `-`: UTF-8 either way, newlines translated."""
    if path == "-":
        if sys.stdin is None:  # the process was started with its stdin closed
            raise OSError("stdin is closed")
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:  # a text stream with no bytes beneath it, such as `io.StringIO`
            return sys.stdin.read()
        # as `open()` reads a file: any of \r\n, \r and \n ends a line
        return buffer.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
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
    try:
        print(render(value, args.format))
    except UnicodeEncodeError as exc:  # a symbol stdout's encoding has no bytes for
        print(f"error: stdout cannot encode the value: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_check_laws(args: argparse.Namespace) -> int:
    # imported here, so that the other commands never load the law suite
    from .laws import REGISTRY, GenConfig, check_all, check_law, render_report, run_trial

    try:
        config = GenConfig(trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trial is not None and (args.law is None or args.trial < 0):
        print("error: --trial takes a trial number >= 0 and needs --law", file=sys.stderr)
        return 1
    if args.law is not None:
        if args.law not in REGISTRY:
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
    """Ends a usage error in one `error:` line and exit 1; exit 2 stays for a failed law verdict."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, "error: " + message.replace("\n", " ") + "\n")

    def print_help(self, file=None) -> None:
        # argparse's own swallows OSError, so help into a closed pipe would exit 0 when unbuffered
        (file or sys.stdout).write(self.format_help())


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="program file, or '-' for stdin")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--stats", action="store_true", help=STATS_HELP)
    p.set_defaults(func=_cmd_eval)


def _check_laws_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--law", default=None, help="check a single law by name")
    p.add_argument("--trial", type=int, default=None, help="with --law, run only trial N and print it")
    p.add_argument("--stats", action="store_true", help=STATS_HELP)
    p.set_defaults(func=_cmd_check_laws)


def _monty_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=["stick", "switch", "both"], default="both")
    p.set_defaults(func=_cmd_monty)


_COMMANDS = {
    "eval": ("parse, evaluate, and render a program", _eval_args),
    "check-laws": ("run the randomized law suite", _check_laws_args),
    "monty": ("play the three-door game", _monty_args),
    "version": ("print the package version", lambda p: p.set_defaults(func=_cmd_version)),
}


def build_parser() -> argparse.ArgumentParser:
    description = "Exact model of combined probabilistic and nondeterministic choice."
    parser = _Parser(prog="convexchoice", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """`name`'s parser alone, built once as `add_parser` builds its subparser."""
    parser = _Parser(prog=f"convexchoice {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse_args(argv: List[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        return _command_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def cli_main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not getattr(args, "stats", False):
        return args.func(args)
    stats.start()
    try:
        return args.func(args)
    finally:
        stats.stop()
        print(stats.render(), file=sys.stderr)


def main() -> None:
    # stdout closed early (`| head -1`): exit 1, no message (Python docs, "Note on SIGPIPE")
    try:
        try:
            sys.exit(cli_main())
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
