"""Command-line interface: eval, check-laws, monty, version.

A well-formed line is read straight from the command table, `_COMMANDS`; any other line (`-h`, a
usage error) goes to the whole argparse parser that `build_parser()` builds from the same table,
so argparse is imported only to print help or a usage error."""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
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


def _cmd_eval(args: SimpleNamespace) -> int:
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


def _cmd_check_laws(args: SimpleNamespace) -> int:
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


def _cmd_monty(args: SimpleNamespace) -> int:
    strategies = ["stick", "switch"] if args.strategy == "both" else [args.strategy]
    for strategy in strategies:
        print(f"{strategy}: {render(monty(strategy))}")
    return 0


def _cmd_version(_args: SimpleNamespace) -> int:
    print(__version__)
    return 0


STATS_HELP = "print LP calls, simplex pivots and canonicalization counts on one line to stderr"

# Per command: its function, its help line, and its arguments as (name, kind,
# default, help). A kind is `bool` for a flag, `int` or `str` for an option's
# value, a tuple for a choice among words; a name with no leading `--` is the
# one positional.
_COMMANDS = {
    "eval": (_cmd_eval, "parse, evaluate, and render a program", (
        ("file", str, None, "program file, or '-' for stdin"),
        ("--format", ("text", "structured"), "text", None),
        ("--stats", bool, False, STATS_HELP),
    )),
    "check-laws": (_cmd_check_laws, "run the randomized law suite", (
        ("--trials", int, 200, None),
        ("--seed", int, 42, None),
        ("--law", str, None, "check a single law by name"),
        ("--trial", int, None, "with --law, run only trial N and print it"),
        ("--stats", bool, False, STATS_HELP),
    )),
    "monty": (_cmd_monty, "play the three-door game", (
        ("--strategy", ("stick", "switch", "both"), "both", None),
    )),
    "version": (_cmd_version, "print the package version", ()),
}


def build_parser():
    """The whole `argparse` parser, built from `_COMMANDS`: it writes every help screen and usage error."""
    import argparse  # here, so that a well-formed line loads neither argparse nor gettext

    class _Parser(argparse.ArgumentParser):
        """Ends a usage error in one `error:` line and exit 1; exit 2 stays for a failed law verdict."""

        def error(self, message: str) -> NoReturn:
            self.exit(1, "error: " + message.replace("\n", " ") + "\n")

        def print_help(self, file=None) -> None:
            # argparse's own swallows OSError, so help into a closed pipe would exit 0 when unbuffered
            (file or sys.stdout).write(self.format_help())

    description = "Exact model of combined probabilistic and nondeterministic choice."
    parser = _Parser(prog="convexchoice", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option, kind, default, help_text in arguments:
            if kind is bool:
                p.add_argument(option, action="store_true", help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(option, choices=kind, default=default, help=help_text)
            else:
                p.add_argument(option, type=kind, default=default, help=help_text)
        p.set_defaults(func=func)
    return parser


def _parse_table(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace of a well-formed line, read from `_COMMANDS`; None for any other line.

    Well-formed: a command, then exact option names, each with a valid value,
    and the command's one positional if it has one. Every other token that
    starts with `-` but is not `-` itself (`-h`, `--`, `--opt=value`, an
    abbreviation, a negative number) is left to argparse, as are bad values.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    args, options, positional = SimpleNamespace(func=func), {}, None
    for name, kind, default, _ in arguments:
        if name.startswith("--"):
            options[name] = kind
            setattr(args, name[2:], default)
        else:
            positional = name
    tokens = iter(argv[1:])
    for token in tokens:
        kind = options.get(token)
        if kind is bool:
            setattr(args, token[2:], True)
            continue
        value = token if kind is None else next(tokens, "--")  # a missing value is left to argparse
        if value.startswith("-") and value != "-":
            return None
        if kind is None:  # the positional, at most once
            if positional is None:
                return None
            setattr(args, positional, value)
            positional = None
        elif kind is int:
            try:
                setattr(args, token[2:], int(value))
            except ValueError:
                return None
        elif kind is str or value in kind:
            setattr(args, token[2:], value)
        else:
            return None
    return None if positional else args


def _parse_args(argv: List[str]) -> SimpleNamespace:
    return _parse_table(argv) or build_parser().parse_args(argv, SimpleNamespace())


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
