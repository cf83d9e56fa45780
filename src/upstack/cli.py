"""Command-line surface: membership, the two approximations, the safety
checkers, DOT export, and the bounded oracle, over model files.

Each command is a module of `upstack.commands` that declares its
arguments and runs it. A call that names a command imports that module
alone, and the module imports only the analysis it runs, so a call
compiles and loads just the code of its command.

A command line in the plain form (see `_plain_args`) is read here, from
the command's declared arguments: argparse would cost a call more time
than most analyses take. Any other line goes to argparse
(`upstack.commands._parser`), which gives help and usage errors.

`main` returns the exit code, so that it can be called in process. The
process entry, `run`, ends the process once the answer is out, without
the interpreter's teardown; `python -m upstack` and the `upstack` script
call it. Run as a module itself (`python -m upstack.cli`), the CLI exits
the usual way, so that a profiler wrapped around it can report.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from .commands import COMMANDS, command
from .errors import MalformedInputError, ResourceLimitError, UpstackError
from .model import parse_model


class _Declared:
    """The arguments a command declares, through the part of argparse's
    interface that a plain command line needs: positionals in order, and
    options by their one flag, each with a dest, whether it is required,
    a type and a default other than a string (argparse would convert
    that). A declaration that needs more of argparse raises TypeError or
    AttributeError here, and its command lines go to argparse."""

    def __init__(self) -> None:
        self.positionals: list[str] = []
        self.options: dict[str, tuple] = {}

    def add_argument(
        self, flag: str, *, dest=None, required=False, type=str, default=None, help=""
    ) -> None:
        if not flag.startswith("-"):
            self.positionals.append(flag)
        elif isinstance(default, str):
            raise TypeError(f"{flag} has a string default")
        else:
            dest = dest or flag.lstrip("-").replace("-", "_")
            self.options[flag] = (dest, required, type, default)


def _plain_args(name: str, argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a command line in the plain form, as argparse
    would read them, or None for any other line. Plain: each option
    spelled out in full, once, with its value as the next word; no other
    word starts with '-'; every positional and required option given,
    and every value of its option's type."""
    declared = _Declared()
    try:
        command(name).add_arguments(declared)
    except (TypeError, AttributeError):
        return None
    values: dict[str, str] = {}
    positionals = []
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        value = next(words, "-")
        if word not in declared.options or word in values or value.startswith("-"):
            return None
        values[word] = value
    if len(positionals) != len(declared.positionals):
        return None
    args = SimpleNamespace(command=name, **dict(zip(declared.positionals, positionals)))
    for flag, (dest, required, kind, default) in declared.options.items():
        if flag in values:
            try:
                default = kind(values[flag])
            except ValueError:
                return None
        elif required:
            return None
        setattr(args, dest, default)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        named = bool(argv) and argv[0] in COMMANDS
        args = _plain_args(argv[0], argv[1:]) if named else None
        if args is None:
            from .commands._parser import build_parser

            args = build_parser((argv[0],) if named else COMMANDS).parse_args(argv)
        try:
            with open(args.model, encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as err:
            # The whole file is decoded at once, so err.start is its offset.
            raise MalformedInputError(f"{args.model}: not UTF-8 at byte {err.start}") from None
        model = parse_model(text)
        code = command(args.command).run(args, model)
        # As `print` does, this flushes stdout, and does nothing where it
        # is closed (None): the answer's code still stands.
        print(end="", flush=True)
        return code
    except BrokenPipeError:
        # The reader left early (`| head`). Point stdout at devnull so the
        # interpreter's final flush stays quiet, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ResourceLimitError as err:
        # A limit leaves the question open: an Unknown, not an error.
        print(f"upstack: unknown: {err}", file=sys.stderr)
        return 2
    except (UpstackError, OSError) as err:
        print(f"upstack: error: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        # A defect: exit with a code no answer uses, so that a crash never
        # reads as false or Unsafe.
        print(f"upstack: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


def run():
    """The process entry of `python -m upstack` and the `upstack` script:
    `main`, then an exit that skips the interpreter's teardown. Clearing
    every module and freeing every object changes nothing that a caller
    sees once the `atexit` callbacks have run and the output is flushed,
    in the order the interpreter keeps, yet it costs a call about a tenth
    of its time. A flush that fails, or a stream that is gone (None),
    leaves through `sys.exit`, so the interpreter reports it as it would;
    so does the SystemExit of argparse's help and usage errors, which
    `main` lets through."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError):
        sys.exit(code)
    os._exit(code)


# Run as a module itself, the CLI exits as any script does, so a profiler
# that wraps it (`python -m cProfile -m upstack.cli ...`) gets to report.
if __name__ == "__main__":
    sys.exit(main())
