"""The argparse parser of the command line, for what `upstack.cli` does
not read itself: help, usage errors and command lines that are not
plain. It is built with the subparser of the named command only, or with
all of them for help, a missing command or an unknown one; its usage
lists every command either way, so no text depends on which were built.
"""

from __future__ import annotations

import argparse

from . import COMMANDS, command


class _Parser(argparse.ArgumentParser):
    """Usage problems exit with 3: codes 0-2 are analysis outcomes."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser(names: tuple[str, ...] = COMMANDS) -> _Parser:
    """The parser with the subparsers of the commands in `names`."""
    parser = _Parser(
        prog="upstack",
        description=(
            "Reachability analyses for pushdown systems that keep the "
            "memory above the stack pointer: exact membership, a "
            "phase-bounded under-approximation of predecessors, a regular "
            "over-approximation of successors, and safety checkers that "
            "decide on the lower stack alone."
        ),
    )
    # With every command built, argparse spells the list itself; an error
    # about the missing command then names it "command", as it always has.
    listed = None if names == COMMANDS else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name in names:
        module = command(name)
        module.add_arguments(sub.add_parser(name, help=module.HELP))
    return parser
