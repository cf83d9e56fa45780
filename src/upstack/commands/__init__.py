"""The CLI commands, one module each, named after the command with `_`
for `-`. A command module holds `HELP`, its line in `upstack --help`;
`add_arguments(parser)`, which declares its arguments to an argparse
parser, or to what reads a plain command line (`upstack.cli`); and
`run(args, model)`, which runs it on the parsed model and returns the
exit code. A module imports the analysis it runs inside `run`, so
building the full help loads no analysis. A call imports only the module
of the command it runs. What the commands share is here, and the
argparse parser, which only help, usage errors and command lines that
are not plain need, is in `_parser`.
"""

from __future__ import annotations

from importlib import import_module

from ..errors import MalformedInputError

# The commands in the order the help lists them.
COMMANDS = (
    "member", "pre-under", "post-over", "check-overflow", "check-read", "export-dot",
    "oracle",
)

TRACE_BUDGET_HELP = (
    "how many configurations the search for a violation's trace may store; "
    "past it the verdict is Unknown (default %(default)s)"
)


def command(name: str):
    """The module of a command."""
    return import_module(f".{name.replace('-', '_')}", __name__)


def add_model(parser) -> None:
    parser.add_argument("model", help="model file (see the package README)")


def check_nonnegative(args, *flags: str) -> None:
    """Raise MalformedInputError naming the first of the options, spelled
    as on the command line, whose value is negative: bounds and budgets
    count steps, phases or stored items."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value < 0:
            raise MalformedInputError(f"{flag} must be nonnegative, got {value}")


def bool_exit(value: bool) -> int:
    """Print a probe's answer; its exit code."""
    print("true" if value else "false")
    return 0 if value else 1
