"""End-to-end command-line behavior over the shipped fixtures.

Exit-code contract: 0 a true probe or a Safe verdict, 1 a false probe
or an Unsafe verdict, 2 Unknown, 3 any usage, parse, or analysis error,
4 an internal error (a defect), 141 (as for SIGPIPE) when the reader of
stdout has gone away.
All expectations here were adjudicated against the bounded oracle or
hand-replayed before being pinned.
"""

import argparse
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BAD_LOWER_ZONES, subprocess_env
from upstack import cli
from upstack.cli import main
from upstack.commands import COMMANDS, command
from upstack.commands._parser import build_parser
from upstack.fixtures import fixture_path
from upstack.regex import MAX_NESTING

E1 = str(fixture_path("e1.upds"))
E2 = str(fixture_path("e2.upds"))
RELOCATE = str(fixture_path("relocate.upds"))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_member_accepts_reachable_probe():
    code, out, _ = run_cli(["member", E1, "--init", "C1", "--config", "p2: a ^ bot"])
    assert (code, out) == (0, "true\n")


def test_member_rejects_unreachable_probe():
    code, out, _ = run_cli(["member", E1, "--init", "C1", "--config", "p2: a a ^ bot"])
    assert (code, out) == (1, "false\n")


def test_read_checker_reports_unsafe_with_replay():
    code, out, _ = run_cli(["check-read", E1, "--init", "C1", "--symbol", "a"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "verdict: Unsafe (k=3)"
    assert "witness: p: ^ x bot" in lines
    assert "trace: p x -> p a; p a -> p" in lines


def test_zero_step_unsafe_trace_is_spelled_out():
    # At k=0 the under-approximation is the forbidden set itself, so the
    # witness needs no step at all.
    code, out, _ = run_cli(["check-read", E2, "--init", "C2", "--symbol", "b", "-k", "0"])
    assert (code, out) == (
        1,
        "verdict: Unsafe (k=0)\n"
        "witness: p: a b ^ c\n"
        "trace: (none: the witness is already forbidden)\n",
    )


def test_relocation_secret_leaks_but_return_slot_is_safe():
    code, out, _ = run_cli(["check-read", RELOCATE, "--init", "Boot", "--symbol", "secret"])
    assert code == 1
    assert "witness: boot: ^ ret bot" in out.splitlines()
    code, out, _ = run_cli(["check-read", RELOCATE, "--init", "Boot", "--symbol", "ret"])
    assert code == 0
    assert out.splitlines()[0] == "verdict: Safe (k=3)"


def test_overflow_golden_on_pumping_fixture():
    code, out, _ = run_cli(["check-overflow", E1, "-m", "1", "--lower", "x (y x)* bot"])
    assert code == 1
    lines = out.splitlines()
    assert "witness: p: @top @fill ^ x bot" in lines
    trace = next(line for line in lines if line.startswith("trace: "))
    assert trace.count(";") == 2


def test_a_starved_budget_leaves_every_fixture_verdict_as_it_is():
    # Past the budget a compaction keeps its language, so pre*_k, its hit
    # with the initial set and every Unsafe or over-approximation verdict
    # do not depend on the budget. A fallen-back compaction is not
    # canonical, though, so its rounds are never `same` and cannot show
    # that pre* converged: the two fixtures that are Safe by convergence
    # fall back on the over-approximation at --budget 1, which misses
    # their forbidden sets too.
    checks = (
        (["check-read", E1, "--init", "C1", "--symbol", "a"], "Unsafe", "Unsafe"),
        (["check-read", E2, "--init", "C2", "--symbol", "a"], "Unsafe", "Unsafe"),
        (["check-read", E2, "--init", "C2", "--symbol", "c"], "Safe", "Safe"),
        (["check-read", RELOCATE, "--init", "Boot", "--symbol", "secret"], "Unsafe", "Unsafe"),
        (["check-read", RELOCATE, "--init", "Boot", "--symbol", "ret"], "Safe", "Safe"),
        (["check-read", RELOCATE, "--init", "Boot", "--symbol", "canary"], "Unknown", "Unknown"),
        (["check-overflow", E1, "-m", "1", "--lower", "x (y x)* bot"], "Unsafe", "Unsafe"),
        (["check-overflow", RELOCATE, "-m", "1", "--lower", "ret bot"], "Safe", "Safe"),
    )
    codes = {"Safe": 0, "Unsafe": 1, "Unknown": 2}
    for argv, default, starved in checks:
        for extra, outcome in (([], default), (["--budget", "1"], starved)):
            code, out, _ = run_cli([*argv, *extra])
            assert (code, out.splitlines()[0]) == (
                codes[outcome], f"verdict: {outcome} (k=3)"
            ), (argv, extra)


def test_pre_under_probe_respects_phase_bound():
    probe = ["--config", "p: b ^ c c"]
    assert run_cli(["pre-under", E2, "--target", "C2", "-k", "2", *probe])[0] == 0
    assert run_cli(["pre-under", E2, "--target", "C2", "-k", "0", *probe])[0] == 1


def test_post_over_probe_covers_reachable_configuration():
    code, out, _ = run_cli(
        ["post-over", RELOCATE, "--init", "Boot", "--config", "pivot: canary ^ ret bot"]
    )
    assert (code, out) == (0, "true\n")


def test_summaries_print_without_probe():
    code, out, _ = run_cli(["pre-under", E2, "--target", "C2", "-k", "1"])
    assert code == 0 and "nodes" in out
    code, out, _ = run_cli(["post-over", E1, "--init", "C1"])
    assert code == 0 and "nodes" in out


def test_oracle_lists_findings_sorted():
    code, out, _ = run_cli(["oracle", E2, "--init", "C2", "--depth", "0", "--cap", "5"])
    assert code == 0
    assert out.splitlines() == ["p: ^ c", "p: a b ^ c", "p: a b a b ^ c"]


def test_oracle_probe_matches_hand_steps():
    # One rewriting step turns the shortest seed's lower top into a; the
    # read symbol never crosses the boundary, so an upper x is false.
    args = ["oracle", E1, "--init", "C1", "--depth", "2", "--cap", "5", "--config"]
    assert run_cli([*args, "p: ^ a bot"])[0] == 0
    assert run_cli([*args, "p: x ^ b bot"])[0] == 1


def test_export_set_is_byte_stable(tmp_path):
    first = run_cli(["export-dot", E1, "--set", "C1"])
    second = run_cli(["export-dot", E1, "--set", "C1"])
    assert first == second
    code, out, _ = first
    assert code == 0
    assert out.startswith("digraph configuration_set {")
    target = tmp_path / "c1.dot"
    code, silent, _ = run_cli(["export-dot", E1, "--set", "C1", "-o", str(target)])
    assert (code, silent) == (0, "")
    assert target.read_text(encoding="utf-8") == out


def test_export_trace_and_grammar_smoke():
    code, out, _ = run_cli(["export-dot", E1, "--trace", "C1"])
    assert code == 0 and out.startswith("digraph automaton {")
    code, out, _ = run_cli(["export-dot", E2, "--grammar", "C2"])
    assert code == 0 and out.startswith("digraph grammar {")


def test_usage_errors_exit_3():
    assert run_cli([])[0] == 3
    assert run_cli(["frobnicate"])[0] == 3
    assert run_cli(["member", E1, "--init", "C1"])[0] == 3
    read = ["check-read", E1, "--init", "C1", "--symbol", "a"]
    assert run_cli(read + ["--replay-depth", "5"])[0] == 3
    code, _, err = run_cli(["export-dot", E1, "--set", "C1", "--trace", "C1"])
    assert code == 3 and "not allowed with" in err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["check-read", E1, "--init", "C1", "--symbol", "a", "-k", "-1"], "-k", -1),
        (["check-read", E1, "--init", "C1", "--symbol", "a", "--budget", "-1"], "--budget", -1),
        (["check-overflow", E1, "-m", "1", "--lower", "x bot", "-k", "-3"], "-k", -3),
        (["pre-under", E2, "--target", "C2", "--config", "p: ^ c", "-k", "-2"], "-k", -2),
        (["pre-under", E2, "--target", "C2", "--budget", "-7"], "--budget", -7),
        (["member", E1, "--init", "C1", "--config", "p2: a ^ bot", "--budget", "-5"],
         "--budget", -5),
        (["oracle", E2, "--init", "C2", "--depth", "-1"], "--depth", -1),
        (["oracle", E2, "--init", "C2", "--depth", "0", "--cap", "-1"], "--cap", -1),
    ],
)
def test_negative_bounds_are_usage_errors(argv, flag, value):
    # A bound or budget counts phases, steps or stored items; a negative
    # one used to pass as k=-1, a false probe, a spent budget or the bare
    # start set. Like -m, it is now an error that names the option.
    assert run_cli(argv) == (3, "", f"upstack: error: {flag} must be nonnegative, got {value}\n")
    # Zero is a bound like any other.
    assert run_cli([*argv[:-1], "0"])[0] in (0, 1, 2)


def test_overflow_lower_errors_exit_3_with_columns_in_the_given_text():
    for lower, column, message in BAD_LOWER_ZONES:
        code, out, err = run_cli(
            ["check-overflow", E1, "-m", "1", "--lower", lower, "-k", "1"]
        )
        assert (code, out) == (3, "")
        assert err == f"upstack: error: line 1, column {column}: {message}\n"


def test_analysis_errors_exit_3_with_message():
    code, _, err = run_cli(
        ["member", "/no/such/file.upds", "--init", "C1", "--config", "p: ^ bot"]
    )
    assert code == 3 and err.startswith("upstack: error:")
    code, _, err = run_cli(["member", E1, "--init", "NoSuch", "--config", "p: ^ bot"])
    assert code == 3 and "no configuration set named 'NoSuch'" in err
    code, _, err = run_cli(["member", E1, "--init", "C1", "--config", "p: ^ zz"])
    assert code == 3 and "undeclared symbol 'zz'" in err


def test_a_model_file_not_in_utf8_is_an_error_naming_the_byte(tmp_path):
    # e1 with a Latin-1 comment appended: an error (exit 3) that names the
    # file and the first byte that does not decode, not a traceback.
    text = Path(E1).read_bytes()
    model = tmp_path / "latin1.upds"
    model.write_bytes(text + b"# \xff\n")
    for argv in (
        ["member", str(model), "--init", "C1", "--config", "p2: a ^ bot"],
        ["check-read", str(model), "--init", "C1", "--symbol", "a"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (3, "")
        assert err == f"upstack: error: {model}: not UTF-8 at byte {len(text) + 2}\n"


def _e1_with_set_d(tmp_path, expression):
    """e1's model file with the line `set D p <expression>` appended, and
    that line's number."""
    text = Path(E1).read_text(encoding="utf-8")
    model = tmp_path / "e1_d.upds"
    model.write_text(f"{text}set D p {expression}\n", encoding="utf-8")
    return str(model), text.count("\n") + 1


def _member_and_check_read(model):
    return (
        run_cli(["member", model, "--init", "D", "--config", "p2: a a b ^ bot"]),
        run_cli(["check-read", model, "--init", "D", "--symbol", "a", "-k", "1"]),
    )


def test_groups_nested_past_the_bound_are_a_parse_error(tmp_path):
    # Nested that deep, the parser used to raise RecursionError, which
    # exited 1: false for member, Unsafe for check-read. Each level is
    # (y x G)*, so the set is C1 at any depth.
    for depth in (MAX_NESTING, MAX_NESTING + 1, 500):
        prefix = "^ x " + "( y x " * depth
        model, line = _e1_with_set_d(tmp_path, prefix + ")*" * depth + " bot")
        runs = _member_and_check_read(model)
        if depth == MAX_NESTING:
            assert [code for code, _, _ in runs] == [0, 1]
            continue
        # The (MAX_NESTING + 1)-th '(' of the line.
        column = len("set D p ^ x ") + len("( y x ") * MAX_NESTING + 1
        for code, out, err in runs:
            assert (code, out) == (3, "")
            assert err == (
                f"upstack: error: line {line}, column {column}: "
                f"groups nested deeper than {MAX_NESTING}\n"
            )


def test_stacked_stars_answer_as_one_star(tmp_path):
    answers = []
    for stars in ("*", "*" * 2000):
        model, _ = _e1_with_set_d(tmp_path, f"^ x (y x){stars} bot")
        answers.append(_member_and_check_read(model))
    assert answers[0] == answers[1]
    assert [code for code, _, _ in answers[0]] == [0, 1]


def test_a_crash_exits_4_and_never_reads_as_an_answer(monkeypatch):
    def crash(args, model):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(command("member"), "run", crash)
    code, out, err = run_cli(["member", E1, "--init", "C1", "--config", "p2: a ^ bot"])
    assert (code, out) == (4, "")
    assert err == "upstack: internal error: RecursionError: maximum recursion depth exceeded\n"


def test_a_spent_budget_is_unknown_not_an_error():
    code, out, err = run_cli(
        ["member", E1, "--init", "C1", "--config", "p2: a a b ^ bot", "--budget", "10"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("upstack: unknown: ") and "configuration search budget" in err


def test_module_entry_point_round_trips():
    proc = subprocess.run(
        [sys.executable, "-m", "upstack", "member", E1, "--init", "C1",
         "--config", "p2: a ^ bot"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "true\n"


# Prints the compacted pre* and post* automata of the fixtures edge by
# edge, in insertion order, so any order the compaction leaks shows.
_COMPACTED_EDGES = """
from upstack import bounded_phase_pre_star, overapprox_post, parse_model
from upstack.fixtures import fixture_path
for name, target in (("e1.upds", "C1"), ("e2.upds", "C2"), ("relocate.upds", "Boot")):
    model = parse_model(fixture_path(name).read_text())
    configs = model.config_set(target)
    for aut in (bounded_phase_pre_star(model.spec, configs, 3), overapprox_post(model.spec, configs)):
        for state, nfa in aut.components.items():
            print(state, list(nfa.initial), list(nfa.finals), list(nfa.edges()))
"""


def test_output_does_not_depend_on_the_hash_seed():
    # String hashing differs between these seeds, so the saturations add
    # their edges in different orders; canonical compaction and sorted
    # DOT must still print the same bytes.
    commands = [
        ["-m", "upstack", "check-read", RELOCATE, "--init", "Boot", "--symbol", "secret"],
        ["-m", "upstack", "check-overflow", E1, "-m", "1", "--lower", "x (y x)* bot"],
        ["-m", "upstack", "pre-under", E2, "--target", "C2", "-k", "2"],
        ["-m", "upstack", "post-over", E1, "--init", "C1"],
        ["-m", "upstack", "export-dot", E1, "--set", "C1"],
        ["-m", "upstack", "export-dot", E2, "--grammar", "C2"],
        ["-c", _COMPACTED_EDGES],
    ]
    for argv in commands:
        outputs = set()
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, *argv],
                env=dict(subprocess_env(), PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
            )
            assert proc.returncode in (0, 1), proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


def test_closed_stdout_is_not_an_analysis_error():
    # The reader is gone before the first write, as with `| head -0`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "upstack", "oracle", E2, "--init", "C2",
             "--depth", "0", "--cap", "5"],
            env=subprocess_env(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


# -- the command-line surface ------------------------------------------------

# What `upstack` prints for the help of every command and for usage errors,
# at 80 columns: `=== upstack ARGS (exit CODE, STREAM)` and then the text,
# with model files named as fixtures. argparse lays some help out
# differently from Python 3.13 on; there, an entry whose header ends in
# `, Python 3.13+)` replaces the one before it with the same ARGS.
SURFACE = Path(__file__).with_name("cli_surface.golden")


def _surface_cases():
    cases = {}
    for chunk in SURFACE.read_text(encoding="utf-8").split("=== upstack")[1:]:
        header, _, text = chunk.partition("\n")
        args, code, stream, major, minor = re.fullmatch(
            r"(.*) \(exit (\d+), (stdout|stderr)(?:, Python (\d+)\.(\d+)\+)?\)", header
        ).groups()
        if major is not None and sys.version_info < (int(major), int(minor)):
            continue
        argv = shlex.split(args)
        argv = [str(fixture_path(arg)) if arg.endswith(".upds") else arg for arg in argv]
        cases[args] = (argv, int(code), stream, text)
    return list(cases.values())


def test_help_and_usage_errors_match_the_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cases = _surface_cases()
    assert [argv[1:2] for argv, *_ in cases if argv[1:2] == ["--help"]] == [["--help"]] * 7
    for argv, code, stream, text in cases:
        got_code, out, err = run_cli(argv)
        assert (got_code, out if stream == "stdout" else err) == (code, text), argv
        assert (err if stream == "stdout" else out) == "", argv


def test_help_and_unknown_commands_list_every_command():
    code, out, _ = run_cli(["-h"])
    assert code == 0
    assert re.search(r"\{([a-z,-]+)\}", out).group(1) == ",".join(COMMANDS)
    assert all(f"\n    {name} " in out for name in COMMANDS)
    code, _, err = run_cli(["frobnicate"])
    assert code == 3 and "frobnicate" in err
    choices = err.partition("choose from")[2]
    assert [name for name in COMMANDS if name in choices] == list(COMMANDS)
    # A bare call names what is missing, as it always has.
    missing = "upstack: error: the following arguments are required: command\n"
    assert run_cli([]) == (3, "", missing)


# Runs main on sys.argv[1:] in a fresh interpreter and prints the command
# modules it loaded, and whether it loaded argparse.
_COMMANDS_LOADED = """
import contextlib, io, sys
from upstack.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(" ".join(sorted(m[17:] for m in sys.modules if m.startswith("upstack.commands."))))
print("argparse" in sys.modules)
"""


def test_a_call_loads_only_its_command_and_argparse_only_for_help_and_errors():
    modules = ["_parser", *(name.replace("-", "_") for name in COMMANDS)]
    every = " ".join(sorted(modules))
    for argv, loaded in (
        (["member", E1, "--init", "C1", "--config", "p2: a ^ bot"], "member\nFalse"),
        (["check-read", E1, "--init", "C1", "--symbol", "a"], "check_read\nFalse"),
        (["member", E1, "--init", "C1"], "_parser member\nTrue"),
        (["export-dot", E1, "--set", "C1"], "_parser export_dot\nTrue"),
        ([], every + "\nTrue"),
        (["-h"], every + "\nTrue"),
        (["frobnicate"], every + "\nTrue"),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", _COMMANDS_LOADED, *argv],
            env=subprocess_env(), capture_output=True, text=True, check=True,
        )
        assert proc.stdout == loaded + "\n", argv


def test_one_subparser_says_what_all_of_them_say(monkeypatch):
    # On any Python: the help and usage of a parser built for one command
    # are those of the parser built for all of them.
    monkeypatch.setenv("COLUMNS", "80")

    def printed(parser, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            parser.parse_args(argv)
        return out.getvalue()

    every = build_parser()
    for name in COMMANDS:
        alone = build_parser((name,))
        assert alone.format_usage() == every.format_usage()
        assert printed(alone, [name, "--help"]) == printed(every, [name, "--help"])


# -- command lines read without argparse -------------------------------------

def _argparse_args(argv):
    """What argparse makes of a command line, or None where it stops with
    help or an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(build_parser((argv[0],)).parse_args(argv))
        except SystemExit:
            return None


def _plain(argv):
    args = cli._plain_args(argv[0], argv[1:])
    return None if args is None else vars(args)


def test_plain_command_lines_read_as_argparse_reads_them():
    lines = [
        ["member", E1, "--init", "C1", "--config", "p2: a ^ bot"],
        ["member", E1, "--config", "p2: a ^ bot", "--budget", "10", "--init", "C1"],
        ["pre-under", "--target", "C2", E2, "-k", "2"],
        ["post-over", E2, "--init", "C2"],
        ["check-overflow", E1, "-m", "1", "--lower", "x (y x)* bot", "--budget", "1"],
        ["check-read", RELOCATE, "--init", "Boot", "--symbol", "ret", "-k", "0"],
        ["oracle", E2, "--init", "C2", "--depth", "0", "--cap", "5", "--config", ""],
    ]
    for argv in lines:
        assert _plain(argv) == _argparse_args(argv) is not None, argv
    # argparse reads each of these its own way, or stops: they go to it.
    for argv in (
        ["pre-under", E2, "--target", "C2", "-k", "x", "-k", "2"],  # converts each value
        ["member", E1, "--init", "C1", "--config", "--init"],  # a flag as a value
        ["member", E1, "--ini", "C1", "--config", "p2: a ^ bot"],  # an abbreviation
        ["member", E1, "--init=C1", "--config", "p2: a ^ bot"],
        ["check-overflow", E1, "--lower", "x bot"],  # a required option missing
        ["export-dot", E1, "--set", "C1"],  # a group, which argparse checks
        ["oracle", E2, "--init", "C2", "--depth", "0", "-h"],
    ):
        assert _plain(argv) is None, argv


def _plain_options() -> dict:
    """Each command whose plain lines are read without argparse, and the
    options it declares: flag -> (dest, required, type, default)."""
    options = {}
    for name in COMMANDS:
        declared = cli._Declared()
        try:
            command(name).add_arguments(declared)
        except (TypeError, AttributeError):
            continue
        options[name] = declared.options
    return options


_PLAIN_OPTIONS = _plain_options()

_VALUES = [
    "0", "7", "1_0", " 2", "-1", "x", "", "p2: a ^ bot", "-x y", "C1", "-h", "--init",
]
# Words that make a line other than plain: help, `--`, an abbreviated
# flag, attached values, an unknown word.
_ODD_WORDS = ["-h", "--", "-", "--ini", "--init=C1", "-k3", "extra"]


def test_a_declaration_is_read_as_argparse_reads_it(monkeypatch):
    def declare(parser):
        parser.add_argument("model")
        parser.add_argument("--max-depth", type=int, default=4)
        parser.add_argument("--cap", dest="size", type=int, required=True)

    def read(declare, argv):
        module = types.SimpleNamespace(add_arguments=declare)
        monkeypatch.setattr(cli, "command", lambda name: module)
        plain = cli._plain_args("probe", argv)
        parser = argparse.ArgumentParser()
        declare(parser)
        expected = dict(vars(parser.parse_args(argv)), command="probe")
        return None if plain is None else vars(plain), expected

    plain, expected = read(declare, ["m", "--cap", "3"])
    assert plain == expected == {"command": "probe", "model": "m", "max_depth": 4, "size": 3}
    plain, expected = read(declare, ["--max-depth", "2", "--cap", "3", "m"])
    assert plain == expected
    # argparse converts a string default with the option's type.
    plain, expected = read(lambda parser: parser.add_argument("-k", type=int, default="3"), [])
    assert (plain, expected) == (None, {"command": "probe", "k": 3})


def test_plain_lines_are_read_for_every_command_but_export_dot():
    # export-dot declares a group and a two-flag option; argparse reads it.
    assert set(_PLAIN_OPTIONS) == set(COMMANDS) - {"export-dot"}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_PLAIN_OPTIONS)), st.data())
def test_a_line_read_without_argparse_reads_as_argparse_reads_it(name, data):
    # Lines made from the command's own arguments, mostly plain: the model,
    # each option once (a required one), or not at all, or twice, in any
    # order, values that may look like options or numbers, and sometimes
    # an odd word inserted.
    parts = [["e1.upds"]]
    for flag, (_, required, _, _) in _PLAIN_OPTIONS[name].items():
        usual = 1 if required else data.draw(st.integers(0, 1))
        for _ in range(data.draw(st.sampled_from([usual] * 4 + [0, 2]))):
            parts.append([flag, data.draw(st.sampled_from(_VALUES))])
    words = [word for part in data.draw(st.permutations(parts)) for word in part]
    if data.draw(st.booleans()):
        odd = data.draw(st.sampled_from(_ODD_WORDS))
        words.insert(data.draw(st.integers(0, len(words))), odd)
    plain = _plain([name, *words])
    assert plain is None or plain == _argparse_args([name, *words])


# Command lines for each fixture, the model's path left out; the checkers
# run at k = 1 to keep each example fast.
_FUZZED_COMMANDS = {
    "e1.upds": (
        ["member", "--init", "C1", "--config", "p2: a ^ bot"],
        ["check-read", "--init", "C1", "--symbol", "a", "-k", "1"],
        ["check-overflow", "-m", "1", "--lower", "x (y x)* bot", "-k", "1"],
    ),
    "e2.upds": (
        ["pre-under", "--target", "C2", "-k", "1", "--config", "p: b ^ c c"],
        ["post-over", "--init", "C2", "--config", "p: a ^ c b"],
        ["check-read", "--init", "C2", "--symbol", "b", "-k", "1"],
    ),
    "relocate.upds": (
        ["member", "--init", "Boot", "--config", "pivot: secret ^ ret bot"],
        ["post-over", "--init", "Boot", "--config", "pivot: canary ^ ret bot"],
        ["check-read", "--init", "Boot", "--symbol", "secret", "-k", "1"],
    ),
}
# Any byte, or one that the model syntax gives a meaning.
_BYTES = st.integers(0, 255) | st.sampled_from(b"()|*^_#@:-> \n")


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(_FUZZED_COMMANDS)),
    edits=st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.floats(0, 1), _BYTES),
        min_size=1,
        max_size=3,
    ),
)
def test_a_mutated_model_gets_an_honest_exit_code(name, edits):
    # Every exit is an answer (0, 1), Unknown (2) or an error (3): nothing
    # escapes main and no crash (4) happens, and 1 always comes with the
    # false or Unsafe it stands for.
    data = bytearray(fixture_path(name).read_bytes())
    for edit, where, byte in edits:
        at = int(where * (len(data) - (edit != "insert")))
        if edit == "delete":
            del data[at]
        elif edit == "insert":
            data.insert(at, byte)
        else:
            data[at] = byte
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, name)
        with open(model, "wb") as handle:
            handle.write(data)
        for argv in _FUZZED_COMMANDS[name]:
            code, out, err = run_cli([argv[0], model, *argv[1:]])
            assert code in (0, 1, 2, 3), (argv, bytes(data), err)
            if code == 1:
                lines = out.splitlines()
                assert "false" in lines or any(
                    line.startswith("verdict: Unsafe") for line in lines
                ), (argv, bytes(data), out)
