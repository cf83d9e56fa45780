"""End-to-end command-line behavior over the shipped fixtures.

Exit-code contract: 0 a true probe or a Safe verdict, 1 a false probe
or an Unsafe verdict, 2 Unknown, 3 any usage, parse, or analysis error,
141 (as for SIGPIPE) when the reader of stdout has gone away.
All expectations here were adjudicated against the bounded oracle or
hand-replayed before being pinned.
"""

import contextlib
import io
import os
import subprocess
import sys

from conftest import BAD_LOWER_ZONES, subprocess_env
from upstack.cli import main
from upstack.fixtures import fixture_path

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
    # with the initial set and the verdict do not depend on the budget.
    checks = (
        ["check-read", E1, "--init", "C1", "--symbol", "a"],
        ["check-read", E2, "--init", "C2", "--symbol", "a"],
        ["check-read", E2, "--init", "C2", "--symbol", "c"],
        ["check-read", RELOCATE, "--init", "Boot", "--symbol", "secret"],
        ["check-read", RELOCATE, "--init", "Boot", "--symbol", "ret"],
        ["check-read", RELOCATE, "--init", "Boot", "--symbol", "canary"],
        ["check-overflow", E1, "-m", "1", "--lower", "x (y x)* bot"],
        ["check-overflow", RELOCATE, "-m", "1", "--lower", "ret bot"],
    )
    for argv in checks:
        code, out, _ = run_cli(argv)
        starved_code, starved, _ = run_cli([*argv, "--budget", "1"])
        verdict = out.splitlines()[0]
        assert verdict.startswith("verdict: ")
        assert (starved_code, starved.splitlines()[0]) == (code, verdict), argv


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
    code, _, err = run_cli(
        ["member", E1, "--init", "C1", "--config", "p2: a a b ^ bot", "--budget", "10"]
    )
    assert code == 3 and "configuration search budget" in err


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
