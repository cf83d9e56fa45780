"""Hand mutants of the analyses, each with the test files that must kill it.

Run from anywhere: python3 tests/mutants.py

Each mutant replaces one exact piece of text in one file of the package.
For each, the runner copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory, applies the mutant to the copy, and runs the
mutant's test files there with `pytest -x`. A mutant is killed when
those tests fail; it survives when they pass. The run fails if a mutant
survives, if its tests end in anything but passing or failing (a
collection error, say), or if its old text is not found exactly once in
the checkout: a change that rewrites mutated code updates the mutant's
text with it. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/upstack, exact old text, new text, test files
# that must fail).
MUTANTS = (
    (
        "pop core without the empty trace",
        "kphase.py",
        'core.add_edge(("i", p2, p2, r), EPSILON, ("e", p2, r))',
        "pass",
        ["tests/test_kphase.py"],
    ),
    (
        "push phase_pre without the targets",
        "extras.py",
        "return union_sets(phase, targets) if kind is PhaseKind.PUSH else phase",
        "return phase",
        ["tests/test_kphase.py"],
    ),
    (
        "barred zones copied for the pop phase's entries only",
        "kphase.py",
        "_push_phase_pre(spec, components, moves, out, entered, landings)",
        "_push_phase_pre(spec, components, moves, out, {}, landings)",
        ["tests/test_kphase.py"],
    ),
    (
        "barred zones copied in hash order",
        "kphase.py",
        "for key in entered]",
        "for key in set(entered)]",
        ["tests/test_kphase.py"],
    ),
    (
        "the push phase's entries left unrecorded",
        "kphase.py",
        'EPSILON, ("k", p2, r, z, 0))\n                        entered[q, p2] = None',
        'EPSILON, ("k", p2, r, z, 0))\n                        pass',
        ["tests/test_kphase.py"],
    ),
    (
        "the zone copy follows edges of both zones",
        "kphase.py",
        "if is_barred(label) is barred:",
        "if True:",
        ["tests/test_kphase.py"],
    ),
    (
        "the pop walk records no plain-zone landing",
        "kphase.py",
        "landings.setdefault((q, node[1]), {})[node[2]] = None",
        "pass",
        ["tests/test_kphase.py"],
    ),
    (
        "the push phase's per-state cut dropped",
        "kphase.py",
        "live = _coreachable(walk, ends, preds)",
        "live = walk",
        ["tests/test_kphase.py"],
    ),
    (
        "every round reported as converged",
        "kphase.py",
        "converged = grown.same(current)",
        "converged = True",
        ["tests/test_kphase.py"],
    ),
    (
        "push phase's free mode without its epsilon steps",
        "kphase.py",
        "if free:\n                                comp.add_edge(src, EPSILON, dst)",
        "if free:\n                                pass",
        ["tests/test_kphase.py"],
    ),
    (
        "every state cuts the push phase's lockstep pairs with the first state's exits",
        "kphase.py",
        "if not zexits.keys().isdisjoint(row)]",
        "if not moves.exits[spec.states[0]].keys().isdisjoint(row)]",
        ["tests/test_kphase.py"],
    ),
    (
        "membership climbs without checking the goal's prefix",
        "membership.py",
        "climbs = not above and shared < depth and upper[shared] == top",
        "climbs = not above and shared < depth",
        ["tests/test_oracle.py"],
    ),
    (
        "membership pushes past its size cap",
        "membership.py",
        "elif len(lower) < cap:",
        "elif True:",
        ["tests/test_oracle.py"],
    ),
    (
        "membership undoes a pop without checking the goal's prefix",
        "membership.py",
        "if shared and read == upper[shared - 1]:",
        "if shared:",
        ["tests/test_oracle.py"],
    ),
    (
        "membership undoes a push as if the upper word was never empty",
        "membership.py",
        "found.append((source, 0, 0, before))",
        "pass",
        ["tests/test_oracle.py"],
    ),
    (
        "membership's backward side never meets the forward one",
        "membership.py",
        "if seen.setdefault(pred, False):\n                    return True, count",
        "if seen.setdefault(pred, False):\n                    pass",
        ["tests/test_oracle.py"],
    ),
    (
        "membership's class test lets the first cell above the prefix be U's next symbol",
        "membership.py",
        "other = bar(upper[shared]) if shared < depth else None",
        "other = None",
        ["tests/test_configsets.py"],
    ),
    (
        "membership's class test keys its prefix runs by the shared length alone",
        "membership.py",
        "key = state, shared",
        "key = shared",
        ["tests/test_configsets.py"],
    ),
    (
        "membership's start pass merges entries whose lower word is not empty",
        "membership.py",
        "if not entry[0][3]:",
        "if True:",
        ["tests/test_oracle.py"],
    ),
    (
        "membership lists every start class before the search takes one",
        "membership.py",
        "for start in start_classes(start_set, upper, cap):",
        "for start in list(start_classes(start_set, upper, cap)):",
        ["tests/test_oracle.py"],
    ),
    (
        "membership answers a dry chain false without testing its classes",
        "membership.py",
        "return _holds_start(start_set, upper, seen), len(seen)",
        "return False, len(seen)",
        ["tests/test_oracle.py"],
    ),
    (
        "a pop that forgets its symbol",
        "oracle.py",
        "succ = (to_state, upper + top, rest)",
        "succ = (to_state, upper, rest)",
        ["tests/test_oracle.py"],
    ),
    (
        "an upper push that ignores the empty word",
        "upperapprox.py",
        "targets += [q for q in closure if q in rev.finals]",
        "pass",
        ["tests/test_upperapprox.py"],
    ),
    (
        "switches dropped from the upper closure",
        "upperapprox.py",
        "if arity == 1:\n            rev.add_edge(q1, EPSILON, q0)",
        "if arity == 1:\n            pass",
        ["tests/test_upperapprox.py"],
    ),
    (
        "a trace started from a component that accepts nothing",
        "upperapprox.py",
        "        if component.is_empty():\n            continue\n",
        "",
        ["tests/test_upperapprox.py"],
    ),
    (
        "a subset budget one node too large",
        "compaction.py",
        "if len(number) >= node_budget:",
        "if len(number) > node_budget:",
        ["tests/test_nfa.py"],
    ),
    (
        "a replay not kept inside the under-approximation",
        "safety.py",
        "lambda c: under.accepts(original(c)), DEFAULT_NODE_BUDGET,",
        "None, DEFAULT_NODE_BUDGET,",
        ["tests/test_checkers.py"],
    ),
    (
        "a hit with no trace inside it answered Unsafe",
        "safety.py",
        'if trace is not None:\n            return verdict(UNSAFE, "hit", witness=witness, trace=trace)',
        'return verdict(UNSAFE, "hit", witness=witness, trace=trace or ())',
        ["tests/test_checkers.py"],
    ),
    (
        "Safe without convergence",
        "safety.py",
        "    if converged:\n        # The exact pre* misses the initial set.",
        "    if True:\n        # The exact pre* misses the initial set.",
        ["tests/test_checkers.py"],
    ),
    (
        # A switch and the second half of a push are the same kind of run:
        # one that waits on a head for the empty word.
        "a switch, or a push's second half, that no Ret entry wakes",
        "summaries.py",
        "for waiter, rest in waiting.get(head, ())]",
        "for waiter, rest in waiting.get(head, ()) if rest]",
        ["tests/test_lower.py::test_summaries_match_the_lower_reference"],
    ),
    (
        "a push, or a switch, that takes only the Ret entries present when it"
        " started waiting",
        "summaries.py",
        "waiting.setdefault(target, []).append((head, word[1:]))",
        "len(word) > 1 and waiting.setdefault(target, []).append((head, word[1:]))",
        ["tests/test_lower.py::test_summaries_match_the_lower_reference"],
    ),
    (
        "overflow growth measured as if no start cell was popped",
        "summaries.py",
        "steps = [(r2, d2) for r2 in",
        "steps = [(r2, d) for r2 in",
        ["tests/test_lower.py::test_overflow_counts_the_start_cells_popped_before_a_run_grows"],
    ),
    (
        "the overflow checker's extended system without the filler",
        "overflow.py",
        "spec.alphabet + (TOP_SENTINEL, FILLER)",
        "spec.alphabet + (TOP_SENTINEL,)",
        ["tests/test_checkers.py::test_overflow_two_pushes_through_one_cell_of_headroom"],
    ),
    (
        "P without the heads that only reach a pop of the symbol",
        "summaries.py",
        "popped |= target in pops",
        "pass",
        ["tests/test_lower.py::test_summaries_match_the_lower_reference"],
    ),
    (
        "a reachable push cycle taken as finite growth",
        "summaries.py",
        "grows = math.inf if weight else grows",
        "grows = grows",
        ["tests/test_lower.py::test_summaries_match_the_lower_reference"],
    ),
    (
        "the phase-counting copy allowed one phase past k",
        "phasecopy.py",
        "for p in range(1, k + 1)",
        "for p in range(1, k + 2)",
        ["tests/test_lower.py"],
    ),
    (
        "a switch counted as a change of phase",
        "phasecopy.py",
        "to = (q2, p, last) if arity == 1 else",
        "to = (q2, p + 1, last) if arity == 1 else",
        ["tests/test_lower.py"],
    ),
    (
        "the trace search not kept where the copy shows a violation",
        "phasecopy.py",
        "return accepts(c) or summaries.shows(",
        "return True or summaries.shows(",
        [
            "tests/test_checkers.py::"
            "test_the_trace_search_stays_where_the_copy_shows_a_violation"
        ],
    ),
    (
        "the witness taken from the system's summaries, not the copy's",
        "phasecopy.py",
        "witness = config_from_word(best[0][0], best[1])",
        "witness = shown",
        [
            "tests/test_lower.py::"
            "test_the_witness_is_a_shortest_member_with_a_violation_within_k_phases"
        ],
    ),
    (
        "a read Safe although a start upper word holds the symbol",
        "summaries.py",
        "if head in summaries.pops or d is not None and summaries.growth.get(head, 0) >= d:",
        "if head in summaries.pops:",
        ["tests/test_lower.py::test_new_stack_reads_are_decided_on_the_lower_stack"],
    ),
    (
        "a held copy's distance counted from the first copy, not the last",
        "summaries.py",
        "0 if label == bar(summaries.symbol) else d2",
        "0 if label == bar(summaries.symbol) and d is None else d2",
        ["tests/test_lower.py::test_held_reads_match_the_exposure_reference"],
    ),
    (
        "the search never asks at a word's end, missing a U ^ member",
        "summaries.py",
        "if node in finals and (r is None or d == 0):",
        "if node in finals and r is None:",
        ["tests/test_lower.py::test_held_reads_match_the_exposure_reference"],
    ),
    (
        "the process entry exits without flushing",
        "cli.py",
        "        sys.stdout.flush()\n        sys.stderr.flush()\n",
        "        pass\n",
        ["tests/test_cli.py::test_atexit_callbacks_run_and_their_output_is_flushed"],
    ),
    (
        "the process entry skips the atexit callbacks",
        "cli.py",
        "atexit._run_exitfuncs()",
        "pass",
        ["tests/test_cli.py::test_atexit_callbacks_run_and_their_output_is_flushed"],
    ),
    (
        "set expressions nested past the bound",
        "regex.py",
        "if depth == MAX_NESTING:",
        "if False:",
        ["tests/test_regex.py"],
    ),
    (
        "a rule that holds the split word, not the declared state",
        "model.py",
        "rule = _new(Rule, (from_state, read_symbol, to_state, written))",
        "rule = _new(Rule, (words[1], read_symbol, to_state, written))",
        ["tests/test_model.py"],
    ),
    (
        "a parsed rule left a plain tuple",
        "model.py",
        "rule = _new(Rule, (from_state, read_symbol, to_state, written))",
        "rule = (from_state, read_symbol, to_state, written)",
        ["tests/test_model.py"],
    ),
    (
        "a nullable expression's start left out of the finals",
        "regex.py",
        "nfa.finals = dict.fromkeys([0] + last if nullable else last)",
        "nfa.finals = dict.fromkeys(last)",
        ["tests/test_model.py"],
    ),
    (
        "an old import path that serves a misspelt name",
        "model.py",
        'extras="print_model"',
        'extras="print_modle"',
        ["tests/test_package.py"],
    ),
)


def check_texts() -> list[str]:
    """A line for each mutant whose old text is not in its file exactly
    once."""
    problems = []
    for name, file, old, _, _ in MUTANTS:
        found = (ROOT / "src" / "upstack" / file).read_text(encoding="utf-8").count(old)
        if found != 1:
            problems.append(f"{name}: old text found {found} times in {file}")
    return problems


def run(mutant) -> tuple[str, str]:
    """Apply one mutant to a temporary copy and run its tests: the
    outcome (killed, survived or error) and pytest's last lines."""
    _, file, old, new, tests = mutant
    with tempfile.TemporaryDirectory(prefix="upstack-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "upstack" / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    tail = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
    return outcome, "\n".join(tail or done.stdout.splitlines()[-3:])


def main() -> int:
    problems = check_texts()
    for problem in problems:
        print(problem)
    if problems:
        return 1
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome, detail = run(mutant)
        print(f"{outcome}: {mutant[0]} ({time.perf_counter() - start:.1f} s)")
        print("  " + detail.replace("\n", "\n  "))
        failed += outcome != "killed"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
