"""The two safety checkers and their shared decision procedure."""

import collections
import random

import pytest

from conftest import (
    BAD_LOWER_ZONES,
    any_word,
    c1_automaton,
    cfg,
    e1_spec,
    forbidden_read,
    random_configuration,
    random_spec,
    switch_chain,
)
from upstack import oracle, phasecopy, safety
from upstack.checkers import SAFE, UNKNOWN, UNSAFE, Verdict, _all_states_set
from upstack.configsets import ConfigAutomaton, from_config_set
from upstack.core import RuleKind, count_phases, make_spec, run_trace
from upstack.errors import MalformedInputError, ParseError, ResourceLimitError
from upstack.fixtures import fixture_text
from upstack.model import parse_model, print_config_literal
from upstack.oracle import explore, oracle_post
from upstack.overflow import FILLER, TOP_SENTINEL, check_stack_overflow
from upstack.regex import compile_config_regex
from upstack.residue import check_upper_read
from upstack.safety import decide_safety


def singleton(spec, *configs):
    return from_config_set(spec, list(configs))


# -- verdict plumbing ---------------------------------------------------------

def test_verdict_exit_codes():
    assert Verdict(SAFE, 3, 100).exit_code == 0
    assert Verdict(UNKNOWN, 3, 100).exit_code == 2
    unsafe = Verdict(UNSAFE, 3, 100, witness=cfg("p", "", "a"), trace=())
    assert unsafe.exit_code == 1
    assert "witness: p:" in unsafe.describe()


def test_verdict_validation():
    with pytest.raises(MalformedInputError):
        Verdict("Sideways", 3, 100)
    with pytest.raises(MalformedInputError):
        Verdict(UNSAFE, 3, 100)  # no witness, no trace
    with pytest.raises(MalformedInputError):
        Verdict(SAFE, 3, 100, decided_by="luck")


# -- the upper-read checker ---------------------------------------------------

def test_read_checker_on_pumping_fixture(e1, c1):
    verdict = check_upper_read(e1, c1, "a")
    assert verdict.outcome == UNSAFE
    assert verdict.witness is not None and verdict.trace is not None
    assert c1.accepts(verdict.witness)
    landed = run_trace(e1, verdict.witness, verdict.trace)
    assert landed.upper and landed.upper[-1] == "a"


def test_read_checker_takes_an_initial_set_over_part_of_the_alphabet(e1, c1):
    # C1 only spells x, y and bot; taken over those alone it is the same set.
    narrow = ConfigAutomaton(("x", "y", "bot"), c1.components)
    for symbol in ("a", "bot"):
        verdict = check_upper_read(e1, narrow, symbol)
        assert verdict == check_upper_read(e1, c1, symbol)
    verdict = check_upper_read(e1, narrow, "a")
    assert verdict.describe().splitlines() == [
        "verdict: Unsafe (k=3)", "witness: p: ^ x bot", "trace: p x -> p a; p a -> p",
    ]


def test_read_checker_trivial_safe():
    spec = make_spec(("q",), ("g",), [])
    configs = ConfigAutomaton(
        ("g",), {"q": compile_config_regex("^ g g", alphabet=("g",))}
    )
    assert check_upper_read(spec, configs, "g").outcome == SAFE


def test_read_checker_symbol_never_popped(e1, c1):
    # x is consumed by a rewriting rule only, so it can never cross the
    # boundary into the upper zone.
    assert check_upper_read(e1, c1, "x").outcome == SAFE


def test_read_checker_validates_symbol(e1, c1):
    with pytest.raises(MalformedInputError):
        check_upper_read(e1, c1, "zz")


def test_read_checker_set_name_needs_model_file(e1):
    with pytest.raises(MalformedInputError):
        check_upper_read(e1, "C1", "a")


def test_read_checker_with_model_file():
    model = parse_model(
        "states q\nalphabet g\nrule q g -> q\nset Init q ^ g\n"
    )
    verdict = check_upper_read(model, "Init", "g")
    assert verdict.outcome == UNSAFE
    assert [str(rule) for rule in verdict.trace] == ["q g -> q"]


# -- the overflow checker -----------------------------------------------------

def test_overflow_trivial_safe():
    spec = make_spec(("q",), ("g",), [])
    assert check_stack_overflow(spec, 1, "g").outcome == SAFE


def test_overflow_pops_never_overwrite():
    spec = make_spec(("q",), ("g",), [("q", "g", "q", ())])
    assert check_stack_overflow(spec, 0, "g").outcome == SAFE


def test_overflow_two_pushes_through_one_cell_of_headroom():
    spec = make_spec(("q",), ("g",), [("q", "g", "q", ("g", "g"))])
    verdict = check_stack_overflow(spec, 1, "g")
    assert verdict.outcome == UNSAFE
    assert verdict.witness.upper == (TOP_SENTINEL, FILLER)
    assert len(verdict.trace) == 2
    landed = run_trace(
        make_spec(("q",), ("g", TOP_SENTINEL, FILLER), [("q", "g", "q", ("g", "g"))]),
        verdict.witness,
        verdict.trace,
    )
    assert TOP_SENTINEL not in landed.upper


def test_overflow_unbounded_pushes_defeat_any_headroom():
    # A pushing loop is one long phase, so even k=1 sees through nine
    # cells of headroom.
    spec = make_spec(("q",), ("g",), [("q", "g", "q", ("g", "g"))])
    verdict = check_stack_overflow(spec, 9, "g", k=1)
    assert verdict.outcome == UNSAFE
    assert len(verdict.trace) == 10


def test_overflow_headroom_matters_for_bounded_pushes():
    # A two-push chain eats at most two cells: one filler loses the
    # sentinel, so m=1 must come back provably unsafe with the two-push
    # trace.  Two fillers protect it, but the over-approximation cannot
    # certify that: after any pop the trace abstraction forgets the
    # lower-stack top, which re-enables the funnel's exit switches early
    # and floods the sentinel-free upper words into reachable states.
    # The honest answer there is Unknown (never Unsafe -- an Unsafe
    # verdict always carries a replayed trace).
    chain = make_spec(
        ("q0", "q1", "q2"),
        ("g",),
        [("q0", "g", "q1", ("g", "g")), ("q1", "g", "q2", ("g", "g"))],
    )
    roomy = check_stack_overflow(chain, 2, "g")
    assert roomy.outcome in (SAFE, UNKNOWN)
    assert roomy.witness is None
    tight = check_stack_overflow(chain, 1, "g")
    assert tight.outcome == UNSAFE
    assert len(tight.trace) == 2


def test_overflow_pumping_fixture_golden(e1):
    verdict = check_stack_overflow(e1, 1, "x (y x)* bot")
    assert verdict.outcome == UNSAFE
    assert len(verdict.trace) == 3


def test_overflow_rejects_reserved_declarations():
    spec = make_spec(("q",), ("g", TOP_SENTINEL), [])
    with pytest.raises(MalformedInputError):
        check_stack_overflow(spec, 0, "g")
    spec2 = make_spec(("q",), ("g",), [])
    with pytest.raises(MalformedInputError):
        check_stack_overflow(spec2, -1, "g")


def test_overflow_rejects_sentinel_in_rules():
    spec = make_spec(
        ("q",), ("g", TOP_SENTINEL), [("q", TOP_SENTINEL, "q", ())]
    )
    with pytest.raises(MalformedInputError):
        check_stack_overflow(spec, 0, "g")


def test_overflow_empty_lower_start():
    spec = make_spec(("q",), ("g",), [("q", "g", "q", ("g", "g"))])
    assert check_stack_overflow(spec, 0, "_").outcome == SAFE


@pytest.mark.parametrize("lower, column, message", BAD_LOWER_ZONES)
def test_overflow_lower_is_one_zone_over_the_declared_alphabet(e1, lower, column, message):
    with pytest.raises(ParseError) as raised:
        check_stack_overflow(e1, 1, lower, k=1)
    assert (raised.value.line, raised.value.column) == (1, column)
    assert message in str(raised.value)


def test_overflow_lower_zones_keep_their_verdicts(e1):
    assert check_stack_overflow(e1, 1, "_", k=1).describe() == "verdict: Safe (k=1)"
    assert check_stack_overflow(e1, 1, "x (y x)* bot", k=1).describe() == (
        "verdict: Unsafe (k=1)\n"
        "witness: p: @top @fill ^ x bot\n"
        "trace: p x -> p a; p a -> p a b; p a -> p a b"
    )


# -- the shared decision procedure --------------------------------------------

def test_decide_unknown_when_approximations_bracket(e2, c2):
    # <p, bb, ccc> reaches the target set, but only through four phases:
    # at k=1 the under-approximation misses it while the
    # over-approximation still overlaps the target, which is exactly the
    # bracketing Unknown.
    initial = singleton(e2, cfg("p", "b b", "c c c"))
    verdict = decide_safety(e2, initial, c2, k=1)
    assert (verdict.outcome, verdict.decided_by, verdict.at_round) == (
        UNKNOWN, "over-approximation", 1
    )
    assert "bracket" in verdict.note
    deeper = decide_safety(e2, initial, c2, k=4)
    assert (deeper.outcome, deeper.decided_by, deeper.at_round) == (UNSAFE, "hit", 4)


def test_converged_rounds_without_a_hit_are_an_exact_safe(e2, c2):
    # In e2 only pops move symbols into the upper word, and c is never
    # popped, so nothing else reaches <p, c, eps>: pre* of it is itself,
    # round 1 adds nothing, and C2 misses it.
    stuck = singleton(e2, cfg("p", "c", ""))
    verdict = decide_safety(e2, c2, stuck, k=3)
    assert (verdict.outcome, verdict.decided_by, verdict.at_round) == (SAFE, "convergence", 1)
    # Without rounds there is nothing to converge: the over-approximation
    # decides.
    assert decide_safety(e2, c2, stuck, k=0).decided_by == "over-approximation"


def test_replay_out_of_budget_is_unknown(monkeypatch, e1, c1):
    # Unsafe at the default budget; with room for two configurations the
    # replay of the hit runs out, and the verdict keeps the hit's witness.
    forbidden = forbidden_read(e1, "a")
    assert decide_safety(e1, c1, forbidden).outcome == UNSAFE
    monkeypatch.setattr(safety, "DEFAULT_NODE_BUDGET", 2)
    verdict = decide_safety(e1, c1, forbidden)
    assert (verdict.outcome, verdict.exit_code, verdict.decided_by) == (UNKNOWN, 2, "limit")
    assert verdict.witness == cfg("p", "", "x bot") and verdict.trace is None
    assert verdict.note == (
        "under-approximation reached p: ^ x bot but the replay ran out of its "
        "configuration search budget (explored 2 nodes)"
    )


def test_a_hit_with_no_trace_inside_it_is_unknown(monkeypatch):
    # A hit whose replay finds no trace inside the under-approximation is
    # a defect of pre*; the verdict stays Unknown, so that an Unsafe
    # always carries a replayed trace.
    model = parse_model(fixture_text("relocate.upds"))
    initial, forbidden = model.config_set("Boot"), forbidden_read(model.spec, "secret")
    unsafe = decide_safety(model.spec, initial, forbidden)
    assert (unsafe.outcome, unsafe.decided_by) == (UNSAFE, "hit")
    monkeypatch.setattr(phasecopy, "copy_trace", lambda *args: None)
    verdict = decide_safety(model.spec, initial, forbidden)
    assert (verdict.outcome, verdict.exit_code, verdict.decided_by) == (UNKNOWN, 2, "hit")
    assert verdict.witness == unsafe.witness and verdict.trace is None
    assert verdict.note == (
        f"under-approximation reached {print_config_literal(unsafe.witness)} "
        "but no trace to the forbidden set stays inside it"
    )


def test_a_shown_violation_with_no_trace_is_unknown(monkeypatch):
    # The copy's summaries show the violation, so a search that finds no
    # trace is a defect: the verdict stays Unknown, with the witness.
    model = parse_model(fixture_text("relocate.upds"))
    unsafe = check_upper_read(model, "Boot", "secret")
    assert (unsafe.outcome, unsafe.decided_by) == (UNSAFE, "lower-stack")
    monkeypatch.setattr(phasecopy, "search_trace", lambda *args: None)
    verdict = check_upper_read(model, "Boot", "secret")
    assert (verdict.outcome, verdict.exit_code, verdict.decided_by) == (
        UNKNOWN, 2, "lower-stack"
    )
    assert verdict.witness == unsafe.witness and verdict.trace is None
    assert verdict.note == (
        f"a violation within k=3 phases exists from {print_config_literal(unsafe.witness)}, "
        "but no trace to it was found"
    )


def _stored_per_search(monkeypatch):
    """A list that collects the configurations each search stores."""
    stored = []
    search = oracle.explore

    def counted(*args, **kwargs):
        try:
            hit, seen = search(*args, **kwargs)
        except ResourceLimitError as err:
            stored.append(err.explored)
            raise
        stored.append(len(seen))
        return hit, seen

    monkeypatch.setattr(oracle, "explore", counted)
    return stored


def test_replay_stays_inside_the_under_approximation(monkeypatch):
    # A search over every successor runs through a budget of 1,000 on the
    # pushes long before it walks the chain; restricted to the one-phase
    # pre*, the replay of `decide_safety` finds the chain at once.
    model = switch_chain(10)
    monkeypatch.setattr(safety, "DEFAULT_NODE_BUDGET", 1000)
    verdict = decide_safety(model.spec, model.config_set("I"), forbidden_read(model.spec, "x"), 1)
    assert (verdict.outcome, verdict.decided_by) == (UNSAFE, "hit")
    assert verdict.witness == cfg("s0", "", "x")
    assert len(verdict.trace) == 10
    assert [rule.kind for rule in verdict.trace[:9]] == [RuleKind.SWITCH] * 9
    assert verdict.trace[-1].kind is RuleKind.POP


def test_the_trace_search_stays_where_the_copy_shows_a_violation(monkeypatch):
    # At k=1 a push leaves no phase for the pop, so the copy's summaries
    # show no violation after one: kept to the configurations from which
    # they still show one, the checker's one search walks the chain and
    # stores little more than it, where a search over every successor
    # would store some 2^25 configurations first.
    stored = _stored_per_search(monkeypatch)
    verdict = check_upper_read(switch_chain(25), "I", "x", k=1, node_budget=100)
    assert (verdict.outcome, verdict.decided_by) == (UNSAFE, "lower-stack")
    assert verdict.witness == cfg("s0", "", "x") and len(verdict.trace) == 25
    assert [rule.kind for rule in verdict.trace[:24]] == [RuleKind.SWITCH] * 24
    assert stored == [26]


def test_lower_stack_replay_stops_at_its_budget(monkeypatch):
    # At k=2 a push phase can be followed by the pop, so from almost every
    # configuration around the chain the copy still shows a violation: the
    # one search stops at the checker's budget, and the Unknown names the
    # witness and the spent budget.
    stored = _stored_per_search(monkeypatch)
    verdict = check_upper_read(switch_chain(25), "I", "x", k=2, node_budget=500)
    assert (verdict.outcome, verdict.exit_code, verdict.decided_by) == (UNKNOWN, 2, "limit")
    assert verdict.witness == cfg("s0", "", "x") and verdict.trace is None
    assert verdict.note == (
        "a violation within k=2 phases exists from s0: ^ x, but the trace search ran "
        "out of its configuration search budget (explored 500 nodes)"
    )
    assert stored == [500]


def test_an_unknown_past_the_trace_budget_keeps_the_violation():
    # At k=0 no push or pop is left, so the copy's summaries show no
    # violation, and no trace is searched: the note names the start member
    # from which the system's own summaries show one. With room for two
    # configurations, the same read at k=1 runs out of its budget, and its
    # note keeps the violation too.
    verdict = check_upper_read(switch_chain(25), "I", "x", k=0)
    assert (verdict.outcome, verdict.decided_by) == (UNKNOWN, "phase-bound")
    assert verdict.witness is None
    assert verdict.note == (
        "no phase-bounded witness at k=0; a violation exists past k=0 from s0: ^ x"
    )
    starved = check_upper_read(switch_chain(25), "I", "x", k=1, node_budget=2)
    assert (starved.outcome, starved.decided_by) == (UNKNOWN, "limit")
    assert starved.note.startswith("a violation within k=1 phases exists from s0: ^ x, ")


def test_decide_random_sweep_verdicts_are_sound():
    # At k=2 most Safe verdicts come from pre* rounds that converged with
    # no hit; at k=0 no round runs, so a Safe comes from the
    # over-approximation. Every one is confirmed by the bounded oracle.
    rng = random.Random(2026)
    decided = collections.Counter()
    for _ in range(40):
        spec = random_spec(rng)
        initial = singleton(
            spec, random_configuration(rng, spec, allow_empty_lower=False)
        )
        forbidden = singleton(spec, random_configuration(rng, spec))
        for k in (0, 2):
            verdict = decide_safety(spec, initial, forbidden, k=k)
            decided[verdict.outcome, verdict.decided_by] += 1
            assert 0 <= verdict.at_round <= k
            # A hit always replays: a witness never comes without its trace.
            assert verdict.witness is None or verdict.trace is not None
            if verdict.outcome == UNSAFE:
                assert initial.accepts(verdict.witness)
                landed = run_trace(spec, verdict.witness, verdict.trace)
                assert forbidden.accepts(landed)
                assert count_phases(verdict.trace) <= k
            elif verdict.outcome == SAFE:
                reached = oracle_post(
                    spec, initial.enumerate_configs(6), depth=5, size_cap=7
                )
                assert not any(forbidden.accepts(c) for c in reached)
    assert decided[SAFE, "convergence"] >= 10
    assert decided[SAFE, "over-approximation"] and decided[UNSAFE, "hit"]


def test_over_approximation_safes_at_one_phase_have_no_bounded_counterexample():
    # Every Safe verdict at k=1, whatever decided it, is searched for a
    # counterexample of size <= 5 from the initial members of that size:
    # the checkers', and those of `decide_safety` alone on the same sets,
    # where the pre* rounds rarely converge at k=1, so most come from the
    # over-approximation.
    rng = random.Random(11)
    decided = collections.Counter()
    alone = collections.Counter()
    for _ in range(40):
        spec = random_spec(rng, max_states=4, max_symbols=3, max_rules=10)
        loop = " ".join(rng.choice(spec.alphabet) for _ in range(rng.randint(1, 2)))
        lower = f"{rng.choice(spec.alphabet)} ({loop})* {rng.choice(spec.alphabet)}"
        initial = ConfigAutomaton(
            spec.alphabet, {spec.states[0]: compile_config_regex(f"^ {lower}", spec.alphabet)}
        )
        symbol = rng.choice(spec.alphabet)
        guarded = make_spec(
            spec.states, spec.alphabet + (TOP_SENTINEL, FILLER), [tuple(r) for r in spec.rules]
        )
        guarded_start = compile_config_regex(
            f"{TOP_SENTINEL} {FILLER} ^ {lower}", guarded.alphabet
        )
        unguarded = any_word(s for s in guarded.alphabet if s != TOP_SENTINEL)
        queries = (
            (check_upper_read(spec, initial, symbol, k=1), spec, initial,
             forbidden_read(spec, symbol), lambda c: c[1][-1:] == (symbol,)),
            (check_stack_overflow(spec, 1, lower, k=1), guarded,
             ConfigAutomaton(guarded.alphabet, dict.fromkeys(spec.states, guarded_start)),
             _all_states_set(guarded, unguarded, any_word(guarded.alphabet)),
             lambda c: TOP_SENTINEL not in c[1]),
        )
        for verdict, system, starts, forbidden_set, forbidden in queries:
            by_itself = decide_safety(system, starts, forbidden_set, k=1)
            decided[verdict.outcome, verdict.decided_by] += 1
            alone[by_itself.outcome, by_itself.decided_by] += 1
            if SAFE in (verdict.outcome, by_itself.outcome):
                members = [(c.state, c.upper, c.lower) for c in starts.enumerate_configs(5)]
                hit, _ = explore(system, members, forbidden, 5, links=False)
                assert hit is None, (verdict, by_itself)
    # Pinned. `decide_safety` alone: through the single-origin extension
    # the over-approximation decides 37 Safe, the converged pre* rounds 7,
    # and a pre* hit the 32 Unsafe; 4 are Unknown. The checkers: the
    # lower-stack summaries decide all 44 Safe and all 32 Unsafe, and the
    # same 4, whose violations the summaries show, are left to the phase
    # bound: the summaries of the copy that counts phases show none within
    # one phase.
    assert alone[SAFE, "over-approximation"] == 37
    assert alone[UNKNOWN, "over-approximation"] == 4
    assert decided[SAFE, "lower-stack"] == 44
    assert decided[UNSAFE, "lower-stack"] == 32
    assert decided[UNKNOWN, "phase-bound"] == 4
