"""The lower-stack summaries and the checkers that decide from them.

The summaries (`summaries.Summaries`) are checked against a brute-force
stepper of the lower stack (`lower_reference`), reads of a symbol that a
start upper word holds against its search over full configurations, and
each checker's verdict against what `decide_safety` alone answers for
the same sets: the checkers decide within k phases on the summaries of
the phase-counting copy (`phasecopy`), and `decide_safety` by its pre*
rounds, so each keeps the other under an exact test.
"""

import collections
import math
import random
import time

import pytest

import lower_reference as ref
from conftest import (
    FIXTURE_LOWERS,
    HIDDEN_ONE_PHASE,
    any_word,
    forbidden_read,
    random_spec,
    switch_chain,
)
from upstack.checkers import SAFE, UNKNOWN, UNSAFE, _all_states_set
from upstack.configsets import ConfigAutomaton
from upstack.core import Configuration, count_phases, make_spec, run_trace
from upstack.fixtures import fixture_text
from upstack.model import parse_model
from upstack.overflow import FILLER, TOP_SENTINEL, check_stack_overflow, parse_zone_regex
from upstack.phasecopy import phase_copy
from upstack.regex import compile_config_regex
from upstack.residue import check_upper_read
from upstack.safety import decide_safety
from upstack.summaries import Summaries, shortest_violation

CAP = 9


def _random_systems(seed, count, **sizes):
    rng = random.Random(seed)
    return rng, [random_spec(rng, **sizes) for _ in range(count)]


def test_summaries_match_the_lower_reference():
    # Ret, G and P of every head, against a search capped at CAP cells: a
    # search that no cap cut short is exact, and one the cap did cut
    # short means a run grows past it.
    _, systems = _random_systems(41, 150, max_states=3, max_symbols=3, max_rules=8)
    unbounded = 0
    for spec in systems:
        summaries = Summaries(spec)
        for q in spec.states:
            for a in spec.alphabet:
                ret = set(summaries.ret.get((q, a), ()))
                grows = summaries.growth.get((q, a), 0)
                pops = set(summaries.pops.get((q, a), ()))
                found, capped = ref.returns(spec, q, a, CAP)
                most, _ = ref.head_growth(spec, q, a, CAP)
                search = ref.Search(spec, [(q, (a, ref.BOTTOM))], CAP)
                assert found <= ret and search.popped <= pops, (spec, q, a)
                if grows == math.inf or grows + 2 > CAP:
                    assert capped, (spec, q, a)
                    unbounded += grows == math.inf
                else:
                    assert not capped, (spec, q, a)
                    assert (found, most, search.popped) == (ret, grows, pops), (spec, q, a)
    assert unbounded >= 50


def test_summaries_of_a_long_switch_chain_take_one_pass():
    # Saturation that rescans every rule until no Ret set grows takes one
    # scan per switch of a chain: on a 2-vCPU x86-64 machine, 1.0 s for a
    # chain of 400 and 0.6-0.9 s for the k=1 copy of a chain of 200, where
    # the worklist takes under 10 ms.
    plain = switch_chain(400).spec
    copy = phase_copy(switch_chain(200).spec, 1)[0]
    for spec, head, last in (
        (plain, ("s0", "x"), "s399"),
        (copy, (("s0", 0, None), "x"), ("s199", 1, 0)),
    ):
        start = time.perf_counter()
        summaries = Summaries(spec)
        assert time.perf_counter() - start < 0.25
        # A run pops its start cell only at the chain's end, and in the
        # copy only with no push before it: the pop is its one phase.
        assert set(summaries.ret[head]) == {last}


def _finite_start(rng, spec):
    """A start state and one to three lower words of length 0..3, as a
    set over the lower zone alone."""
    words = {
        tuple(rng.choice(spec.alphabet) for _ in range(rng.randint(0, 3)))
        for _ in range(rng.randint(1, 3))
    }
    text = " | ".join(" ".join(word) or "_" for word in sorted(words))
    lower = f"( {text} )" if len(words) > 1 else text
    return rng.choice(spec.states), sorted(words), lower


def test_growth_and_pops_from_start_sets_match_the_lower_reference():
    # From finite start sets with an empty upper zone: the overflow checker
    # answers Safe from the lower stack exactly when no start word's run
    # grows past m, and the read checker exactly when no run pops the
    # symbol; an Unsafe from the lower stack always has such a run.
    rng, systems = _random_systems(43, 120, max_states=3, max_symbols=3, max_rules=8)
    lower_safe = lower_unsafe = 0
    for spec in systems:
        state, words, lower = _finite_start(rng, spec)
        starts = [(state, word) for word in words]
        most, capped = ref.growth(spec, starts, CAP)
        summaries = Summaries(spec)
        zone = {state: compile_config_regex(f"^ {lower}", spec.alphabet)}
        for m in range(4):
            exact = not capped or most > m
            grows = shortest_violation(
                summaries, spec.states, zone,
                lambda r, a, d: summaries.growth.get((r, a), 0) - d > m,
            )
            assert (grows is not None) == (most > m) or not exact, (spec, lower, m)
            # The overflow checker starts every state at the words.
            all_states = [(q, word) for q in spec.states for word in words]
            every, capped_every = ref.growth(spec, all_states, CAP)
            verdict = check_stack_overflow(spec, m, lower, k=4)
            if not capped_every or every > m:
                lower_said_safe = (verdict.outcome, verdict.decided_by) == (SAFE, "lower-stack")
                assert lower_said_safe == (every <= m), (spec, lower, m, verdict)
                lower_safe += lower_said_safe
        initial = ConfigAutomaton(spec.alphabet, zone)
        for symbol in spec.alphabet:
            popped, capped_pops = ref.pops(spec, starts, symbol, CAP)
            verdict = check_upper_read(spec, initial, symbol, k=4)
            if verdict.decided_by == "lower-stack":
                assert verdict.outcome in (SAFE, UNSAFE)
                lower_unsafe += verdict.outcome == UNSAFE
            if popped or not capped_pops:
                assert (verdict.outcome == SAFE) == (not popped), (spec, lower, symbol)
                assert (verdict.decided_by == "lower-stack") or popped, (spec, lower, symbol)
    assert lower_safe >= 100 and lower_unsafe >= 40


def test_overflow_counts_the_start_cells_popped_before_a_run_grows():
    # From <q, a b> a run pops a, and then grows two cells above b: one
    # cell above its start in all. G(q, b) = 2, but the run reaches b one
    # cell down, so M = 1.
    spec = make_spec(
        ("q", "q1", "q2", "q3"),
        ("a", "b", "c", "d"),
        [
            ("q", "a", "q", ()),
            ("q", "b", "q1", ("c", "b")),
            ("q1", "c", "q2", ("d", "c")),
            ("q2", "d", "q3", ()),
            ("q3", "c", "q3", ()),
        ],
    )
    assert Summaries(spec).growth["q", "b"] == 2
    assert ref.growth(spec, [(q, ("a", "b")) for q in spec.states], CAP) == (1, False)
    safe = check_stack_overflow(spec, 1, "a b")
    assert (safe.outcome, safe.decided_by) == (SAFE, "lower-stack")
    unsafe = check_stack_overflow(spec, 0, "a b")
    assert (unsafe.outcome, unsafe.decided_by) == (UNSAFE, "lower-stack")
    assert unsafe.describe().splitlines() == [
        "verdict: Unsafe (k=3)",
        "witness: q: @top ^ a b",
        "trace: q a -> q; q b -> q1 c b; q1 c -> q2 d c",
    ]


def _overflow_sets(spec, m, lower):
    """The overflow checker's system and its initial and forbidden sets."""
    extended = make_spec(spec.states, spec.alphabet + (TOP_SENTINEL, FILLER), spec.rules)
    cells = (("sym", TOP_SENTINEL),) + (("sym", FILLER),) * m
    headroom = cells[0] if m == 0 else ("concat", cells)
    initial = _all_states_set(extended, headroom, parse_zone_regex(lower, spec.alphabet))
    unguarded = any_word(s for s in extended.alphabet if s != TOP_SENTINEL)
    forbidden = _all_states_set(extended, unguarded, any_word(extended.alphabet))
    return extended, initial, forbidden


def _agree(checked, alone, system, initial, forbidden, k):
    """The checker answers Unsafe exactly when decide_safety does at the
    same k, and then with a trace that replays from an initial member
    into the forbidden set within k phases; its `phase-bound` Unknown
    pairs only with decide_safety's Unknown, and its Safe with Safe or
    Unknown. Returns whether an Unknown became Safe."""
    pair = (checked.outcome, checked.decided_by, alone.outcome)
    assert pair in {
        (UNSAFE, "lower-stack", UNSAFE),
        (UNKNOWN, "phase-bound", UNKNOWN),
        (SAFE, "lower-stack", SAFE),
        (SAFE, "lower-stack", UNKNOWN),
    }, (checked, alone)
    if checked.outcome == UNSAFE:
        assert initial.accepts(checked.witness)
        assert forbidden.accepts(run_trace(system, checked.witness, checked.trace))
        assert count_phases(checked.trace) <= k, checked.describe()
    return checked.outcome != alone.outcome


@pytest.mark.parametrize("name", sorted(FIXTURE_LOWERS))
def test_checkers_agree_with_decide_safety_on_the_fixtures(name):
    model = parse_model(fixture_text(name))
    spec = model.spec
    safer = []
    for k in range(5):
        for set_name in model.set_names():
            initial = model.config_set(set_name)
            for symbol in spec.alphabet:
                forbidden = forbidden_read(spec, symbol)
                checked = check_upper_read(model, set_name, symbol, k=k)
                alone = decide_safety(spec, initial, forbidden, k)
                if _agree(checked, alone, spec, initial, forbidden, k):
                    safer.append(("read", set_name, symbol, k))
        for lower in FIXTURE_LOWERS[name]:
            for m in range(3):
                system, initial, forbidden = _overflow_sets(spec, m, lower)
                checked = check_stack_overflow(model, m, lower, k=k)
                alone = decide_safety(system, initial, forbidden, k)
                if _agree(checked, alone, system, initial, forbidden, k):
                    safer.append(("overflow", lower, m, k))
    # Every Unknown that turned Safe: e2's stack never grows from "a b",
    # whose cells it can only pop.
    expected = {
        "e1.upds": [],
        "e2.upds": [("overflow", "a b", m, k) for k in range(3) for m in range(3)],
        "relocate.upds": [],
    }[name]
    assert safer == expected


def test_new_stack_reads_are_decided_on_the_lower_stack():
    # The moved pointer leaves secret or canary just above it: each is read
    # at once, with no step. No run pops or exposes ret or bot.
    model = parse_model(fixture_text("relocate.upds"))
    for k in range(5):
        for symbol in ("secret", "canary"):
            verdict = check_upper_read(model, "NewStack", symbol, k=k)
            assert (verdict.outcome, verdict.decided_by, verdict.trace) == (
                UNSAFE, "lower-stack", ()
            ), (symbol, k)
            assert verdict.witness == Configuration("pivot", (symbol,), ("ret", "bot"))
        for symbol in ("ret", "bot"):
            verdict = check_upper_read(model, "NewStack", symbol, k=k)
            assert (verdict.outcome, verdict.decided_by) == (SAFE, "lower-stack"), (symbol, k)


def test_held_reads_match_the_exposure_reference():
    # Start sets whose upper zones hold the symbol, some members with an
    # empty lower word: the read checker answers Safe exactly when no run
    # from a member puts the symbol just above the boundary, by a pop or
    # by growing back up to a held copy, and every Unsafe replays within
    # k phases.
    rng, systems = _random_systems(53, 300, max_states=3, max_symbols=3, max_rules=8)
    counts = collections.Counter()
    for spec in systems:
        symbol, state = rng.choice(spec.alphabet), rng.choice(spec.states)
        members = set()
        for _ in range(rng.randint(1, 2)):
            upper = [rng.choice(spec.alphabet) for _ in range(rng.randint(0, 3))]
            upper.insert(rng.randint(0, len(upper)), symbol)
            lower = tuple(rng.choice(spec.alphabet) for _ in range(rng.randint(0, 3)))
            members.add((tuple(upper), lower))
        text = " | ".join(f"{' '.join(u)} ^ {' '.join(l) or '_'}" for u, l in sorted(members))
        initial = ConfigAutomaton(
            spec.alphabet, {state: compile_config_regex(text, spec.alphabet)}
        )
        found, capped = ref.exposes(spec, [(state, u, l) for u, l in members], symbol, CAP)
        popped, _ = ref.pops(spec, [(state, l) for _, l in members], symbol, CAP)
        for k in (1, 3):
            verdict = check_upper_read(spec, initial, symbol, k=k)
            if found or not capped:
                assert (verdict.outcome == SAFE) == (not found), (spec, text, symbol, k)
            if verdict.outcome == SAFE:
                assert verdict.decided_by == "lower-stack"
            elif verdict.outcome == UNSAFE:
                assert initial.accepts(verdict.witness)
                landed = run_trace(spec, verdict.witness, verdict.trace)
                assert landed.upper[-1:] == (symbol,)
                assert count_phases(verdict.trace) <= k
            counts[verdict.outcome, found and not popped] += 1
    # Of the 600 verdicts, 392 Unsafe turn on a held copy alone, no run
    # popping the symbol, and 46 are Safe; none is Unknown.
    assert counts[UNSAFE, True] >= 350 and counts[SAFE, False] >= 40


def test_a_trace_within_k_phases_is_found_past_a_shortest_one_that_is_not():
    # A search in the system would find the two-phase trace first; at k=1
    # the search in the copy that counts phases finds the one-phase trace,
    # as short, so the lower stack decides.
    model = parse_model(HIDDEN_ONE_PHASE)
    verdicts = {}
    for k, trace in ((1, "q1 g0 -> q0 g0; q0 g0 -> q0"), (2, "q1 g0 -> q0 g0 g0; q0 g0 -> q0")):
        verdicts[k] = verdict = check_upper_read(model, "I", "g0", k=k)
        assert (verdict.outcome, verdict.decided_by) == (UNSAFE, "lower-stack"), k
        assert verdict.describe().splitlines()[1:] == [
            "witness: q1: ^ g0 g0 g0", f"trace: {trace}"
        ], k
    # The rounds alone replay the same trace from the same witness.
    forbidden = forbidden_read(model.spec, "g0")
    alone = decide_safety(model.spec, model.config_set("I"), forbidden, 1)
    assert (alone.outcome, alone.decided_by) == (UNSAFE, "hit")
    assert (alone.witness, alone.trace) == (verdicts[1].witness, verdicts[1].trace)
    # No trace has 0 phases: the copy for k=0 shows no violation, and the
    # note names the start member from which the system's summaries show
    # one.
    assert check_upper_read(model, "I", "g0", k=0).describe().splitlines() == [
        "verdict: Unknown (k=0)",
        "note: no phase-bounded witness at k=0; a violation exists past k=0 from "
        "q1: ^ g0 g0 g0",
    ]


def test_the_phase_copy_runs_exactly_the_traces_within_k_phases():
    # Along random rule sequences that chain their states, a sequence
    # lifts to a run of the copy from (q, 0, None) exactly when it has at
    # most k phases, or, at k=0, when it has switches only (which
    # `count_phases` counts as one phase). The copy has the 2k+1 marks
    # that such runs reach.
    rng, systems = _random_systems(59, 60, max_states=3, max_symbols=3, max_rules=8)
    lifted = collections.Counter()
    for spec in systems:
        for k in range(4):
            copy, origin = phase_copy(spec, k)
            assert len(copy.states) == len(spec.states) * (2 * k + 1)
            step = collections.defaultdict(dict)
            for rule, copied in origin.items():
                step[rule.from_state][copied] = rule.to_state
            for _ in range(10):
                state = rng.choice(spec.states)
                at, trace = (state, 0, None), []
                while len(trace) < 8:
                    rules = [r for r in spec.rules if r.from_state == state]
                    if not rules:
                        break
                    trace.append(rng.choice(rules))
                    state = trace[-1].to_state
                    if at is not None:
                        at = step[at].get(trace[-1])
                    within = count_phases(trace) <= k or (
                        k == 0 and all(len(r.written) == 1 for r in trace)
                    )
                    assert (at is not None) == within, (spec, k, trace)
                    lifted[within] += 1
    assert lifted[True] >= 1000 and lifted[False] >= 1000


def test_the_witness_is_a_shortest_member_with_a_violation_within_k_phases():
    # From p: ^ b a run puts a above the boundary by a push and a pop, two
    # phases; from p: ^ c a by two pops, one phase. The system's summaries
    # show the shorter member, the copy's at k=1 the longer one, and the
    # trace is searched from it.
    model = parse_model(
        "states p\nalphabet a b c\nrule p b -> p a b\nrule p a -> p\nrule p c -> p\n"
        "set I p ^ ( b | c a )\n"
    )
    for k, witness, trace in ((2, "p: ^ b", "p b -> p a b; p a -> p"),
                              (1, "p: ^ c a", "p c -> p; p a -> p")):
        verdict = check_upper_read(model, "I", "a", k=k)
        assert (verdict.outcome, verdict.decided_by) == (UNSAFE, "lower-stack"), k
        assert verdict.describe().splitlines()[1:] == [
            f"witness: {witness}", f"trace: {trace}"
        ], k


def test_checkers_agree_with_decide_safety_on_random_systems():
    rng, systems = _random_systems(47, 30, max_states=3, max_symbols=3, max_rules=7)
    for spec in systems:
        state, _, lower = _finite_start(rng, spec)
        upper = " ".join(rng.choice(spec.alphabet) for _ in range(rng.randint(0, 2)))
        initial = ConfigAutomaton(
            spec.alphabet, {state: compile_config_regex(f"{upper} ^ {lower}", spec.alphabet)}
        )
        symbol = rng.choice(spec.alphabet)
        forbidden = forbidden_read(spec, symbol)
        m = rng.randint(0, 2)
        system, start, guarded = _overflow_sets(spec, m, lower)
        for k in range(5):
            checked = check_upper_read(spec, initial, symbol, k=k)
            _agree(checked, decide_safety(spec, initial, forbidden, k), spec, initial,
                   forbidden, k)
            checked = check_stack_overflow(spec, m, lower, k=k)
            _agree(checked, decide_safety(system, start, guarded, k), system, start,
                   guarded, k)


# The checker calls of the benchmark's cli workload: its README and
# fixture commands once each, and its variants three times.
_E1, _E2, _RELOCATE = "e1.upds", "e2.upds", "relocate.upds"
_ONCE = (
    ("read", _E1, "C1", "a"),
    ("overflow", _E1, 1, "x (y x)* bot"),
    ("read", _RELOCATE, "Boot", "secret"),
    ("read", _RELOCATE, "Boot", "ret"),
    ("read", _E2, "C2", "c"),
    ("read", _RELOCATE, "Boot", "canary"),
    ("overflow", _RELOCATE, 1, "ret bot"),
)
_THRICE = (
    [("read", _E1, "C1", s) for s in ("a", "b", "x", "y", "bot")]
    + [("read", _E2, "C2", s) for s in ("a", "b")]
    + [("read", _RELOCATE, "Boot", "bot")]
    + [("overflow", _E1, m, lower) for m in (0, 1, 2) for lower in ("x (y x)* bot", "x bot", "y x bot")]
    + [("overflow", _E2, m, "c") for m in (0, 1, 2)]
    + [("overflow", _RELOCATE, 0, "ret bot")]
)


def test_cli_checker_calls_are_decided_on_the_lower_stack():
    models = {name: parse_model(fixture_text(name)) for name in (_E1, _E2, _RELOCATE)}
    calls = list(_ONCE) + list(_THRICE) * 3
    assert len(calls) == 70
    left = []
    for kind, name, arg, more in calls:
        if kind == "read":
            verdict = check_upper_read(models[name], arg, more)
        else:
            verdict = check_stack_overflow(models[name], arg, more)
        if verdict.decided_by != "lower-stack":
            left.append((name, arg, more, verdict.outcome))
    # The canary's violation (push, pop, push, pop) needs 4 phases: at k=3
    # the summaries of the copy that counts phases show none, and the note
    # names the start member from which the system's summaries show one.
    assert left == [(_RELOCATE, "Boot", "canary", UNKNOWN)]
    canary = check_upper_read(models[_RELOCATE], "Boot", "canary")
    assert canary.describe().splitlines() == [
        "verdict: Unknown (k=3)",
        "note: no phase-bounded witness at k=3; a violation exists past k=3 from "
        "boot: ^ ret bot",
    ]
    assert canary.decided_by == "phase-bound"
    assert check_upper_read(models[_RELOCATE], "Boot", "canary", k=4).outcome == UNSAFE
