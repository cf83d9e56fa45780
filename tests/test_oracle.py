"""Bounded explorers: forward closure and phase-bounded backward closure."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cfg, e1_pumped, e1_seed, random_configuration, random_spec
from search_reference import (
    reference_members,
    reference_membership,
    reference_post,
    reference_pre_closure,
    reference_trace,
)
from upstack import membership
from upstack.configsets import ConfigAutomaton, from_config_set
from upstack.core import Configuration, count_phases, make_spec, run_trace, step, successors
from upstack.errors import MalformedInputError, ResourceLimitError
from upstack.extras import _predecessors
from upstack.fixtures import fixture_text
from upstack.literal import parse_config_literal
from upstack.membership import search, start_classes
from upstack.model import parse_model
from upstack.nfa import from_words
from upstack.oracle import (
    explore,
    is_reachable,
    oracle_post,
    oracle_pre_kphase,
    oracle_trace,
    search_trace,
)
from upstack.regex import compile_config_regex


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_a_depth_one_search_stores_the_successors_in_step_order(seed):
    # `explore` inlines `core.successors`: one layer from a configuration
    # stores its successors in that function's order, each with the rule
    # that first gives it, uncapped and capped at the start's own size.
    rng = random.Random(seed)
    spec = random_spec(rng, max_rules=12)
    for _ in range(8):
        c = random_configuration(rng, spec, max_side=3, allow_empty_lower=False)
        start = (c.state, c.upper, c.lower)
        moves = spec.moves.get((c.state, c.lower[0]), ())
        for cap, grow in ((None, True), (c.total_size, False)):
            expected = {}
            for rule, succ in successors(moves, c.upper, c.lower, grow):
                if succ != start:
                    expected.setdefault(succ, (start, rule))
            _, stored = explore(spec, [start], lambda t: False, cap, depth=1)
            assert list(stored.items()) == [(start, None), *expected.items()]


def test_forward_closure_contains_pumped_family(e1):
    # Minimal breadth-first depths derived once by running the explorer to
    # saturation: 3, 9, 17 for n = 0, 1, 2.
    for n, depth in ((0, 3), (1, 9), (2, 17)):
        goal = e1_pumped(n)
        got = oracle_post(e1, [e1_seed(n)], depth, goal.total_size)
        assert goal in got
        shallower = oracle_post(e1, [e1_seed(n)], depth - 1, goal.total_size)
        assert goal not in shallower


def test_forward_closure_sizes_are_stable(e1):
    assert len(oracle_post(e1, [e1_seed(1)], 9, 4)) == 15
    assert len(oracle_post(e1, [e1_seed(2)], 17, 6)) == 62


def test_forward_closure_respects_size_cap(e1):
    got = oracle_post(e1, [e1_seed(2)], 17, 5)
    assert all(c.total_size <= 5 for c in got)
    assert e1_pumped(2) not in got


def test_forward_closure_budget_is_honest(e2):
    with pytest.raises(ResourceLimitError) as info:
        oracle_post(e2, [cfg("p", "", "c")], 50, 40, node_budget=100)
    assert info.value.explored >= 100


def test_forward_closure_budget_error_names_the_search_budget(e2):
    # One engine, one message: the closure is the configuration search.
    with pytest.raises(ResourceLimitError, match="configuration search budget"):
        oracle_post(e2, [cfg("p", "", "c")], 50, 40, node_budget=10)


# -- the configuration search against the reference loops ---------------------

def _as_tuple(c):
    return (c.state, c.upper, c.lower)


def _outcome(search):
    try:
        return search()
    except ResourceLimitError as err:
        return ("budget", err.explored)


def test_search_and_closure_match_the_reference_loops():
    """On 200 random systems the tuple engine and the reference loops give
    the same traces (or None), the same closures and the same membership
    answers from a start automaton, and raise ResourceLimitError at the
    same budgets, found at each search's exact threshold."""
    rng = random.Random(20260418)
    hits = reachable = 0
    for _ in range(200):
        spec = random_spec(rng, max_rules=7)
        cap = rng.randint(1, 5)
        # Duplicates and starts above the cap included.
        starts = [random_configuration(rng, spec, max_side=3) for _ in range(rng.randint(1, 4))]
        starts += rng.sample(starts, rng.randint(0, len(starts)))
        depth = rng.choice((None, rng.randint(0, 6)))
        _, stored = explore(spec, list(map(_as_tuple, starts)), lambda c: False, cap, depth)
        # Half the goals are reachable, so most runs compare real traces.
        if rng.random() < 0.5:
            goal = Configuration(*rng.choice(sorted(stored)))
        else:
            goal = random_configuration(rng, spec, max_side=3)
        forbidden = from_config_set(spec, [goal, random_configuration(rng, spec)])

        for budget in sorted({0, 1, len(stored) - 1, len(stored), 10**6}):
            got = _outcome(lambda: search_trace(
                spec, starts, _as_tuple(goal).__eq__, cap, depth, budget))
            want = _outcome(lambda: reference_trace(
                spec, starts, goal.__eq__, cap, depth, budget))
            assert got == want, (spec.rules, starts, goal, cap, depth, budget)
            hits += got not in (None, ("budget", budget))

        post_depth = 6 if depth is None else depth
        full = reference_post(spec, starts, post_depth, cap, 10**6)
        for budget in sorted({0, 1, len(full) - 1, len(full), 10**6}):
            got = _outcome(lambda: oracle_post(spec, starts, post_depth, cap, budget))
            want = _outcome(lambda: reference_post(spec, starts, post_depth, cap, budget))
            assert got == want, (spec.rules, starts, cap, post_depth, budget)

        start = starts[0]
        got = oracle_trace(spec, start, forbidden.accepts, post_depth, cap + 1)
        want = reference_trace(spec, [start], forbidden.accepts, cap + 1, post_depth, 10**6)
        assert got == want

        # Membership walks the start automaton's members into the search,
        # which stores each configuration up to the goal's upper word and
        # meets a backward search from the goal.
        start_set = from_config_set(spec, starts)
        members = reference_members(start_set, goal.total_size)
        answer, forward, backward = reference_membership(spec, members, goal, 10**6)
        stored = forward + backward
        assert answer == (reference_trace(
            spec, members, goal.__eq__, goal.total_size, None, 10**6) is not None)
        assert search(spec, start_set, goal, 10**6) == (answer, stored)
        for budget in sorted({0, 1, stored - 1, stored}):
            got = _outcome(lambda: is_reachable(spec, start_set, goal, budget))
            want = _outcome(lambda: reference_membership(spec, members, goal, budget)[0])
            assert got == want, (spec.rules, starts, goal, budget)
            reachable += got is True
    assert hits > 200
    assert reachable > 50


def _upper_start_set(rng, spec):
    """One to three configurations with nonempty upper words, or an
    infinite set whose members all have one."""
    if rng.random() < 0.5:
        starts, count = [], rng.randint(1, 3)
        while len(starts) < count:
            c = random_configuration(rng, spec, max_side=3)
            if c.upper:
                starts.append(c)
        return from_config_set(spec, starts)
    a, b, c, d, e = (rng.choice(spec.alphabet) for _ in range(5))
    nfa = compile_config_regex(f"{a} ({b} | {c})* ^ {d} {e}*", alphabet=spec.alphabet)
    return ConfigAutomaton(spec.alphabet, {rng.choice(spec.states): nfa})


def test_membership_up_to_the_goal_upper_word_agrees_with_the_concrete_search():
    """On 2000 random systems, with starts and goals whose upper words are
    nonempty, `is_reachable` and the class search answer as the search
    that stores every upper word as it is. Neither side of the class
    search stores more than the concrete search of its direction: the
    forward side than the forward search from the starts, the backward
    side than the configurations that reach the goal. Without links the
    forward search stores the same configurations in the same order."""
    rng = random.Random(20261018)
    reachable = fewer = 0
    for _ in range(2000):
        spec = random_spec(rng, max_rules=7)
        start_set = _upper_start_set(rng, spec)
        # Half the goals come from the concrete closure, so many are hits.
        _, region = explore(spec, start_set.members(4), lambda c: False, 4)
        uppers = sorted(c for c in region if c[1])
        if uppers and rng.random() < 0.5:
            goal = Configuration(*rng.choice(uppers))
        else:
            goal = random_configuration(rng, spec, max_side=3)
            goal = Configuration(goal.state, goal.upper or spec.alphabet[:1], goal.lower)
        size, target = goal.total_size, _as_tuple(goal)
        hit, concrete = explore(spec, start_set.members(size), target.__eq__, size)
        answer = is_reachable(spec, start_set, goal)
        assert answer == (hit is not None), (spec.rules, goal)
        reduced_hit, reduced = search(spec, start_set, goal, 10**6)
        assert reduced_hit is answer
        starts = [Configuration(*c) for c in start_set.members(size)]
        ref_answer, forward, backward = reference_membership(spec, starts, goal, 10**6)
        assert (ref_answer, forward + backward) == (answer, reduced)
        assert forward <= len(concrete)
        assert backward <= len(reference_pre_closure(spec, goal))
        unlinked_hit, unlinked = explore(
            spec, start_set.members(size), target.__eq__, size, links=False
        )
        assert unlinked_hit == hit and list(unlinked) == list(concrete)
        assert not any(unlinked.values())
        reachable += answer
        fewer += forward < len(concrete)
    assert reachable > 800
    assert fewer > 200


def test_a_dry_chain_agrees_with_the_concrete_search_on_upper_zones(monkeypatch):
    """On 1500 random systems, with start sets whose members all have
    nonempty upper words, `is_reachable` answers as the concrete reference
    search from the same members. Goals are met on runs from the starts,
    or are starts with one cell changed, or random, so that many chains
    run dry, holding a start and not, on classes with a prefix shared with
    the goal's upper word and with cells above it. The benchmark's start
    sets have empty upper zones, so they never reach that part of the
    class test. A dry chain seldom stores a cell above a prefix shorter
    than the goal's upper word: undoing a push there also extends the
    prefix, so the frontier branches. `test_configsets` covers that case
    of the class test."""
    walked, tested = [], []
    walk, test = membership.start_classes, membership._holds_start
    monkeypatch.setattr(membership, "start_classes", lambda *a: walked.append(a) or walk(*a))
    monkeypatch.setattr(membership, "_holds_start", lambda *a: tested.append(a) or test(*a))
    rng = random.Random(20261020)
    covered = Counter()
    for _ in range(1500):
        spec = random_spec(rng, max_rules=7)
        start_set = _upper_start_set(rng, spec)
        starts = list(start_set.members(5))
        _, region = explore(spec, starts, lambda c: False, 5)
        roll = rng.random()
        if roll < 0.4 and region:
            goal = Configuration(*rng.choice(sorted(region)))
        elif roll < 0.7 and starts:
            state, upper, lower = rng.choice(starts)
            cell = rng.randrange(len(upper))
            upper = upper[:cell] + (rng.choice(spec.alphabet),) + upper[cell + 1:]
            goal = Configuration(state, upper, lower)
        else:
            goal = random_configuration(rng, spec, max_side=3)
        size = goal.total_size
        members = reference_members(start_set, size)
        want = reference_trace(spec, members, goal.__eq__, size, None, 10**6) is not None
        walked.clear()
        tested.clear()
        assert is_reachable(spec, start_set, goal) is want, (spec.rules, goal)
        covered["walked" if walked else "dry", want] += 1
        if tested:
            held = [c for c in tested[0][2] if c[0] in start_set.components]
            covered["shared", want] += any(shared for _, shared, _, _ in held)
            covered["above", want] += any(above for _, _, above, _ in held)
    assert min(covered.values()) >= 10, covered


def test_membership_stores_each_configuration_up_to_the_goal_upper_word(e1, c1):
    # Work counts on e1 from C1, pinned: the pumped p2: a a a b b ^ bot
    # (reachable) and p2: x a a b b ^ bot (not). Both sides count: the
    # backward side stores more here than it saves the forward one.
    unreachable = cfg("p2", "x a a b b", "bot")
    for goal, concrete, reduced in ((e1_pumped(2), 112, 98), (unreachable, 112, 89)):
        size, target = goal.total_size, _as_tuple(goal)
        _, stored = explore(e1, c1.members(size), target.__eq__, size)
        assert len(stored) == concrete
        answer = goal == e1_pumped(2)
        assert search(e1, c1, goal, 10**6) == (answer, reduced)
        # The membership budget counts what the class search stores.
        assert is_reachable(e1, c1, goal, budget=reduced) is answer
        with pytest.raises(ResourceLimitError) as info:
            is_reachable(e1, c1, goal, budget=reduced - 1)
        assert info.value.explored == reduced - 1


# What `member --budget` counts on the benchmark's e1 family, pinned: the
# classes `search` stores for p2: a^(n+1) b^n ^ bot (reachable) and
# p2: x a^n b^n ^ bot (not) from C1, n = 0..3, and for the first from the
# wide set, n = 0..1.
_PINNED_COUNTS = {
    ("C1", 0): ((True, 4), (False, 2)),
    ("C1", 1): ((True, 26), (False, 29)),
    ("C1", 2): ((True, 98), (False, 89)),
    ("C1", 3): ((True, 244), (False, 173)),
    ("Wide", 0): ((True, 4), None),
    ("Wide", 1): ((True, 90), None),
}


@pytest.mark.parametrize("set_name, n", _PINNED_COUNTS)
def test_member_budget_counts_are_pinned_on_the_e1_family(set_name, n):
    model = parse_model(fixture_text("e1.upds") + "set Wide p ^ (x | y | a | b)* bot\n")
    start_set = model.config_set(set_name)
    pumped = " ".join(["a"] * (n + 1) + ["b"] * n)
    probes = (f"p2: {pumped} ^ bot", f"p2: x {pumped[2:]} ^ bot")
    for text, pinned in zip(probes, _PINNED_COUNTS[set_name, n]):
        if pinned is None:
            continue
        goal = parse_config_literal(model.spec, text)
        assert search(model.spec, start_set, goal, 10**6) == pinned, text
        answer, stored = pinned
        assert is_reachable(model.spec, start_set, goal, budget=stored) is answer
        with pytest.raises(ResourceLimitError):
            is_reachable(model.spec, start_set, goal, budget=stored - 1)


def test_the_budget_bounds_the_start_walk(monkeypatch):
    # The wide set's lower zone over four symbols is never merged, so its
    # start layers grow fourfold per size. The search takes the start
    # classes as each layer is built, so a small budget stops the walk a
    # few layers in, whatever the goal's size: about 40 KB traced here.
    # A walk that built every layer up to p2: a^4 b^3 ^ bot first would
    # trace about 9 MB, and 4^15 entries at p2: a^9 b^8 ^ bot.
    model = parse_model(fixture_text("e1.upds") + "set Wide p ^ (x | y | a | b)* bot\n")
    goal = parse_config_literal(model.spec, "p2: a a a a b b b ^ bot")
    walk, taken = membership.start_classes, []

    def counted(*args):
        for c in walk(*args):
            taken.append(c)
            yield c

    monkeypatch.setattr(membership, "start_classes", counted)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        with pytest.raises(ResourceLimitError) as info:
            is_reachable(model.spec, model.config_set("Wide"), goal, budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert info.value.explored == 100
    assert 0 < len(taken) <= 100
    assert peak < 1_000_000


def test_an_upper_rich_start_set_walks_classes_not_words(e1):
    # p (x | y | a | b)* ^ x bot has 87,381 members no larger than the
    # probe p2: a^5 b^4 ^ bot. Counted against the probe's upper word they
    # fall into 45 classes, one per (shared, above) with shared + above
    # <= 8. The walk yields 47: two repeats come from a layer too short to
    # merge, and stay, as entries past the upper zone are never merged.
    # Counts pinned, not timings.
    upper_rich = ConfigAutomaton(
        e1.alphabet, {"p": compile_config_regex("(x | y | a | b)* ^ x bot", alphabet=e1.alphabet)}
    )
    goal = cfg("p2", "a a a a a b b b b", "bot")
    classes = list(start_classes(upper_rich, goal.upper, goal.total_size))
    assert (len(classes), len(set(classes))) == (47, 45)
    assert search(e1, upper_rich, goal, 10**6) == (True, 299)
    assert is_reachable(e1, upper_rich, goal, budget=299)
    with pytest.raises(ResourceLimitError):
        is_reachable(e1, upper_rich, goal, budget=298)


def _upper_rich(e1):
    return ConfigAutomaton(
        e1.alphabet, {"p": compile_config_regex("(x | y | a | b)* ^ x bot", alphabet=e1.alphabet)}
    )


def test_a_probe_without_predecessors_is_decided_backward(e1):
    # No rule writes y, and the pops into p read a or b, not the x that
    # ends the probe's upper word: p: x ^ y bot has no predecessor. The
    # backward side goes first, alone, and runs dry at once: the goal's
    # class is all the search stores, and no start falls in it. The
    # forward search alone stores 24 configurations.
    goal = cfg("p", "x", "y bot")
    size, target = goal.total_size, _as_tuple(goal)
    assert len(explore(e1, _upper_rich(e1).members(size), target.__eq__, size)[1]) == 24
    assert search(e1, _upper_rich(e1), goal, 10**6) == (False, 1)
    assert not is_reachable(e1, _upper_rich(e1), goal, budget=1)
    with pytest.raises(ResourceLimitError):
        is_reachable(e1, _upper_rich(e1), goal, budget=0)


def test_the_backward_side_meets_a_start(e1):
    # p: x ^ a bot has one predecessor, p: x ^ x bot by the switch
    # p x -> p a, and it has none, so the backward side, going first and
    # alone, runs dry after storing two classes. The second holds a
    # start, p: x ^ x bot itself.
    goal = cfg("p", "x", "a bot")
    assert search(e1, _upper_rich(e1), goal, 10**6) == (True, 2)
    assert is_reachable(e1, _upper_rich(e1), goal, budget=2)
    with pytest.raises(ResourceLimitError):
        is_reachable(e1, _upper_rich(e1), goal, budget=1)


def test_a_chain_that_runs_dry_never_walks_the_start_set(e1, c1, monkeypatch):
    # Each goal's predecessors form a chain of single classes that runs
    # dry, so the answer comes from the classes it stored: the start set
    # is never walked, and the stored counts are the chains' lengths.
    def refuse(*args):
        raise AssertionError("the start set was walked")

    monkeypatch.setattr(membership, "start_classes", refuse)
    for start_set, goal, decided in (
        (_upper_rich(e1), cfg("p", "x", "y bot"), (False, 1)),
        (_upper_rich(e1), cfg("p", "x", "a bot"), (True, 2)),
        (c1, cfg("p2", "a", "bot"), (True, 4)),
        (c1, cfg("p2", "b", "bot"), (False, 4)),
    ):
        assert search(e1, start_set, goal, 10**6) == decided, goal
        assert is_reachable(e1, start_set, goal) is decided[0]


def test_membership_refuses_a_start_set_outside_the_system(e1):
    # The members go into the search unchecked, so the set's states and
    # alphabet are checked against the system once, up front.
    probe = cfg("p2", "a", "bot")
    words = from_words([("bot",)])
    with pytest.raises(MalformedInputError, match="undeclared state"):
        is_reachable(e1, ConfigAutomaton(e1.alphabet, {"nowhere": words}), probe)
    with pytest.raises(MalformedInputError, match="undeclared symbol"):
        is_reachable(e1, ConfigAutomaton(e1.alphabet + ("zz",), {"p": words}), probe)


def test_push_onto_an_empty_upper_word_at_the_cap_is_dropped():
    spec = make_spec(("p",), ("a", "b"), [("p", "a", "p", ("a", "b"))])
    (push,) = spec.rules
    start, grown = cfg("p", "", "a"), cfg("p", "", "a b")
    assert oracle_post(spec, [start], 3, 1) == {start}
    assert search_trace(spec, [start], _as_tuple(grown).__eq__, 1) is None
    assert oracle_post(spec, [start], 1, 2) == {start, grown}
    assert search_trace(spec, [start], _as_tuple(grown).__eq__, 2) == (push,)
    # Onto a nonempty upper word the push keeps the size, so the cap keeps it.
    full = cfg("p", "b", "a")
    assert oracle_post(spec, [full], 1, 2) == {full, grown}


def test_a_start_above_the_cap_is_kept_by_the_search_but_not_by_the_closure(e1):
    big = e1_seed(1)
    cap = big.total_size - 1
    assert search_trace(e1, [big], _as_tuple(big).__eq__, cap) == ()
    hit, stored = explore(e1, [_as_tuple(big)], lambda c: False, cap)
    assert hit is None and stored == {_as_tuple(big): None}
    assert oracle_post(e1, [big], 5, cap) == frozenset()
    assert oracle_post(e1, [big, e1_seed(0)], 5, cap) == oracle_post(e1, [e1_seed(0)], 5, cap)


def test_budgets_reached_exactly(e1):
    seed = e1_seed(1)
    start = [_as_tuple(seed)]
    _, stored = explore(e1, start, lambda c: False, seed.total_size)
    explore(e1, start, lambda c: False, seed.total_size, node_budget=len(stored))
    with pytest.raises(ResourceLimitError) as info:
        explore(e1, start, lambda c: False, seed.total_size, node_budget=len(stored) - 1)
    assert info.value.explored == len(stored) - 1

    reached = oracle_post(e1, [seed], 9, 4)
    assert oracle_post(e1, [seed], 9, 4, node_budget=len(reached)) == reached
    with pytest.raises(ResourceLimitError) as info:
        oracle_post(e1, [seed], 9, 4, node_budget=len(reached) - 1)
    assert info.value.explored == len(reached) - 1
    # The closure never refuses its starts: the budget bounds what it adds.
    starts = [e1_seed(0), cfg("p", "", "y x bot"), cfg("p2", "", "bot")]
    assert oracle_post(e1, starts, 0, 4, node_budget=1) == frozenset(starts)
    with pytest.raises(ResourceLimitError) as info:
        oracle_post(e1, starts, 1, 4, node_budget=1)
    assert info.value.explored == 3


def test_within_drops_successors_before_they_are_stored_or_counted():
    # The push comes first in declaration order and grows the lower word
    # without end; `within` rejects it, so an uncapped search with room
    # for two configurations still reaches q.
    spec = make_spec(
        ("p", "q"), ("a",), [("p", "a", "p", ("a", "a")), ("p", "a", "q", ("a",))]
    )
    _, switch = spec.rules
    start = cfg("p", "", "a")

    def short(c):
        return len(c[2]) <= 1

    def in_q(c):
        return c[0] == "q"

    hit, stored = explore(spec, [_as_tuple(start)], in_q, None, node_budget=2, within=short)
    assert hit == ("q", (), ("a",))
    assert stored == {_as_tuple(start): None, hit: (_as_tuple(start), switch)}
    with pytest.raises(ResourceLimitError):
        explore(spec, [_as_tuple(start)], in_q, None, node_budget=2)
    trace = oracle_trace(
        spec, start, lambda c: c.state == "q", None, None, 2, within=lambda c: len(c.lower) <= 1
    )
    assert trace == (switch,)
    # Uncapped and unrestricted, the depth alone bounds the growth.
    _, stored = explore(spec, [_as_tuple(start)], lambda c: False, None, depth=3)
    assert max(len(lower) for _, _, lower in stored) == 4


def test_backward_closure_two_phase_example(e2):
    pre = oracle_pre_kphase(e2, [cfg("p", "a b", "c")], 4, 2, 8)
    assert cfg("p", "b", "c c") in pre
    assert cfg("p", "b", "c c") not in oracle_pre_kphase(e2, [cfg("p", "a b", "c")], 4, 1, 8)


def test_backward_closure_zero_phases_is_identity(e2):
    targets = [cfg("p", "a b", "c"), cfg("p", "", "c")]
    assert oracle_pre_kphase(e2, targets, 6, 0, 8) == frozenset(targets)


def test_backward_closure_four_phase_family_member(e2):
    targets = [cfg("p", "a b " * m, "c") for m in range(3)]
    member = cfg("p", "b b", "c c c")
    assert member in oracle_pre_kphase(e2, targets, 8, 4, 9)
    assert member not in oracle_pre_kphase(e2, targets, 8, 3, 9)


def test_backward_closure_monotone_in_k_and_depth(e2):
    targets = [cfg("p", "a b", "c")]
    sets = [oracle_pre_kphase(e2, targets, 6, k, 8) for k in range(4)]
    for smaller, larger in zip(sets, sets[1:]):
        assert smaller <= larger
    by_depth = [oracle_pre_kphase(e2, targets, d, 2, 8) for d in range(6)]
    for smaller, larger in zip(by_depth, by_depth[1:]):
        assert smaller <= larger


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_predecessors_invert_step(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    c = random_configuration(rng, spec, max_side=3)
    for rule, pred in _predecessors(spec, c):
        assert (rule, c) in step(spec, pred)
    # And the other way: every successor lists us among its predecessors.
    for rule, succ in step(spec, c):
        assert (rule, c) in _predecessors(spec, succ)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_backward_closure_agrees_with_forward_replay(seed):
    """Every configuration the backward search returns really reaches a
    target within the phase bound; found by replaying forward."""
    rng = random.Random(seed)
    spec = random_spec(rng)
    targets = {random_configuration(rng, spec, max_side=2) for _ in range(2)}
    k = rng.randint(0, 3)
    pre = oracle_pre_kphase(spec, targets, 6, k, 8)
    for c in pre:
        # Forward breadth-first search for a witness trace.
        frontier = [(c, ())]
        seen = {c}
        witness = (c in targets) and count_phases(()) <= k
        for _ in range(6):
            if witness:
                break
            nxt = []
            for conf, trace in frontier:
                for rule, succ in step(spec, conf):
                    t = trace + (rule,)
                    if succ in targets and count_phases(t) <= k:
                        witness = True
                        break
                    if succ not in seen and succ.total_size <= 8 and len(t) < 6:
                        seen.add(succ)
                        nxt.append((succ, t))
                if witness:
                    break
            frontier = nxt
        assert witness, f"{c} not confirmed forward"


def test_run_trace_replays_backward_example(e2):
    c0, c1, r_a, r_b = e2.rules
    assert run_trace(e2, cfg("p", "b", "c c"), (c0, r_a, r_b)) == cfg("p", "a b", "c")
    assert count_phases((c0, r_a, r_b)) == 2
