import random
from collections import deque

import pytest

from upstack.configsets import ConfigAutomaton, bar, from_config_set, union_sets
from upstack.core import Configuration, RuleKind, make_spec, run_trace, trace_upper_word
from upstack.errors import MalformedInputError, RuleNotEnabledError
from upstack.extras import upper_config_set
from upstack.grammar import single_origin
from upstack.nfa import EPSILON, Nfa, from_words
from upstack.oracle import explore, oracle_post
from upstack.regex import compile_config_regex
from upstack.upperapprox import (
    TraceAutomaton,
    UpperAutomaton,
    _close_upper,
    overapprox_post,
    saturate_upper,
    trace_overapprox,
)

from conftest import (
    cfg,
    random_configuration,
    random_spec,
    random_trace_automaton,
)
from equivalence_reference import equivalent
import upper_reference


def trace_paths(at, max_len):
    """Accepted rule sequences with their end nodes, node-resolved."""
    out = []
    frontier = [(node, ()) for node in at.nfa.eps_closure(at.nfa.initial)]
    while frontier:
        node, seq = frontier.pop()
        out.append((seq, node))
        if len(seq) == max_len:
            continue
        for label, dst in at.nfa.out_edges(node):
            targets = (
                at.nfa.eps_closure([dst]) if label is EPSILON else [dst]
            )
            for nxt in targets:
                if label is EPSILON:
                    frontier.append((nxt, seq))
                else:
                    frontier.append((nxt, seq + (label,)))
    return out


def upper_paths(au, max_len):
    """Words with their end nodes along the saturated automaton; entry
    mirrors resolve to the trace nodes they stand for."""
    out = set()
    frontier = [(node, ()) for node in au.nfa.eps_closure(au.nfa.initial)]
    seen = set(frontier)
    while frontier:
        node, word = frontier.pop()
        out.add((word, au.entries.get(node, node)))
        if len(word) == max_len:
            continue
        for label, dst in au.nfa.out_edges(node):
            nxt = (dst, word if label is EPSILON else word + (label,))
            if nxt not in seen and len(nxt[1]) <= max_len:
                seen.add(nxt)
                frontier.append(nxt)
    return out


def saturation_additions(at, up):
    """Re-state the three rules; the fixpoint admits no addition."""
    missing = []
    for q0, rule, q1 in at.nfa.edges():
        if rule is EPSILON or rule.kind is RuleKind.SWITCH:
            if not up.has_edge(q0, EPSILON, q1):
                missing.append((q0, EPSILON, q1))
        elif rule.kind is RuleKind.POP:
            if not up.has_edge(q0, rule.read_symbol, q1):
                missing.append((q0, rule.read_symbol, q1))
        else:
            for q in up.nodes():
                reaches = any(
                    label is not EPSILON and q0 in up.eps_closure([mid])
                    for label, mid in up.out_edges(q)
                )
                if reaches and not up.has_edge(q, EPSILON, q1):
                    missing.append((q, EPSILON, q1))
            for q in up.initial:
                if q0 in up.eps_closure([q]) and not up.has_edge(q, EPSILON, q1):
                    missing.append((q, EPSILON, q1))
    return missing


# -- trace abstraction -------------------------------------------------------

def test_control_graph_accepts_real_and_fake(e1, c1):
    s_x, s_y, c, r_a, r_b, e = e1.rules
    at = trace_overapprox(e1, c1)
    at.validate()
    assert at.accepts([s_x, r_a])
    assert at.accepts([s_x, c, r_a, r_b, e])
    assert run_trace(e1, cfg("p", "", "x bot"), (s_x, c, r_a, r_b, e))
    with pytest.raises(RuleNotEnabledError):
        run_trace(e1, cfg("p", "", "x bot"), (s_x, s_x))
    # A pop forgets the top: this sequence is not runnable (bot is on
    # top after the pop) but any rule of p may follow an unknown top.
    assert at.accepts([s_x, r_a, r_b])
    with pytest.raises(RuleNotEnabledError):
        run_trace(e1, cfg("p", "", "x bot"), (s_x, r_a, r_b))


def test_no_rules_accepts_only_empty(e2):
    spec = make_spec(e2.states, e2.alphabet, [])
    at = trace_overapprox(spec, from_config_set(spec, [cfg("p", "", "c")]))
    assert at.accepts([])
    assert list(at.nfa.labels()) == []


def test_refined_abstraction_is_tighter_and_sound(e1, c1):
    s_x = e1.rules[0]
    refined = trace_overapprox(e1, c1)
    refined.validate()
    assert refined.accepts([s_x, e1.rules[3]])
    assert not refined.accepts([s_x, s_x])


def test_refined_empty_lower_members():
    spec = make_spec(("p",), ("a",), [("p", "a", "p", ())])
    configs = from_config_set(spec, [cfg("p", "a", "")])
    at = trace_overapprox(spec, configs)
    assert at.accepts([])


def test_trace_overapprox_sound_on_random_traces():
    rng = random.Random(1199)
    for _ in range(25):
        spec = random_spec(rng)
        members = [
            random_configuration(rng, spec, allow_empty_lower=False)
            for _ in range(2)
        ]
        configs = from_config_set(spec, members)
        at = trace_overapprox(spec, configs)
        frontier = deque((m, ()) for m in members)
        count = 0
        while frontier and count < 400:
            current, seq = frontier.popleft()
            count += 1
            assert at.accepts(seq)
            if len(seq) >= 6 or current.total_size > 7:
                continue
            from upstack.core import step

            for rule, succ in step(spec, current):
                frontier.append((succ, seq + (rule,)))


def test_trace_automaton_validation(e1):
    s_x = e1.rules[0]
    nfa = Nfa()
    nfa.add_initial("n")
    nfa.add_final("n")
    nfa.add_edge("n", s_x, "m")
    nfa.add_final("m")
    with pytest.raises(MalformedInputError):
        TraceAutomaton(nfa, {"n": "p2", "m": "p"}).validate()
    with pytest.raises(MalformedInputError):
        TraceAutomaton(nfa, {"n": "p"}).validate()
    open_prefix = Nfa()
    open_prefix.add_initial("n")
    open_prefix.add_edge("n", s_x, "m")
    with pytest.raises(MalformedInputError):
        TraceAutomaton(open_prefix, {"n": "p", "m": "p"}).validate()


# -- saturation ---------------------------------------------------------------

def test_saturate_single_pop_edge():
    spec = make_spec(("p", "p2"), ("a",), [("p", "a", "p2", ())])
    pop = spec.rules[0]
    nfa = Nfa()
    nfa.add_initial("i")
    nfa.add_final("i")
    nfa.add_edge("i", pop, "q")
    nfa.add_final("q")
    at = TraceAutomaton(nfa, {"i": "p", "q": "p2"})
    au = saturate_upper(at, cfg("p", "", "a"))
    assert au.nfa.has_edge("i", "a", "q")
    slices = upper_config_set(au)
    assert equivalent(slices["p2"], from_words([("a",)]))
    assert equivalent(slices["p"], from_words([()]))


def test_saturate_empty_trace_automaton(e1):
    nfa = Nfa()
    nfa.add_initial("i")
    nfa.add_final("i")
    at = TraceAutomaton(nfa, {"i": "p"})
    au = saturate_upper(at, cfg("p", "", "x"))
    assert au.nfa.edge_count() == 0
    slices = upper_config_set(au)
    assert list(slices) == ["p"]
    assert equivalent(slices["p"], from_words([()]))


def test_saturate_push_on_exhausted_upper(e1):
    # Prefix language of s_x then c then r_a: the push edge must learn
    # that the word before it can already be empty (the switch kept it
    # empty), which shows up as an extra epsilon edge from the initial
    # node past the push.
    s_x, _, c, r_a, _, _ = e1.rules
    nfa = Nfa()
    nfa.add_initial("n0")
    for name in ("n0", "n1", "n2", "n3"):
        nfa.add_final(name)
    nfa.add_edge("n0", s_x, "n1")
    nfa.add_edge("n1", c, "n2")
    nfa.add_edge("n2", r_a, "n3")
    at = TraceAutomaton(nfa, {name: "p" for name in ("n0", "n1", "n2", "n3")})
    au = saturate_upper(at, cfg("p", "", "x"))
    assert au.nfa.has_edge("n0", EPSILON, "n2")
    words_to_n3 = {word for word, node in upper_paths(au, 3) if node == "n3"}
    assert words_to_n3 == {("a",)}


def test_saturate_requires_empty_origin_upper(e1, c1):
    at = trace_overapprox(e1, c1)
    with pytest.raises(MalformedInputError):
        saturate_upper(at, cfg("p", "a", "bot"))


def test_saturation_is_fixpoint(e1, c1):
    at = trace_overapprox(e1, c1)
    au = saturate_upper(at, cfg("p", "", "x bot"))
    assert saturation_additions(at, au.nfa) == []


def test_saturation_fixpoint_on_random_automata():
    rng = random.Random(777)
    for _ in range(20):
        spec = random_spec(rng)
        at = random_trace_automaton(rng, spec)
        au = saturate_upper(at, Configuration(spec.states[0], (), ()))
        assert saturation_additions(at, au.nfa) == []


def test_saturation_order_independent(e1, c1):
    at = trace_overapprox(e1, c1)
    reference = saturate_upper(at, cfg("p", "", "x bot"))
    rng = random.Random(5)
    for _ in range(4):
        edges = list(at.nfa.edges())
        rng.shuffle(edges)
        shuffled = Nfa()
        for node in at.nfa.nodes():
            shuffled.add_node(node)
            shuffled.add_final(node)
        for node in at.nfa.initial:
            shuffled.add_initial(node)
        for src, label, dst in edges:
            shuffled.add_edge(src, label, dst)
        redone = saturate_upper(
            TraceAutomaton(shuffled, dict(at.owner)), cfg("p", "", "x bot")
        )
        assert set(redone.nfa.edges()) == set(reference.nfa.edges())


def test_saturation_sound_for_trace_upper_words():
    rng = random.Random(31)
    cases = 0
    for _ in range(20):
        spec = random_spec(rng)
        at = random_trace_automaton(rng, spec)
        origin = Configuration(spec.states[0], (), (spec.alphabet[0],))
        au = saturate_upper(at, origin)
        for seq, node in trace_paths(at, 6):
            word = trace_upper_word(spec, seq, origin)
            assert node in au.nfa.run(word)
            cases += 1
    assert cases > 200


def test_saturation_words_have_witness_sequences():
    rng = random.Random(47)
    unresolved = 0
    total = 0
    for _ in range(60):
        spec = random_spec(rng)
        at = random_trace_automaton(rng, spec)
        origin = Configuration(spec.states[0], (), (spec.alphabet[0],))
        au = saturate_upper(at, origin)
        targets = {pair for pair in upper_paths(au, 4)}
        witnessed = set()
        for seq, node in trace_paths(at, 10):
            witnessed.add((trace_upper_word(spec, seq, origin), node))
        for pair in targets:
            total += 1
            if pair not in witnessed:
                unresolved += 1
    assert total > 100
    assert unresolved <= total * 0.01, f"{unresolved}/{total} words unwitnessed"


def _assert_same_upper(at, origin):
    au = saturate_upper(at, origin)
    expected = upper_reference.saturate_upper(at, origin)
    assert au.nfa.same(expected.nfa)
    assert au.owner == expected.owner
    assert au.entries == expected.entries


def test_constructions_match_the_reference():
    # Random sets on random systems, the single-origin extension of each
    # set seeded from its origin, and random trace automata; the closure
    # seeded from each set as well as from each origin.
    rng = random.Random(2029)
    for _ in range(40):
        spec = random_spec(rng)
        configs = from_config_set(spec, [random_configuration(rng, spec) for _ in range(2)])
        so = single_origin(spec, configs)
        seeded = from_config_set(so.spec, [so.origin])
        empty = Configuration(spec.states[0], (), ())
        for system, start, origin in ((spec, configs, empty), (so.spec, seeded, so.origin)):
            at = trace_overapprox(system, start)
            expected = upper_reference.trace_overapprox(system, start)
            assert at.nfa.same(expected.nfa)
            assert at.owner == expected.owner
            _assert_same_upper(at, origin)
            seed = upper_reference.set_seed(start)[0]
            closed = _close_upper(at, seed.copy(), at.owner).nfa
            assert closed.same(upper_reference.close_upper(at, seed))
        _assert_same_upper(random_trace_automaton(rng, spec), empty)


# -- the product over-approximation ------------------------------------------

def test_overapprox_examples(e1, c1):
    over = overapprox_post(e1, c1)
    assert over.accepts(cfg("p2", "a", "bot"))
    assert over.accepts(cfg("p", "", "x y x bot"))
    assert not over.accepts(cfg("p", "", "a"))


def test_overapprox_no_rules_is_the_start_set():
    # Nothing moves, so the set holds the members and nothing else: no
    # pairing of one member's upper word with another's lower word.
    spec = make_spec(("p", "q"), ("a", "b"), [])
    configs = from_config_set(
        spec, [cfg("p", "a", "b"), cfg("p", "b", ""), cfg("q", "", "a")]
    )
    over = overapprox_post(spec, configs)
    assert over.same(configs.compact())
    for probe, expect in [
        (cfg("p", "a", "b"), True),
        (cfg("p", "b", ""), True),
        (cfg("q", "", "a"), True),
        (cfg("p", "a", ""), False),
        (cfg("p", "b", "b"), False),
        (cfg("q", "a", "a"), False),
        (cfg("p", "", "a"), False),
    ]:
        assert over.accepts(probe) is expect, probe


def test_overapprox_contains_oracle_post(e1, e2, c1, c2):
    for spec, configs in ((e1, c1), (e2, c2)):
        over = overapprox_post(spec, configs)
        members = configs.enumerate_configs(6)
        for reached in oracle_post(spec, members, depth=6, size_cap=8):
            assert over.accepts(reached), reached


def test_overapprox_sound_on_random_systems():
    rng = random.Random(6061)
    for _ in range(25):
        spec = random_spec(rng)
        members = [random_configuration(rng, spec) for _ in range(2)]
        configs = from_config_set(spec, members)
        over = overapprox_post(spec, configs)
        for reached in oracle_post(spec, members, depth=6, size_cap=8):
            assert over.accepts(reached), reached


def _random_zone(rng, symbols, depth=2) -> str:
    """A random zone expression over the symbols, '_' for the empty word."""
    kind = rng.choice(("sym", "sym", "empty") + (("star", "concat", "alt") if depth else ()))
    if kind == "empty":
        return "_"
    if kind == "sym":
        return rng.choice(symbols)
    if kind == "star":
        return f"({_random_zone(rng, symbols, depth - 1)})*"
    parts = [_random_zone(rng, symbols, depth - 1) for _ in range(2)]
    return "(" + (" | " if kind == "alt" else " ").join(parts) + ")"


def _random_regex_set(rng, spec) -> ConfigAutomaton:
    """Some states, each with a regex set whose upper words are nonempty."""
    states = rng.sample(spec.states, rng.randint(1, len(spec.states)))
    return ConfigAutomaton(spec.alphabet, {
        state: compile_config_regex(
            f"{rng.choice(spec.alphabet)} {_random_zone(rng, spec.alphabet)} ^ "
            f"{_random_zone(rng, spec.alphabet)}",
            spec.alphabet,
        )
        for state in states
    })


def _count_smaller_than(reference, seed: int, runs: int = 200) -> int:
    """Over random systems, check that the over-approximation holds the
    size-capped forward closure and lies inside the reference's set
    (compaction is canonical, so the union with the larger set is that
    set); return on how many systems it is strictly smaller. The start
    sets alternate between regex sets with upper words and listed
    configurations, some with an empty lower word."""
    rng = random.Random(seed)
    smaller = 0
    for i in range(runs):
        spec = random_spec(rng)
        if i % 2:
            members = [random_configuration(rng, spec) for _ in range(rng.randint(1, 3))]
            configs = from_config_set(spec, members)
        else:
            configs = _random_regex_set(rng, spec)
        over = overapprox_post(spec, configs)
        starts = [(c.state, c.upper, c.lower) for c in configs.enumerate_configs(6)]
        _, reached = explore(spec, starts, lambda c: False, 6, links=False)
        for c in reached:
            assert over.accepts(Configuration(*c)), (i, c)
        larger = reference(spec, configs)
        assert union_sets(over, larger).compact().same(larger), i
        smaller += not over.same(larger)
    return smaller


def test_overapprox_is_sound_and_no_larger_than_through_the_extension():
    # Pinned: strictly smaller on 135 of the 200 sets. In the extension
    # the pop that ends the spelling forgets the lower top, so there the
    # abstraction starts every member's upper word on every top.
    assert _count_smaller_than(upper_reference.overapprox_post, 4111) == 135


def test_overapprox_is_sound_and_no_larger_than_with_the_projection_product():
    # Pinned: strictly smaller on 44 of the 600 sets. The projection
    # product pairs one member's upper word with another member's lower
    # word of the same state, which neither is a member nor need be
    # reachable; the over-approximation keeps only the members that no
    # rule can leave, those with an empty lower word.
    reference = upper_reference.overapprox_post_with_projections
    assert _count_smaller_than(reference, 5227, runs=600) == 44


def test_overapprox_reads_no_dead_part_of_a_set():
    # A barred edge into a dead end adds no member, and no first lower
    # symbol to start the abstraction from.
    rng = random.Random(3)
    for _ in range(60):
        spec = random_spec(rng)
        configs = from_config_set(spec, [random_configuration(rng, spec) for _ in range(2)])
        dead = {}
        for state, component in configs.components.items():
            component = component.copy()
            for node in list(component.initial):
                component.add_edge(node, bar(rng.choice(spec.alphabet)), "dead")
                component.add_edge("dead", rng.choice(spec.alphabet), "deader")
            dead[state] = component
        padded = ConfigAutomaton(spec.alphabet, dead)
        assert overapprox_post(spec, padded).same(overapprox_post(spec, configs))



def test_an_empty_component_starts_no_trace(e1, c1):
    # A component that accepts nothing may still have a plain edge out of
    # its barred zone; no trace of that state starts there.
    empty = Nfa(["i"])
    empty.add_edge("i", "x", "dead")
    configs = ConfigAutomaton(e1.alphabet, {**c1.components, "p2": empty})
    at = trace_overapprox(e1, configs)
    assert [node for node in at.nfa.initial if node[0] == "p2"] == []
    assert overapprox_post(e1, configs).same(overapprox_post(e1, c1))

def test_overapprox_start_set_with_a_loop_through_its_initial_node():
    # The set <p, (a b)^n, x> as a DFA whose initial node closes the
    # loop. One push into q, and the upper word loses its last symbol: a
    # push must not read the words that loop back into the initial node
    # as the empty word.
    spec = make_spec(("p", "q"), ("a", "b", "x", "y"), [("p", "x", "q", ("y", "x"))])
    loop = Nfa(["i"], ["f"])
    loop.add_edge("i", bar("a"), "m")
    loop.add_edge("m", bar("b"), "i")
    loop.add_edge("i", "x", "f")
    over = overapprox_post(spec, ConfigAutomaton(spec.alphabet, {"p": loop}))
    for probe, expect in [
        (cfg("p", "a b", "x"), True),
        (cfg("q", "", "y x"), True),
        (cfg("q", "a b a", "y x"), True),
        (cfg("q", "a b", "y x"), False),
        (cfg("p", "a", "x"), False),
    ]:
        assert over.accepts(probe) is expect, probe


def test_overapprox_empty_set(e1):
    over = overapprox_post(e1, ConfigAutomaton(e1.alphabet))
    assert over.is_empty()


def test_overapprox_rejects_alphabet_mismatch(e1, e2, c2):
    with pytest.raises(MalformedInputError):
        overapprox_post(e1, c2)


def test_upper_slice_drops_unreachable_states(e1, c1):
    at = trace_overapprox(e1, c1)
    au = saturate_upper(at, cfg("p", "", "x bot"))
    slices = upper_config_set(au)
    assert set(slices) <= set(e1.states)
