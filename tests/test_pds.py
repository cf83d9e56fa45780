import random

import pytest
from hypothesis import given, settings, strategies as st

from upstack.configsets import from_config_set, project_lower
from upstack.core import UpdsSpec, make_spec, step
from upstack.errors import MalformedInputError, ResourceLimitError
from upstack.nfa import Nfa, from_words
from upstack.oracle import oracle_post, pds_closure, pds_reaches, pds_step
from upstack.pds import LowerAutomaton, pds_post_star, pds_pre_star, singleton_lower

from conftest import cfg, e1_spec, random_configuration, random_spec
from equivalence_reference import equivalent


def words(aut, state, max_len):
    return set(aut.words_up_to(state, max_len))


def test_singleton_and_slices(e1):
    aut = singleton_lower(e1, "p", ("x", "bot"))
    assert aut.accepts("p", ("x", "bot"))
    assert not aut.accepts("p", ("x",))
    assert not aut.accepts("p2", ("x", "bot"))
    assert equivalent(aut.slice("p"), from_words([("x", "bot")]))
    assert aut.slice("p2").is_empty()
    with pytest.raises(MalformedInputError):
        singleton_lower(e1, "p", ("z",))
    with pytest.raises(MalformedInputError):
        singleton_lower(e1, "nope", ("bot",))


def test_copy_keeps_the_entry_node_of_every_state(e1):
    aut = singleton_lower(e1, "p", ("a",))
    copied = aut.copy()
    assert copied.nfa.same(aut.nfa)
    # p2 has an empty slice: its entry node has no edges, yet it stays.
    assert all(entry in copied.nfa.nodes() for entry in copied.entries.values())


def test_from_slices_rejects_bad_input(e1):
    with pytest.raises(MalformedInputError):
        LowerAutomaton.from_slices(e1.states, e1.alphabet, {"nope": Nfa()})
    bad = Nfa()
    bad.add_initial(0)
    bad.add_edge(0, "z", 1)
    bad.add_final(1)
    with pytest.raises(MalformedInputError):
        LowerAutomaton.from_slices(e1.states, e1.alphabet, {"p": bad})


def test_no_rules_fixes_everything(e1):
    empty = UpdsSpec(states=e1.states, alphabet=e1.alphabet, rules=())
    aut = singleton_lower(e1, "p", ("x", "bot"))
    for direction in (pds_post_star, pds_pre_star):
        out = direction(empty, aut)
        for state in e1.states:
            assert words(out, state, 4) == words(aut, state, 4)


def test_post_star_e1_seed(e1):
    out = pds_post_star(e1, singleton_lower(e1, "p", ("x", "bot")))
    assert out.accepts("p", ("a", "bot"))
    assert out.accepts("p2", ("bot",))
    for n in range(3):
        assert out.accepts("p", ("a",) + ("b",) * n + ("bot",))
    assert not out.accepts("p2", ("a", "bot"))
    # Reference cap leaves headroom: a word of length 5 can have witnesses
    # passing through longer intermediates (push then pop).
    reference = pds_closure(e1, [("p", ("x", "bot"))], size_cap=8)
    for state in e1.states:
        assert words(out, state, 5) == {
            w for s, w in reference if s == state and len(w) <= 5
        }


def test_pre_star_examples(e1, e2):
    out = pds_pre_star(e2, singleton_lower(e2, "p", ("c",)))
    assert out.accepts("p", ("c", "c"))
    assert pds_reaches(e2, ("p", ("c", "c")), [("p", ("c",))], size_cap=6)

    out1 = pds_pre_star(e1, singleton_lower(e1, "p2", ("bot",)))
    assert out1.accepts("p", ("x", "bot"))
    assert pds_reaches(e1, ("p", ("x", "bot")), [("p2", ("bot",))], size_cap=6)


def test_pds_reaches_passes_its_node_budget_as_the_budget():
    # Reaching a^6 from a needs six stored configurations; a budget of
    # two must stop the closure, not bound its depth.
    spec = make_spec(("p",), ("a",), [("p", "a", "p", ("a", "a"))])
    source, goal = ("p", ("a",)), [("p", ("a",) * 6)]
    assert pds_reaches(spec, source, goal, 6)
    with pytest.raises(ResourceLimitError):
        pds_reaches(spec, source, goal, 6, node_budget=2)


def test_saturation_is_a_fixpoint(e1, e2):
    for spec, seed in ((e1, ("p", ("x", "bot"))), (e2, ("p", ("c",)))):
        post = pds_post_star(spec, singleton_lower(spec, *seed))
        again = pds_post_star(spec, post)
        assert again.nfa.edge_count() == post.nfa.edge_count()
        pre = pds_pre_star(spec, singleton_lower(spec, *seed))
        again = pds_pre_star(spec, pre)
        assert again.nfa.edge_count() == pre.nfa.edge_count()


def test_accepts_via_config_automaton_projection(e1):
    configs = [cfg("p", "a b", "x bot"), cfg("p2", "", "bot")]
    lower = project_lower(from_config_set(e1, configs))
    aut = LowerAutomaton.from_slices(e1.states, e1.alphabet, lower)
    assert aut.accepts("p", ("x", "bot"))
    assert aut.accepts("p2", ("bot",))
    assert not aut.accepts("p", ("bot",))


def _closure_members(spec, seeds, cap):
    return pds_closure(spec, seeds, size_cap=cap)


def _post_agrees_with_closure(spec, seeds, check_len):
    """Compare saturation with the bounded explorer; escalate the explorer's
    cap before declaring a missing witness, so cap artifacts do not produce
    false alarms."""
    aut = LowerAutomaton.from_slices(
        spec.states, spec.alphabet, {s: from_words([w]) for s, w in seeds}
    )
    post = pds_post_star(spec, aut)
    reference = _closure_members(spec, seeds, cap=check_len + 4)
    for state, word in reference:
        if len(word) <= check_len:
            assert post.accepts(state, word), (spec.rules, state, word)
    for state in spec.states:
        for word in words(post, state, check_len):
            if (state, word) in reference:
                continue
            deep = _closure_members(spec, seeds, cap=check_len + 8)
            assert (state, word) in deep, (spec.rules, state, word)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_post_star_exact_on_random_specs(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    start = random_configuration(rng, spec, allow_empty_lower=False)
    _post_agrees_with_closure(spec, [(start.state, start.lower)], check_len=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_pre_star_exact_on_random_specs(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    goal = random_configuration(rng, spec, allow_empty_lower=False)
    pre = pds_pre_star(spec, singleton_lower(spec, goal.state, goal.lower))
    for state in spec.states:
        for word in words(pre, state, 4):
            assert pds_reaches(
                spec, (state, word), [(goal.state, goal.lower)], size_cap=12
            ), (spec.rules, state, word)
    # Completeness: anything the explorer drives into the goal is accepted.
    for state in spec.states:
        for word in _all_words(spec.alphabet, 3):
            if pds_reaches(spec, (state, word), [(goal.state, goal.lower)], size_cap=7):
                assert pre.accepts(state, word), (spec.rules, state, word)


def _all_words(alphabet, max_len):
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (s,) for w in layer for s in alphabet]
        out.extend(layer)
    return out


def _trace_set(stepper, root, depth):
    out = {()}
    frontier = [((), root)]
    for _ in range(depth):
        nxt = []
        for trace, node in frontier:
            for rule, succ in stepper(node):
                t = trace + (rule,)
                out.add(t)
                nxt.append((t, succ))
        frontier = nxt
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_trace_sets_agree_between_both_readings(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    c = random_configuration(rng, spec)
    upds = _trace_set(lambda cc: step(spec, cc), c, depth=6)
    lower = _trace_set(
        lambda pair: pds_step(spec, *pair), (c.state, c.lower), depth=6
    )
    assert upds == lower


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lower_projection_of_closure_matches(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    c = random_configuration(rng, spec)
    cap = c.total_size + 6
    forward = oracle_post(spec, [c], depth=6, size_cap=cap)
    projected = {(d.state, d.lower) for d in forward}
    reference = pds_closure(spec, [(c.state, c.lower)], size_cap=cap, depth=6)
    assert projected == reference


def test_lower_projection_matches_on_fixtures(e1, e2):
    for spec, seed in ((e1, cfg("p", "", "x y x bot")), (e2, cfg("p", "", "c"))):
        cap = seed.total_size + 6
        forward = oracle_post(spec, [seed], depth=6, size_cap=cap)
        projected = {(d.state, d.lower) for d in forward}
        reference = pds_closure(spec, [(seed.state, seed.lower)], size_cap=cap, depth=6)
        assert projected == reference
