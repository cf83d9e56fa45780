import pytest
from hypothesis import given, settings, strategies as st

from upstack.configsets import (
    ConfigAutomaton,
    bar,
    config_from_word,
    config_word,
    equivalent_sets,
    from_config_set,
    intersect_sets,
    is_barred,
    project_lower,
    project_upper,
    unbar,
    union_sets,
    upper_lower_product,
)
from upstack.core import Configuration
from upstack.errors import MalformedInputError, ResourceLimitError
from upstack.nfa import EPSILON, Nfa, from_words
from upstack.oracle import oracle_post

from conftest import cfg, random_configuration, random_spec

import random


def test_bar_roundtrip():
    assert is_barred(bar("a"))
    assert not is_barred("a")
    assert unbar(bar("a")) == "a"
    with pytest.raises(MalformedInputError):
        unbar("a")


def test_config_word_layout():
    c = cfg("p", "a b", "x bot")
    assert config_word(c) == (bar("a"), bar("b"), "x", "bot")
    assert config_from_word("p", config_word(c)) == c


def test_config_from_word_rejects_barred_after_plain():
    with pytest.raises(MalformedInputError):
        config_from_word("p", ("x", bar("a")))


def test_from_config_set_membership(e1):
    configs = [cfg("p", "", "x bot"), cfg("p2", "a", "bot")]
    aut = from_config_set(e1, configs)
    for c in configs:
        assert aut.accepts(c)
    assert not aut.accepts(cfg("p", "a", "x bot"))
    assert not aut.accepts(cfg("p2", "", "bot"))
    aut.validate()


def test_from_config_set_checks_declarations(e1):
    with pytest.raises(MalformedInputError):
        from_config_set(e1, [cfg("nope", "", "bot")])
    with pytest.raises(MalformedInputError):
        from_config_set(e1, [cfg("p", "z", "bot")])


def test_validate_rejects_zone_violation():
    nfa = Nfa()
    nfa.add_initial(0)
    nfa.add_edge(0, "x", 1)
    nfa.add_edge(1, bar("a"), 2)
    nfa.add_final(2)
    aut = ConfigAutomaton(("a", "x"), {"p": nfa})
    with pytest.raises(MalformedInputError):
        aut.validate()


def test_validate_rejects_undeclared_symbol():
    nfa = Nfa()
    nfa.add_initial(0)
    nfa.add_edge(0, "z", 1)
    nfa.add_final(1)
    with pytest.raises(MalformedInputError):
        ConfigAutomaton(("a",), {"p": nfa}).validate()


def test_validate_allows_eps_and_mixed_paths():
    nfa = Nfa()
    nfa.add_initial(0)
    nfa.add_edge(0, bar("a"), 1)
    nfa.add_edge(1, EPSILON, 2)
    nfa.add_edge(2, "x", 3)
    nfa.add_edge(3, "x", 3)
    nfa.add_final(3)
    ConfigAutomaton(("a", "x"), {"p": nfa}).validate()


def test_union_and_intersection(e1):
    a = from_config_set(e1, [cfg("p", "a", "bot"), cfg("p2", "", "bot")])
    b = from_config_set(e1, [cfg("p", "a", "bot"), cfg("p", "b", "bot")])
    u = union_sets(a, b)
    for c in [cfg("p", "a", "bot"), cfg("p", "b", "bot"), cfg("p2", "", "bot")]:
        assert u.accepts(c)
    i = intersect_sets(a, b)
    assert i.accepts(cfg("p", "a", "bot"))
    assert not i.accepts(cfg("p", "b", "bot"))
    assert not i.accepts(cfg("p2", "", "bot"))


def test_alphabet_mismatch_rejected(e1, e2):
    a = from_config_set(e1, [cfg("p", "", "bot")])
    b = from_config_set(e2, [cfg("p", "", "c")])
    with pytest.raises(MalformedInputError):
        union_sets(a, b)
    with pytest.raises(MalformedInputError):
        intersect_sets(a, b)


def test_equivalent_sets_honours_the_node_budget(e1):
    # Words sharing a first symbol give nondeterministic components, whose
    # comparison needs a determinization.
    words = [cfg("p", "", "x y bot"), cfg("p", "", "x x bot")]
    a = from_config_set(e1, words)
    b = from_config_set(e1, list(reversed(words)))
    assert equivalent_sets(a, b)
    with pytest.raises(ResourceLimitError):
        equivalent_sets(a, b, node_budget=1)


def test_projections(e1):
    aut = from_config_set(
        e1, [cfg("p", "a b", "x bot"), cfg("p", "", "y bot"), cfg("p2", "a", "bot")]
    )
    lower = project_lower(aut)
    assert lower["p"].accepts(("x", "bot"))
    assert lower["p"].accepts(("y", "bot"))
    assert not lower["p"].accepts(("bot",))
    assert lower["p2"].accepts(("bot",))
    upper = project_upper(aut)
    assert upper["p"].accepts(("a", "b"))
    assert upper["p"].accepts(())
    assert not upper["p"].accepts(("a",))
    assert upper["p2"].accepts(("a",))


def test_shortest_config_and_enumerate(e1):
    configs = [cfg("p", "a b", "x bot"), cfg("p2", "", "bot"), cfg("p", "a", "bot")]
    aut = from_config_set(e1, configs)
    assert aut.shortest_config() == cfg("p2", "", "bot")
    assert set(aut.enumerate_configs(10)) == set(configs)
    assert ConfigAutomaton(e1.alphabet).shortest_config() is None


def test_upper_lower_product(e1):
    upper = {"p": from_words([("a",), ("a", "b")])}
    lower = {"p": from_words([("bot",), ("x", "bot")]), "p2": from_words([("bot",)])}
    aut = upper_lower_product(e1.alphabet, upper, lower)
    aut.validate()
    expected = {
        cfg("p", "a", "bot"),
        cfg("p", "a", "x bot"),
        cfg("p", "a b", "bot"),
        cfg("p", "a b", "x bot"),
    }
    assert set(aut.enumerate_configs(10)) == expected
    assert "p2" not in aut.components


def test_oracle_closure_roundtrips_through_automaton(e1):
    reached = oracle_post(e1, [cfg("p", "", "x bot")], depth=4, size_cap=6)
    aut = from_config_set(e1, reached)
    aut.validate()
    assert set(aut.enumerate_configs(6)) == set(reached)
    compacted = aut.compact()
    compacted.validate()
    assert equivalent_sets(aut, compacted)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_random_sets_roundtrip(seed, count):
    rng = random.Random(seed)
    spec = random_spec(rng)
    configs = {random_configuration(rng, spec) for _ in range(count)}
    aut = from_config_set(spec, configs)
    aut.validate()
    longest = max(c.total_size for c in configs)
    assert set(aut.enumerate_configs(longest)) == configs
    for c in configs:
        assert aut.accepts(c)
