import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from upstack.configsets import ConfigAutomaton, from_config_set
from upstack.core import Configuration, UpdsSpec
from upstack.errors import MalformedInputError, ResourceLimitError
from upstack.grammar import (
    BOTTOM,
    TOP,
    build_post_grammar,
    encode_config,
    is_reachable,
    single_origin,
    state_terminal,
    symbol_terminal,
)
from upstack.oracle import oracle_post
from upstack.regex import compile_config_regex

from conftest import (
    c1_automaton,
    c2_automaton,
    cfg,
    e1_pumped,
    e1_seed,
    random_configuration,
    random_spec,
)
from derivations import derivable_forms, derivable_words

SATURATE = 10**6


@pytest.fixture(scope="module")
def e1_so():
    spec = __import__("conftest").e1_spec()
    return spec, single_origin(spec, c1_automaton(spec))


@pytest.fixture(scope="module")
def e1_grammar(e1_so):
    _, so = e1_so
    return build_post_grammar(so)


@pytest.fixture(scope="module")
def e1_words(e1_grammar):
    """Every terminal word of length <= 7: configurations of size <= 4."""
    return derivable_words(e1_grammar, 7)


def test_extension_reaches_the_seed_members(e1_so):
    _, so = e1_so
    reached = oracle_post(so.spec, [so.origin], depth=SATURATE, size_cap=4)
    assert cfg("p", "", "x bot") in reached
    assert cfg("p", "", "x y x bot") in reached
    assert so.origin in reached


def test_extension_spells_upper_words(e1):
    start = from_config_set(e1, [cfg("p", "a b", "bot")])
    so = single_origin(e1, start)
    reached = oracle_post(so.spec, [so.origin], depth=SATURATE, size_cap=4)
    assert cfg("p", "a b", "bot") in reached


def test_extension_with_no_rules_reaches_exactly_the_start_set():
    spec = UpdsSpec(states=("p",), alphabet=("a",), rules=())
    so = single_origin(spec, from_config_set(spec, [cfg("p", "", "a")]))
    reached = oracle_post(so.spec, [so.origin], depth=SATURATE, size_cap=3)
    at_original = {c for c in reached if c.state in spec.states}
    assert at_original == {cfg("p", "", "a")}


def _original_slice(so, reached):
    return {c for c in reached if c.state in so.original_states}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_extension_matches_direct_closure(seed, count):
    """Totals never shrink, so a capped fixpoint closure is exact on the
    capped region; the extension must agree with closing over the start
    set directly, state for state."""
    rng = random.Random(seed)
    spec = random_spec(rng)
    members = {
        random_configuration(rng, spec, allow_empty_lower=False) for _ in range(count)
    }
    cap = 4
    start = from_config_set(spec, members)
    so = single_origin(spec, start)
    extended = _original_slice(
        so, oracle_post(so.spec, [so.origin], depth=SATURATE, size_cap=cap)
    )
    direct = oracle_post(
        spec, [m for m in members if m.total_size <= cap], depth=SATURATE, size_cap=cap
    )
    assert extended == direct


def test_encode_layout():
    c = cfg("p", "a b", "x bot")
    assert encode_config(c) == (
        TOP,
        symbol_terminal("a"),
        symbol_terminal("b"),
        state_terminal("p"),
        symbol_terminal("x"),
        symbol_terminal("bot"),
        BOTTOM,
    )


def test_grammar_is_noncontracting(e1_grammar):
    assert e1_grammar.noncontracting_violations() == []


def test_grammar_derives_the_origin(e1_so, e1_words):
    _, so = e1_so
    assert encode_config(so.origin) in e1_words


def test_grammar_derives_pumped_family(e1_words):
    assert encode_config(e1_pumped(0)) in e1_words
    assert encode_config(e1_pumped(1)) in e1_words


def test_grammar_rejects_unbalanced_configs(e1_words):
    assert encode_config(cfg("p2", "a a", "bot")) not in e1_words
    assert encode_config(cfg("p2", "", "bot")) not in e1_words


def test_grammar_rejects_nonterminal_input(e1_grammar, e1_words):
    forms = derivable_forms(e1_grammar, 6)
    assert any(s in e1_grammar.nonterminals for form in forms for s in form)
    assert all(s in e1_grammar.terminals for word in e1_words for s in word)
    assert (TOP, ("B.st", "p"), BOTTOM) not in e1_words


def test_budget_error_is_honest(e1_grammar):
    with pytest.raises(ResourceLimitError) as err:
        derivable_forms(e1_grammar, 6, form_budget=50)
    assert err.value.explored <= 51


def test_derivable_words_match_saturated_closure(e1_so, e1_grammar):
    _, so = e1_so
    cap = 3
    reached = oracle_post(so.spec, [so.origin], depth=SATURATE, size_cap=cap)
    expected = {encode_config(c) for c in reached}
    got = {w for w in derivable_words(e1_grammar, cap + 3)}
    assert got == expected


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_random_grammars_match_their_closures(seed):
    rng = random.Random(seed)
    spec = random_spec(rng, max_states=2, max_symbols=2, max_rules=4)
    member = random_configuration(rng, spec, max_side=1, allow_empty_lower=False)
    so = single_origin(spec, from_config_set(spec, [member]))
    grammar = build_post_grammar(so)
    assert grammar.noncontracting_violations() == []
    cap = 3
    reached = oracle_post(so.spec, [so.origin], depth=SATURATE, size_cap=cap)
    expected = {encode_config(c) for c in reached}
    got = derivable_words(grammar, cap + 3)
    assert got == expected


def _tag_neighbour_violations(grammar, forms):
    """Push tags travel as a glued pair: the carrier tag sits right of its
    spawner or of an upper symbol or of the left fence, and the spawned
    tag keeps either the carrier or its own written symbol to its right."""
    by_index = {}
    for lhs, rhs in grammar.productions:
        for part in lhs + rhs:
            if part[0] in ("r0", "r1"):
                by_index.setdefault(part[1], {})[part[0]] = part
    bad = []
    for form in forms:
        for i, symbol in enumerate(form):
            if symbol[0] == "r0":
                left = form[i - 1] if i else None
                ok = left == by_index[symbol[1]].get("r1") or left == TOP
                ok = ok or (left is not None and left[0] == "B.sym")
                if not ok:
                    bad.append((form, i))
            if symbol[0] == "r1":
                right = form[i + 1] if i + 1 < len(form) else None
                partner = by_index[symbol[1]].get("r0")
                ok = right == partner or (right is not None and right[0] == "B.sym")
                if not ok:
                    bad.append((form, i))
    return bad


def test_push_tags_stay_glued(e1_so, e1_grammar):
    forms = derivable_forms(e1_grammar, 6)
    assert _tag_neighbour_violations(e1_grammar, forms) == []


def test_forms_carry_unique_control_markers(e1_grammar):
    """One state position and at most one rule tag ever exist: the state
    marker (or its decoded terminal) is unique, and a second tag cannot be
    born while one is alive because every birth needs a plain symbol
    marker right of the state marker."""
    for form in derivable_forms(e1_grammar, 6):
        kinds = [s[0] for s in form]
        assert kinds.count("B.st") + kinds.count("st") <= 1
        assert kinds.count("r") + kinds.count("r0") <= 1
        assert kinds.count("r1") <= 1


def test_is_reachable_uses_membership_and_start_set(e1, c1):
    assert is_reachable(e1, c1, e1_seed(2))
    assert is_reachable(e1, c1, e1_pumped(0))
    assert not is_reachable(e1, c1, cfg("p2", "a a", "bot"))
    with pytest.raises(MalformedInputError):
        is_reachable(e1, c1, cfg("nope", "", "bot"))


def test_is_reachable_budget_error_is_honest(e1, c1):
    with pytest.raises(ResourceLimitError) as err:
        is_reachable(e1, c1, e1_pumped(1), budget=10)
    assert err.value.explored <= 11


def _random_start_set(rng, spec):
    """One or two configurations, or a small infinite automaton; no member
    has an empty lower stack (the grammar cannot spell those)."""
    if rng.random() < 0.5:
        members = {
            random_configuration(rng, spec, max_side=1, allow_empty_lower=False)
            for _ in range(rng.randint(1, 2))
        }
        return from_config_set(spec, members)
    up, low, tail = (rng.choice(spec.alphabet) for _ in range(3))
    component = compile_config_regex(f"{up}* ^ {low} {tail}*", alphabet=spec.alphabet)
    return ConfigAutomaton(spec.alphabet, {rng.choice(spec.states): component})


def _configurations_up_to(spec, size):
    for state in spec.states:
        for n in range(size + 1):
            for word in itertools.product(spec.alphabet, repeat=n):
                for cut in range(n + 1):
                    yield Configuration(state, word[:cut], word[cut:])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_is_reachable_agrees_with_the_grammar(seed):
    rng = random.Random(seed)
    spec = random_spec(rng, max_states=2, max_symbols=2, max_rules=4)
    start = _random_start_set(rng, spec)
    cap = 3
    words = derivable_words(build_post_grammar(single_origin(spec, start)), cap + 3)
    for c in _configurations_up_to(spec, cap):
        assert is_reachable(spec, start, c) == (encode_config(c) in words), c


def test_is_reachable_handles_empty_lower_members():
    spec = UpdsSpec(states=("p",), alphabet=("a",), rules=())
    start = from_config_set(spec, [cfg("p", "a", "")])
    assert is_reachable(spec, start, cfg("p", "a", ""))
    assert not is_reachable(spec, start, cfg("p", "", "a"))


def test_is_reachable_reaches_empty_lower_configs():
    spec = UpdsSpec(
        states=("p",),
        alphabet=("a",),
        rules=(__import__("upstack.core", fromlist=["Rule"]).Rule("p", "a", "p", ()),),
    )
    start = from_config_set(spec, [cfg("p", "", "a")])
    assert is_reachable(spec, start, cfg("p", "a", ""))


def test_e2_grammar_noncontracting(e2, c2):
    so = single_origin(e2, c2_automaton(e2))
    grammar = build_post_grammar(so)
    assert grammar.noncontracting_violations() == []
